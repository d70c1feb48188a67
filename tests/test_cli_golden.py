"""Golden-output tests: the CLI's stdout for a fixed set of commands, compared
with recorded reports under ``tests/golden/``.

Every report runs without ``--out``, so the ``# config:`` line holds no path.
The comparison is exact bytes; ``norm`` reports are compared on their
``norm`` value only, because the ``params`` echo holds the path of the
temporary field file.

After an intended change of the output, re-record every golden file with
``PYTHONPATH=src python3 tests/test_cli_golden.py`` and review the diff of
``tests/golden/`` before committing it.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lplorentz.cli import main
from lplorentz.spectral import GridSpec, SampledField, save_field

GOLDEN = Path(__file__).with_name("golden")

_README_CASE = ["--alpha", "0.25", "--beta", "0.25", "--q0", "1", "--q1", "inf"]
_VERIFY_CASES = {"readme": ["--r0", "2", "--r1", "2"], "weak": ["--r0", "inf", "--r1", "inf"]}
_GENERATORS = ("single-block", "multi-block-random", "lacunary", "atomic")
_CHECKS = ("k-equivalence", "layer-cake", "partition", "duality", "reiteration")

# golden file stem -> argv of a report written to stdout
REPORTS = {
    **{
        f"verify-{gen}-{case}": [
            "verify", *_README_CASE, *exps, "--auto-r-star", "--generator", gen,
            "--count", "6", "--grid", "1024",
        ]
        for gen in _GENERATORS
        for case, exps in _VERIFY_CASES.items()
    },
    **{
        f"verify-{gen}-readme-json": [
            "verify", *_README_CASE, *_VERIFY_CASES["readme"], "--auto-r-star", "--generator", gen,
            "--count", "6", "--grid", "1024", "--format", "json",
        ]
        for gen in ("atomic", "single-block")
    },
    **{f"interp-{check}": ["interp", "--check", check, "--suite-size", "40"] for check in _CHECKS},
    **{
        f"interp-{check}-json": ["interp", "--check", check, "--format", "json", "--suite-size", "40"]
        for check in ("duality", "partition", "reiteration")
    },
    # Lorentz endpoints and a partition at q0 = 1.5, q1 = 6
    "interp-reiteration-lorentz": [
        "interp", "--check", "reiteration", "--q0", "1.5", "--q1", "6", "--r", "2.5", "--theta", "0.7",
        "--suite-size", "40",
    ],
    "interp-partition-q": [
        "interp", "--check", "partition", "--q0", "1.5", "--q1", "6", "--r", "2.5", "--suite-size", "40",
    ],
    "sharpness-composed": ["sharpness", *_README_CASE, "--r0", "2", "--r1", "2", "--Lmax", "128"],
    "sharpness-merge": [
        "sharpness", *_README_CASE, "--r0", "4", "--r1", "4", "--Lmin", "128", "--Lmax", "1024",
    ],
}

# golden file stem -> norm flags, evaluated on the field of ``_write_cosine_field``
NORMS = {
    "norm-lebesgue": ["--space", "lebesgue", "--p", "3"],
    "norm-lorentz": ["--space", "lorentz", "--p", "2", "--r", "1"],
    "norm-besov": ["--space", "besov", "--s", "0.5", "--p", "2", "--q", "inf"],
    "norm-triebel": ["--space", "triebel", "--s", "0.5", "--p", "2", "--q", "2"],
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def _write_cosine_field(directory: Path) -> Path:
    grid = GridSpec(1, 1024, 2.0 * math.pi)
    x = grid.axis_coordinates()
    return save_field(SampledField(grid, np.cos(4.0 * x) + 0.5 * np.sin(32.0 * x)), directory / "field.json")


def _norm_value(field: Path, flags) -> str:
    return json.dumps({"norm": json.loads(_run(["norm", "--input", str(field), *flags]))["norm"]}) + "\n"


def _assert_same_report(name: str, got: str, want: str) -> None:
    """Exact bytes; a mismatch names its first differing line."""
    for number, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        assert g == w, f"{name}, line {number}:\n  got  {g}\n  want {w}"
    assert got == want, f"{name}: line count changed"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    _assert_same_report(name, _run(REPORTS[name]), (GOLDEN / f"{name}.txt").read_text())


def test_commands_share_one_process(capsys):
    # The parser and the sweep atom are built once per process: interleaved
    # commands still match their golden reports, a flag left out of a later
    # call takes its default again, and a bad flag still exits 2.
    for name in ("sharpness-composed", "verify-atomic-readme", "interp-duality", "sharpness-composed",
                 "interp-layer-cake", "verify-single-block-readme-json", "sharpness-composed"):
        _assert_same_report(name, _run(REPORTS[name]), (GOLDEN / f"{name}.txt").read_text())
    explicit = _run([*REPORTS["sharpness-composed"], "--r", "2"])
    assert '"r": 2.0' in explicit.splitlines()[0]
    default = _run(REPORTS["sharpness-composed"])
    assert '"r": null' in default.splitlines()[0]
    assert main([*REPORTS["sharpness-composed"], "--q1", "0.5"]) == 2
    assert main(["verify", "--no-such-flag"]) == 2
    assert capsys.readouterr().out == ""


def test_norm_values_match_golden(tmp_path):
    field = _write_cosine_field(tmp_path)
    for name, flags in NORMS.items():
        assert _norm_value(field, flags) == (GOLDEN / f"{name}.txt").read_text(), name


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in REPORTS.items():
        (GOLDEN / f"{name}.txt").write_text(_run(argv))
    with tempfile.TemporaryDirectory() as tmp:
        field = _write_cosine_field(Path(tmp))
        for name, flags in NORMS.items():
            (GOLDEN / f"{name}.txt").write_text(_norm_value(field, flags))
    print(f"recorded {len(REPORTS) + len(NORMS)} golden files in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
