"""Golden-output tests: the CLI's stdout for a fixed set of commands, compared
with recorded reports under ``tests/golden/``.

Every report runs without ``--out``, so the ``# config:`` line holds no path.
The comparison is exact bytes, with two exceptions (neither applies to the
JSON reports, which pin the ``summary`` object and compare as exact bytes):

- the ``lhs`` and ``ratio`` cells of the ``layer-cake`` and ``reiteration``
  interp reports are compared at relative tolerance ``4e-15``, because their
  scale sums depend on the summation order of a few floats;
- ``norm`` reports are compared on their ``norm`` value only, because the
  ``params`` echo holds the path of the temporary field file.

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
    "interp-duality-json": ["interp", "--check", "duality", "--format", "json", "--suite-size", "40"],
    "sharpness-composed": ["sharpness", *_README_CASE, "--r0", "2", "--r1", "2", "--Lmax", "128"],
    "sharpness-merge": [
        "sharpness", *_README_CASE, "--r0", "4", "--r1", "4", "--Lmin", "128", "--Lmax", "1024",
    ],
}

# (report, column) whose cells are compared at relative tolerance 4e-15
_LOOSE = {(f"interp-{check}", col) for check in ("layer-cake", "reiteration") for col in ("lhs", "ratio")}

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
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{name}: line count changed"
    columns = want_lines[1].split(",") if len(want_lines) > 1 else []
    for number, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g == w:
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells) == len(columns) and number > 2, (
            f"{name}, line {number}:\n  got  {g}\n  want {w}"
        )
        for col, gc, wc in zip(columns, g_cells, w_cells):
            if gc == wc:
                continue
            assert (name, col) in _LOOSE, f"{name}, line {number}, {col}: got {gc}, want {wc}"
            assert float(gc) == pytest.approx(float(wc), rel=4e-15, abs=0.0), (
                f"{name}, line {number}, {col}: got {gc}, want {wc}"
            )


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    _assert_same_report(name, _run(REPORTS[name]), (GOLDEN / f"{name}.txt").read_text())


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
