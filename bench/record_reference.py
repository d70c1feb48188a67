"""Record the reference digests that ``run.py`` compares reports against.

Usage, from the root of a source checkout::

    python3 bench/record_reference.py

Writes ``bench/reference.json``: for the default seed, the digest of each of
the first ``REFERENCE_OPS`` ops of the seeded workloads, and for each
sharpness shape (which takes no seed) the digest of its one report.
Re-record only when a change of the mathematics is intended.
"""

import itertools
import json
import sys
import tempfile
from pathlib import Path

from harness import run_op
from workloads import DEFAULT_SEED, WORKLOADS, check_report, schedule

BENCH = Path(__file__).resolve().parent
REFERENCE_OPS = 640


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import lplorentz.cli

    refs = {}
    build = BENCH.parent / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        out = Path(tmp) / "report.out"
        for workload, shapes in WORKLOADS.items():
            seeded = all(shape.seeded for shape in shapes)
            count = REFERENCE_OPS if seeded else len(shapes)
            digests = {}
            for op in itertools.islice(schedule(workload, DEFAULT_SEED), count):
                code, err = run_op(lplorentz.cli.main, op, out)
                if code != 0:
                    raise SystemExit(f"op {op.index} {op.shape.name} exited {code}: {err.strip()}")
                digests[op.index if seeded else op.shape.name] = check_report(out, op.shape)
            refs[workload] = list(digests.values()) if seeded else digests
    (BENCH / "reference.json").write_text(format_references(refs))
    return 0


def format_references(refs: dict) -> str:
    """JSON with one digest per line."""
    blocks = []
    for workload, digests in sorted(refs.items()):
        if isinstance(digests, list):
            lines = [json.dumps(d) for d in digests]
            body = "[\n" + ",\n".join(lines) + "\n]"
        else:
            lines = [f"{json.dumps(k)}: {json.dumps(d)}" for k, d in sorted(digests.items())]
            body = "{\n" + ",\n".join(lines) + "\n}"
        blocks.append(f"{json.dumps(workload)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
