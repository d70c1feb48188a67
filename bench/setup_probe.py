"""Time the set-up that every lplorentz CLI invocation pays, in a fresh process.

Usage: ``python3 bench/setup_probe.py WORKLOAD SCRATCH_DIR`` with ``src`` on
``PYTHONPATH``.  Times the import of ``lplorentz.cli`` plus one warm-up op
of each op shape of the workload at its smallest accepted size, and prints
``{"setup_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    workload, scratch = sys.argv[1], Path(sys.argv[2])
    out = scratch / f"setup-{workload}.out"
    start = time.perf_counter()
    import lplorentz.cli

    for shape in WORKLOADS[workload]:
        seed = ["--seed", str(DEFAULT_SEED)] if shape.seeded else []
        code = lplorentz.cli.main([*shape.warmup, *seed, "--out", str(out)])
        if code != 0:
            print(f"warm-up of {shape.name} exited {code}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
