"""Closed-loop measurement of lplorentz CLI ops, with one client.

The next op starts only after the previous one has finished and its report
has been checked.  :func:`measure` takes the CLI entry point as an argument,
so the self-test can drive it with a fake.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CheckFailed, check_report, matches_reference, report_paths

# A percentile is reported only when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile; refuses when fewer than
    :data:`SAMPLES_BEYOND` samples lie above it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < SAMPLES_BEYOND:
        raise ValueError(
            f"p{round(100 * q)} needs {SAMPLES_BEYOND} samples beyond it; have {len(ordered)} samples"
        )
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count for which :func:`percentile` accepts ``q``."""
    n = 1
    while n - math.ceil(q * n) < SAMPLES_BEYOND:
        n += 1
    return n


@dataclass
class Measurement:
    latencies_ms: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    reference_checked: int = 0
    failures: list[str] = field(default_factory=list)
    per_shape_ms: dict[str, list[float]] = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s

    def __iadd__(self, other: "Measurement") -> "Measurement":
        self.latencies_ms += other.latencies_ms
        self.items += other.items
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.reference_checked += other.reference_checked
        self.failures += other.failures[: max(0, 5 - len(self.failures))]
        for name, times in other.per_shape_ms.items():
            self.per_shape_ms.setdefault(name, []).extend(times)
        return self


def run_op(main, op, out: Path) -> tuple[int, str]:
    """Run one op in-process; return its exit code and what it wrote to stderr."""
    for path in report_paths(out):
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(op.argv(out))
    return code, err.getvalue()


def measure(main, ops, seconds: float, out: Path, *, min_ops: int = 1, cycle: int = 1,
            reference=None, on_op=None) -> Measurement:
    """Run ops from the iterator ``ops`` until ``seconds`` have passed, at
    least ``min_ops`` ops were attempted and the last cycle is complete.

    An op fails when it exits nonzero, its report breaks a check, or its
    digest differs from ``reference(op)`` (when that returns a value).  A
    failed op adds its time but no items.
    """
    m = Measurement()
    start = time.perf_counter()
    for op in ops:
        if on_op is not None:
            on_op(op)
        t0 = time.perf_counter()
        code, err = run_op(main, op, out)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        m.attempted += 1
        m.latencies_ms.append(elapsed_ms)
        m.per_shape_ms.setdefault(op.shape.name, []).append(elapsed_ms)
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {(err.strip().splitlines() or [''])[-1]}")
            digest = check_report(out, op.shape)
            expected = reference(op) if reference is not None else None
            if expected is not None:
                m.reference_checked += 1
                if not matches_reference(digest, expected):
                    raise CheckFailed(f"digest {digest} differs from reference {expected}")
            m.items += op.shape.size
        except CheckFailed as exc:
            m.failed += 1
            if len(m.failures) < 5:
                m.failures.append(f"op {op.index} {op.shape.name}: {exc}")
        if (time.perf_counter() - start >= seconds and m.attempted >= min_ops
                and m.attempted % cycle == 0):
            break
    m.wall_s = time.perf_counter() - start
    return m


def summarize(m: Measurement) -> dict:
    """End-to-end figures of one measurement, with units and sample counts."""
    n = len(m.latencies_ms)
    return {
        "items_per_s": {"value": m.items_per_s, "unit": "1/s", "items": m.items, "wall_s": m.wall_s},
        "op_ms_p50": {"value": percentile(m.latencies_ms, 0.5), "unit": "ms", "samples": n},
        "op_ms_p90": {"value": percentile(m.latencies_ms, 0.9), "unit": "ms", "samples": n},
        "failed_fraction": {"value": m.failed / m.attempted, "unit": "1", "failed": m.failed,
                            "attempted": m.attempted},
    }


def subprocess_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(probe: Path, workload: str, src: Path, scratch: Path, repeats: int) -> list[float]:
    """Set-up time of ``repeats`` fresh processes, each timed by the probe itself."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(scratch)],
            env=subprocess_env(src), capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_cli_process(argv: list[str], src: Path) -> dict:
    """Run the CLI as a user would, in its own process; report how it ended."""
    proc = subprocess.run(
        [sys.executable, "-m", "lplorentz.cli", *argv],
        env=subprocess_env(src), capture_output=True, text=True, timeout=120, check=False,
    )
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return {"argv": argv, "exit_code": proc.returncode, "stderr_last_line": last[0]}


def _cache_size(level: int) -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                return (index / "size").read_text().strip()
        except OSError:
            return None
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "workload_seed": workload_seed,
    }
