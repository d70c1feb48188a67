"""End-to-end and per-layer benchmark of the lplorentz CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload verify_suite --seed 0 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json``.  Each drives
``lplorentz.cli.main`` in-process with one client (closed loop), on inputs
derived from ``--seed``, and checks every report before the op counts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles in which every public lplorentz function is
wrapped, and prints per-layer metrics per traced op plus the tracing
overhead.

The second-to-last line of standard output is the full report (environment,
sample counts, failures, the known-defect probe); the last line is the
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import (
    Measurement,
    environment,
    measure,
    min_samples,
    run_cli_process,
    run_op,
    summarize,
    time_setup,
)
from tracer import Tracer
from workloads import DEFAULT_SEED, KNOWN_DEFECT, WORKLOADS, Op, check_report, schedule

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPEATS = 5

# The metrics of the result line, each with a bound in BENCHMARK.json.
# op_ms_p50, op_ms_p90 and failed_fraction are in the report line only:
# see "Host noise" in bench/NOTES.md.
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (metric name, span name in the per-op table, field, unit)
PER_LAYER = [
    *[(f"{span}.self_ms", span, "self_ms", "ms") for span in (
        "cli.main",
        "cli.emit_report",
        "inequalities.run_suite",
        "inequalities.verify_case",
        "inequalities.generate_field",
        "inequalities.generate_field.single-block",
        "inequalities.generate_field.multi-block-random",
        "inequalities.generate_field.lacunary",
        "inequalities.generate_field.atomic",
        "spectral.decompose",
        "spectral.reconstruct",
        "norms.rearrangement",
        "norms.lorentz_norm",
        "norms.besov_seminorm",
        "norms.lebesgue_norm",
        "interpolation.interpolation_norm_K",
        "interpolation.layer_cake_decompose",
        "interpolation.j_sum_functional",
        "interpolation.ell_partition",
        "interpolation.reiteration_check",
        "interpolation.run_interp_suite",
        "sharpness.growth_experiment",
        "sharpness.atomic_distribution",
        "sharpness.atomic_besov_upper",
        "sharpness.build_atom",
    )],
    ("cli.emit_report.bytes", "cli.emit_report", "bytes", "bytes"),
    ("spectral.decompose.calls", "spectral.decompose", "calls", "count"),
    ("spectral.decompose.points", "spectral.decompose", "points", "count"),
    ("norms.rearrangement.calls", "norms.rearrangement", "calls", "count"),
    ("norms.rearrangement.entries", "norms.rearrangement", "entries", "count"),
    ("interpolation.interpolation_norm_K.panels", "interpolation.interpolation_norm_K", "panels", "count"),
    ("sharpness.atomic_distribution.entries", "sharpness.atomic_distribution", "entries", "count"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_cli():
    """Import ``lplorentz.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "lplorentz" / "cli.py").is_file():
        raise SystemExit(f"error: no lplorentz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lplorentz.cli

    if Path(lplorentz.cli.__file__).resolve().parent != SRC / "lplorentz":
        raise SystemExit(f"error: lplorentz imported from {lplorentz.cli.__file__}, not from {SRC}")
    return lplorentz.cli


def _reference_lookup(workload: str, seed: int):
    """Reference digests recorded from the program for the default seed.

    Sharpness sweeps take no seed, so their references hold for every seed.
    """
    refs = json.loads((BENCH / "reference.json").read_text())[workload]

    def lookup(op: Op):
        if isinstance(refs, dict):
            return refs.get(op.shape.name)
        if seed == DEFAULT_SEED and op.index < len(refs):
            return refs[op.index]
        return None

    return lookup


def _warm_up(cli, workload: str, out: Path) -> None:
    """One untimed full-size op of each shape, so lazy caches are filled."""
    for shape in WORKLOADS[workload]:
        op = Op(-1, shape, DEFAULT_SEED if shape.seeded else None)
        code, err = run_op(cli.main, op, out)
        if code != 0:
            raise SystemExit(f"error: warm-up op {shape.name} exited {code}: {err.strip()}")
        check_report(out, shape)


def _end_to_end(cli, args, scratch: Path, out: Path, report: dict):
    setup_times = time_setup(BENCH / "setup_probe.py", args.workload, SRC, scratch, SETUP_REPEATS)
    _warm_up(cli, args.workload, out)
    m = measure(
        cli.main,
        schedule(args.workload, args.seed),
        args.seconds,
        out,
        min_ops=min_samples(0.9),
        cycle=len(WORKLOADS[args.workload]),
        reference=_reference_lookup(args.workload, args.seed),
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = summarize(m)
    figures["setup_s"] = {"value": statistics.median(setup_times), "unit": "s", "samples": setup_times}
    figures["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    report["metrics"] = figures
    report["reference_checked_ops"] = m.reference_checked
    report["per_shape_op_ms_p50"] = {
        name: statistics.median(times) for name, times in sorted(m.per_shape_ms.items())
    }
    report["failures"] = m.failures
    if args.workload == "sharpness_sweep":
        probe = run_cli_process([*KNOWN_DEFECT.argv, "--out", str(scratch / "defect.csv")], SRC)
        probe["defect_present"] = probe["exit_code"] != 0
        report["known_defect_probe"] = probe
    metrics = {name: {"value": figures[name]["value"], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return m, metrics


def _per_layer(cli, args, out: Path, report: dict):
    """Alternate untraced and traced cycles for ``--seconds``, so both see
    the same drift of the host, and return per-op figures of the traced ones."""
    _warm_up(cli, args.workload, out)
    cycle = len(WORKLOADS[args.workload])
    one_cycle = {"min_ops": cycle, "cycle": cycle, "reference": _reference_lookup(args.workload, args.seed)}
    ops = schedule(args.workload, args.seed)
    tracer = Tracer()
    plain, traced = Measurement(), Measurement()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        plain += measure(cli.main, ops, 0.0, out, **one_cycle)
        tracer.install()
        try:
            # cli.main is looked up again here, so the traced wrapper is the one called.
            traced += measure(cli.main, ops, 0.0, out,
                              on_op=lambda op: setattr(tracer, "op", op.index), **one_cycle)
        finally:
            tracer.uninstall()
    table = tracer.per_op(traced.attempted)
    metrics = {
        name: {"value": table.get(span, {}).get(field, 0.0), "unit": unit}
        for name, span, field, unit in PER_LAYER
    }
    unattributed_ms = (sum(traced.latencies_ms) - tracer.top_level_ns / 1e6) / traced.attempted
    metrics["trace.unattributed_ms"] = {"value": unattributed_ms, "unit": "ms"}
    metrics["trace.overhead_pct"] = {
        "value": (plain.items_per_s / traced.items_per_s - 1.0) * 100.0,
        "unit": "%",
    }
    spans_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)
    report["traced_ops"] = traced.attempted
    report["reference_checked_ops"] = plain.reference_checked + traced.reference_checked
    report["untraced_items_per_s"] = plain.items_per_s
    report["traced_items_per_s"] = traced.items_per_s
    report["spans"] = {"count": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}
    report["per_op_by_span"] = table
    report["failures"] = plain.failures + traced.failures
    return (plain, traced), metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if "LPLORENTZ_THREADS" in os.environ:
        print("error: LPLORENTZ_THREADS is set; unset it, the benchmark measures the default "
              "single-threaded runner", file=sys.stderr)
        return 2
    cli = _import_cli()
    report = {"workload": args.workload, "trace": args.trace, "environment": environment(args.seed)}
    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        scratch = Path(tmp)
        out = scratch / "report.out"
        if args.trace:
            runs, metrics = _per_layer(cli, args, out, report)
        else:
            run, metrics = _end_to_end(cli, args, scratch, out, report)
            runs = (run,)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
