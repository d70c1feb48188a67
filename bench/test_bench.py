"""Self-test of the benchmark harness: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

from harness import measure, min_samples, percentile
from run import END_TO_END_UNITS, PER_LAYER, ROOT, SRC
from tracer import Tracer
from workloads import WORKLOADS, op_seed, schedule


class TestPercentile:
    def test_nearest_rank_with_ten_samples_beyond(self):
        samples = list(range(100, 0, -1))
        assert percentile(samples, 0.9) == 90
        assert percentile(samples, 0.5) == 50

    def test_refuses_with_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError):
            percentile(range(99), 0.9)
        with pytest.raises(ValueError):
            percentile(range(19), 0.5)

    def test_min_samples(self):
        assert min_samples(0.9) == 100
        assert min_samples(0.5) == 20
        percentile(range(min_samples(0.9)), 0.9)


def _fake_main(bad_checks):
    """CLI stand-in for interp ops: exits 1 for the checks marked "exit",
    writes ratios above the published bound for those marked "bound", and
    writes a valid report for the rest."""

    def main(argv):
        check = argv[argv.index("--check") + 1]
        size = int(argv[argv.index("--suite-size") + 1])
        if bad_checks.get(check) == "exit":
            return 1
        ratio = 2.0 if bad_checks.get(check) == "bound" else 1.5 if check == "reiteration" else 0.5
        records = [{"instance_id": i, "lhs": ratio, "rhs": 1.0, "ratio": ratio} for i in range(size)]
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps({"records": records, "summary": {}}))
        return 0

    return main


class TestFailureCounting:
    def test_exit_codes_bounds_and_references_count_as_failures(self, tmp_path):
        main = _fake_main({"duality": "exit", "partition": "bound"})
        wrong = {"layer-cake"}

        def reference(op):
            return [9.0, 9.0, 9.0] if op.shape.name.split(".")[1] in wrong else None

        m = measure(main, schedule("interp_suite", 3), 0.0, tmp_path / "r.json",
                    min_ops=10, cycle=5, reference=reference)
        assert m.attempted == 10
        assert m.failed == 6  # duality, partition and layer-cake, twice each
        assert m.items == 4 * 200  # only k-equivalence and reiteration count
        assert len(m.latencies_ms) == 10  # failed ops still add their time
        assert m.reference_checked == 2

    def test_stale_report_is_not_reused(self, tmp_path):
        good = _fake_main({})
        out = tmp_path / "r.json"
        measure(good, schedule("interp_suite", 0), 0.0, out, min_ops=1)
        m = measure(lambda argv: 0, schedule("interp_suite", 0), 0.0, out, min_ops=1)
        assert m.failed == 1

    def test_run_ends_on_a_whole_cycle(self, tmp_path):
        m = measure(_fake_main({}), schedule("interp_suite", 0), 0.0, tmp_path / "r.json",
                    min_ops=7, cycle=5)
        assert m.attempted == 10

    def test_shared_schedule_runs_one_cycle_per_call(self, tmp_path):
        ops = schedule("interp_suite", 2)
        first = measure(_fake_main({}), ops, 0.0, tmp_path / "r.json", min_ops=5, cycle=5)
        second = measure(_fake_main({}), ops, 0.0, tmp_path / "r.json", min_ops=5, cycle=5)
        assert (first.attempted, second.attempted) == (5, 5)
        first += second
        assert first.attempted == 10 and first.items == 10 * 200
        assert next(ops).index == 10


class TestSeeds:
    @pytest.mark.parametrize("workload", ["verify_suite", "interp_suite"])
    def test_seed_reaches_every_seeded_op(self, workload, tmp_path):
        out = tmp_path / "r"
        for seed in (0, 1, 12345):
            ops = list(itertools.islice(schedule(workload, seed), 40))
            seeds = [int(argv[argv.index("--seed") + 1]) for argv in (op.argv(out) for op in ops)]
            assert seeds == [op_seed(seed, i) for i in range(40)]
            assert len(set(seeds)) == 40
        first = [op.seed for op in itertools.islice(schedule(workload, 0), 40)]
        other = [op.seed for op in itertools.islice(schedule(workload, 1), 40)]
        assert all(a != b for a, b in zip(first, other))

    def test_seed_orders_unseeded_sweeps(self):
        shapes = WORKLOADS["sharpness_sweep"]

        def cycles(seed):
            names = [op.shape.name for op in itertools.islice(schedule("sharpness_sweep", seed), 10 * len(shapes))]
            return [names[i:i + len(shapes)] for i in range(0, len(names), len(shapes))]

        for cycle in cycles(4):
            assert sorted(cycle) == sorted(shape.name for shape in shapes)
        assert cycles(4) == cycles(4)
        assert cycles(4) != cycles(5)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    per_layer = {name: unit for name, _, _, unit in PER_LAYER}
    per_layer.update({"trace.unattributed_ms": "ms", "trace.overhead_pct": "%"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_tracer_wraps_every_binding():
    sys.path.insert(0, str(SRC))
    import lplorentz
    from lplorentz import norms, sharpness

    original = norms.rearrangement
    tracer = Tracer()
    tracer.install()
    try:
        assert sharpness.rearrangement is norms.rearrangement is lplorentz.rearrangement
        assert norms.rearrangement is not original
        atom = sharpness.build_atom(2)
        params = sharpness.build_params(1, 0.25, 0.25, 1.0, float("inf"), 2.0, 2.0)
        _, g_sum = sharpness.build_closed_form_family(params, atom, 3)
        sharpness.atomic_distribution(g_sum)
    finally:
        tracer.uninstall()
    assert norms.rearrangement is original and sharpness.rearrangement is original
    by_index = {i: span for i, span in enumerate(tracer.spans)}
    parents = {by_index[parent][2] for _, parent, name, _, _ in tracer.spans if name == "norms.rearrangement"
               and parent >= 0}
    assert "sharpness.atomic_distribution" in parents
    assert tracer.counts["sharpness.atomic_distribution.entries"] == 3 * atom.rearrangement.values.size
