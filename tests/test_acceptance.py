"""Acceptance suite: the nine headline guarantees of the library, each run at
full scale with pinned tolerances.  Every test prints a single PASS/FAIL line
with its measured margin (run with ``pytest -s`` to see them on success).
"""

import math
import time

import numpy as np
import pytest

from conftest import random_step_values
from lplorentz.inequalities import (
    derive_params,
    generate_field,
    hedberg_constant,
    hedberg_pointwise,
    make_suite_grid,
    run_suite,
)
from lplorentz.interpolation import (
    InterpParams,
    duality_pairing_check,
    interpolation_norm_K,
    layer_cake_bound_ratio,
    layer_cake_constant,
    layer_cake_decompose,
)
from lplorentz.norms import (
    LorentzParams,
    MeasuredValues,
    lebesgue_norm,
    lorentz_norm,
    rearrangement,
)
from lplorentz.sharpness import (
    build_atom,
    build_family,
    build_params,
    growth_experiment,
    pairing,
    rasterization_grid,
    rasterize,
    atomic_distribution,
    solve_exponents,
)
from lplorentz.spectral import decompose, make_cutoff_profile

INF = math.inf
PROFILE = make_cutoff_profile(1.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_1_lorentz_lebesgue_coincidence(self):
        # lorentz(p, p) must equal lebesgue(p) to 1e-9 relative on 1000 random
        # step functions for p in {1.5, 2, 3}, in under 10 seconds.
        start = time.monotonic()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            v = random_step_values(rng)
            for p in (1.5, 2.0, 3.0):
                reference = lebesgue_norm(v, p)
                deviation = abs(lorentz_norm(v, LorentzParams(p, p)) - reference) / reference
                worst = max(worst, deviation)
        elapsed = time.monotonic() - start
        ok = worst <= 1e-9 and elapsed < 10.0
        report(
            "lorentz(p,p) == lebesgue(p) over 1000 step functions",
            ok,
            f"worst rel deviation {worst:.3e} (tol 1e-09), {elapsed:.2f}s (budget 10s)",
        )

    def test_2_k_functional_norm_proportional_to_lorentz(self):
        # Over the dyadic indicator family the K-functional interpolation norm
        # for the (L1, Linf) couple is a constant multiple of the Lorentz norm:
        # relative spread of the ratio <= 1e-9 for each (p, r).
        worst_spread = 0.0
        for p, r in ((2.0, 1.0), (2.0, 2.0), (3.0, 2.0)):
            params = InterpParams(1.0 - 1.0 / p, r)
            ratios = []
            for k in range(11):
                v = MeasuredValues(np.array([1.0]), np.array([2.0**k]))
                ratios.append(
                    interpolation_norm_K(v, params) / lorentz_norm(v, LorentzParams(p, r))
                )
            worst_spread = max(worst_spread, (max(ratios) - min(ratios)) / min(ratios))
        ok = worst_spread <= 1e-9
        report(
            "K-functional/Lorentz ratio constant on indicators",
            ok,
            f"worst rel spread {worst_spread:.3e} (tol 1e-09)",
        )

    def test_3_pointwise_product_bound_is_hard(self):
        # The derived constant of the pointwise block-maximum product bound is
        # never exceeded: zero violations over 200 random band-limited fields
        # for each regularity pair, at grid 2**12, in under 60 seconds.
        start = time.monotonic()
        pairs = ((0.5, 0.5), (0.25, 0.75), (1.0, 1.0))
        constants = {pair: hedberg_constant(*pair) for pair in pairs}
        grid = make_suite_grid(4096, "multi-block-random")
        violations = 0
        worst_fill = 0.0
        for i in range(200):
            rng = np.random.default_rng(3000 + i)
            field = generate_field("multi-block-random", rng, grid)
            d = decompose(field, PROFILE, 0, 8)
            for pair in pairs:
                _, empirical = hedberg_pointwise(d, *pair)
                if empirical > constants[pair]:
                    violations += 1
                worst_fill = max(worst_fill, empirical / constants[pair])
        elapsed = time.monotonic() - start
        ok = violations == 0 and elapsed < 60.0
        report(
            "pointwise product bound (600 field/regularity checks)",
            ok,
            f"{violations} violations, worst empirical/constant {worst_fill:.3f}, "
            f"{elapsed:.2f}s (budget 60s)",
        )

    def test_4_layer_cake_decomposition_bound(self):
        # The dyadic layer-cake decomposition has exactly disjoint pieces that
        # reassemble the input, and its product bound holds with the published
        # constants on 1000 random sequences (max ratio reported).
        frozen_constants = {
            (2.0, 2.0): 5.095930801728115,
            (2.0, 1.0): 6.120836679580737,
            (3.0, 2.0): 4.5399582189914485,
        }
        for (p, r), value in frozen_constants.items():
            assert layer_cake_constant(p, r) == pytest.approx(value, rel=1e-12)
        rng = np.random.default_rng(404)
        structure_ok = True
        worst = {key: 0.0 for key in frozen_constants}
        for _ in range(1000):
            v = random_step_values(rng)
            d = layer_cake_decompose(v)
            carriers = (d.pieces != 0.0).sum(axis=0)
            disjoint = np.all(carriers[v.values > 0] == 1) and np.all(carriers[v.values == 0] == 0)
            reassembled = np.array_equal(d.total().values, v.values)
            structure_ok = structure_ok and bool(disjoint) and reassembled
            for key in frozen_constants:
                worst[key] = max(worst[key], layer_cake_bound_ratio(v, key))
        bounded = all(worst[key] <= frozen_constants[key] for key in frozen_constants)
        ok = structure_ok and bounded
        detail = ", ".join(
            f"(p={p:g},r={r:g}) max ratio {worst[(p, r)]:.3f} vs C0 {frozen_constants[(p, r)]:.3f}"
            for (p, r) in frozen_constants
        )
        report(
            "layer-cake decomposition exact + bound on 1000 sequences",
            ok,
            f"structure {'exact' if structure_ok else 'BROKEN'}; {detail}",
        )

    def test_5_duality_pairing_bound(self):
        # Pairing against a dual-norm product never exceeds 1 (the frozen
        # constant), with 1e-9 slack for roundoff, over 1000 aligned random
        # pairs per (p, r); the indicator self-pair attains it at (2, 2).
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 40))
            masses = rng.uniform(0.05, 3.0, size=k)
            f = MeasuredValues(rng.lognormal(0.0, 1.5, size=k), masses)
            g = MeasuredValues(rng.lognormal(0.0, 1.5, size=k), masses)
            for p, r in ((2.0, 2.0), (2.0, 1.0), (3.0, 2.0)):
                worst = max(worst, duality_pairing_check(f, g, p, r))
        indicator = MeasuredValues(np.array([1.0]), np.array([4.0]))
        self_pair = duality_pairing_check(indicator, indicator, 2.0, 2.0)
        ok = worst <= 1.0 + 1e-9 and abs(self_pair - 1.0) <= 1e-9
        report(
            "duality pairing bounded by 1 over 3000 pair checks",
            ok,
            f"max ratio {worst:.12f} (tol 1+1e-09), indicator self-pair {self_pair:.12f}",
        )

    def test_6_bounded_ratio_suites_no_growth_under_refinement(self):
        # For parameter sets where the target outer exponent equals the
        # composed one, the measured inequality ratio must not grow under grid
        # refinement: max over 200 instances at 2**12 exceeds the max at 2**10
        # by less than 10%, for two generators and four parameter cases.
        start = time.monotonic()
        cases = {
            "equal-outer": derive_params(0.5, 0.5, 1.0, INF, 2.0, 2.0, r=2.0),
            "endpoint-outer": derive_params(0.5, 0.5, 1.0, INF, 1.0, INF, r=2.0),
            "composed-equals-p": derive_params(0.5, 0.5, 1.0, INF, 4.0 / 3.0, 4.0, r=2.0),
            "ordered-exponents": derive_params(0.5, 0.5, 1.0, INF, 2.0, 4.0, r=8.0 / 3.0),
        }
        growths = {}
        ok = True
        for name, case in cases.items():
            for generator in ("lacunary", "multi-block-random"):
                coarse = run_suite(case, generator, 200, seed=600, grid_points=1024)
                fine = run_suite(case, generator, 200, seed=600, grid_points=4096)
                growth = max(rec["ratio"] for rec in fine) / max(rec["ratio"] for rec in coarse) - 1.0
                growths[f"{name}/{generator}"] = growth
                ok = ok and growth < 0.10
        elapsed = time.monotonic() - start
        worst_key = max(growths, key=growths.get)
        report(
            "bounded-ratio suites stable under refinement (4 cases x 2 generators x 200)",
            ok,
            f"worst growth {growths[worst_key]:+.4f} ({worst_key}, tol +0.10), {elapsed:.2f}s",
        )

    def test_7_sharpness_growth_slopes(self):
        # Closed-form extremal families over L in {8,...,64} scales: fitted
        # slopes of the two seminorm bounds match 1/r0 and 1/r1 within 2%, the
        # pairing slope is 1 within 1%, the Lorentz lower bound slope is 1/r
        # within 3%; a violating case with 1/r - 1/r* = 1/4 has ratio slope
        # >= 0.22.  No rasterization is involved; budget 30 seconds.
        start = time.monotonic()
        atom = build_atom(2)
        levels = [8, 12, 16, 24, 32, 48, 64]
        admissible = build_params(1, 0.25, 0.25, 1.0, INF, 2.0, 2.0)
        result = growth_experiment(admissible, atom, levels)
        slope_ok = (
            abs(result.slopes["besov0"] - 0.5) <= 0.01
            and abs(result.slopes["besov1"] - 0.5) <= 0.01
            and abs(result.slopes["pairing"] - 1.0) <= 0.01
            and abs(result.slopes["lorentz_lower"] - 0.5) <= 0.015
        )
        violating = build_params(1, 0.25, 0.25, 1.0, INF, 4.0, 4.0, r=2.0)
        violating_result = growth_experiment(violating, atom, levels)
        ratio_slope = violating_result.slopes["ratio"]
        elapsed = time.monotonic() - start
        ok = slope_ok and ratio_slope >= 0.22 and elapsed < 30.0
        report(
            "extremal-family growth slopes",
            ok,
            f"admissible slopes {({k: round(v, 6) for k, v in result.slopes.items()})}, "
            f"violating ratio slope {ratio_slope:.6f} (need >= 0.22), {elapsed:.2f}s",
        )

    def test_8_atomic_oracle_equivalence(self):
        # The distribution (an exact merge of the atom's 4096-midpoint
        # sampled profile) and the pairing closed form agree with
        # brute-force rasterization at grid 2**12 for L <= 3: integrated
        # rearrangement-profile distance, Lorentz norms, and the pairing
        # quadrature all within 2%.  The growth sweep's dual norms read the
        # same sampled profile (merged for r != p, per-scale sums for r = p),
        # so this bounds their sampling error too.
        params = build_params(1, 0.25, 0.25, 1.0, INF, 2.0, 2.0)
        atom = build_atom(2)
        worst_profile = worst_norm = worst_pairing = 0.0
        for level in (1, 2, 3):
            f_sum, g_sum = build_family(params, atom, level)
            grid = rasterization_grid(f_sum, 4096)
            f_grid, g_grid = rasterize(f_sum, grid), rasterize(g_sum, grid)
            exact = atomic_distribution(f_sum)
            brute = rearrangement(MeasuredValues.from_field(f_grid))
            masses = np.linspace(0.0, float(exact.total_mass), 4001)[1:]
            exact_curve, brute_curve = exact.evaluate(masses), brute.evaluate(masses)
            profile_dev = float(
                np.trapezoid(np.abs(exact_curve - brute_curve), masses)
                / np.trapezoid(exact_curve, masses)
            )
            worst_profile = max(worst_profile, profile_dev)
            for p, r in ((2.0, 2.0), (2.0, 1.0), (2.0, INF), (3.0, 2.0)):
                target = LorentzParams(p, r)
                exact_norm = lorentz_norm(exact, target)
                brute_norm = lorentz_norm(brute, target)
                worst_norm = max(worst_norm, abs(brute_norm - exact_norm) / exact_norm)
            cell = grid.period / grid.points_per_axis
            quadrature = float(np.sum(f_grid.samples * g_grid.samples)) * cell
            closed = pairing(f_sum, g_sum)
            worst_pairing = max(worst_pairing, abs(quadrature - closed) / closed)
        ok = worst_profile <= 0.02 and worst_norm <= 0.02 and worst_pairing <= 0.02
        report(
            "closed forms match rasterization oracles (L <= 3)",
            ok,
            f"profile dev {worst_profile:.4f}, norm dev {worst_norm:.2e}, "
            f"pairing dev {worst_pairing:.2e} (tol 0.02 each)",
        )

    def test_9_exponent_solver_residuals(self):
        # All four defining relations of the exponent system hold to 1e-12 on
        # a 100-point random sweep of feasible parameters (including infinite
        # upper integrability).
        rng = np.random.default_rng(909)
        worst = 0.0
        for i in range(100):
            q0 = float(rng.uniform(1.0, 4.0))
            q1 = INF if i % 4 == 0 else float(rng.uniform(q0 + 0.1, 10.0))
            span = 1.0 / q0 - (0.0 if q1 == INF else 1.0 / q1)
            total = (1.0 - float(rng.uniform(0.0, 0.999))) * span
            alpha = float(rng.uniform(0.05, 0.95)) * total
            beta = total - alpha
            delta, x_exp, y_exp = solve_exponents(1, alpha, beta, q0, q1)
            iq0 = 1.0 / q0
            iq1 = 0.0 if q1 == INF else 1.0 / q1
            residuals = (
                x_exp + alpha - iq0 + delta * iq0,
                x_exp - beta - iq1 + delta * iq1,
                y_exp - alpha - (1.0 - iq0) + delta * (1.0 - iq0),
                y_exp + beta - (1.0 - iq1) + delta * (1.0 - iq1),
                x_exp + y_exp - 1.0 + delta,
            )
            worst = max(worst, max(abs(res) for res in residuals))
        ok = worst <= 1e-12
        report(
            "exponent solver residuals on 100-point sweep",
            ok,
            f"worst residual {worst:.3e} (tol 1e-12)",
        )
