"""Tests for the inequality verification harness.

Covers parameter derivation, the pointwise product bound on block maxima
(with its fully derived constant), single-case verification, the outer
exponent admissibility segment, the seeded field generators, and the suite
runner.
"""

import math

import numpy as np
import pytest

from lplorentz import inequalities
from lplorentz.inequalities import (
    GENERATORS,
    derive_params,
    generate_field,
    hedberg_constant,
    hedberg_pointwise,
    make_suite_grid,
    run_suite,
    segment_admissible,
    segment_endpoints,
    verify_case,
)
from lplorentz.norms import BesovParams, LorentzParams, MeasuredValues, besov_seminorm, lorentz_norm
from lplorentz.spectral import (
    BlockDecomposition,
    GridSpec,
    SampledField,
    decompose,
    make_cutoff_profile,
    reconstruct,
)

PROFILE = make_cutoff_profile(1.0)
INF = math.inf


def full_grid_atom_row(x, period, centers, scale_j, amplitude):
    """Reference atom row: every atom evaluated with ``_bump`` on the whole grid."""
    total = np.zeros_like(x)
    for c in centers:
        u = (x - c + period / 2.0) % period - period / 2.0
        total += inequalities._bump(u * 2.0**scale_j)
    return amplitude * total


def canonical_case(r: float = 2.0):
    """alpha = beta = 1/2, endpoint integrabilities (1, inf): theta = 1/2, p = 2."""
    return derive_params(0.5, 0.5, 1.0, INF, 2.0, 2.0, r=r)


class TestDeriveParams:
    def test_canonical_derivation(self):
        case = canonical_case()
        assert case.theta == 0.5
        assert case.p == 2.0
        assert case.r_star == 2.0
        assert case.r == 2.0

    def test_r_defaults_to_composed_exponent(self):
        case = derive_params(0.5, 0.5, 1.0, INF, 1.0, INF)
        # 1/r* = (1-theta)/r0 + theta/r1 = 1/2 * 1 + 1/2 * 0 = 1/2.
        assert case.r_star == 2.0
        assert case.r == 2.0

    def test_asymmetric_regularities(self):
        case = derive_params(0.25, 0.75, 1.0, INF, 2.0, 4.0)
        assert case.theta == pytest.approx(0.25, rel=1e-15)
        # 1/p = 0.75 * 1 + 0.25 * 0 = 0.75.
        assert case.p == pytest.approx(4.0 / 3.0, rel=1e-15)
        # 1/r* = 0.75 / 2 + 0.25 / 4 = 0.4375.
        assert case.r_star == pytest.approx(1.0 / 0.4375, rel=1e-15)

    def test_equal_inner_exponents_allowed(self):
        case = derive_params(1.0, 1.0, 2.0, 2.0, 2.0, 2.0)
        assert case.p == 2.0

    def test_degenerate_integrability_rejected(self):
        # q0 = q1 = 1 composes to p = 1; q0 = q1 = inf composes to p = inf.
        with pytest.raises(ValueError):
            derive_params(0.5, 0.5, 1.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            derive_params(0.5, 0.5, INF, INF, 2.0, 2.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            derive_params(0.0, 0.5, 1.0, INF, 2.0, 2.0)
        with pytest.raises(ValueError):
            derive_params(0.5, -1.0, 1.0, INF, 2.0, 2.0)
        with pytest.raises(ValueError):
            derive_params(0.5, 0.5, 0.5, INF, 2.0, 2.0)
        with pytest.raises(ValueError):
            derive_params(0.5, 0.5, 1.0, INF, 2.0, 2.0, r=0.9)


class TestHedbergConstant:
    def test_symmetric_half_half(self):
        # ga = gb = 1/(1 - 2**-0.5) = 2 + sqrt(2), so C0 = 3 + 2*sqrt(2).
        assert hedberg_constant(0.5, 0.5) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-15)

    def test_unit_regularities(self):
        # ga = gb = 2 gives C0 = 3 exactly.
        assert hedberg_constant(1.0, 1.0) == 3.0

    def test_asymmetric_pair(self):
        ga = 1.0 / (1.0 - 2.0**-0.25)
        gb = 1.0 / (1.0 - 2.0**-0.75)
        assert hedberg_constant(0.25, 0.75) == pytest.approx(ga + gb - 1.0, rel=1e-15)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(0.05, 3.0, size=2)
            assert hedberg_constant(a, b) == pytest.approx(hedberg_constant(b, a), rel=1e-15)

    def test_decreasing_in_each_regularity(self):
        # Higher regularity shrinks both geometric tails.
        rng = np.random.default_rng(6)
        for _ in range(50):
            a0, a1 = np.sort(rng.uniform(0.05, 3.0, size=2))
            b = float(rng.uniform(0.05, 3.0))
            if a0 == a1:
                continue
            assert hedberg_constant(a1, b) < hedberg_constant(a0, b)
            assert hedberg_constant(b, a1) < hedberg_constant(b, a0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hedberg_constant(0.0, 1.0)
        with pytest.raises(ValueError):
            hedberg_constant(1.0, -0.5)


class TestHedbergPointwise:
    def test_single_mode_masked_ratio_is_one(self):
        # For a field carried by one block the two weighted maxima recombine to
        # exactly |block|, so away from the near-zero points (where FFT
        # roundoff decouples numerator and denominator) the pointwise ratio is
        # identically one.
        grid = GridSpec(1, 1024, 2.0 * math.pi)
        x = grid.axis_coordinates()
        field = SampledField(grid, 1.7 * np.cos(16.0 * x))
        d = decompose(field, PROFILE, 0, 7)
        bound, empirical = hedberg_pointwise(d, 0.5, 0.5)
        product = bound.samples / hedberg_constant(0.5, 0.5)
        block_sum = np.abs(d.blocks.sum(axis=0))
        mask = np.abs(field.samples) >= 1e-6 * np.max(np.abs(field.samples))
        ratio = block_sum[mask] / product[mask]
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12
        # The unmasked supremum picks up the roundoff points but stays far
        # below the derived constant; it cannot drop below the masked value.
        assert 1.0 - 1e-12 <= empirical <= hedberg_constant(0.5, 0.5)

    def test_two_mode_field_within_bound(self):
        grid = GridSpec(1, 1024, 2.0 * math.pi)
        x = grid.axis_coordinates()
        field = SampledField(grid, np.cos(16.0 * x) + 0.6 * np.cos(64.0 * x))
        d = decompose(field, PROFILE, 0, 7)
        for alpha, beta in ((0.5, 0.5), (0.25, 0.75)):
            bound, empirical = hedberg_pointwise(d, alpha, beta)
            block_sum = np.abs(d.blocks.sum(axis=0))
            slack = 1e-12 * np.max(bound.samples)
            assert np.all(block_sum <= bound.samples + slack)
            assert empirical <= hedberg_constant(alpha, beta)

    def test_empirical_constant_bounded_on_random_fields(self):
        # The bound is pointwise over the same computed block values, so it is
        # a hard guarantee: no instance may exceed the derived constant.
        grid = make_suite_grid(1024, "multi-block-random")
        for alpha, beta in ((0.5, 0.5), (0.25, 0.75), (1.0, 1.0)):
            c0 = hedberg_constant(alpha, beta)
            for seed in range(25):
                rng = np.random.default_rng(seed)
                field = generate_field("multi-block-random", rng, grid)
                d = decompose(field, PROFILE, 0, 8)
                _, empirical = hedberg_pointwise(d, alpha, beta)
                assert empirical <= c0

    def test_rejects_bad_inputs(self):
        grid = GridSpec(1, 256, 2.0 * math.pi)
        x = grid.axis_coordinates()
        d = decompose(SampledField(grid, np.cos(4.0 * x)), PROFILE, 0, 5)
        with pytest.raises(ValueError):
            hedberg_pointwise(d, 0.0, 1.0)
        empty = BlockDecomposition(grid, 0, -1, np.empty((0, 256)), np.zeros(256))
        with pytest.raises(ValueError):
            hedberg_pointwise(empty, 0.5, 0.5)


class TestVerifyCase:
    def test_finite_ratio_on_random_field(self):
        case = canonical_case()
        grid = make_suite_grid(1024, "multi-block-random")
        field = generate_field("multi-block-random", np.random.default_rng(11), grid)
        d = decompose(field, PROFILE, 0, 8)
        got_lhs, got_rhs = verify_case(case, d)
        assert got_lhs > 0.0 and got_rhs > 0.0
        # The sides are exactly the norms of the reconstruction and blocks.
        lhs = lorentz_norm(
            MeasuredValues.from_field(reconstruct(d)), LorentzParams(case.p, case.r)
        )
        b0 = besov_seminorm(d, BesovParams(case.alpha, case.q0, case.r0))
        b1 = besov_seminorm(d, BesovParams(-case.beta, case.q1, case.r1))
        assert got_lhs == pytest.approx(lhs, rel=1e-15)
        assert got_rhs == pytest.approx(b0 ** 0.5 * b1 ** 0.5, rel=1e-14)

    def test_zero_field_reports_zero_ratio(self):
        case = canonical_case()
        grid = GridSpec(1, 512, 2.0 * math.pi)
        d = decompose(SampledField(grid, np.zeros(512)), PROFILE, 0, 6)
        assert verify_case(case, d) == (0.0, 0.0)

    def test_constant_field_falsifies_and_raises(self):
        # A constant lives entirely in the lowpass: every block vanishes, the
        # seminorm product is exactly zero, but the field itself has positive
        # norm.  That combination would disprove the inequality, so it raises.
        case = canonical_case()
        grid = GridSpec(1, 1024, 2.0 * math.pi)
        d = decompose(SampledField(grid, np.full(1024, 2.0)), PROFILE, 0, 7)
        with pytest.raises(ArithmeticError):
            verify_case(case, d)


class TestAdmissibilitySegment:
    def test_endpoints_at_central_position(self):
        assert segment_endpoints(0.5, 2.0) == ((0.0, 1.0), (1.0, 0.0))

    def test_endpoints_clamped_for_small_p(self):
        (x0, y0), (x1, y1) = segment_endpoints(0.5, 4.0 / 3.0)
        assert (x0, y0) == pytest.approx((0.5, 1.0), abs=1e-15)
        assert (x1, y1) == pytest.approx((1.0, 0.5), abs=1e-15)

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            segment_endpoints(0.0, 2.0)
        with pytest.raises(ValueError):
            segment_endpoints(1.0, 2.0)
        with pytest.raises(ValueError):
            segment_endpoints(0.5, 1.0)

    def test_central_pair_admissible(self):
        result = segment_admissible(canonical_case())
        assert result.admissible
        assert bool(result)
        assert result.chain_low
        assert result.endpoints == segment_endpoints(0.5, 2.0)

    def test_outer_pair_outside_segment(self):
        # p = 4/3 pushes the segment to x >= 1/2; the pair (1/4, 1/8) misses
        # both ordering chains.
        case = derive_params(1.0, 1.0, 4.0 / 3.0, 4.0 / 3.0, 4.0, 8.0, r=2.0)
        result = segment_admissible(case)
        assert not result.admissible
        assert not bool(result)
        assert not result.chain_low and not result.chain_high

    def test_requires_p_at_most_two(self):
        case = derive_params(1.0, 1.0, 3.0, 3.0, 2.0, 2.0)
        assert case.p == 3.0
        with pytest.raises(ValueError):
            segment_admissible(case)


class TestGenerators:
    def test_generator_catalog(self):
        assert GENERATORS == ("single-block", "multi-block-random", "lacunary", "atomic")

    def test_suite_grid_periods(self):
        assert make_suite_grid(1024, "atomic").period == 16.0
        for generator in ("single-block", "multi-block-random", "lacunary"):
            assert make_suite_grid(1024, generator).period == pytest.approx(2.0 * math.pi)

    def test_deterministic_per_seed(self):
        for generator in GENERATORS:
            grid = make_suite_grid(1024, generator)
            a = generate_field(generator, np.random.default_rng(9), grid)
            b = generate_field(generator, np.random.default_rng(9), grid)
            assert np.array_equal(a.samples, b.samples)

    def test_grid_independent_at_shared_points(self):
        # The same seed must sample the same continuum function on every grid,
        # so values at shared points agree across a 4x refinement.
        for generator in GENERATORS:
            coarse = generate_field(
                generator, np.random.default_rng(7), make_suite_grid(1024, generator)
            ).samples
            fine = generate_field(
                generator, np.random.default_rng(7), make_suite_grid(4096, generator)
            ).samples
            scale = np.max(np.abs(coarse))
            assert np.max(np.abs(coarse - fine[::4])) <= 1e-13 * scale

    def test_zero_mean_families(self):
        # multi-block-random leaves the DC bin empty and the atom profile is
        # an exact derivative; lacunary only has continuum-level zero mean, so
        # its sampled mean carries discretization error.
        for generator, tol in (
            ("multi-block-random", 1e-12),
            ("atomic", 1e-12),
            ("lacunary", 1e-7),
        ):
            grid = make_suite_grid(4096, generator)
            for seed in range(10):
                field = generate_field(generator, np.random.default_rng(seed), grid)
                scale = np.max(np.abs(field.samples))
                assert abs(float(np.mean(field.samples))) <= tol * scale

    def test_single_block_spectrum_is_one_mode(self):
        grid = make_suite_grid(1024, "single-block")
        field = generate_field("single-block", np.random.default_rng(2), grid)
        spectrum = np.abs(np.fft.rfft(field.samples))
        peak = spectrum[16]
        spectrum[16] = 0.0
        assert peak > 0.0
        assert np.max(spectrum) <= 1e-12 * peak

    @pytest.mark.parametrize("points", [1024, 4096])
    def test_windowed_atom_row_matches_full_grid(self, points):
        # Centres on and next to the period wrap (within one support radius
        # of it, on either side), on a grid point, and in general position.
        # Scale -2 gives atoms wider than the 2*pi period.
        for period in (2.0 * math.pi, 16.0):
            x = GridSpec(1, points, period).axis_coordinates()
            for scale_j in range(-2, 7):
                radius = 2.0**-scale_j
                centers = np.array(
                    [0.0, 0.3 * radius, period - 0.7 * radius, x[5], 0.37 * period]
                )
                for c in centers:
                    windowed = inequalities._atom_row(x, period, np.array([c]), scale_j, 1.3)
                    reference = full_grid_atom_row(x, period, np.array([c]), scale_j, 1.3)
                    assert np.array_equal(windowed, reference)
                windowed = inequalities._atom_row(x, period, centers, scale_j, 0.6)
                assert np.array_equal(windowed, full_grid_atom_row(x, period, centers, scale_j, 0.6))

    @pytest.mark.parametrize("points", [1024, 4096])
    def test_windowed_generators_match_full_grid(self, points, monkeypatch):
        windowed = {}
        for generator in ("lacunary", "atomic"):
            grid = make_suite_grid(points, generator)
            windowed[generator] = [
                generate_field(generator, np.random.default_rng(seed), grid).samples
                for seed in range(20)
            ]
        monkeypatch.setattr(inequalities, "_atom_row", full_grid_atom_row)
        for generator, fields in windowed.items():
            grid = make_suite_grid(points, generator)
            for seed, samples in enumerate(fields):
                reference = generate_field(generator, np.random.default_rng(seed), grid)
                assert np.array_equal(samples, reference.samples)

    def test_unknown_generator_rejected(self):
        grid = make_suite_grid(1024, "single-block")
        with pytest.raises(ValueError):
            generate_field("white-noise", np.random.default_rng(0), grid)

    def test_two_dimensional_grid_rejected(self):
        grid = GridSpec(2, 64, 2.0 * math.pi)
        with pytest.raises(ValueError):
            generate_field("single-block", np.random.default_rng(0), grid)

    def test_coarse_grid_rejected(self):
        # 512 points at period 2*pi gives Nyquist 256 < 2**9, too coarse for
        # the standard scale range.
        with pytest.raises(ValueError):
            run_suite(canonical_case(), "multi-block-random", 1, 0, grid_points=512)
        with pytest.raises(ValueError):
            generate_field(
                "multi-block-random", np.random.default_rng(0), GridSpec(1, 256, 2.0 * math.pi)
            )


class TestSuiteRunner:
    def test_summary_structure(self):
        records = run_suite(canonical_case(), "multi-block-random", 5, seed=3, grid_points=1024)
        assert len(records) == 5
        for instance_id, rec in enumerate(records):
            assert list(rec) == ["instance_id", "lhs", "rhs", "ratio", "generator_descriptor"]
            assert rec["instance_id"] == instance_id
            assert rec["lhs"] > 0.0 and rec["rhs"] > 0.0
            assert rec["ratio"] == rec["lhs"] / rec["rhs"]
            assert (
                rec["generator_descriptor"]
                == f"multi-block-random[instance={instance_id}, seed=3, grid=1024]"
            )

    def test_zero_field_records_zero_ratio(self, monkeypatch):
        def zero_field(generator, rng, grid):
            return SampledField(grid, np.zeros(grid.points_per_axis))

        monkeypatch.setattr(inequalities, "generate_field", zero_field)
        records = run_suite(canonical_case(), "single-block", 2, seed=0, grid_points=1024)
        assert [(rec["lhs"], rec["rhs"], rec["ratio"]) for rec in records] == [(0.0, 0.0, 0.0)] * 2

    def test_deterministic_across_runs(self):
        case = canonical_case()
        first = run_suite(case, "lacunary", 4, seed=1, grid_points=1024)
        second = run_suite(case, "lacunary", 4, seed=1, grid_points=1024)
        assert first == second

    def test_prefix_of_longer_suite_is_bit_identical(self):
        # Every instance draws from its own child seed, so a suite's first
        # instances do not depend on how many instances follow them.
        case = canonical_case()
        short = run_suite(case, "atomic", 3, seed=2, grid_points=1024)
        long = run_suite(case, "atomic", 6, seed=2, grid_points=1024)
        assert [(r["instance_id"], r["lhs"], r["rhs"], r["ratio"]) for r in short] == [
            (r["instance_id"], r["lhs"], r["rhs"], r["ratio"]) for r in long[:3]
        ]

    def test_empty_suite(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            run_suite(canonical_case(), "single-block", 0, seed=0, grid_points=1024)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_suite(canonical_case(), "multi-block-random", -1, seed=0)
        with pytest.raises(ValueError):
            run_suite(canonical_case(), "white-noise", 1, seed=0)
