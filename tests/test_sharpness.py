"""Tests for the extremal atomic families and the growth experiment.

The growth experiment consumes closed forms and distributions merged from the
atom's sampled rearrangement; the placed-family oracle of ``placed_family``
appears here only to cross-check those on small instances.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placed_family import (
    build_placed_family,
    integer_counts,
    place,
    rasterization_grid,
    rasterize,
    verify_disjoint,
)
from lplorentz import sharpness
from lplorentz.inequalities import CaseParams
from lplorentz.norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    besov_seminorm,
    conjugate_exponent,
    lorentz_norm,
    rearrangement,
)
from lplorentz.sharpness import (
    AtomicSum,
    SharpnessParams,
    atomic_besov_upper,
    atomic_distribution,
    build_atom,
    build_closed_form_family,
    build_params,
    default_level_grid,
    growth_experiment,
    pairing,
    solve_exponents,
)
from lplorentz.spectral import GridSpec, decompose, lowest_scale_for_dc_only

INF = math.inf


def canonical_params(r0=2.0, r1=2.0, r=None, q0=1.0, q1=INF):
    """n = 1, alpha = beta = 1/4: delta = 1/2, X = Y = 1/4 for (q0, q1) = (1, inf)."""
    return build_params(1, 0.25, 0.25, q0, q1, r0, r1, r=r)


def reference_distribution(s):
    """Per-sum reference: every per-scale entry of ``s`` concatenated and
    rearranged from scratch."""
    base = s.atom.rearrangement
    widths = np.diff(np.concatenate(([0.0], base.cum_masses)))
    values = [base.values * s.coefficient(j) for j in s.scales]
    masses = [widths * 2.0 ** (e - j * s.n) for j, e in zip(s.scales, s.count_exps)]
    return rearrangement(MeasuredValues(np.concatenate(values), np.concatenate(masses)))


def pairwise_disjoint(scales, placement):
    """Brute-force oracle: ``|k1 * 2**(j2-j1) - k2| >= 2**(j2-j1) + 1`` for every pair."""
    terms = sorted((j, k) for j, ks in zip(scales, placement) for k in ks)
    for a, (j1, k1) in enumerate(terms):
        for j2, k2 in terms[a + 1:]:
            shift = 2 ** (j2 - j1)
            if abs(k1 * shift - k2) < shift + 1:
                return False
    return True


class TestAtom:
    def test_unit_l2_and_frozen_l1(self):
        atom = build_atom(2)
        assert atom.l2_norm_sq == pytest.approx(1.0, rel=1e-12)
        # Frozen from the exact polynomial profile at the default resolution.
        assert atom.l1_norm == pytest.approx(1.2152401337753265, rel=1e-12)
        assert atom.moments == 2

    def test_vanishing_moments_exact_polynomial(self):
        for moments in (1, 2, 3):
            atom = build_atom(moments)
            cell = 2.0 / sharpness._MIDPOINTS
            u = -1.0 + cell * (np.arange(sharpness._MIDPOINTS) + 0.5)
            samples = atom.evaluate(u)
            for gamma in range(moments):
                numeric = float(np.sum(u**gamma * samples) * cell)
                assert abs(numeric) <= 1e-8 * atom.l1_norm

    def test_supported_in_unit_ball(self):
        atom = build_atom(2)
        outside = atom.evaluate(np.array([-3.0, -1.5, 1.0001, 2.0, 10.0]))
        assert np.array_equal(outside, np.zeros(5))
        # Interior values are genuinely nonzero.
        assert abs(atom.evaluate(0.3)) > 0.0

    def test_rearrangement_mass_is_support_measure(self):
        atom = build_atom(2)
        assert atom.rearrangement.total_mass == pytest.approx(2.0, rel=1e-12)
        assert float(atom.rearrangement.values[0]) == pytest.approx(atom.sup_norm, rel=1e-12)

    def test_resolution_and_argument_validation(self):
        with pytest.raises(ValueError, match=r"^moments must be >= 1$"):
            build_atom(0)
        # from 17 moments on, float64 rounding breaks the vanishing moments
        with pytest.raises(
            ValueError, match=r"^moments must be at most 16, the largest order whose moments vanish in float64, got 255$"
        ):
            build_atom(255)

    def test_largest_admitted_order_keeps_its_moments(self):
        assert build_atom(16).moments == 16


class TestSolveExponents:
    def test_canonical_case(self):
        assert solve_exponents(1, 0.25, 0.25, 1.0, INF) == (0.5, 0.25, 0.25)

    def test_one_atom_per_scale_regime(self):
        # q0 = 2 drives delta to zero: a single translate at every scale.
        delta, x_exp, y_exp = solve_exponents(1, 0.25, 0.25, 2.0, INF)
        assert delta == 0.0
        assert x_exp == 0.25
        assert y_exp == 0.75

    def test_identities_on_random_feasible_sweep(self):
        rng = np.random.default_rng(17)
        accepted = 0
        while accepted < 30:
            q0 = float(rng.uniform(1.0, 3.0))
            q1 = float(rng.uniform(q0 + 0.2, 8.0))
            span = 1.0 / q0 - 1.0 / q1
            alpha = float(rng.uniform(0.05, 0.45)) * span
            beta = float(rng.uniform(0.05, 0.45)) * span
            delta, x_exp, y_exp = solve_exponents(1, alpha, beta, q0, q1)
            assert 0.0 <= delta < 1.0
            assert abs(x_exp + y_exp - 1.0 + delta) <= 1e-12
            assert abs(y_exp + beta - (1.0 - 1.0 / q1) * (1.0 - delta)) <= 1e-12
            accepted += 1

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            solve_exponents(1, 0.25, 0.25, 2.0, 2.0)  # equal inner exponents
        with pytest.raises(ValueError):
            solve_exponents(1, 1.0, 1.0, 1.0, INF)  # delta = -1
        with pytest.raises(ValueError):
            solve_exponents(1, 0.25, 0.25, INF, 1.0)  # delta > n
        with pytest.raises(ValueError):
            solve_exponents(0, 0.25, 0.25, 1.0, INF)
        with pytest.raises(ValueError):
            solve_exponents(1, -0.25, 0.25, 1.0, INF)

    def test_infeasible_delta_names_the_parameters(self):
        # 1/q0 - 1/q1 is one ulp, so delta = 1 - (alpha + beta)/ulp; the CLI
        # passes its flags as the names
        message = (
            "infeasible count exponent delta=-2251799813685247.0 from alpha=0.25, beta=0.25, q0=1.0 and "
            "q1=1.0000000000000002; need 0 <= delta < n for realizable per-scale counts"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_params(1, 0.25, 0.25, 1.0, 1.0000000000000002, 2.0, 2.0)
        with pytest.raises(ValueError, match=r"^infeasible count exponent .* from --alpha=0\.25, --beta=0\.25, --q0="):
            build_params(1, 0.25, 0.25, 1.0, 1.0000000000000002, 2.0, 2.0, names=("--alpha", "--beta", "--q0", "--q1"))


class TestParams:
    def test_derived_quantities(self):
        params = canonical_params()
        assert params.theta == 0.5
        assert params.p == 2.0
        assert params.r_star == 2.0
        assert params.r == 2.0  # defaults to r_star
        assert params.delta == 0.5

    def test_explicit_r_and_composed_exponent(self):
        params = canonical_params(r0=2.0, r1=4.0)
        assert params.r_star == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert params.r == pytest.approx(8.0 / 3.0, rel=1e-15)
        violating = canonical_params(r0=4.0, r1=4.0, r=2.0)
        assert violating.r == 2.0
        assert violating.r_star == 4.0

    def test_only_dimension_one(self):
        with pytest.raises(ValueError):
            build_params(2, 0.25, 0.25, 1.0, INF, 2.0, 2.0)

    def test_is_a_case_with_its_checks(self):
        params = canonical_params()
        assert params == SharpnessParams(
            0.25, 0.25, 1.0, INF, 2.0, 2.0, n=1, delta=params.delta, x_exp=params.x_exp, y_exp=params.y_exp
        )
        assert isinstance(params, CaseParams)
        # theta is 4e-300, so 1/p = 1/q0 = 1: the case check rejects it
        message = (
            "composed integrability 1/p=1.0 leaves (0, 1): alpha=1e-300 and beta=0.25 give theta=4e-300 "
            "on q0=1.0 and q1=inf; p must be in (1, inf)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_params(1, 1e-300, 0.25, 1.0, INF, 2.0, 2.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CaseParams(1e-300, 0.25, 1.0, INF, 2.0, 2.0)


class TestScaleCounts:
    def test_integer_counts_stay_in_bracket(self):
        counts = integer_counts(0.5, range(1, 5))
        assert counts == [2, 2, 3, 5]
        for j, count in zip(range(1, 5), counts):
            assert math.ceil(2.0 ** (0.5 * j) - 1e-9) <= count <= math.floor(2.0 ** (0.5 * (j + 1)) + 1e-9)

    def test_zero_delta_gives_one_per_scale(self):
        assert integer_counts(0.0, range(1, 8)) == [1] * 7


class TestFamilies:
    def test_closed_form_family_structure(self):
        params = canonical_params()
        atom = build_atom(2)
        f_sum, g_sum = build_closed_form_family(params, atom, 3)
        assert f_sum.scales.tolist() == [1, 2, 3] == g_sum.scales.tolist()
        assert f_sum.count_exps.tolist() == [0.5, 1.0, 1.5] == g_sum.count_exps.tolist()
        assert f_sum.coeff_exp == params.x_exp
        assert g_sum.coeff_exp == params.y_exp
        assert f_sum.coefficient(3) == 2.0 ** (3 * params.x_exp)

    def test_placed_family_is_disjoint_with_shared_layout(self):
        params = canonical_params()
        atom = build_atom(2)
        f_sum, g_sum, placement, extent = build_placed_family(params, atom, 3)
        assert f_sum.count_exps == (1.0, 1.0, math.log2(3)) == g_sum.count_exps
        assert placement == ((3, 6), (21, 24), (65, 68, 71))
        assert place(f_sum.scales, (2, 2, 3)) == (placement, extent)
        assert verify_disjoint(f_sum.scales, placement)
        assert extent == 10

    def test_tampered_placement_detected(self):
        # Two same-scale translates one numerator apart overlap.
        assert not verify_disjoint((1,), ((3, 4),))
        # Cross-scale collision: center 3/2 at scale 1 hits center 3/4 at scale 2.
        assert not verify_disjoint((1, 2), ((3,), (6,)))

    def test_atomic_sum_validation(self):
        atom = build_atom(2)
        with pytest.raises(ValueError):
            AtomicSum(atom, 1, 0.25, (1, 2), (1.0,))
        with pytest.raises(ValueError):
            build_closed_form_family(canonical_params(), atom, 0)

    def test_disjointness_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(300):
            scales = tuple(sorted(rng.choice(7, size=int(rng.integers(1, 4)), replace=False).tolist()))
            placement = tuple(
                tuple(int(k) for k in rng.integers(0, 2**j * 12, size=int(rng.integers(1, 4))))
                for j in scales
            )
            expected = pairwise_disjoint(scales, placement)
            assert verify_disjoint(scales, placement) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_disjointness_at_exact_touching_and_one_cell_overlap(self):
        cases = [
            ((2,), ((3, 5),), True),  # (2, 4)/4 and (4, 6)/4 touch
            ((2,), ((3, 4),), False),
            ((1, 2), ((3,), (9,)), True),  # (4, 8)/4 and (8, 10)/4 touch
            ((1, 2), ((3,), (8,)), False),  # (7, 9)/4 overlaps one finest cell
            ((1, 3), ((3,), (17,)), True),  # (8, 16)/8 and (16, 18)/8 touch
            ((1, 3), ((3,), (16,)), False),
            ((1, 3), ((3,), (7,)), True),  # (6, 8)/8 touches from the left
            ((1, 3), ((3,), (8,)), False),
            ((1, 2, 3), ((3,), (12,), (10,)), False),  # nested: (9, 11)/8 inside (8, 16)/8
        ]
        for scales, placement, expected in cases:
            assert pairwise_disjoint(scales, placement) == expected
            assert verify_disjoint(scales, placement) == expected


class TestClosedFormNorms:
    def test_single_term_equals_calibration_constant(self):
        # A one-term sum at scale 0 with unit coefficient is exactly the
        # reference atom, so the bound collapses to the measured constant.
        atom = build_atom(2)
        single = AtomicSum(atom, 1, 0.0, (0,), (0.0,))
        space = BesovParams(0.25, 1.0, 2.0)
        value = atomic_besov_upper(single, space)
        assert value > 0.0
        # Tuple parameters are accepted too and give the identical number.
        assert atomic_besov_upper(single, (0.25, 1.0, 2.0)) == value

    def test_calibration_shared_by_atoms_built_alike(self, monkeypatch):
        # Each CLI call builds a fresh atom object; once one atom with the
        # same profile has been calibrated in a space, no decomposition runs.
        space = BesovParams(0.25, 1.0, 2.0)
        first = atomic_besov_upper(AtomicSum(build_atom(2), 1, 0.0, (0,), (0.0,)), space)
        calls = []
        monkeypatch.setattr(
            sharpness, "decompose", lambda *args: calls.append(args) or decompose(*args)
        )
        second = atomic_besov_upper(AtomicSum(build_atom(2), 1, 0.0, (0,), (0.0,)), space)
        assert second == first
        assert calls == []

    def test_equal_contribution_constancy_in_all_four_spaces(self):
        # With the solved exponents, every scale contributes the same amount,
        # so bound(L) / L**(1/r) is constant across L to high precision --
        # for f in both measurement spaces and for g in the dual-index spaces.
        params = canonical_params()
        atom = build_atom(2)
        levels = default_level_grid(8, 64)
        spaces_f = [
            BesovParams(params.alpha, params.q0, params.r0),
            BesovParams(-params.beta, params.q1, params.r1),
        ]
        spaces_g = [
            BesovParams(-params.alpha, conjugate_exponent(params.q0), params.r0),
            BesovParams(params.beta, conjugate_exponent(params.q1), params.r1),
        ]
        for pick, spaces in ((0, spaces_f), (1, spaces_g)):
            for space in spaces:
                normalized = []
                for level in levels:
                    pair = build_closed_form_family(params, atom, level)
                    value = atomic_besov_upper(pair[pick], space)
                    normalized.append(value / level ** (1.0 / space.q))
                spread = (max(normalized) - min(normalized)) / min(normalized)
                assert spread <= 1e-9

    def test_regularity_must_stay_below_moment_order(self):
        single = AtomicSum(build_atom(2), 1, 0.0, (0,), (0.0,))
        with pytest.raises(ValueError):
            atomic_besov_upper(single, BesovParams(2.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            atomic_besov_upper(single, BesovParams(-2.5, 1.0, 2.0))

    def test_distribution_single_term_is_atom_profile(self):
        atom = build_atom(2)
        single = AtomicSum(atom, 1, 0.0, (0,), (0.0,))
        profile = atomic_distribution(single)
        assert np.allclose(profile.values, atom.rearrangement.values, rtol=1e-12)
        assert np.allclose(profile.cum_masses, atom.rearrangement.cum_masses, rtol=1e-12)

    def test_distribution_two_disjoint_atoms_double_mass(self):
        atom = build_atom(2)
        one = atomic_distribution(AtomicSum(atom, 1, 0.0, (0,), (0.0,)))
        two = atomic_distribution(AtomicSum(atom, 1, 0.0, (0,), (1.0,)))
        assert np.allclose(two.values, one.values, rtol=1e-12)
        assert np.allclose(two.cum_masses, 2.0 * one.cum_masses, rtol=1e-12)

    def test_prefix_distributions_merge_cross_scale_ties_exactly(self):
        # coeff_exp = 0 gives every scale the same values, so each value ties
        # across scales; the prefixes read off one sort equal fresh rearrangements.
        atom = build_atom(2)
        scales, count_exps = tuple(range(6)), tuple(map(math.log2, (1, 3, 2, 5, 4, 7)))
        full = AtomicSum(atom, 1, 0.0, scales, count_exps)
        levels = [1, 2, 3, 6]
        for level, profile in zip(levels, sharpness._prefix_distributions(full, levels)):
            reference = reference_distribution(AtomicSum(atom, 1, 0.0, scales[:level], count_exps[:level]))
            assert np.array_equal(profile.values, reference.values)
            assert np.array_equal(profile.cum_masses, reference.cum_masses)
            assert profile.values.size == atom.rearrangement.values.size
        full_profile = atomic_distribution(full)
        assert np.array_equal(full_profile.cum_masses, reference_distribution(full).cum_masses)

    def test_distribution_leaving_float_range_names_the_scale(self):
        atom = build_atom(2)
        # 2**1023.8 is finite, but times the atom's peak value 1.28 it is not.
        with pytest.raises(ArithmeticError, match="scale 1:"):
            atomic_distribution(AtomicSum(atom, 1, 1023.8, (0, 1), (0.0, 0.0)))
        with pytest.raises(ArithmeticError, match="scale 1024"):
            atomic_distribution(AtomicSum(atom, 1, 1.0, (1024,), (0.0,)))
        with pytest.raises(ArithmeticError, match="scale 1075"):
            atomic_distribution(AtomicSum(atom, 1, 0.0, (1075,), (0.0,)))

    def test_pairing_single_atom_and_exact_linearity(self):
        atom = build_atom(2)
        single = AtomicSum(atom, 1, 0.0, (0,), (0.0,))
        assert pairing(single, single) == atom.l2_norm_sq
        params = canonical_params()
        for level in (1, 4, 16, 64):
            f_sum, g_sum = build_closed_form_family(params, atom, level)
            assert pairing(f_sum, g_sum) == pytest.approx(
                level * atom.l2_norm_sq, rel=1e-12
            )

    def test_pairing_rejects_mismatched_layouts(self):
        atom = build_atom(2)
        params = canonical_params()
        f2, g2 = build_closed_form_family(params, atom, 2)
        f3, _ = build_closed_form_family(params, atom, 3)
        with pytest.raises(ValueError):
            pairing(f2, f3)
        other_atom = build_atom(2)
        f_other = AtomicSum(other_atom, 1, f2.coeff_exp, f2.scales, f2.count_exps)
        with pytest.raises(ValueError):
            pairing(f_other, g2)
        placed = build_placed_family(params, atom, 2)
        with pytest.raises(ValueError):
            pairing(placed.f, g2)

    def test_pairing_compares_array_layouts(self):
        # Layouts held as arrays are compared as arrays: a mismatch in scales
        # or count exponents raises pairing's own error, not numpy's
        # truth-value or broadcast error.
        atom = build_atom(2)
        f2, g2 = build_closed_form_family(canonical_params(), atom, 2)
        f3, _ = build_closed_form_family(canonical_params(), atom, 3)
        for f in (
            AtomicSum(atom, 1, f2.coeff_exp, f2.scales + 1, f2.count_exps),
            AtomicSum(atom, 1, f2.coeff_exp, f2.scales, f2.count_exps + 1.0),
            f3,
        ):
            with pytest.raises(ValueError, match="^pairing requires the same atom layout on both factors$"):
                pairing(f, g2)

    @pytest.mark.parametrize(
        "params", [canonical_params(), canonical_params(r0=4.0, r1=4.0)], ids=["r-eq-p", "r-ne-p"]
    )
    def test_tuple_layout_gives_the_array_layout_closed_forms(self, params):
        # The placed-family oracle builds its sums from tuples; every closed
        # form reads them bit for bit as it reads the same layout in arrays.
        atom = build_atom(2)
        placed = build_placed_family(params, atom, 6)
        f_arr, g_arr = (
            AtomicSum(atom, s.n, s.coeff_exp, np.asarray(s.scales), np.asarray(s.count_exps))
            for s in (placed.f, placed.g)
        )
        for space in (BesovParams(params.alpha, params.q0, params.r0), BesovParams(-params.beta, params.q1, params.r1)):
            assert atomic_besov_upper(placed.f, space) == atomic_besov_upper(f_arr, space)
        assert pairing(placed.f, placed.g) == pairing(f_arr, g_arr) == pairing(placed.f, g_arr)
        dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
        assert sharpness._dual_norms(placed.g, [2, 4, 6], dual) == sharpness._dual_norms(g_arr, [2, 4, 6], dual)
        tuple_profile, array_profile = atomic_distribution(placed.g), atomic_distribution(g_arr)
        assert np.array_equal(tuple_profile.values, array_profile.values)
        assert np.array_equal(tuple_profile.cum_masses, array_profile.cum_masses)

    @pytest.mark.parametrize("q", [1.0, 2.0, INF])
    def test_empty_sum_is_zero(self, q):
        # The sum over no scales is the zero function: its level-0 log-sum is
        # -inf at every q, so its bound is 0, as are its pairing and norm.
        empty = AtomicSum(build_atom(2), 1, 0.0, (), ())
        assert atomic_besov_upper(empty, BesovParams(0.25, 1.0, q)) == 0.0
        assert pairing(empty, empty) == 0.0
        assert lorentz_norm(atomic_distribution(empty), LorentzParams(2.0, q)) == 0.0


class TestRasterizationOracle:
    def test_distribution_and_pairing_match_rasterized_fields(self):
        # Brute-force cross-check of the closed forms on small instances.
        atom = build_atom(2)
        params = canonical_params()
        target = LorentzParams(params.p, params.r)
        for level in (1, 2, 3):
            f_sum, g_sum, placement, extent = build_placed_family(params, atom, level)
            grid = rasterization_grid(extent, 4096)
            f_grid = rasterize(f_sum, placement, grid)
            g_grid = rasterize(g_sum, placement, grid)
            exact = lorentz_norm(atomic_distribution(f_sum), target)
            brute = lorentz_norm(MeasuredValues.from_field(f_grid), target)
            assert brute == pytest.approx(exact, rel=0.02)
            cell = grid.period / grid.points_per_axis
            quadrature = float(np.sum(f_grid.samples * g_grid.samples)) * cell
            assert quadrature == pytest.approx(pairing(f_sum, g_sum), rel=0.02)

    def test_grid_besov_within_factor_two_of_bound(self):
        # The closed form is calibrated on a single atom; interactions between
        # blocks on the grid can push the measured seminorm slightly above or
        # below it, but never outside a factor of two on small instances.
        atom = build_atom(2)
        params = canonical_params()
        space = BesovParams(params.alpha, params.q0, params.r0)
        for level in (1, 2, 3):
            f_sum, _, placement, extent = build_placed_family(params, atom, level)
            grid = rasterization_grid(extent, 4096)
            d = decompose(rasterize(f_sum, placement, grid), lowest_scale_for_dc_only(grid), 8)
            measured = besov_seminorm(d, space)
            bound = atomic_besov_upper(f_sum, space)
            assert 0.5 * bound <= measured <= 2.0 * bound

    def test_rasterization_grid_covers_placement(self):
        f_sum, _, placement, extent = build_placed_family(canonical_params(), build_atom(2), 3)
        grid = rasterization_grid(extent, 2048)
        assert grid.period >= extent
        assert grid.points_per_axis == 2048
        with pytest.raises(ValueError):
            rasterize(f_sum, placement, GridSpec(1, 2048, 8.0))
        with pytest.raises(ValueError):
            rasterize(f_sum, placement, GridSpec(2, 64, 16.0))

    def test_placement_must_match_the_counts(self):
        atom = build_atom(2)
        grid = GridSpec(1, 1024, 16.0)
        with pytest.raises(ValueError):
            rasterize(AtomicSum(atom, 1, 0.25, (1, 2), (0.0, 0.0)), ((3,),), grid)
        with pytest.raises(ValueError):
            rasterize(AtomicSum(atom, 1, 0.25, (1,), (0.5,)), ((3,),), grid)


class TestGrowthExperiment:
    def test_default_level_grid(self):
        assert default_level_grid(8, 64) == [8, 12, 16, 24, 32, 48, 64]
        with pytest.raises(ValueError):
            default_level_grid(0, 64)
        with pytest.raises(ValueError):
            default_level_grid(16, 16)

    def test_admissible_case_has_flat_ratio(self):
        # r = r_star: every fitted slope matches its closed-form target to
        # near machine precision and the ratio does not grow.
        result = growth_experiment(canonical_params(), build_atom(2), default_level_grid(8, 64))
        assert result.levels == [8, 12, 16, 24, 32, 48, 64]
        assert result.slopes["besov0"] == pytest.approx(0.5, abs=1e-12)
        assert result.slopes["besov1"] == pytest.approx(0.5, abs=1e-12)
        assert result.slopes["pairing"] == pytest.approx(1.0, abs=1e-12)
        assert result.slopes["lorentz_lower"] == pytest.approx(0.5, abs=1e-12)
        assert result.slopes["rhs_product"] == pytest.approx(0.5, abs=1e-12)
        assert abs(result.slopes["ratio"]) <= 1e-12
        assert result.expected["ratio"] == 0.0
        assert len(result.records) == 7
        assert {
            "L",
            "besov0",
            "besov1",
            "pairing",
            "g_dual_norm",
            "lorentz_lower",
            "rhs_product",
            "ratio",
        } == set(result.records[0])

    def test_violating_case_ratio_grows_at_predicted_rate(self):
        # 1/r - 1/r_star = 1/2 - 1/4: the ratio slope is exactly 1/4 because
        # the dual Lorentz norm at (2, 2) is a pure L2 norm (no finite-size
        # transient).
        params = canonical_params(r0=4.0, r1=4.0, r=2.0)
        result = growth_experiment(params, build_atom(2), default_level_grid(8, 64))
        assert result.expected["ratio"] == 0.25
        assert result.slopes["ratio"] == pytest.approx(0.25, abs=1e-12)

    def test_endpoint_outer_exponents(self):
        # r0 = 1, r1 = inf: the two bounds grow like L and stay constant.
        params = canonical_params(r0=1.0, r1=INF)
        result = growth_experiment(params, build_atom(2), default_level_grid(8, 64))
        assert result.slopes["besov0"] == pytest.approx(1.0, abs=1e-9)
        assert result.slopes["besov1"] == pytest.approx(0.0, abs=1e-9)
        assert abs(result.slopes["ratio"]) <= 1e-9

    @pytest.mark.parametrize(
        "params",
        [
            canonical_params(),
            canonical_params(r0=4.0, r1=4.0, r=2.0),
            build_params(1, 0.5, 0.5, 1.0, INF, 2.0, 2.0),
            canonical_params(r0=1.0, r1=INF),
        ],
        ids=["composed", "violating", "half", "endpoint"],
    )
    def test_records_equal_per_level_reference_bit_for_bit(self, params):
        # Every shape here has r = p, so the dual norm is the closed-form l^p'
        # sum of per-scale atom norms: equal to the merged reference up to
        # rounding.  The closed-form columns stay bit for bit.
        atom = build_atom(2)
        levels = default_level_grid(8, 64)
        dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
        assert dual.r == dual.p
        result = growth_experiment(params, atom, levels)
        for level, record in zip(levels, result.records):
            f_sum, g_sum = build_closed_form_family(params, atom, level)
            besov0 = atomic_besov_upper(f_sum, BesovParams(params.alpha, params.q0, params.r0))
            besov1 = atomic_besov_upper(f_sum, BesovParams(-params.beta, params.q1, params.r1))
            pair = pairing(f_sum, g_sum)
            g_dual_norm = lorentz_norm(reference_distribution(g_sum), dual)
            rhs_product = besov0 ** (1.0 - params.theta) * besov1**params.theta
            assert {key: record[key] for key in ("L", "besov0", "besov1", "pairing", "rhs_product")} == {
                "L": level,
                "besov0": besov0,
                "besov1": besov1,
                "pairing": pair,
                "rhs_product": rhs_product,
            }
            assert record["g_dual_norm"] == pytest.approx(g_dual_norm, rel=1e-13)
            assert record["lorentz_lower"] == pytest.approx(pair / g_dual_norm, rel=1e-13)
            assert record["ratio"] == pytest.approx(pair / g_dual_norm / rhs_product, rel=1e-13)

    @pytest.mark.parametrize(
        "params", [canonical_params(r0=4.0, r1=4.0), canonical_params(r0=2.0, r1=4.0)], ids=["r4-r4", "r2-r4"]
    )
    def test_merged_dual_norms_equal_per_level_reference_bit_for_bit(self, params):
        # r != p (duals (2, 4/3) and (2, 8/5)): each level's norm is read off
        # the one-sort merge and equals a fresh rearrangement exactly.
        atom = build_atom(2)
        levels = default_level_grid(8, 64)
        dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
        assert dual.r != dual.p
        _, g_top = build_closed_form_family(params, atom, levels[-1])
        norms = sharpness._dual_norms(g_top, levels, dual)
        assert norms == [
            lorentz_norm(reference_distribution(build_closed_form_family(params, atom, level)[1]), dual)
            for level in levels
        ]

    @pytest.mark.parametrize(
        "params, levels",
        [
            (canonical_params(), [8, 12, 16, 16, 24, 32, 48, 64]),
            (canonical_params(r0=4.0, r1=4.0, r=2.0), [8, 12, 16, 16, 24, 32, 48, 64]),
            (build_params(1, 0.5, 0.5, 1.0, INF, 2.0, 2.0), [8, 12, 16, 16, 24, 32, 48, 64]),
            # r != p converges too slowly below L = 128 to pass the slope checks
            (canonical_params(r0=4.0, r1=4.0), [128, 192, 256, 256, 384, 512, 768, 1024]),
        ],
        ids=["composed", "violating", "half", "r4-r4"],
    )
    def test_one_pass_sweep_equals_per_level_reference(self, params, levels):
        # The sweep reads every level off the top family; each level's own
        # family gives the same record bits, also for a level listed twice.
        # The slopes are the closed-form least-squares slopes of all six
        # columns, which can round apart from one-column polyfits in the last
        # bits only.
        atom = build_atom(2)
        result = growth_experiment(params, atom, levels)
        dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
        reference = []
        for level in levels:
            f_sum, g_sum = build_closed_form_family(params, atom, level)
            besov0 = atomic_besov_upper(f_sum, BesovParams(params.alpha, params.q0, params.r0))
            besov1 = atomic_besov_upper(f_sum, BesovParams(-params.beta, params.q1, params.r1))
            pair = pairing(f_sum, g_sum)
            g_dual_norm = sharpness._dual_norms(g_sum, [level], dual)[0]
            rhs_product = besov0 ** (1.0 - params.theta) * besov1**params.theta
            reference.append({
                "L": level, "besov0": besov0, "besov1": besov1, "pairing": pair, "g_dual_norm": g_dual_norm,
                "lorentz_lower": pair / g_dual_norm, "rhs_product": rhs_product,
                "ratio": pair / g_dual_norm / rhs_product,
            })
        assert result.records == reference
        keys = ("besov0", "besov1", "pairing", "lorentz_lower", "rhs_product", "ratio")
        log_levels = np.log2(np.asarray(levels, dtype=float))
        columns = np.log2([[record[key] for key in keys] for record in reference])
        dx = log_levels - log_levels.mean()
        fitted = (dx[:, None] * (columns - columns.mean(axis=0))).sum(axis=0) / (dx * dx).sum()
        assert result.slopes == dict(zip(keys, fitted.tolist()))
        for key in keys:
            one_column = float(np.polyfit(log_levels, np.log2([record[key] for record in reference]), 1)[0])
            assert result.slopes[key] == pytest.approx(one_column, rel=0, abs=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1024), st.data())
    def test_slope_fit_equals_polyfit(self, l_min, data):
        # The sweep's columns are base-2 logs of values that grow at most
        # like L, so below 32 in magnitude on grids up to 2**20; on random
        # such columns the closed-form fit is np.polyfit's up to rounding.
        levels = default_level_grid(l_min, data.draw(st.integers(8 * l_min, 1 << 20), label="l_max"))
        x = np.log2(np.asarray(levels, dtype=float))
        entries = st.floats(-32.0, 32.0, allow_subnormal=False)
        columns = np.array(data.draw(st.lists(entries, min_size=6 * len(levels), max_size=6 * len(levels))))
        columns = columns.reshape(len(levels), 6)
        fitted = sharpness._least_squares_slopes(x, columns)
        assert np.abs(fitted - np.polyfit(x, columns, 1)[0]).max() <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1024), st.data())
    def test_slope_fit_of_a_line_equals_exact_arithmetic(self, l_min, data):
        # Every growth slope of a sweep lies in [-1, 1].  Rounding the entries
        # of a line through the grid's log2 levels already moves its slope by
        # up to about 1e-15 (9.5e-16 at l_min=739, l_max=5912, slope 0.891,
        # offset 7), so the fit is held to the least-squares slope of the
        # rounded entries in exact rational arithmetic.
        levels = default_level_grid(l_min, data.draw(st.integers(8 * l_min, 1 << 20), label="l_max"))
        x = np.log2(np.asarray(levels, dtype=float))
        slopes = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), label="slopes"))
        offsets = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6), label="offsets"))
        columns = offsets + np.multiply.outer(x, slopes)
        fitted = sharpness._least_squares_slopes(x, columns)
        xs = [Fraction(v) for v in x.tolist()]
        x_mean = sum(xs) / len(xs)
        dx = [v - x_mean for v in xs]
        for fit, column in zip(fitted.tolist(), columns.T.tolist()):
            ys = [Fraction(v) for v in column]
            y_mean = sum(ys) / len(ys)
            exact = sum(a * (b - y_mean) for a, b in zip(dx, ys)) / sum(a * a for a in dx)
            assert abs(Fraction(fit) - exact) <= Fraction(1e-15)

    def test_r_eq_p_sweep_takes_the_atom_norm_once(self, monkeypatch):
        # The atom's dual norm is cached per atom and space: a second sweep
        # on the same atom runs no Lorentz kernel and gives the same result.
        atom = build_atom(2)
        first = growth_experiment(canonical_params(), atom, default_level_grid(8, 64))
        calls = []
        monkeypatch.setattr(sharpness, "lorentz_norm", lambda *args: calls.append(args) or lorentz_norm(*args))
        second = growth_experiment(canonical_params(), atom, default_level_grid(8, 64))
        assert calls == []
        assert second.records == first.records and second.slopes == first.slopes

    def test_mass_underflow_is_an_arithmetic_error(self):
        # r = 4 != p = 2 merges the distribution, whose mass factors
        # 2**(j/2 - j) times the atom's smallest width are 0.0 from j = 2130
        # on; the check fires before any entry is formed.
        with pytest.raises(ArithmeticError, match="scale 2130:"):
            growth_experiment(canonical_params(r0=4.0, r1=4.0), build_atom(2), default_level_grid(8, 3072))

    def test_closed_form_dual_norm_passes_the_float_range(self):
        # r = p: the dual norm is summed in base-2 logs, so the sweep whose
        # merged masses would underflow at scale 2130 completes with exact
        # equal-contribution slopes.
        result = growth_experiment(canonical_params(), build_atom(2), default_level_grid(8, 3072))
        assert result.levels[-1] == 3072
        assert result.slopes["lorentz_lower"] == pytest.approx(0.5, abs=1e-12)
        assert result.slopes["pairing"] == pytest.approx(1.0, abs=1e-12)
        assert abs(result.slopes["ratio"]) <= 1e-12

    def test_slow_dual_norm_convergence_is_reported_not_hidden(self):
        # For r0 = 2, r1 = 4 the target r = r_star = 8/3 needs the dual
        # (p', r') = (2, 8/5) Lorentz norm, whose finite-size transient decays
        # too slowly for the default level sweep: the internal slope check
        # fails loudly instead of silently reporting a bad fit.  The bounded
        # ratio for this ordering is established by the verification suites.
        params = canonical_params(r0=2.0, r1=4.0)
        with pytest.raises(ArithmeticError):
            growth_experiment(params, build_atom(2), default_level_grid(8, 64))

    def test_level_sweep_validation(self):
        params = canonical_params()
        atom = build_atom(2)
        with pytest.raises(ValueError):
            growth_experiment(params, atom, [8, 16, 64])
        with pytest.raises(ValueError):
            growth_experiment(params, atom, [8, 12, 16, 24])
        with pytest.raises(ValueError):
            growth_experiment(params, atom, [0, 8, 16, 64])
