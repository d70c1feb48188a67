"""Tests for rearrangements and the rearrangement-based norm family."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_step_values
from lplorentz.norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    RearrangementProfile,
    besov_seminorm,
    conjugate_exponent,
    distribution_function,
    lebesgue_norm,
    lorentz_embedding_constant,
    lorentz_norm,
    lorentz_normalization,
    normalized_lorentz_norm,
    rearrangement,
    triebel_seminorm,
)
from lplorentz.norms import _power_sum_log2, _profile_from_sorted
from lplorentz.spectral import GridSpec, SampledField, decompose, make_cutoff_profile

INF = math.inf
TWO_PI = 2.0 * math.pi

finite_positive = st.floats(min_value=1e-3, max_value=1e3)


# A small pool of values, so that drawn lists tie often, and non-dyadic masses,
# so that summing tied masses in another order would change the last bits.
TIE_POOL = [0.3, 1.0, 1.7, 2.9, 6.1]
non_dyadic_mass = st.floats(min_value=0.01, max_value=10.0).filter(lambda m: (m * 2.0**20) % 1.0 != 0.0)


@st.composite
def tied_or_tie_free(draw):
    """``(values, masses)`` with values from ``TIE_POOL`` or pairwise distinct."""
    values = draw(
        st.one_of(
            st.lists(st.sampled_from(TIE_POOL), min_size=1, max_size=40),
            st.lists(finite_positive, min_size=1, max_size=40, unique=True),
        )
    )
    masses = draw(st.lists(non_dyadic_mass, min_size=len(values), max_size=len(values)))
    return np.array(values), np.array(masses)


def reference_merge(values, masses):
    """Tie merge of decreasingly sorted ``values`` that always builds the step
    index and runs ``reduceat``: ``(step values, cumulative masses)``."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(values)) + 1))
    return values[starts], np.cumsum(np.add.reduceat(masses, starts))


def reference_lorentz_norm(values, cum, p, r):
    """Lorentz norm of a step profile with both powers of every piece taken."""
    if r == INF:
        return float(np.max(values * cum ** (1.0 / p)))
    prev = np.concatenate(([0.0], cum[:-1]))
    return float(np.sum(values**r * (p / r) * (cum ** (r / p) - prev ** (r / p)))) ** (1.0 / r)


@st.composite
def entries_with_one_bad(draw, good, bad):
    """A list of ``good`` draws with one entry replaced by a ``bad`` draw."""
    entries = draw(st.lists(good, min_size=1, max_size=30))
    entries[draw(st.integers(0, len(entries) - 1))] = draw(bad)
    return np.array(entries)


class TestMeasuredValues:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasuredValues(np.array([1.0, -0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            MeasuredValues(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            MeasuredValues(np.array([np.nan]), np.array([1.0]))

    @settings(max_examples=100, deadline=None)
    @given(
        entries_with_one_bad(
            st.one_of(st.just(0.0), finite_positive), st.sampled_from([np.nan, INF, -INF, -1.0, -1e-300])
        )
    )
    def test_rejects_a_bad_value_anywhere(self, values):
        with pytest.raises(ValueError, match="values must be finite and nonnegative"):
            MeasuredValues(values, np.ones_like(values))

    @settings(max_examples=100, deadline=None)
    @given(entries_with_one_bad(finite_positive, st.sampled_from([0.0, -0.0, -2.0, np.nan, INF, -INF])))
    def test_rejects_a_bad_mass_anywhere(self, masses):
        with pytest.raises(ValueError, match="masses must be finite and strictly positive"):
            MeasuredValues(np.ones_like(masses), masses)

    def test_empty_is_valid(self):
        assert MeasuredValues(np.empty(0), np.empty(0)).total_mass == 0.0

    def test_from_sequence_is_counting_measure_of_magnitudes(self):
        v = MeasuredValues.from_sequence([-3.0, 2.0, 0.0])
        assert np.array_equal(v.values, [3.0, 2.0, 0.0])
        assert np.array_equal(v.masses, [1.0, 1.0, 1.0])
        assert v.total_mass == 3.0

    def test_from_field_uses_cell_volume(self):
        grid = GridSpec(1, 8, 4.0)
        f = SampledField(grid, np.array([1.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        v = MeasuredValues.from_field(f)
        assert np.array_equal(v.values, np.abs(f.samples))
        assert np.allclose(v.masses, 0.5)

    def test_alignment_requires_identical_masses(self):
        a = MeasuredValues(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        b = MeasuredValues(np.array([4.0, 5.0]), np.array([1.0, 2.0]))
        c = MeasuredValues(np.array([4.0, 5.0]), np.array([2.0, 1.0]))
        assert a.aligned_with(b)
        assert not a.aligned_with(c)


class TestRearrangementProfileValidation:
    @pytest.mark.parametrize(
        "values",
        [
            [2.0, 2.0],
            [1.0, 2.0],
            [3.0, 1.0, 1.0],
            [3.0, 2.0, 0.0],
            [3.0, -1.0],
            [0.0],
            [-1.0],
            [np.nan],
            [3.0, np.nan, 1.0],
            [INF, 1.0],
        ],
    )
    def test_rejects_values_not_strictly_decreasing_and_positive(self, values):
        cum = np.arange(1.0, len(values) + 1.0)
        with pytest.raises(ValueError, match="strictly decreasing and positive"):
            RearrangementProfile(np.array(values), cum)

    @pytest.mark.parametrize(
        "cum",
        [[0.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0, 2.0], [np.nan], [1.0, np.nan], [1.0, INF]],
    )
    def test_rejects_cumulative_masses_not_strictly_increasing_and_positive(self, cum):
        values = np.arange(len(cum), 0.0, -1.0)
        with pytest.raises(ValueError, match="strictly increasing and positive"):
            RearrangementProfile(values, np.array(cum))

    def test_rejects_infinite_value_and_mass(self):
        # Without the check this profile reached lorentz_norm(..., (2, inf)) and
        # distribution(0.5), which both returned inf.
        with pytest.raises(ValueError, match="finite"):
            RearrangementProfile(np.array([INF, 1.0]), np.array([1.0, INF]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_positive, min_size=1, max_size=30, unique=True))
    def test_accepts_strictly_decreasing_positive_profiles(self, values):
        values = np.sort(np.array(values))[::-1]
        prof = RearrangementProfile(values, np.cumsum(np.ones_like(values)))
        assert prof.total_mass == values.size


class TestRearrangement:
    def test_sorts_merges_and_drops_zeros(self):
        v = MeasuredValues(
            np.array([2.0, 0.0, 5.0, 2.0, 1.0]),
            np.array([1.0, 7.0, 0.5, 2.0, 1.0]),
        )
        prof = rearrangement(v)
        assert np.array_equal(prof.values, [5.0, 2.0, 1.0])
        assert np.allclose(prof.cum_masses, [0.5, 3.5, 4.5])

    def test_matches_brute_force_on_randoms(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = random_step_values(rng)
            prof = rearrangement(v)
            # brute force: sort value/mass pairs by value descending
            order = np.argsort(-v.values, kind="stable")
            vals, cums = [], []
            run = 0.0
            for idx in order:
                if v.values[idx] == 0.0:
                    continue
                run += v.masses[idx]
                if vals and vals[-1] == v.values[idx]:
                    cums[-1] = run
                else:
                    vals.append(v.values[idx])
                    cums.append(run)
            assert np.array_equal(prof.values, vals)
            assert np.allclose(prof.cum_masses, cums, rtol=1e-14)

    def test_evaluate_is_right_continuous_generalized_inverse(self):
        v = MeasuredValues(np.array([3.0, 1.0]), np.array([2.0, 4.0]))
        prof = rearrangement(v)
        s = np.array([0.0, 1.0, 2.0, 2.5, 6.0, 7.0])
        assert np.array_equal(prof.evaluate(s), [3.0, 3.0, 1.0, 1.0, 0.0, 0.0])

    def test_distribution_uses_superlevel_convention(self):
        v = MeasuredValues.from_sequence([3.0, 2.0, 1.0])
        assert distribution_function(v, 2.0) == 2.0  # {|f| >= 2} has two entries
        assert distribution_function(v, 2.5) == 1.0
        assert distribution_function(v, 0.5) == 3.0
        assert distribution_function(v, 4.0) == 0.0


class TestTieMerge:
    @settings(max_examples=300, deadline=None)
    @given(tied_or_tie_free())
    def test_bit_identical_to_reduceat_merge(self, drawn):
        values, masses = drawn
        order = np.argsort(values, kind="stable")[::-1]
        values, masses = values[order], masses[order]
        want_values, want_cum = reference_merge(values, masses)
        prof = _profile_from_sorted(values, masses)
        assert np.array_equal(prof.values, want_values)
        assert np.array_equal(prof.cum_masses, want_cum)

    @settings(max_examples=300, deadline=None)
    @given(tied_or_tie_free(), st.sampled_from([1.5, 2.0, 3.7]), st.sampled_from([1.0, "p", 2.5, INF]))
    def test_lorentz_norm_bit_identical_to_two_power_formula(self, drawn, p, r):
        r = p if r == "p" else r
        values, masses = drawn
        order = np.argsort(values, kind="stable")[::-1]
        values, masses = values[order], masses[order]
        want = reference_lorentz_norm(*reference_merge(values, masses), p, r)
        prof = _profile_from_sorted(values, masses)
        cum_before = prof.cum_masses.copy()
        assert lorentz_norm(prof, (p, r)) == want
        assert np.array_equal(prof.cum_masses, cum_before)


class TestLorentzNorm:
    def test_indicator_closed_form(self):
        for p in (1.5, 2.0, 3.0):
            for r in (1.0, 2.0, 5.0, INF):
                for m in (0.25, 1.0, 7.0):
                    ind = MeasuredValues(np.array([1.0]), np.array([m]))
                    got = lorentz_norm(ind, LorentzParams(p, r))
                    want = lorentz_normalization(p, r) * m ** (1.0 / p)
                    assert got == pytest.approx(want, rel=1e-14)

    def test_second_exponent_infinity_is_weak_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            v = random_step_values(rng)
            prof = rearrangement(v)
            got = lorentz_norm(v, LorentzParams(2.0, INF))
            want = float(np.max(prof.values * prof.cum_masses**0.5))
            assert got == pytest.approx(want, rel=1e-14)

    def test_matches_quadrature_oracle(self):
        # norm = ( integral of (s**(1/p) f*(s))**r ds/s )**(1/r)
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = random_step_values(rng, max_len=12)
            prof = rearrangement(v)
            for (p, r) in ((2.0, 2.0), (1.5, 1.0), (3.0, 4.0)):
                total = prof.cum_masses[-1]
                s = np.geomspace(total * 1e-9, total, 400001)
                fstar = prof.evaluate(s)
                integrand = (s ** (1.0 / p) * fstar) ** r / s
                oracle = np.trapezoid(integrand, s) ** (1.0 / r)
                got = lorentz_norm(v, LorentzParams(p, r))
                # the oracle carries trapezoid error at rearrangement jumps
                assert got == pytest.approx(oracle, rel=1e-3)

    def test_coincides_with_lebesgue_at_equal_exponents(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = random_step_values(rng)
            for p in (1.5, 2.0, 3.0):
                a = lorentz_norm(v, LorentzParams(p, p))
                b = lebesgue_norm(v, p)
                assert abs(a - b) <= 1e-12 * b

    def test_zero_input_gives_zero(self):
        v = MeasuredValues(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert lorentz_norm(v, LorentzParams(2.0, 2.0)) == 0.0

    @pytest.mark.parametrize(
        "values, masses, params",
        [
            ([1e200, 3e199], [1.0, 1.0], (2.0, 2.0)),  # values**r overflows
            ([2.0, 1.0], [1e300, 1e300], (2.0, 4.0)),  # S**(r/p) overflows, inf - inf
        ],
        ids=["value-power", "mass-power"],
    )
    def test_overflow_raises_without_runtime_warning(self, values, masses, params):
        # stderr must not depend on where numpy's warning points to
        v = MeasuredValues(np.array(values), np.array(masses))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="diverged"):
                lorentz_norm(v, LorentzParams(*params))


class TestPowerSumLog2:
    def test_matches_direct_sum_in_range(self):
        exps = np.array([-3.5, 0.25, 2.0, 7.125])
        for r in (1.0, 2.0, 4.0 / 3.0, 5.5):
            want = math.log2(float(np.sum((2.0**exps) ** r))) / r
            assert _power_sum_log2(exps, r) == pytest.approx(want, rel=1e-14)
        assert _power_sum_log2(exps, INF) == 7.125

    def test_exponents_past_the_float_range(self):
        # 2**2000 and 2**-2000 are not floats; their l^r sums still are in log form
        for shift in (2000.0, -2000.0):
            exps = np.full(4, shift)
            assert _power_sum_log2(exps, 2.0) == shift + 1.0
            assert _power_sum_log2(exps, 1.0) == shift + 2.0
            assert _power_sum_log2(exps, INF) == shift

    def test_raw_norms_are_not_monotone_in_second_exponent(self):
        # the unnormalized scale: for an indicator, the (2,6) norm is strictly
        # below the (2,inf) norm, so no universal "larger r is smaller" law
        ind = MeasuredValues(np.array([1.0]), np.array([1.0]))
        n6 = lorentz_norm(ind, LorentzParams(2.0, 6.0))
        ninf = lorentz_norm(ind, LorentzParams(2.0, INF))
        assert n6 < ninf

    def test_normalized_norms_are_monotone_in_second_exponent(self):
        rng = np.random.default_rng(23)
        grid_r = [1.0, 1.5, 2.0, 4.0, 16.0, INF]
        for _ in range(60):
            v = random_step_values(rng, max_len=25)
            for p in (1.5, 2.0, 3.0):
                vals = [normalized_lorentz_norm(v, LorentzParams(p, r)) for r in grid_r]
                for lo, hi in zip(vals, vals[1:]):
                    assert hi <= lo * (1.0 + 1e-12)

    def test_embedding_constant_bounds_norm_growth(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            v = random_step_values(rng, max_len=25)
            for (p, r0, r1) in ((2.0, 1.0, 2.0), (2.0, 2.0, INF), (3.0, 1.5, 4.0)):
                lhs = lorentz_norm(v, LorentzParams(p, r1))
                rhs = lorentz_embedding_constant(p, r0, r1) * lorentz_norm(v, LorentzParams(p, r0))
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_embedding_constant_requires_increasing_exponents(self):
        with pytest.raises(ValueError):
            lorentz_embedding_constant(2.0, 3.0, 2.0)

    def test_normalization_values(self):
        assert lorentz_normalization(2.0, 2.0) == 1.0
        assert lorentz_normalization(2.0, INF) == 1.0
        assert lorentz_normalization(2.0, 1.0) == pytest.approx(2.0)
        assert lorentz_normalization(3.0, 2.0) == pytest.approx(math.sqrt(1.5))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LorentzParams(1.0, 2.0)  # first exponent must exceed 1
        with pytest.raises(ValueError):
            LorentzParams(INF, 2.0)
        with pytest.raises(ValueError):
            LorentzParams(2.0, 0.5)


class TestConjugateExponent:
    def test_values(self):
        assert conjugate_exponent(1.0) == INF
        assert conjugate_exponent(INF) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
        assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            conjugate_exponent(0.5)


class TestBlockSpaceSeminorms:
    def _single_mode(self, k: float):
        grid = GridSpec(1, 1024, TWO_PI)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.cos(k * x))
        return decompose(f, make_cutoff_profile(1.0), 0, 8)

    def test_single_mode_closed_form(self):
        # cos(16x) occupies exactly block 4; L2 norm over the period is sqrt(pi)
        d = self._single_mode(16.0)
        for s in (-0.5, 0.0, 0.75):
            for q in (1.0, 2.0, INF):
                got = besov_seminorm(d, BesovParams(s, 2.0, q))
                assert got == pytest.approx(2.0 ** (4 * s) * math.sqrt(math.pi), rel=1e-12)

    def test_single_mode_triebel_equals_besov(self):
        d = self._single_mode(16.0)
        for q in (1.0, 2.0, INF):
            params = BesovParams(0.5, 2.0, q)
            assert triebel_seminorm(d, params) == pytest.approx(
                besov_seminorm(d, params), rel=1e-12
            )

    def test_two_modes_sum_across_scales(self):
        grid = GridSpec(1, 1024, TWO_PI)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.cos(4.0 * x) + 3.0 * np.cos(64.0 * x))
        d = decompose(f, make_cutoff_profile(1.0), 0, 8)
        s, q = 0.5, 2.0
        t2 = 2.0 ** (2 * s) * math.sqrt(math.pi)
        t6 = 2.0 ** (6 * s) * 3.0 * math.sqrt(math.pi)
        want = (t2**q + t6**q) ** (1.0 / q)
        assert besov_seminorm(d, BesovParams(s, 2.0, q)) == pytest.approx(want, rel=1e-12)
        # sup form
        assert besov_seminorm(d, BesovParams(s, 2.0, INF)) == pytest.approx(max(t2, t6), rel=1e-12)

    def test_triebel_with_disjoint_supports_in_space(self):
        # two modes at well-separated scales: the pointwise aggregate is
        # bounded between the max and the sum of the individual seminorms
        grid = GridSpec(1, 1024, TWO_PI)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.cos(4.0 * x) + np.cos(64.0 * x))
        d = decompose(f, make_cutoff_profile(1.0), 0, 8)
        params = BesovParams(0.25, 2.0, 2.0)
        t = triebel_seminorm(d, params)
        parts = sorted(
            2.0 ** (j * params.s) * math.sqrt(math.pi) for j in (2, 6)
        )
        assert parts[-1] <= t * (1 + 1e-12)
        assert t <= (parts[0] + parts[1]) * (1 + 1e-12)

    def test_zero_decomposition(self):
        grid = GridSpec(1, 256, TWO_PI)
        d = decompose(SampledField(grid, np.zeros(256)), make_cutoff_profile(1.0), 0, 6)
        assert besov_seminorm(d, BesovParams(0.5, 2.0, 2.0)) == 0.0
        assert triebel_seminorm(d, BesovParams(0.5, 2.0, 2.0)) == 0.0
