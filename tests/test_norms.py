"""Tests for rearrangements and the rearrangement-based norm family."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_step_values
from lplorentz.norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    RearrangementProfile,
    besov_seminorm,
    conjugate_exponent,
    lebesgue_norm,
    lorentz_embedding_constant,
    lorentz_norm,
    lorentz_normalization,
    rearrangement,
    triebel_seminorm,
)
from lplorentz.norms import (
    _grid_lp,
    _power_sums_log2,
    _prefix_power_sums_log2,
    _profile_from_sorted,
    _profile_rows,
)
from lplorentz.interpolation import InterpParams, interpolation_norm_K
from lplorentz.spectral import GridSpec, SampledField, decompose, lowest_scale_for_dc_only

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
        prof = rearrangement(MeasuredValues.from_sequence([3.0, 2.0, 1.0]))
        assert prof.distribution(2.0) == 2.0  # {|f| >= 2} has two entries
        assert prof.distribution(2.5) == 1.0
        assert prof.distribution(0.5) == 3.0
        assert prof.distribution(4.0) == 0.0

    def test_overflowing_total_mass_raises_without_runtime_warning(self):
        # the masses are finite, their sum is not: the single-input path and
        # the row kernel both report it as the profile's ValueError
        v = MeasuredValues(np.array([1.0, 2.0]), np.array([1e308, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^cumulative masses must be finite"):
                rearrangement(v)
            with pytest.raises(ValueError, match="^cumulative masses must be finite"):
                _profile_rows(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 1.0], [1e308, 1e308]]))


class TestAbsorbedMass:
    """A mass below half an ulp of the running sum leaves the cumulative mass
    unchanged: its step has zero width and merges into the step above."""

    V = MeasuredValues(np.array([3.0, 2.0, 1.0]), np.array([1e20, 1.0, 1.0]))

    def test_rearrangement_drops_the_zero_width_steps(self):
        prof = rearrangement(self.V)
        assert prof.values.tolist() == [3.0]
        assert prof.cum_masses.tolist() == [1e20]

    def test_row_kernel_gives_the_same_profile(self):
        values = np.array([[1.0, 3.0, 2.0, 0.0], [3.0, 2.0, 1.0, 0.0]])
        masses = np.array([[1.0, 1.0, 1.0, 0.0], [1e20, 1.0, 1.0, 0.0]])
        prof = _profile_rows(values, masses)
        assert prof.lengths.tolist() == [3, 1]
        assert prof.values[1].tolist() == [3.0, 0.0, 0.0, 0.0]
        assert prof.cum[1].tolist() == [1e20] * 4
        # every positive entry of the merged row takes the one step left; a zero takes the length
        assert prof.step[1].tolist() == [0, 0, 0, 1]

    def test_lorentz_norm_equals_lebesgue_norm(self):
        assert lorentz_norm(self.V, (2.0, 2.0)) == lebesgue_norm(self.V, 2.0) == 3e10


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


wide_value = st.one_of(st.just(0.0), st.floats(min_value=1e-60, max_value=1e60))
plain_exponent = st.sampled_from([1.0, 1.5, 2.0, 3.7, 8.0])


class TestPlainRootBits:
    """Where a power sum is a normal float the norms return its plain root
    ``(power sum) ** (1/p)`` bit for bit; only the other sums are rescaled.
    Values span 1e-60..1e60, so 8th powers leave the float range both ways."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(wide_value, min_size=1, max_size=30), plain_exponent, st.data())
    def test_lebesgue_norm(self, values, p, data):
        values = np.array(values)
        masses = np.array(data.draw(st.lists(non_dyadic_mass, min_size=values.size, max_size=values.size)))
        with np.errstate(over="ignore"):
            total = float(np.sum(values**p * masses))
        assume(np.finfo(float).tiny <= total < INF)
        assert lebesgue_norm(MeasuredValues(values, masses), p) == total ** (1.0 / p)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.lists(wide_value, min_size=1, max_size=30), plain_exponent, non_dyadic_mass,
           st.randoms(use_true_random=False))
    def test_grid_lp_on_the_whole_array_and_per_row(self, n_rows, row, p, cell_volume, rnd):
        # each row a shuffled copy of ``row`` scaled by its own power of ten
        a = np.array([[10.0 ** rnd.randint(-40, 40) * x for x in rnd.sample(row, len(row))]
                      for _ in range(n_rows)])
        with np.errstate(over="ignore"):
            total = np.sum(a**p) * cell_volume
            row_totals = np.sum(a**p, axis=1) * cell_volume
        if np.finfo(float).tiny <= total < INF:
            assert _grid_lp(a, p, cell_volume) == total ** (1.0 / p)
        normal = (row_totals >= np.finfo(float).tiny) & (row_totals < INF)
        assume(normal.any())
        got = _grid_lp(a, p, cell_volume, axis=1)
        assert np.array_equal(got[normal], (row_totals ** (1.0 / p))[normal])


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
        "values, masses, p",
        # the norms are about 1e310 and 3e308, past the largest float
        [([1e300, 3e299], [1e30, 1e30], 3.0), ([2.0, 1.0], [1e308, 1e308], 1.0)],
        ids=["value-power", "mass-sum"],
    )
    def test_lebesgue_overflow_raises_without_runtime_warning(self, values, masses, p):
        v = MeasuredValues(np.array(values), np.array(masses))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="^Lebesgue integral diverged on these values$"):
                lebesgue_norm(v, p)

    @pytest.mark.parametrize(
        "values, masses, params",
        [
            ([1e300, 3e299], [1e20, 1e20], (2.0, 2.0)),  # values**r and the norm overflow
            ([1e200], [1e300], (1.01, INF)),  # value * S**(1/p) overflows
        ],
        ids=["value-power", "weak-type"],
    )
    def test_overflow_raises_without_runtime_warning(self, values, masses, params):
        # stderr must not depend on where numpy's warning points to
        v = MeasuredValues(np.array(values), np.array(masses))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="diverged"):
                lorentz_norm(v, LorentzParams(*params))

    def test_mass_powers_past_the_float_range_leave_a_finite_norm(self):
        # S**(r/p) overflows, inf - inf, whatever the values are divided by;
        # the norm (0.5 * 19e600)**(1/4) is finite
        v = MeasuredValues(np.array([2.0, 1.0]), np.array([1e300, 1e300]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lorentz_norm(v, LorentzParams(2.0, 4.0)) == pytest.approx(9.5**0.25 * 1e150, rel=1e-15)


    @pytest.mark.parametrize(
        "values, masses, p",
        [([1e200, 3e199], [1.0, 1.0], 3.0), ([2.0, 1.0], [1e308, 1e308], 1.5), ([3e-200, 1e-200], [1.0, 2.0], 2.0)],
        ids=["value-power", "mass-sum", "value-underflow"],
    )
    def test_power_sums_outside_the_normal_range_are_rescaled(self, values, masses, p):
        # the power sums overflow or underflow, the norms do not
        v = MeasuredValues(np.array(values), np.array(masses))
        top = max(values)
        unit = MeasuredValues(np.array(values) / top, np.array(masses))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lebesgue_norm(v, p) == pytest.approx(top * lebesgue_norm(unit, p), rel=1e-15)
            if sum(masses) == INF:
                return  # a Lorentz norm needs the total mass, past the float range here
            for r in (1.0, p, 4.0):
                expected = top * lorentz_norm(unit, LorentzParams(p, r))
                assert lorentz_norm(v, LorentzParams(p, r)) == pytest.approx(expected, rel=1e-15)


class TestPowerSumLog2:
    """:func:`_prefix_power_sums_log2`; the whole sum is its one-level case."""

    def test_matches_direct_sum_in_range(self):
        exps = np.array([-3.5, 0.25, 2.0, 7.125])
        for r in (1.0, 2.0, 4.0 / 3.0, 5.5):
            want = math.log2(float(np.sum((2.0**exps) ** r))) / r
            assert _prefix_power_sums_log2(exps, [len(exps)], r)[0] == pytest.approx(want, rel=1e-14)
        assert _prefix_power_sums_log2(exps, [len(exps)], INF)[0] == 7.125

    def test_exponents_past_the_float_range(self):
        # 2**2000 and 2**-2000 are not floats; their l^r sums still are in log form
        for shift in (2000.0, -2000.0):
            exps = np.full(4, shift)
            assert _prefix_power_sums_log2(exps, [len(exps)], 2.0)[0] == shift + 1.0
            assert _prefix_power_sums_log2(exps, [len(exps)], 1.0)[0] == shift + 2.0
            assert _prefix_power_sums_log2(exps, [len(exps)], INF)[0] == shift

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.7, INF])
    def test_empty_prefix_is_minus_inf(self, r):
        # level 0 sums nothing, also when the exponents are empty; it takes
        # neither the last prefix's maximum nor the log of an empty sum
        assert _prefix_power_sums_log2([], [0], r) == [-INF]
        assert _prefix_power_sums_log2([5.0, 7.0], [0, 1, 0, 2], r)[:3] == [-INF, 5.0, -INF]

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.7, INF])
    def test_prefix_sums_keep_the_bits_of_each_prefix(self, r):
        # exponents spanning +-1000: an entry past a prefix may lie far above
        # its maximum, whose power would overflow (an error under pytest's
        # RuntimeWarning filter) if it were raised
        rng = np.random.default_rng(29)
        for exps in (
            rng.uniform(-1000.0, 1000.0, 257),
            np.linspace(-1000.0, 1000.0, 257),
            3.0 + 1e-13 * rng.standard_normal(257),
        ):
            levels = list(range(1, exps.size + 1))
            sums = _prefix_power_sums_log2(exps, levels, r)
            assert sums == [_prefix_power_sums_log2(exps[:n], [n], r)[0] for n in levels]
            assert sums == [_power_sums_log2(exps[None, :n], None, r)[0] for n in levels]
            assert _prefix_power_sums_log2(exps, [200, 7, 7, 257], r) == [sums[199], sums[6], sums[6], sums[256]]

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
                vals = [lorentz_norm(v, LorentzParams(p, r)) / lorentz_normalization(p, r) for r in grid_r]
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
        return decompose(f, 0, 8)

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
        d = decompose(f, 0, 8)
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
        d = decompose(f, 0, 8)
        params = BesovParams(0.25, 2.0, 2.0)
        t = triebel_seminorm(d, params)
        parts = sorted(
            2.0 ** (j * params.s) * math.sqrt(math.pi) for j in (2, 6)
        )
        assert parts[-1] <= t * (1 + 1e-12)
        assert t <= (parts[0] + parts[1]) * (1 + 1e-12)

    def test_zero_decomposition(self):
        grid = GridSpec(1, 256, TWO_PI)
        d = decompose(SampledField(grid, np.zeros(256)), 0, 6)
        assert besov_seminorm(d, BesovParams(0.5, 2.0, 2.0)) == 0.0
        assert triebel_seminorm(d, BesovParams(0.5, 2.0, 2.0)) == 0.0

    @pytest.mark.parametrize("seminorm", [besov_seminorm, triebel_seminorm])
    def test_zero_blocks_add_nothing_under_an_overflowing_weight(self, seminorm):
        # the weight 2**(200*j) leaves the float range from j = 6 on: a zero
        # block adds 0 under it, and only a nonzero block diverges
        grid = GridSpec(1, 256, TWO_PI)
        zero = decompose(SampledField(grid, np.zeros(256)), 0, 6)
        top = decompose(SampledField(grid, np.cos(64.0 * grid.axis_coordinates())), 0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert seminorm(zero, BesovParams(200.0, 2.0, 2.0)) == 0.0
            with pytest.raises(ArithmeticError, match=r"^l\^2 sum diverged"):
                seminorm(top, BesovParams(200.0, 2.0, 2.0))

    @pytest.mark.parametrize(
        "seminorm, params",
        [(besov_seminorm, (0.5, 300.0, 2.0)), (besov_seminorm, (0.5, 2.0, 300.0)),
         (triebel_seminorm, (0.5, 300.0, 2.0)), (triebel_seminorm, (0.5, 2.0, 300.0))],
        ids=["besov-inner", "besov-outer", "triebel-outer", "triebel-envelope"],
    )
    def test_overflowing_powers_are_rescaled_without_runtime_warning(self, seminorm, params):
        # 1000 * cos(16x) has block sums near 1e3 and weighted ones near 7e3,
        # whose 300th powers leave the float range; the seminorms do not
        grid = GridSpec(1, 1024, TWO_PI)
        quiet = decompose(SampledField(grid, np.cos(16.0 * grid.axis_coordinates())), 0, 8)
        loud = decompose(SampledField(grid, 1e3 * np.cos(16.0 * grid.axis_coordinates())), 0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = seminorm(loud, BesovParams(*params))
        assert value == pytest.approx(1e3 * seminorm(quiet, BesovParams(*params)), rel=1e-12)

    def test_grid_sums_rescale_each_row_and_raise_past_the_float_range(self):
        rows = np.array([[1e-200, 2e-200], [1e200, 1e200], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _grid_lp(rows, 2.0, 1.0, axis=1)
            assert norms == pytest.approx([math.sqrt(5.0) * 1e-200, math.sqrt(2.0) * 1e200, 0.0], rel=1e-15)
            # 3e308 itself is past the largest float
            with pytest.raises(ArithmeticError, match=r"^l\^1 sum diverged"):
                _grid_lp(np.full(3, 1e308), 1.0, 1.0)


class TestHomogeneityOverTheFloatRange:
    """``norm(lam * f) == lam * norm(f)`` for every power of ten ``lam`` that
    keeps ``lam * norm(f)`` a normal float, for the four spaces of the
    ``norm`` command.  The blocks are scaled directly, so the FFT's own range
    does not enter."""

    GRID = GridSpec(1, 1024, TWO_PI)
    FIELD = SampledField(GRID, np.cos(4.0 * GRID.axis_coordinates()))

    @staticmethod
    def _norm(space, lam):
        cls = TestHomogeneityOverTheFloatRange
        if space in ("lebesgue", "lorentz"):
            v = MeasuredValues.from_field(cls.FIELD)
            v = MeasuredValues(lam * v.values, v.masses)
            return lebesgue_norm(v, 2.0) if space == "lebesgue" else lorentz_norm(v, LorentzParams(2.0, 2.0))
        d = decompose(cls.FIELD, lowest_scale_for_dc_only(cls.GRID), 7)
        d = dataclasses.replace(d, blocks=lam * d.blocks, lowpass=lam * d.lowpass)
        seminorm = besov_seminorm if space == "besov" else triebel_seminorm
        return seminorm(d, BesovParams(0.5, 2.0, 2.0))

    @pytest.mark.parametrize("space", ["lebesgue", "lorentz", "besov", "triebel"])
    def test_every_power_of_ten_with_a_normal_norm(self, space):
        base = self._norm(space, 1.0)
        checked = 0
        for k in range(-323, 309):
            lam = 10.0**k
            expected = lam * base
            if not (np.finfo(float).tiny <= expected < INF):
                continue
            assert self._norm(space, lam) == pytest.approx(expected, rel=1e-12), k
            checked += 1
        assert checked > 600


# 30 values and 30 masses drawn at seed 0, pinned as a scaling example below:
# scaled by 2**500 and 2**-1000, the mass powers S**(r/p) of the Lorentz
# (1.36, 2) sum underflow, so dividing the values by their largest alone
# would still read 0
_LOGNORMAL = np.random.default_rng(0).lognormal(size=(2, 30)).tolist()
scale_exponent = st.integers(-1000, 1000)


class TestLorentzScaling:
    """``||f(./mu) * lam||_{p,r} = lam * mu**(1/p) * ||f||_{p,r}`` for a step
    function whose values are scaled by ``lam`` and masses by ``mu``, both
    powers of two in ``2**[-1000, 1000]``: either factor may take the power
    sum out of the float range while the norm stays a normal float."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)), min_size=1, max_size=30),
        scale_exponent,
        scale_exponent,
        st.sampled_from([(1.36, 2.0), (2.0, 2.0), (3.0, 1.3), (1.5, 4.0)]),
    )
    @example([tuple(pair) for pair in zip(*_LOGNORMAL)], 500, -1000, (1.36, 2.0))
    def test_values_and_masses_scale_the_norm(self, entries, a, b, params):
        values, masses = np.array(entries).T
        tiny = np.finfo(float).tiny
        scaled = MeasuredValues(values * 2.0**a, masses * 2.0**b)
        # every scaled value and mass, and the total mass, is a normal float
        assume(scaled.values.min() >= tiny and scaled.masses.min() >= tiny)
        assume(scaled.values.max() < INF and np.sum(scaled.masses) < INF)
        base = lorentz_norm(MeasuredValues(values, masses), LorentzParams(*params))
        shift = round(b / params[0])
        assume(-1000 < a + shift + math.log2(base) < 1000)
        expected = math.ldexp(base * 2.0 ** (b / params[0] - shift), a + shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lorentz_norm(scaled, LorentzParams(*params)) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestLebesgueScaling:
    """``lebesgue_norm(lam * f(./mu)) = lam * mu**(1/p) * lebesgue_norm(f)``
    for values scaled by ``lam`` and masses by ``mu``, both powers of two in
    ``2**[-1000, 1000]``: the powers may leave the float range, or fall below
    its normal range while their masses keep them in the sum."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)), min_size=1, max_size=30),
        scale_exponent,
        scale_exponent,
        st.sampled_from([1.0, 1.5, 2.0, 3.7, 4.0, 8.0]),
    )
    # (1.3 * 2**-268)**4 is subnormal on the mass 2**1000; the norm is 1.3 * 2**-18
    @example([(1.3, 1.0)], -268, 1000, 4.0)
    def test_values_and_masses_scale_the_norm(self, entries, a, b, p):
        values, masses = np.array(entries).T
        scaled = MeasuredValues(values * 2.0**a, masses * 2.0**b)
        base = lebesgue_norm(MeasuredValues(values, masses), p)
        shift = round(b / p)
        assume(-1000 < a + shift + math.log2(base) < 1000)
        expected = math.ldexp(base * 2.0 ** (b / p - shift), a + shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lebesgue_norm(scaled, p) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestPythonFloatResults:
    """The norms return Python floats, on in-range input and on input whose
    power sums leave the float range; ``norm`` writes them through
    ``json.dumps``."""

    GRID = GridSpec(1, 1024, TWO_PI)

    @pytest.mark.parametrize("amplitude", [1.0, 1e-200, 1e200])
    def test_norms_of_a_scaled_cosine(self, amplitude):
        field = SampledField(self.GRID, amplitude * np.cos(4.0 * self.GRID.axis_coordinates()))
        v = MeasuredValues.from_field(field)
        d = decompose(field, lowest_scale_for_dc_only(self.GRID), 7)
        got = [
            lebesgue_norm(v, 2.0),
            lebesgue_norm(v, INF),
            lorentz_norm(v, LorentzParams(2.0, 2.0)),
            lorentz_norm(v, LorentzParams(2.0, INF)),
            besov_seminorm(d, BesovParams(0.5, 2.0, 2.0)),
            triebel_seminorm(d, BesovParams(0.5, 2.0, 2.0)),
            interpolation_norm_K(v, InterpParams(theta=0.5, r=2.0)),
        ]
        assert [type(x) for x in got] == [float] * len(got)

    def test_lorentz_norm_on_the_weak_type_products(self):
        values, masses = np.array(_LOGNORMAL)
        v = MeasuredValues(values * 2.0**500, masses * 2.0**-1000)
        assert type(lorentz_norm(v, LorentzParams(1.36, 2.0))) is float
