"""Tests for K-functionals, weighted decompositions, and sequence partitions."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_step_values
from lplorentz.interpolation import (
    CHECKS,
    InterpParams,
    JDecomposition,
    duality_pairing_check,
    ell_partition,
    ell_partition_constant,
    interpolation_norm_K,
    j_bound,
    j_bound_constant,
    j_sum_functional,
    k_functional_L1_Linf,
    layer_cake_bound_ratio,
    layer_cake_constant,
    layer_cake_decompose,
    reiteration_check,
    run_interp_suite,
    trivial_decomposition,
)
from lplorentz import interpolation, norms
from lplorentz.interpolation import _GL_NODES, _GL_WEIGHTS, _threshold_index
from lplorentz.norms import (
    LorentzParams,
    MeasuredValues,
    conjugate_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_normalization,
    rearrangement,
)

INF = math.inf

THRESHOLD_BASES = (2.0, 2.0**1.5, 2.0 ** (1.0 / 0.7))


def threshold_index_reference(d: float, base: float) -> int:
    """Scalar ``k`` with ``base**k < d <= base**(k+1)`` under Python's float pow."""
    k = math.ceil(math.log(d, base)) - 1
    while base**k >= d:
        k -= 1
    while base ** (k + 1) < d:
        k += 1
    return k


def k_norm_per_piece_reference(v, params: InterpParams) -> float:
    """Weighted K-norm with one Gauss-Legendre panel set per profile piece."""
    theta, r = params.theta, params.r
    prof = rearrangement(v)
    values, cum = prof.values, prof.cum_masses
    prev = np.concatenate(([0.0], cum[:-1]))
    prefix = np.cumsum(values * (cum - prev))
    if r == INF:
        return float(np.max(cum ** (-theta) * prefix))
    total = values[0] ** r * cum[0] ** ((1.0 - theta) * r) / ((1.0 - theta) * r)
    total += prefix[-1] ** r * cum[-1] ** (-theta * r) / (theta * r)
    for i in range(1, values.size):
        b = values[i]
        a = prefix[i - 1] - b * prev[i]
        u0, u1 = math.log(prev[i]), math.log(cum[i])
        nseg = max(1, math.ceil((u1 - u0) / math.log(2.0)))
        edges = np.linspace(u0, u1, nseg + 1)
        half = (edges[1] - edges[0]) / 2.0
        u = (edges[:-1] + edges[1:])[:, None] / 2.0 + half * _GL_NODES[None, :]
        integrand = (a + b * np.exp(u)) ** r * np.exp(-theta * r * u)
        total += float(np.sum(integrand * _GL_WEIGHTS[None, :]) * half)
    return total ** (1.0 / r)


def layer_cake_per_piece_reference(v: MeasuredValues):
    """Layer-cake pieces and endpoint norms built one piece at a time."""
    prof = rearrangement(v)
    group_k = np.array([threshold_index_reference(d, 2.0) for d in prof.cum_masses], dtype=int)
    pos = v.values > 0
    entry_k = group_k[np.searchsorted(-prof.values, -v.values[pos])]
    full_k = np.full(v.values.shape, np.iinfo(np.int64).min, dtype=np.int64)
    full_k[pos] = entry_k
    scales, pieces, norms0, norms1 = [], [], [], []
    for k in sorted(set(entry_k.tolist())):
        piece_values = np.where(full_k == k, v.values, 0.0)
        scales.append(k)
        pieces.append(piece_values)
        norms0.append(float(np.sum(piece_values * v.masses)))
        norms1.append(float(piece_values.max()))
    return scales, pieces, norms0, norms1


def partition_per_entry_reference(lam: np.ndarray, q0: float, q1: float, r0: float):
    """Rank blocks of ``lam`` routed one entry at a time, as dicts keyed by
    block index: ``(blocks, beta, gamma)`` with the sorted indices of each
    block and its weighted q0- and q1-sums."""
    lam = np.abs(lam)
    inv_q1 = 0.0 if q1 == INF else 1.0 / q1
    sigma = 1.0 / (1.0 / q0 - inv_q1)
    eta = (1.0 / q0 - 1.0 / r0) * sigma
    ranks = [int(np.sum(lam >= y)) for y in lam.tolist()]
    entry_k = [threshold_index_reference(d, 2.0**sigma) if y > 0 else None
               for y, d in zip(lam.tolist(), ranks)]
    positive = [k for k in entry_k if k is not None]
    if not positive:
        return {}, {}, {}
    entry_k = np.array([max(positive) if k is None else k for k in entry_k])
    blocks, beta, gamma = {}, {}, {}
    for k in sorted(set(entry_k.tolist())):
        idx = np.flatnonzero(entry_k == k)
        vals = lam[idx]
        blocks[k] = idx
        beta[k] = 2.0 ** (-k * eta) * float(np.sum(vals**q0)) ** (1.0 / q0)
        top = float(vals.max()) if q1 == INF else float(np.sum(vals**q1)) ** (1.0 / q1)
        gamma[k] = 2.0 ** (k * (1.0 - eta)) * top
    return blocks, beta, gamma


PARTITION_EXPONENTS = ((1.0, INF, 2.0), (1.5, 6.0, 3.0), (1.0, 4.0, 2.0))


positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def step_values(draw, allow_zeros: bool = False):
    """Measured values with repeated entries, optionally some zeros."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(positive_floats, min_size=1, max_size=8))
    if allow_zeros:
        pool.append(0.0)
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    masses = draw(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=n, max_size=n)
    )
    return MeasuredValues(np.array(values), np.array(masses))


def k_functional_vectorized(v: MeasuredValues, t: np.ndarray) -> np.ndarray:
    """Brute-force piecewise-linear evaluation used as an oracle."""
    prof = rearrangement(v)
    widths = np.diff(np.concatenate(([0.0], prof.cum_masses)))
    prefix = np.concatenate(([0.0], np.cumsum(prof.values * widths)))
    prev = np.concatenate(([0.0], prof.cum_masses[:-1]))
    tt = np.minimum(t, prof.cum_masses[-1])
    idx = np.searchsorted(prof.cum_masses, tt, side="left")
    safe = np.minimum(idx, len(prof.values) - 1)
    inside = idx < len(prof.values)
    return prefix[idx] + np.where(inside, prof.values[safe] * (tt - prev[safe]), 0.0)


def k_norm_trapezoid(v: MeasuredValues, theta: float, r: float, n: int = 40001) -> float:
    """The K-norm of ``v`` by the trapezoid rule in ``u = ln t``: ``n`` points
    on each piece between breakpoints and 60 past the end ones, extrapolated
    from ``n`` and ``2n - 1`` points (Richardson), with the integrand taken
    relative to its largest value at a breakpoint so that no power overflows."""
    cuts = np.log(rearrangement(v).cum_masses)
    top = float(np.max(np.exp(-theta * cuts) * k_functional_vectorized(v, np.exp(cuts))))
    edges = np.concatenate(([cuts[0] - 60.0], cuts, [cuts[-1] + 60.0]))

    def trapezoid(points):
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            u = np.linspace(lo, hi, points)
            total += np.trapezoid((np.exp(-theta * u) * k_functional_vectorized(v, np.exp(u)) / top) ** r, u)
        return total

    return top * ((4.0 * trapezoid(2 * n - 1) - trapezoid(n)) / 3.0) ** (1.0 / r)


class TestKFunctional:
    def test_counting_oracle(self):
        v = MeasuredValues.from_sequence([3.0, 2.0, 1.0])
        assert k_functional_L1_Linf(v, 0.0) == 0.0
        assert k_functional_L1_Linf(v, 0.5) == 1.5
        assert k_functional_L1_Linf(v, 2.0) == 5.0
        assert k_functional_L1_Linf(v, 2.5) == 5.5
        assert k_functional_L1_Linf(v, 10.0) == 6.0  # saturates at the L1 mass

    def test_concavity_and_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_step_values(rng)
            t = np.linspace(0.0, 1.5 * float(np.sum(v.values * v.masses)), 200)
            k = np.array([k_functional_L1_Linf(v, tt) for tt in t])
            assert np.all(np.diff(k) >= -1e-12)
            slopes = np.diff(k) / np.diff(t)
            assert np.all(np.diff(slopes) <= 1e-12)


class TestInterpolationNormK:
    def test_absorbed_masses_merge_into_the_step_above(self):
        # the masses 1 fall below half an ulp of 1e20: the input is the one step 3 on mass 1e20
        v = MeasuredValues(np.array([3.0, 2.0, 1.0]), np.array([1e20, 1.0, 1.0]))
        params = InterpParams(0.5, 2.0)
        assert interpolation_norm_K(v, params) == interpolation_norm_K(MeasuredValues([3.0], [1e20]), params)

    def test_large_r_stays_in_range_and_an_overflowing_norm_raises(self):
        # 1e3**128 overflows, but every term is taken relative to the row's peak
        v = MeasuredValues(np.array([1e3, 3.0]), np.array([1.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolation_norm_K(v, InterpParams(0.5, 128.0))
            # the norm 4 * 1.5e308 itself leaves the float range
            with pytest.raises(ArithmeticError, match="diverged"):
                interpolation_norm_K(MeasuredValues([1.5e308], [1.0]), InterpParams(0.5, 1.0))
        assert got == pytest.approx(k_norm_trapezoid(v, 0.5, 128.0), rel=1e-8)

    def test_indicator_closed_form(self):
        for theta in (0.25, 0.5, 0.8):
            for r in (1.0, 2.0, 4.0):
                for m in (0.5, 1.0, 8.0):
                    ind = MeasuredValues(np.array([2.0]), np.array([m]))
                    got = interpolation_norm_K(ind, InterpParams(theta, r))
                    want = (
                        2.0
                        * m ** (1.0 - theta)
                        * (1.0 / ((1.0 - theta) * r) + 1.0 / (theta * r)) ** (1.0 / r)
                    )
                    assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("value, mass", [(1e-160, 1e-160), (1e-200, 1e-200), (1e-300, 1e10)])
    @pytest.mark.parametrize("r", [2.0, INF])
    def test_single_step_closed_form_when_value_times_mass_is_subnormal(self, value, mass, r):
        # value * mass is subnormal or 0 and |log K| is in the hundreds, yet
        # the norm v * m**(1-theta) * (1/((1-theta)*r) + 1/(theta*r))**(1/r)
        # is a normal float
        theta = 0.5
        want = value * mass ** (1.0 - theta)
        if r != INF:
            want *= (1.0 / ((1.0 - theta) * r) + 1.0 / (theta * r)) ** (1.0 / r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolation_norm_K(MeasuredValues([value], [mass]), InterpParams(theta, r))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            v = random_step_values(rng, max_len=12)
            for (theta, r) in ((0.5, 2.0), (0.3, 1.0), (0.7, 4.0)):
                got = interpolation_norm_K(v, InterpParams(theta, r))
                u = np.linspace(-70.0, 70.0, 800001)
                t = np.exp(u)
                k = k_functional_vectorized(v, t)
                oracle = np.trapezoid((t**-theta * k) ** r, u) ** (1.0 / r)
                assert got == pytest.approx(oracle, rel=1e-7)

    def test_sup_form_matches_dense_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = random_step_values(rng, max_len=15)
            theta = 0.4
            got = interpolation_norm_K(v, InterpParams(theta, INF))
            t = np.geomspace(1e-8, 1e8, 200001)
            scan = float(np.max(t**-theta * k_functional_vectorized(v, t)))
            # the implementation takes the exact supremum at breakpoints; the
            # scan samples a finite grid, so it can only fall short slightly
            assert got >= scan - 1e-12 * got
            assert got == pytest.approx(scan, rel=1e-3)

    def test_ratio_to_lorentz_norm_is_constant_on_indicators(self):
        # theta = 1 - 1/p identifies the K-norm scale with the Lorentz scale:
        # the ratio depends on (p, r) but never on the indicator's mass
        for (p, r) in ((2.0, 1.0), (2.0, 2.0), (3.0, 2.0)):
            theta = 1.0 - 1.0 / p
            ratios = []
            for m in [2.0**k for k in range(0, 11)]:
                ind = MeasuredValues(np.array([1.0]), np.array([m]))
                knorm = interpolation_norm_K(ind, InterpParams(theta, r))
                lz = lorentz_norm(ind, LorentzParams(p, r))
                ratios.append(knorm / lz)
            spread = (max(ratios) - min(ratios)) / min(ratios)
            assert spread <= 1e-9

    def test_known_ratio_values(self):
        # (p, r) = (2, 1): K-norm / Lorentz = 2; (2, 2): sqrt(2)
        ind = MeasuredValues(np.array([1.0]), np.array([1.0]))
        r21 = interpolation_norm_K(ind, InterpParams(0.5, 1.0)) / lorentz_norm(
            ind, LorentzParams(2.0, 1.0)
        )
        r22 = interpolation_norm_K(ind, InterpParams(0.5, 2.0)) / lorentz_norm(
            ind, LorentzParams(2.0, 2.0)
        )
        assert r21 == pytest.approx(2.0, rel=1e-12)
        assert r22 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InterpParams(0.0, 2.0)
        with pytest.raises(ValueError):
            InterpParams(1.0, 2.0)
        with pytest.raises(ValueError):
            InterpParams(0.5, 0.9)
        with pytest.raises(ValueError):
            InterpParams(0.5, 2.0, rho=1.0)


class TestKNormScaling:
    """``interpolation_norm_K`` of a step function whose values are scaled by
    ``2**a`` and masses by ``2**b``, for ``a, b`` in ``[-1000, 1000]``, is the
    norm scaled by ``2**a * 2**(b*(1-theta))``, wherever the norm is a normal
    float: either factor may take the plain powers out of the float range."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)), min_size=1, max_size=30),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.sampled_from([1.0, 1.3, 2.0, 4.0, 32.0, 128.0, 600.0]),
        st.sampled_from([0.25, 0.5, 2.0 / 3.0]),
    )
    def test_values_and_masses_scale_the_norm(self, entries, a, b, r, theta):
        values, masses = np.array(entries).T
        scaled = MeasuredValues(values * 2.0**a, masses * 2.0**b)
        params = InterpParams(theta, r)
        base = interpolation_norm_K(MeasuredValues(values, masses), params)
        exponent = b * (1.0 - theta)
        shift = round(exponent)
        assume(-1000 < a + shift + math.log2(base) < 1000)
        expected = math.ldexp(base * 2.0 ** (exponent - shift), a + shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert interpolation_norm_K(scaled, params) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r, want", [(2.0, 1.4142135623730951e100), (1.0, 4e100), (INF, 1e100)])
    def test_masses_spanning_past_the_float_range(self, r, want):
        # masses 1e-200 and 1e200: scaled by the total, the first underflows,
        # and its step moves K by at most 2e-200, far below half an ulp of the
        # second step's closed form 1 * 1e200**(1/2) * (2/r + 2/r)**(1/r)
        # (at r = 2, 1.41421356237309502e100 by mpmath)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolation_norm_K(MeasuredValues([2.0, 1.0], [1e-200, 1e200]), InterpParams(0.5, r))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("values, theta", [([1e300, 1e-300], 0.5), ([2.0, 1.0], 0.999)])
    def test_masses_spanning_past_the_float_range_that_carry_the_norm_raise(self, values, theta):
        # here the first step, on mass 1e-200, carries (most of) the norm:
        # its t**(-theta) K(t) is 1e200 at theta = 1/2, and at theta = 0.999
        # the first step's 2 * 1e-200**0.001 is near the second's 1e200**0.001
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="span past the float range"):
                interpolation_norm_K(MeasuredValues(values, [1e-200, 1e200]), InterpParams(theta, 2.0))


class TestWeightedDecompositionBound:
    def _two_piece(self):
        # pieces at scales 0 and 3 on disjoint supports of one measure space
        return JDecomposition(
            np.array([0, 3]),
            np.array([[4.0, 2.0, 0.0], [0.0, 0.0, 0.5]]),
            np.array([1.0, 1.0, 3.0]),
            np.array([6.0, 1.5]),
            np.array([4.0, 0.5]),
        )

    def test_two_piece_frozen_values(self):
        d = self._two_piece()
        params = InterpParams(0.4, 2.0, rho=2.0)
        p_sum, q_sum = j_sum_functional(d, params)
        assert p_sum == pytest.approx(6.035420058648034, rel=1e-12)
        assert q_sum == pytest.approx(4.362503081147428, rel=1e-12)
        assert j_bound(d, params) == pytest.approx(34.835542519875446, rel=1e-12)

    def test_product_bound_is_relabel_invariant(self):
        d = self._two_piece()
        for (theta, r, rho) in ((0.4, 2.0, 2.0), (0.5, 1.0, 4.0), (0.7, INF, 2.0)):
            params = InterpParams(theta, r, rho=rho)
            base = j_bound(d, params)
            for h in (-3, -1, 2, 5):
                shifted = dataclasses.replace(d, scales=d.scales + h)
                assert j_bound(shifted, params) == pytest.approx(base, rel=1e-10)

    def test_reciprocal_ratio_shares_constant_and_still_bounds(self):
        # base rho and 1/rho give the same constant; the two weighted sums
        # differ (the scale grid runs the other way) but both dominate the
        # K-norm of the reassembled profile
        d = self._two_piece()
        a = InterpParams(0.4, 2.0, rho=2.0)
        b = InterpParams(0.4, 2.0, rho=0.5)
        assert j_bound_constant(a) == j_bound_constant(b)
        assert j_bound(d, b) == pytest.approx(36.53203108633226, rel=1e-12)
        total = d.total()
        assert np.array_equal(total.values, [4.0, 2.0, 0.5])
        for params in (a, b):
            knorm = interpolation_norm_K(total, InterpParams(params.theta, params.r))
            assert knorm <= j_bound(d, params)

    def test_bound_dominates_k_norm_on_layer_cake_decompositions(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            v = random_step_values(rng)
            dec = layer_cake_decompose(v)
            for (theta, r) in ((0.5, 2.0), (0.25, 1.0), (0.75, 4.0), (0.5, INF)):
                params = InterpParams(theta, r)
                assert interpolation_norm_K(v, params) <= j_bound(dec, params) * (1 + 1e-12)

    def test_trivial_decomposition_bound(self):
        v = MeasuredValues(np.array([1.0]), np.array([4.0]))
        d = trivial_decomposition(v, (1, 1), (INF, INF))
        params = InterpParams(0.5, 2.0)
        assert d.scales.tolist() == [0] and np.array_equal(d.pieces, [v.values])
        # single piece at scale 0: P = norm0, Q = norm1
        p_sum, q_sum = j_sum_functional(d, params)
        assert (p_sum, q_sum) == (4.0, 1.0)
        assert interpolation_norm_K(v, params) <= j_bound(d, params)

    def test_empty_and_mismatched_decompositions_raise(self):
        one = np.array([1.0])
        with pytest.raises(ValueError):
            JDecomposition(np.array([0]), np.array([one]), one, one, np.empty(0))
        with pytest.raises(ValueError):
            JDecomposition(np.array([0]), np.array([one]), np.ones(2), one, one)
        with pytest.raises(ValueError):
            JDecomposition(np.array([0]), np.array([one]), one, -one, one)
        for bad in (INF, np.nan):
            with pytest.raises(ValueError):
                JDecomposition(np.array([0]), np.array([one]), one, one, np.array([bad]))


class TestLayerCake:
    def test_two_level_frozen_oracle(self):
        v = MeasuredValues(np.array([4.0, 1.0]), np.array([1.0, 8.0]))
        dec = layer_cake_decompose(v)
        assert dec.scales.tolist() == [-1, 3]
        assert np.array_equal(dec.pieces, [[4.0, 0.0], [0.0, 1.0]])
        assert dec.norms0.tolist() == [4.0, 8.0] and dec.norms1.tolist() == [4.0, 1.0]

    def test_no_positive_value_gives_no_pieces(self):
        for n in (0, 3):
            dec = layer_cake_decompose(MeasuredValues(np.zeros(n), np.ones(n)))
            assert dec.scales.shape == dec.norms0.shape == dec.norms1.shape == (0,)
            assert dec.pieces.shape == (0, n)

    def test_indicator_single_piece(self):
        ind = MeasuredValues(np.array([2.0]), np.array([1.0]))
        dec = layer_cake_decompose(ind)
        assert dec.scales.tolist() == [-1]

    def test_pieces_reassemble_exactly_with_disjoint_supports(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = random_step_values(rng)
            dec = layer_cake_decompose(v)
            total = dec.total()
            assert np.array_equal(total.values, v.values)
            assert np.array_equal(total.masses, v.masses)
            assert np.max(np.sum(dec.pieces > 0, axis=0)) <= 1

    def test_piece_mass_and_height_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = random_step_values(rng)
            prof = rearrangement(v)
            dec = layer_cake_decompose(v)
            for j, piece in zip(dec.scales.tolist(), dec.pieces):
                support_mass = float(np.sum(dec.masses[piece > 0]))
                assert support_mass <= 2.0 ** (j + 1) * (1 + 1e-12)
                if 2.0**j < prof.cum_masses[-1]:
                    assert np.max(piece) <= float(prof.evaluate(2.0**j)) * (1 + 1e-12)

    def test_bound_ratio_stays_below_published_constant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = random_step_values(rng)
            for (p, r) in ((2.0, 2.0), (2.0, 1.0), (3.0, 2.0), (1.5, 4.0), (2.0, INF)):
                assert layer_cake_bound_ratio(v, (p, r)) <= layer_cake_constant(p, r)

    def test_constant_values(self):
        assert layer_cake_constant(2.0, INF) == pytest.approx(3.0 * math.sqrt(2.0))
        assert layer_cake_constant(2.0, 2.0) == pytest.approx(
            3.0 * 2.0**0.5 * math.log(2.0) ** -0.5
        )


class TestDerivedParametersNameP:
    # p = 1e300 is a valid exponent whose derived theta = 1 - 1/p and
    # conjugate p/(p-1) round onto an end of their ranges; the public
    # functions name p, not the derived value
    v = MeasuredValues([3.0, 1.0], [1.0, 2.0])

    def test_layer_cake_bound_ratio(self):
        with pytest.raises(ValueError, match=r"^p=1e\+300 is too large: theta = 1 - 1/p rounds to 1$"):
            layer_cake_bound_ratio(self.v, (1e300, 2.0))

    def test_duality_pairing_check(self):
        with pytest.raises(ValueError, match=r"^p=1e\+300 is too large: its conjugate p/\(p-1\) rounds to 1$"):
            duality_pairing_check(self.v, self.v, 1e300, 2.0)


class TestDualityPairing:
    def test_ratio_never_exceeds_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            masses = rng.uniform(0.05, 2.5, k)
            f = MeasuredValues(rng.lognormal(0, 1.3, k), masses)
            g = MeasuredValues(rng.lognormal(0, 1.3, k), masses.copy())
            for (p, r) in ((2.0, 2.0), (2.0, 1.0), (3.0, 2.0)):
                assert duality_pairing_check(f, g, p, r) <= 1.0 + 1e-12

    def test_indicator_self_pair_attains_one(self):
        ind = MeasuredValues(np.array([1.0]), np.array([4.0]))
        assert duality_pairing_check(ind, ind, 2.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_give_zero(self):
        f = MeasuredValues(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        g = MeasuredValues(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert duality_pairing_check(f, g, 2.0, 2.0) == 0.0

    def test_misaligned_and_zero_inputs_raise(self):
        f = MeasuredValues(np.array([1.0]), np.array([1.0]))
        g = MeasuredValues(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            duality_pairing_check(f, g, 2.0, 2.0)
        # a zero pairing over a zero norm product is 0, as the CLI's duality check records it
        zero = MeasuredValues(np.array([0.0]), np.array([1.0]))
        assert duality_pairing_check(f, zero, 2.0, 2.0) == 0.0


class TestLayerCakeAbsorbedMass:
    def test_absorbed_masses_join_the_step_above(self):
        v = MeasuredValues(np.array([3.0, 2.0, 1.0]), np.array([1e20, 1.0, 1.0]))
        d = layer_cake_decompose(v)
        assert d.scales.tolist() == [66]  # 2**66 < 1e20 <= 2**67
        assert d.pieces.tolist() == [[3.0, 2.0, 1.0]]
        assert (d.norms0.tolist(), d.norms1.tolist()) == ([3e20], [3.0])

    def test_absorbed_entries_keep_their_superlevel_mass(self):
        # {v >= 3} and {v >= 2} have the mass 1e20 of {v >= 4}, in block 66;
        # {v >= 1} has mass 2e20, in block 67
        v = MeasuredValues(np.array([4.0, 3.0, 2.0, 1.0]), np.array([1e20, 1.0, 1.0, 1e20]))
        d = layer_cake_decompose(v)
        assert d.scales.tolist() == [66, 67]
        assert d.pieces.tolist() == [[4.0, 3.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


class TestRankPartition:
    def test_single_entry_hand_computation(self):
        res = ell_partition(np.array([1.0]), 1.0, INF, 2.0)
        assert res.sigma == 1.0 and res.eta == 0.5
        assert res.scales.tolist() == [-1]
        assert res.blocks.tolist() == [[True]]
        assert res.beta.tolist() == [2.0**0.5] and res.gamma.tolist() == [2.0**-0.5]
        assert res.lhs == pytest.approx(2.0**0.5 + 2.0**-0.5, rel=1e-12)
        assert res.bound == pytest.approx(ell_partition_constant(1.0, INF, 2.0), rel=1e-12)
        assert res.ratio == pytest.approx(res.lhs / res.bound, rel=1e-12)

    def test_exponent_identities(self):
        for (q0, q1, r0) in PARTITION_EXPONENTS:
            res = ell_partition(np.ones(5), q0, q1, r0)
            inv_q1 = 0.0 if q1 == INF else 1.0 / q1
            assert res.sigma == pytest.approx(1.0 / (1.0 / q0 - inv_q1), rel=1e-12)
            assert res.sigma / q0 - res.eta == pytest.approx(res.sigma / r0, rel=1e-12)
            assert 1.0 - res.eta + res.sigma * inv_q1 == pytest.approx(
                res.sigma / r0, rel=1e-12
            )

    def test_geometric_sequence_block_structure(self):
        lam = np.array([2.0 ** (-abs(j)) for j in range(-20, 21)])
        res = ell_partition(lam, 1.0, INF, 2.0)
        assert res.blocks.shape == (6, 41)
        assert res.scales.tolist() == [-1, 1, 2, 3, 4, 5]
        assert res.blocks.sum(axis=1).tolist() == [1, 2, 4, 8, 16, 10]
        assert np.flatnonzero(res.blocks[0]).tolist() == [20]
        assert np.flatnonzero(res.blocks[1]).tolist() == [19, 21]
        assert np.flatnonzero(res.blocks[2]).tolist() == [17, 18, 22, 23]
        # every index lands in exactly one block
        assert res.blocks.sum(axis=0).tolist() == [1] * 41

    def test_bound_holds_on_randoms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 60))
            lam = rng.lognormal(0.0, 2.0, k)
            for (q0, q1, r0) in ((1.0, INF, 2.0), (1.5, 6.0, 3.0)):
                res = ell_partition(lam, q0, q1, r0)
                assert res.lhs <= res.bound * (1 + 1e-12)

    def test_zero_entries_join_last_block_without_contribution(self):
        lam = np.array([4.0, 0.0, 1.0, 0.0])
        res = ell_partition(lam, 1.0, INF, 2.0)
        with_zeros = res.lhs
        res2 = ell_partition(np.array([4.0, 1.0]), 1.0, INF, 2.0)
        assert with_zeros == pytest.approx(res2.lhs, rel=1e-12)
        assert res.scales.tolist() == sorted(res.scales.tolist())
        assert np.flatnonzero(res.blocks[-1]).tolist() == [1, 2, 3]
        assert res.blocks.sum(axis=0).tolist() == [1, 1, 1, 1]

    def test_all_zero_sequence_has_no_blocks(self):
        for (q0, q1, r0) in PARTITION_EXPONENTS:
            res = ell_partition(np.zeros(4), q0, q1, r0)
            assert res.scales.shape == (0,) and res.blocks.shape == (0, 4)
            assert res.beta.shape == res.gamma.shape == (0,)
            assert res.lhs == res.bound == res.ratio == 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 7.5, 1e-3, 40.0]), min_size=1, max_size=60),
        st.sampled_from(PARTITION_EXPONENTS),
    )
    def test_blocks_and_sums_match_per_entry_reference(self, lam, exponents):
        lam = np.array(lam)
        res = ell_partition(lam, *exponents)
        blocks, beta, gamma = partition_per_entry_reference(lam, *exponents)
        assert res.scales.tolist() == list(blocks)
        assert res.blocks.shape == (len(blocks), lam.size) and res.blocks.dtype == bool
        for k, row, b, g in zip(res.scales.tolist(), res.blocks, res.beta.tolist(), res.gamma.tolist()):
            assert np.array_equal(np.flatnonzero(row), blocks[k])
            assert b == pytest.approx(beta[k], rel=1e-14, abs=0.0)
            assert g == pytest.approx(gamma[k], rel=1e-14, abs=0.0)

    def test_exponent_ordering_is_validated(self):
        with pytest.raises(ValueError):
            ell_partition(np.ones(3), 2.0, INF, 2.0)  # q0 < r0 fails
        with pytest.raises(ValueError):
            ell_partition(np.ones(3), 1.0, 2.0, 2.0)  # r0 < q1 fails
        with pytest.raises(ValueError):
            ell_partition(np.ones(3), INF, INF, 2.0)
        with pytest.raises(ValueError):
            ell_partition(np.empty(0), 1.0, INF, 2.0)

    def test_thresholds_past_the_float_range_name_q0_and_q1(self):
        # sigma = 1/(1/q0 - 1/q1) is about 1112, so 2**sigma is not a float;
        # at q1 = 1.001 (sigma about 1001) the thresholds and constant still are
        message = r"^q0=1\.0 and q1=1\.0009 are too close: sigma = 1/\(1/q0 - 1/q1\) = 1112\.1"
        with pytest.raises(ValueError, match=message):
            ell_partition_constant(1.0, 1.0009, 1.0005)
        with pytest.raises(ValueError, match=message):
            ell_partition(np.ones(3), 1.0, 1.0009, 1.0005)
        assert math.isfinite(ell_partition_constant(1.0, 1.001, 1.0005))
        assert ell_partition(np.ones(3), 1.0, 1.001, 1.0005).ratio <= 1.0


def reiteration_rhs_reference(target: LorentzParams, suite_size: int, seed: int) -> list[float]:
    """Target Lorentz norms of the sequences a reiteration suite draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [
        lorentz_norm(MeasuredValues.from_sequence(rng.lognormal(0.0, 1.5, int(rng.integers(3, 60)))), target)
        for _ in range(suite_size)
    ]


class TestReiteration:
    def test_canonical_case_frozen_ratio_range(self):
        records = reiteration_check(1.0, 1.0, INF, INF, 0.5, 2.0, suite_size=60, seed=0)
        assert [rec["instance_id"] for rec in records] == list(range(60))
        # the rhs is the Lorentz norm at the composed target (p, r) = (2, 2)
        assert [rec["rhs"] for rec in records] == reiteration_rhs_reference(LorentzParams(2.0, 2.0), 60, 0)
        ratios = [rec["ratio"] for rec in records]
        assert min(ratios) == pytest.approx(6.768739281904188, rel=1e-6)
        assert max(ratios) == pytest.approx(7.55799183027552, rel=1e-6)
        # the bound dominates the norm on every instance
        assert min(ratios) >= 1.0

    def test_bounds_dominate_for_other_positions(self):
        for (p0, r0, p1, r1, theta, r, seed, target_p) in (
            (1.0, 1.0, INF, INF, 0.25, 3.0, 1, 4.0 / 3.0),
            (2.0, 1.0, 2.0, INF, 0.5, 2.0, 2, 2.0),
        ):
            records = reiteration_check(p0, r0, p1, r1, theta, r, suite_size=30, seed=seed)
            rhs = reiteration_rhs_reference(LorentzParams(target_p, r), 30, seed)
            assert [rec["rhs"] for rec in records] == pytest.approx(rhs, rel=1e-12)
            assert min(rec["ratio"] for rec in records) >= 1.0

    def test_equal_p_requires_consistent_secondary_exponent(self):
        with pytest.raises(ValueError):
            reiteration_check(2.0, 1.0, 2.0, INF, 0.5, 3.0, suite_size=4, seed=0)

    def test_degenerate_target_rejected(self):
        with pytest.raises(ValueError):
            reiteration_check(1.0, 1.0, 1.0, 1.0, 0.5, 1.0, suite_size=4, seed=0)

    def test_endpoints_at_p_one_or_inf_must_be_lebesgue(self):
        with pytest.raises(ValueError, match=r"^endpoint with p=1 is supported only as L1 \(r=1\)$"):
            reiteration_check(1.0, 2.0, INF, INF, 0.5, 2.0, suite_size=4, seed=0)
        with pytest.raises(ValueError, match=r"^endpoint with p=inf is supported only as Linf \(r=inf\)$"):
            reiteration_check(1.0, 1.0, INF, 2.0, 0.5, 2.0, suite_size=4, seed=0)


class TestThresholdIndex:
    @pytest.mark.parametrize("base", THRESHOLD_BASES)
    def test_exact_powers_and_neighbouring_floats(self, base):
        # numpy 2.4's np.power(2**(1/0.7), k) is one ulp off Python's pow at k = -31, 11, 37
        ds = []
        for k in range(-40, 41):
            power = base**k
            ds += [np.nextafter(power, 0.0), power, np.nextafter(power, INF)]
        got = _threshold_index(np.array(ds), base)
        assert got.tolist() == [threshold_index_reference(d, base) for d in ds]
        for d, k in zip(ds, got.tolist()):
            assert base**k < d <= base ** (k + 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(positive_floats, min_size=1, max_size=30),
        st.one_of(st.sampled_from(THRESHOLD_BASES), st.floats(min_value=1.1, max_value=20.0)),
    )
    def test_matches_scalar_reference(self, ds, base):
        got = _threshold_index(np.array(ds), base)
        assert got.tolist() == [threshold_index_reference(d, base) for d in ds]


class TestPanelArrayKNorm:
    RS = (1.0, 2.0, 4.5, INF)

    @pytest.mark.parametrize("r", RS)
    @pytest.mark.parametrize(
        "values, masses",
        [
            ([3.0], [0.7]),
            ([1.0], [1.0]),
            ([8.0, 4.0, 2.0, 1.0], [1.0, 1.0, 2.0, 4.0]),  # S_i / S_{i-1} = 2 exactly
            ([5.0, 1.0, 0.5], [0.25, 0.25, 1.5]),
            ([9.0, 7.0, 2.0, 1.0], [1e-3, 1.0, 1e3, 1e-2]),
        ],
    )
    def test_matches_per_piece_reference(self, r, values, masses):
        v = MeasuredValues(np.array(values), np.array(masses))
        for theta in (0.1, 0.5, 0.8):
            params = InterpParams(theta, r)
            ref = k_norm_per_piece_reference(v, params)
            assert interpolation_norm_K(v, params) == pytest.approx(ref, rel=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(step_values(allow_zeros=True), st.sampled_from(RS), st.floats(0.05, 0.95))
    def test_matches_per_piece_reference_on_random_profiles(self, v, r, theta):
        params = InterpParams(theta, r)
        ref = k_norm_per_piece_reference(v, params) if rearrangement(v).values.size else 0.0
        assert interpolation_norm_K(v, params) == pytest.approx(ref, rel=1e-13)


class TestClassicalIdentities:
    """Checks of the K-norm and the duality pairing against facts that share
    no code with the quadrature: with ``theta = 1 - 1/p`` the K-norm is the
    Lorentz norm of the maximal function ``f** = K(t)/t``."""

    PS = (1.2, 2.0, 4.0)

    @settings(max_examples=150, deadline=None)
    @given(step_values(), st.sampled_from(PS))
    def test_fubini_at_r_one(self, v, p):
        # integral t**(1/p - 2) integral_0^t f* ds dt = p' * integral s**(1/p - 1) f*(s) ds
        ratio = interpolation_norm_K(v, InterpParams(1.0 - 1.0 / p, 1.0)) / lorentz_norm(v, LorentzParams(p, 1.0))
        assert ratio == pytest.approx(p / (p - 1.0), rel=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(step_values(), st.sampled_from(PS), st.sampled_from((2.0, 3.5, INF)))
    def test_hardy_range(self, v, p, r):
        # f** >= f* gives the lower end, Hardy's inequality the upper end p'
        ratio = interpolation_norm_K(v, InterpParams(1.0 - 1.0 / p, r)) / lorentz_norm(v, LorentzParams(p, r))
        assert 1.0 - 1e-13 <= ratio <= p / (p - 1.0)

    @settings(max_examples=150, deadline=None)
    @given(step_values(), st.sampled_from(PS))
    def test_hoelder_equality_at_r_equal_p(self, f, p):
        # integral f * f**(p-1) = ||f||_p**p = ||f||_p * ||f**(p-1)||_{p'}
        g = MeasuredValues(f.values ** (p - 1.0), f.masses)
        assert duality_pairing_check(f, g, p, p) == pytest.approx(1.0, rel=1e-13)


class TestLayerCakeArrayCore:
    @settings(max_examples=150, deadline=None)
    @given(step_values(allow_zeros=True))
    def test_pieces_bit_identical_to_per_piece_reference(self, v):
        dec = layer_cake_decompose(v)
        scales, pieces, norms0, norms1 = layer_cake_per_piece_reference(v)
        assert dec.scales.tolist() == scales
        assert np.array_equal(dec.pieces, np.reshape(pieces, (len(scales), v.values.size)))
        assert dec.masses is v.masses
        assert dec.norms0.tolist() == norms0
        assert dec.norms1.tolist() == norms1


class TestPieceNorms:
    @settings(max_examples=150, deadline=None)
    @given(step_values(allow_zeros=True))
    def test_rows_equal_per_piece_norms_bit_for_bit(self, v):
        pieces = layer_cake_decompose(v).pieces
        rows = [MeasuredValues(row, v.masses) for row in pieces]
        for (p, r), norm in (((1, 1), lambda u: lebesgue_norm(u, 1.0)),
                             ((INF, INF), lambda u: lebesgue_norm(u, INF)),
                             ((1.5, 2.5), lambda u: lorentz_norm(u, (1.5, 2.5))),
                             ((6.0, INF), lambda u: lorentz_norm(u, (6.0, INF)))):
            assert interpolation._piece_norms(pieces, v.masses, p, r).tolist() == [norm(u) for u in rows]


class TestInterpSuiteRunner:
    def test_all_checks_produce_finite_ratios(self):
        for check in ("k-equivalence", "layer-cake", "duality", "partition", "reiteration"):
            records = run_interp_suite(check, suite_size=6, seed=5)
            assert len(records) == 6
            for rec in records:
                assert rec["instance_id"] >= 0
                assert math.isfinite(rec["ratio"]) and rec["ratio"] >= 0.0

    def test_deterministic_for_fixed_seed(self):
        a = run_interp_suite("layer-cake", suite_size=5, seed=9)
        b = run_interp_suite("layer-cake", suite_size=5, seed=9)
        assert a == b

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_interp_suite("nonsense", suite_size=2, seed=0)

    @pytest.mark.parametrize(
        "check", ["k-equivalence", "layer-cake", "duality", "partition", "reiteration"]
    )
    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_or_negative_suite_rejected(self, check, size):
        with pytest.raises(ValueError, match="suite_size"):
            run_interp_suite(check, suite_size=size, seed=0)

    def test_records_follow_per_instance_draw_order(self):
        rng = np.random.default_rng(np.random.SeedSequence(4))
        expected = []
        for instance_id in range(5):
            size = int(rng.integers(3, 60))
            masses = rng.uniform(0.1, 4.0, size)
            f = MeasuredValues(rng.lognormal(0.0, 1.0, size), masses)
            g = MeasuredValues(rng.lognormal(0.0, 1.0, size), masses)
            lhs = float(np.sum(f.values * g.values * masses))
            rhs = lorentz_norm(f, LorentzParams(3.0, 1.5)) * lorentz_norm(
                g, LorentzParams(1.5, 3.0)
            )
            expected.append({"instance_id": instance_id, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
        assert run_interp_suite("duality", p=3.0, r=1.5, suite_size=5, seed=4) == expected

    def test_reiteration_records_equal_reiteration_check(self):
        records = run_interp_suite("reiteration", q0=1.0, q1=INF, r=3.0, theta=0.3, suite_size=7, seed=2)
        direct = reiteration_check(1.0, 1.0, INF, INF, 0.3, 3.0, suite_size=7, seed=2)
        assert records == direct

    @pytest.mark.parametrize(
        "check, inputs",
        [("k-equivalence", 1), ("layer-cake", 1), ("duality", 2), ("partition", 1), ("reiteration", 1)],
    )
    def test_one_sort_per_input(self, check, inputs, monkeypatch):
        # a suite sorts its rows in the block kernel, one sort per call over
        # all its rows, and sorts a row alone only on the way to
        # _profile_from_sorted: together they sort each input row once
        block_rows, single_rows = [], []
        profile_rows, profile_from_sorted = interpolation._profile_rows, norms._profile_from_sorted

        def counted_block(values, masses):
            block_rows.append(values.shape[0])
            return profile_rows(values, masses)

        def counted_single(values, masses):
            single_rows.append(values.size)
            return profile_from_sorted(values, masses)

        monkeypatch.setattr(interpolation, "_profile_rows", counted_block)
        monkeypatch.setattr(norms, "_profile_from_sorted", counted_single)
        run_interp_suite(check, suite_size=200, seed=3)
        assert sum(block_rows) + len(single_rows) == 200 * inputs

    def test_partition_order_error_names_r_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("the suite drew an instance")

        monkeypatch.setattr(interpolation, "_suite_records", no_draws)
        for flags in ({"r": 1.0}, {"q0": 3.0}, {"q1": 1.0}):
            with pytest.raises(ValueError, match=r"^need q0 < r < q1 "):
                run_interp_suite("partition", suite_size=5, seed=0, **flags)


SUITE_EXPONENTS = ((2.0, 2.0), (1.5, 2.5), (3.0, 1.3), (2.0, INF))
CHECK_NAMES = tuple(CHECKS)
# partition needs q0 < r < q1, so r = inf exits 2 before any draw
SUITE_CASES = [(check, p, r) for check in CHECK_NAMES for p, r in SUITE_EXPONENTS
               if not (check == "partition" and r == INF)]
LORENTZ_REITERATION = {"r": 2.5, "q0": 1.5, "q1": 6.0, "theta": 0.7}


def plain_draw(check: str, rng: np.random.Generator):
    """The random input of one instance of ``check``, drawn as each check
    draws it, in the same order."""
    if check == "partition":
        return (rng.lognormal(0.0, 1.5, int(rng.integers(5, 120))),)
    if check == "duality":
        size = int(rng.integers(3, 60))
        masses = rng.uniform(0.1, 4.0, size)
        return rng.lognormal(0.0, 1.0, size), rng.lognormal(0.0, 1.0, size), masses
    values = rng.lognormal(0.0, 1.5, int(rng.integers(3, 60)))
    return (values,) if check == "reiteration" else (values, rng.uniform(0.1, 4.0, values.size))


def endpoint_norms(pieces: np.ndarray, masses: np.ndarray, end) -> np.ndarray:
    """Norm of each piece in the endpoint space named by the pair ``end``,
    one single-input call per piece."""
    p, r = end
    if p in (1.0, INF):
        return np.array([lebesgue_norm(MeasuredValues(row, masses), p) for row in pieces])
    return np.array([lorentz_norm(MeasuredValues(row, masses), (p, r)) for row in pieces])


def plain_sides(check: str, draw, p=2.0, r=2.0, q0=1.0, q1=INF, theta=0.5) -> tuple[float, float]:
    """``(lhs, rhs)`` of one instance of ``check`` from the public
    single-input functions."""
    if check == "k-equivalence":
        v = MeasuredValues(*draw)
        return interpolation_norm_K(v, InterpParams(1.0 - 1.0 / p, r)), lorentz_norm(v, (p, r))
    if check == "layer-cake":
        v = MeasuredValues(*draw)
        p_sum, q_sum = j_sum_functional(layer_cake_decompose(v), InterpParams(1.0 - 1.0 / p, r, 2.0))
        return p_sum + q_sum, layer_cake_constant(p, r) * lorentz_norm(v, (p, r))
    if check == "partition":
        result = ell_partition(*draw, q0, q1, r)
        return result.lhs, result.bound
    if check == "duality":
        f_values, g_values, masses = draw
        f, g = MeasuredValues(f_values, masses), MeasuredValues(g_values, masses)
        dual = (conjugate_exponent(p), conjugate_exponent(r))
        return float(np.sum(f.values * g.values * masses)), lorentz_norm(f, (p, r)) * lorentz_norm(g, dual)
    # reiteration between (q0, r0) and (q1, r1), second exponents pinned to L1 and Linf
    v = MeasuredValues.from_sequence(*draw)
    ends = ((q0, 1.0 if q0 == 1.0 else r), (q1, INF if q1 == INF else r))
    inv_q1 = 0.0 if q1 == INF else 1.0 / q1
    target_p = 1.0 / ((1.0 - theta) * (1.0 / q0) + theta * inv_q1)
    params = InterpParams(theta, r, 2.0 ** (1.0 / q0 - inv_q1))
    cake = layer_cake_decompose(v)
    candidates = (
        trivial_decomposition(v, *ends),
        JDecomposition(cake.scales, cake.pieces, v.masses,
                       *(endpoint_norms(cake.pieces, v.masses, end) for end in ends)),
    )
    return min(j_bound(d, params) for d in candidates), lorentz_norm(v, (target_p, r))


def plain_records(check: str, suite_size: int, seed: int, **options) -> list[dict]:
    """Records of a suite of ``check`` evaluated one instance at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    records = []
    for instance_id in range(suite_size):
        lhs, rhs = plain_sides(check, plain_draw(check, rng), **options)
        records.append({"instance_id": instance_id, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
    return records


@st.composite
def tie_heavy_block(draw, check: str):
    """A block of inputs of ``check`` whose values come from a 3-element set,
    and for the partition from that set and 0, so that rows tie often."""
    pool = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=3, max_size=3))
    if check == "partition":
        pool.append(0.0)

    def values(n):
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))

    def masses(n):
        return np.array(draw(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=n, max_size=n)))

    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=10))
    if check in ("partition", "reiteration"):
        return [(values(n),) for n in sizes]
    if check == "duality":
        return [(values(n), values(n), masses(n)) for n in sizes]
    return [(values(n), masses(n)) for n in sizes]


class TestBlockPathBits:
    """A suite is evaluated a block of padded rows at a time; its records must
    equal, bit for bit, a plain loop over the public single-input functions."""

    @pytest.mark.parametrize("size", [1, 7, 200])
    @pytest.mark.parametrize("check, p, r", SUITE_CASES)
    def test_seeded_suites_equal_a_plain_loop(self, check, p, r, size):
        got = run_interp_suite(check, p=p, r=r, suite_size=size, seed=size)
        assert got == plain_records(check, size, size, p=p, r=r)

    @pytest.mark.parametrize("size", [1, 7, 200])
    def test_reiteration_between_lorentz_endpoints(self, size):
        got = run_interp_suite("reiteration", suite_size=size, seed=4, **LORENTZ_REITERATION)
        assert got == plain_records("reiteration", size, 4, **LORENTZ_REITERATION)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from(CHECK_NAMES), st.sampled_from(SUITE_EXPONENTS),
           st.sampled_from([{"q0": 1.0, "q1": INF, "theta": 0.5}, {"q0": 1.5, "q1": 6.0, "theta": 0.7}]))
    def test_tie_heavy_blocks_equal_a_plain_loop(self, data, check, exponents, endpoints):
        p, r = exponents
        assume(not (check == "partition" and r == INF))
        options = {"p": p, "r": r, **(endpoints if check == "reiteration" else {})}
        block = data.draw(tie_heavy_block(check))
        _, sides = CHECKS[check](**{"q0": 1.0, "q1": INF, "theta": 0.5, **options})
        lhs, rhs = interpolation._block_sides(sides, block)
        assert list(zip(lhs, rhs)) == [plain_sides(check, draw, **options) for draw in block]

    @pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
    def test_rescued_padded_rows_keep_their_one_row_bits(self, p):
        # rows scaled by 1e-200 and 1e200 have power sums that underflow or
        # overflow, so every row is redone on its rescaled values; the zero
        # padding must not change a row's bits
        rng = np.random.default_rng(7)
        rows = [rng.lognormal(0.0, 1.5, int(rng.integers(5, 120))) * scale for scale in (1e-200, 1e200) * 6]
        lengths = np.array([row.size for row in rows])
        a = interpolation._pad(np.concatenate(rows), lengths)
        with np.errstate(over="ignore", under="ignore"):
            assert not any(1e-300 < np.sum(row**p) < 1e300 for row in rows)
        got = norms._grid_lp(a, p, 1.0, axis=1, lengths=lengths)
        assert got.tolist() == [norms._grid_lp(a[i:i + 1, :n], p, 1.0, axis=1)[0] for i, n in enumerate(lengths)]
        # and the partition block they form gives each row's records alone
        options = {"p": 2.0, "r": 3.0, "q0": 2.0, "q1": 6.0}
        _, sides = CHECKS["partition"](theta=0.5, **options)
        lhs, rhs = interpolation._block_sides(sides, [(row,) for row in rows])
        assert list(zip(lhs, rhs)) == [plain_sides("partition", (row,), **options) for row in rows]
