"""Real-interpolation machinery for the couples (L1, Linf) and (l^q0, l^q1).

Provides the K-functional of the (L1, Linf) couple and its weighted norm,
the product-form upper bound for norms of decomposed elements (with a fully
derived constant, see :func:`j_bound_constant`), a disjoint-support
layer-cake decomposition realizing that bound, a duality pairing check, a
rank-threshold partition of sequences, and an empirical reiteration check.

All integrals over step profiles are closed-form except the middle pieces of
:func:`interpolation_norm_K`, which are analytic in the integration variable
and handled by fixed-order Gauss-Legendre panels on dyadic subintervals; the
panels of all pieces are laid out and evaluated as one array.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .norms import (
    LorentzParams,
    MeasuredValues,
    _as_lorentz_params,
    _check_exponent,
    _compose,
    _inv,
    _power_sum_log2,
    conjugate_exponent,
    lebesgue_norm,
    lorentz_norm,
    rearrangement,
)

__all__ = [
    "InterpParams",
    "JDecomposition",
    "PartitionResult",
    "ReiterationResult",
    "k_functional_L1_Linf",
    "interpolation_norm_K",
    "j_sum_functional",
    "j_bound_constant",
    "j_bound",
    "trivial_decomposition",
    "layer_cake_decompose",
    "layer_cake_constant",
    "layer_cake_bound_ratio",
    "duality_pairing_check",
    "ell_partition",
    "ell_partition_constant",
    "reiteration_check",
    "run_interp_suite",
]

_INF = math.inf

_LN2 = math.log(2.0)

# one instance of a check suite: draws its inputs from the generator and
# returns ``(lhs, rhs)``
_Instance = Callable[[np.random.Generator], tuple[float, float]]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class InterpParams:
    """Interpolation parameters: position ``theta``, exponent ``r``, grid base ``rho``.

    ``rho`` is the geometric base of the scale grid used by the decomposition
    bounds; any ``rho > 0`` other than 1 is allowed and ``rho`` and ``1/rho``
    give identical bounds under index reversal.
    """

    theta: float
    r: float
    rho: float = 2.0

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not (math.isfinite(theta) and 0.0 < theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta!r}")
        r = _check_exponent("r", self.r)
        rho = float(self.rho)
        if not (math.isfinite(rho) and rho > 0.0 and rho != 1.0):
            raise ValueError(f"rho must be positive, finite and != 1, got {self.rho!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True, eq=False)
class JDecomposition:
    """A finite decomposition ``f = sum_k pieces[k]`` on one measure space,
    with per-piece scales and endpoint norms.

    ``pieces`` has shape ``(K, n)``: row ``k`` holds the values of piece
    ``k``, at scale ``scales[k]``, on the ``n`` entries whose masses are
    ``masses``.  ``norms0[k]`` and ``norms1[k]`` are the norms of piece ``k``
    in the two endpoint spaces of the couple under consideration (L1 and
    Linf for the layer-cake construction; any other pair for reiteration
    experiments).  The product bound of :func:`j_bound` is invariant under a
    common integer shift of ``scales``.
    """

    scales: np.ndarray
    pieces: np.ndarray
    masses: np.ndarray
    norms0: np.ndarray
    norms1: np.ndarray

    def __post_init__(self) -> None:
        k = self.scales.shape
        norms = (self.norms0, self.norms1)
        if self.pieces.shape != k + self.masses.shape or any(n.shape != k for n in norms):
            raise ValueError("pieces must be (K, n) with K scales, K norms per endpoint and n masses")
        # NaN fails every comparison
        if not all(0.0 <= x < _INF for n in norms for x in n.tolist()):
            raise ValueError("endpoint norms must be finite and >= 0")

    def total(self) -> MeasuredValues:
        """Entrywise sum of the pieces."""
        return MeasuredValues(self.pieces.sum(axis=0), self.masses)


def trivial_decomposition(v: MeasuredValues, norm0, norm1) -> JDecomposition:
    """Single-piece decomposition of ``v`` at scale 0 with the given endpoint norm functions."""
    return JDecomposition(
        np.zeros(1, dtype=np.int64), v.values[None, :], v.masses,
        np.array([float(norm0(v))]), np.array([float(norm1(v))]),
    )


# ---------------------------------------------------------------------------
# K-functional of (L1, Linf) and its weighted norm
# ---------------------------------------------------------------------------


def k_functional_L1_Linf(v, t: float) -> float:
    """``K(t) = integral_0^t f*(s) ds``: the best split of ``v`` into an L1 part
    of norm ``K(t) - t*f*(t)``-type and an Linf remainder, evaluated in closed
    form on the step rearrangement."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    prof = rearrangement(v)
    values, cum = prof.values, prof.cum_masses
    if values.size == 0:
        return 0.0
    prev = np.concatenate(([0.0], cum[:-1]))
    prefix = np.concatenate(([0.0], np.cumsum(values * (cum - prev))))
    tt = min(float(t), float(cum[-1]))
    idx = int(np.searchsorted(cum, tt, side="left"))
    return float(prefix[idx] + values[idx] * (tt - prev[idx]))


def interpolation_norm_K(v, params: InterpParams) -> float:
    """``( integral_0^inf (t**(-theta) K(t))**r dt/t )**(1/r)``.

    The K-functional is piecewise linear; the first piece and the constant
    tail integrate in closed form, interior pieces ``(a + b*t)**r * t**(-theta*r-1)``
    are integrated after the substitution ``t = e**u`` with 16-point
    Gauss-Legendre panels of u-length at most ``ln 2``: the piece on
    ``[S_{i-1}, S_i]`` gets ``max(1, ceil(ln(S_i/S_{i-1}) / ln 2))`` equal
    panels, and the panels of all pieces are evaluated as one
    ``(panels, 16)`` node array.  With ``theta = 1 - 1/p`` this norm is
    equivalent to the Lorentz (p, r) norm, with equality of ratios across
    dilates of a fixed profile.
    """
    theta, r = params.theta, params.r
    prof = rearrangement(v)
    values, cum = prof.values, prof.cum_masses
    if values.size == 0:
        return 0.0
    prev = np.concatenate(([0.0], cum[:-1]))
    prefix = np.cumsum(values * (cum - prev))

    if r == _INF:
        return float(np.max(cum ** (-theta) * prefix))

    total = values[0] ** r * cum[0] ** ((1.0 - theta) * r) / ((1.0 - theta) * r)
    total += prefix[-1] ** r * cum[-1] ** (-theta * r) / (theta * r)
    # interior piece i >= 1: K(t) = a + b*t on [S_{i-1}, S_i], u = ln t
    b = values[1:]
    a = prefix[:-1] - b * cum[:-1]
    u0 = np.log(cum[:-1])
    span = np.log(cum[1:]) - u0
    nseg = np.maximum(1, np.ceil(span / _LN2)).astype(np.int64)
    piece = np.repeat(np.arange(b.size), nseg)
    panel = np.arange(piece.size) - np.repeat(np.cumsum(nseg) - nseg, nseg)
    half = (span / (2 * nseg))[piece]
    u = (u0[piece] + (2 * panel + 1) * half)[:, None] + half[:, None] * _GL_NODES
    integrand = (a[piece, None] + b[piece, None] * np.exp(u)) ** r * np.exp(-theta * r * u)
    total += float((integrand @ _GL_WEIGHTS) @ half)
    if not math.isfinite(total):
        raise ArithmeticError("interpolation integral diverged on this profile")
    return total ** (1.0 / r)


# ---------------------------------------------------------------------------
# Product-form bound for decomposed elements
# ---------------------------------------------------------------------------


def _weighted_sum(scales: np.ndarray, norms: np.ndarray, slope: float, r: float) -> float:
    """``|| 2**(j*slope) * norms[j] ||_{l^r}`` over the positive norms, summed
    in base-2 logs; 0 when no norm is positive."""
    # a J-decomposition has a few pieces, so Python floats beat numpy calls here
    exps = [j * slope + math.log2(n) for j, n in zip(scales.tolist(), norms.tolist()) if n > 0.0]
    return 2.0 ** _power_sum_log2(np.array(exps), r) if exps else 0.0


def j_sum_functional(d: JDecomposition, params: InterpParams) -> tuple[float, float]:
    """Weighted scale sums ``P = || rho**(-j*theta) * norms0[j] ||_{l^r}`` and
    ``Q = || rho**(j*(1-theta)) * norms1[j] ||_{l^r}`` (suprema when r = inf)."""
    theta, r = params.theta, params.r
    log_rho = math.log2(params.rho)
    return (
        _weighted_sum(d.scales, d.norms0, -theta * log_rho, r),
        _weighted_sum(d.scales, d.norms1, (1.0 - theta) * log_rho, r),
    )


def j_bound_constant(params: InterpParams) -> float:
    """Constant ``C(rho, theta, r)`` of the product bound :func:`j_bound`.

    Derivation: cover ``(0, inf)`` by the geometric grid ``t_m = rho**(m+u)``;
    on each cell bound ``K(t) <= sum_j min(norms0[j], t * norms1[j])`` and
    split each min at the sign of the cell-piece offset, which exhibits the
    weighted sums as two discrete convolutions; Young's inequality gives
    ``rho**(-u*theta) * G1 * P + rho**(u*(1-theta)) * G2 * Q`` with
    ``G1 = 1/(1 - rho**(-theta))`` and ``G2 = 1/(rho**(1-theta) - 1)``.
    Because the product ``P**(1-theta) * Q**theta`` is invariant under integer
    relabeling of the pieces, the offset can be optimized over all of R,
    yielding the exact factor ``kappa(theta) = ((1-theta)/theta)**theta / (1-theta)``:

        ``C = (ln rho)**(1/r) * rho**theta * kappa(theta) * G1**(1-theta) * G2**theta``

    with ``rho`` replaced by ``max(rho, 1/rho)`` and ``(ln rho)**(1/r) = 1``
    when ``r = inf``.
    """
    theta, r = params.theta, params.r
    rho = max(params.rho, 1.0 / params.rho)
    kappa = ((1.0 - theta) / theta) ** theta / (1.0 - theta)
    g1 = 1.0 / (1.0 - rho ** (-theta))
    g2 = 1.0 / (rho ** (1.0 - theta) - 1.0)
    log_factor = 1.0 if r == _INF else math.log(rho) ** (1.0 / r)
    return log_factor * rho**theta * kappa * g1 ** (1.0 - theta) * g2**theta


def j_bound(d: JDecomposition, params: InterpParams) -> float:
    """Upper bound ``C(rho,theta,r) * P**(1-theta) * Q**theta`` for the
    weighted K-norm of the sum of the pieces.

    Dominates :func:`interpolation_norm_K` of the recombined element for
    every decomposition; the bound is invariant under relabeling the piece
    indices by a common shift.
    """
    p_sum, q_sum = j_sum_functional(d, params)
    if p_sum == 0.0 or q_sum == 0.0:
        return 0.0
    return j_bound_constant(params) * p_sum ** (1.0 - params.theta) * q_sum**params.theta


# ---------------------------------------------------------------------------
# Layer-cake decomposition at dyadic mass thresholds
# ---------------------------------------------------------------------------


def _powers(base: float, k: np.ndarray) -> np.ndarray:
    """``base**k`` for an integer array ``k``, each power a Python float power.

    ``np.power`` can differ from Python's ``pow`` in the last bit, which
    moves a value lying on a power of ``base`` into the next block; the
    powers are therefore taken in Python, once per exponent in the range of
    ``k``, which spans a few scales.
    """
    k0 = int(k.min())
    table = np.array([base**j for j in range(k0, int(k.max()) + 1)])
    return table[k - k0]


def _threshold_index(d: np.ndarray, base: float = 2.0) -> np.ndarray:
    """Integers ``k`` with ``base**k < d <= base**(k+1)`` for each entry of the
    nonempty positive array ``d`` and ``base > 1``, exact under Python's float
    ``pow``: a logarithm estimate, then fix-up steps until every entry holds."""
    base = float(base)
    k = np.ceil(np.log(d) / math.log(base)).astype(np.int64) - 1
    while (down := _powers(base, k) >= d).any():
        k = k - down
    while (up := _powers(base, k + 1) < d).any():
        k = k + up
    return k


def layer_cake_decompose(v: MeasuredValues) -> JDecomposition:
    """Split ``v`` into disjointly supported pieces at dyadic mass thresholds.

    Each entry with value ``y > 0`` is routed to the piece ``j`` for which the
    mass of ``{|v| >= y}`` lies in ``(2**j, 2**(j+1)]``.  Consequences, both
    asserted in tests: piece ``j`` has support mass at most ``2**(j+1)`` and
    sup at most ``f*(2**j)``; with ``theta = 1 - 1/p`` and ``rho = 2`` the
    scale sums of :func:`j_sum_functional` satisfy
    ``P + Q <= layer_cake_constant(p, r) * lorentz_norm(v, (p, r))``.

    Pieces are full-length rows on the measure space of ``v`` (zero off
    their support), in increasing scale order, so they recombine entrywise
    to ``v`` exactly.  A ``v`` without positive values has no pieces.
    """
    values, masses = v.values, v.masses
    prof = rearrangement(v)
    if prof.values.size == 0:
        return JDecomposition(np.empty(0, dtype=np.int64), np.empty((0, values.size)), masses,
                              np.empty(0), np.empty(0))
    group_k = _threshold_index(prof.cum_masses)
    # map each positive entry to its value group (exact match by construction)
    pos = values > 0
    entry_k = group_k[np.searchsorted(-prof.values, -values[pos])]
    ks = np.unique(entry_k)
    mask = np.zeros((ks.size, values.size), dtype=bool)
    mask[:, pos] = entry_k == ks[:, None]
    pieces = np.where(mask, values, 0.0)
    return JDecomposition(ks, pieces, masses, np.sum(pieces * masses, axis=1), pieces.max(axis=1))


def layer_cake_constant(p: float, r: float) -> float:
    """Published constant ``C0(p, r) = 3 * 2**(1/p) * (ln 2)**(-1/r)`` for the
    layer-cake bound ``P + Q <= C0 * lorentz_norm(v, (p, r))``.

    The factor 3 combines the L1 estimate ``norms0[j] <= 2 * 2**(j/p) *
    2**(j/p') * f*(2**j)`` with the Linf estimate; the ``(ln 2)**(-1/r)``
    comes from comparing the dyadic sample sum of ``(s**(1/p) f*(s))**r``
    with its integral ``ds/s``.
    """
    params = LorentzParams(p, r)
    log_factor = 1.0 if params.r == _INF else math.log(2.0) ** (-1.0 / params.r)
    return 3.0 * 2.0 ** (1.0 / params.p) * log_factor


def _layer_cake_sides(v: MeasuredValues, params: LorentzParams) -> tuple[float, float]:
    """``(P + Q, C0 * lorentz_norm(v, params))`` for the layer-cake decomposition of ``v``."""
    interp = InterpParams(1.0 - 1.0 / params.p, params.r, 2.0)
    p_sum, q_sum = j_sum_functional(layer_cake_decompose(v), interp)
    return p_sum + q_sum, layer_cake_constant(params.p, params.r) * lorentz_norm(v, params)


def layer_cake_bound_ratio(v: MeasuredValues, params) -> float:
    """Ratio ``(P + Q) / (C0 * lorentz_norm(v, params))`` for the layer-cake
    decomposition of ``v``; at most 1 for every input."""
    lhs, rhs = _layer_cake_sides(v, _as_lorentz_params(params))
    if rhs == 0.0:
        if lhs > 0.0:
            raise ArithmeticError("zero norm with nonzero decomposition sums")
        return 0.0
    return lhs / rhs


# ---------------------------------------------------------------------------
# Duality pairing
# ---------------------------------------------------------------------------


def duality_pairing_check(f: MeasuredValues, g: MeasuredValues, p: float, r: float) -> float:
    """Ratio ``(integral f*g dmu) / (||f||_{p,r} * ||g||_{p',r'})`` for aligned
    nonnegative inputs, with ``p' = p/(p-1)`` and ``r' = r/(r-1)`` (conventions
    ``1 <-> inf``).  The ratio never exceeds 1: the pairing is at most the
    rearranged pairing, which splits by the exponent identities
    ``1/p + 1/p' = 1`` and ``1/r + 1/r' = 1``."""
    if not f.aligned_with(g):
        raise ValueError("f and g must be aligned entrywise on the same measure space")
    pairing, norms = _duality_sides(f, g, LorentzParams(p, r))
    if norms == 0.0:
        raise ValueError("duality check requires both inputs to have nonzero norm")
    return pairing / norms


def _duality_sides(f: MeasuredValues, g: MeasuredValues, params: LorentzParams) -> tuple[float, float]:
    """``(integral f*g dmu, ||f||_{p,r} * ||g||_{p',r'})`` for aligned ``f`` and ``g``."""
    dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
    pairing = float(np.sum(f.values * g.values * f.masses))
    return pairing, lorentz_norm(f, params) * lorentz_norm(g, dual)


# ---------------------------------------------------------------------------
# Rank-threshold partition of sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Partition of sequence indices into rank blocks with weighted block sums.

    ``blocks[k]`` holds the original indices whose superlevel rank lies in
    ``(2**(sigma*k), 2**(sigma*(k+1))]``; ``beta[k]`` and ``gamma[k]`` are the
    weighted block q0- and q1-sums; ``lhs`` is the sum of their l^{r0} norms,
    bounded by ``bound = C * ||lambda||_{l^{r0}}``.
    """

    blocks: dict[int, np.ndarray]
    eta: float
    sigma: float
    beta: dict[int, float]
    gamma: dict[int, float]
    lhs: float
    bound: float
    ratio: float


def ell_partition_constant(q0: float, q1: float, r0: float) -> float:
    """Published constant ``C = (2**(sigma/q0) + 2**(sigma/q1)) * (1 - 2**(-sigma))**(-1/r0)``.

    Per block, the q-sums are controlled by the block size ``2**(sigma*(k+1))``
    and the rank-threshold value ``lambda*(2**(sigma*k))``; summing the k-th
    powers against the decreasing rearrangement compares the geometric sample
    sum with the integral, giving the ``(1 - 2**(-sigma))**(-1/r0)`` factor.
    """
    _validate_partition_exponents(q0, q1, r0)
    sigma = 1.0 / (_inv(q0) - _inv(q1))
    return (2.0 ** (sigma / q0) + (1.0 if q1 == _INF else 2.0 ** (sigma / q1))) * (
        1.0 - 2.0 ** (-sigma)
    ) ** (-1.0 / r0)


def _validate_partition_exponents(q0: float, q1: float, r0: float) -> None:
    q0, q1, r0 = float(q0), float(q1), float(r0)
    if not (math.isfinite(q0) and q0 >= 1.0):
        raise ValueError(f"q0 must be finite and >= 1, got {q0!r}")
    if q1 != _INF and not (math.isfinite(q1) and q1 >= 1.0):
        raise ValueError(f"q1 must lie in [1, inf], got {q1!r}")
    if not (math.isfinite(r0) and q0 < r0 and (q1 == _INF or r0 < q1)):
        raise ValueError(
            f"need q0 < r0 < q1 for a proper interpolation position, got {(q0, r0, q1)!r}"
        )


def ell_partition(lam, q0: float, q1: float, r0: float) -> PartitionResult:
    """Partition sequence indices at geometric rank thresholds ``2**(sigma*k)``.

    ``sigma = 1/(1/q0 - 1/q1)`` and ``eta = (1/q0 - 1/r0) * sigma`` place
    ``l^{r0}`` at position ``eta`` between ``l^{q0}`` and ``l^{q1}``.  An entry
    whose superlevel rank (count of entries at least as large) is ``d`` joins
    block ``k`` with ``2**(sigma*k) < d <= 2**(sigma*(k+1))``; zero entries
    join the last block, where they contribute nothing.  The weighted block
    sums satisfy ``||beta||_{l^{r0}} + ||gamma||_{l^{r0}} <= C * ||lambda||_{l^{r0}}``
    with ``C`` from :func:`ell_partition_constant`.
    """
    _validate_partition_exponents(q0, q1, r0)
    lam_arr = np.abs(np.asarray(lam, dtype=float).ravel())
    if lam_arr.size == 0:
        raise ValueError("empty sequence")
    q0, q1, r0 = float(q0), float(q1), float(r0)
    sigma = 1.0 / (_inv(q0) - _inv(q1))
    eta = (_inv(q0) - _inv(r0)) * sigma
    base = 2.0**sigma

    mv = MeasuredValues.from_sequence(lam_arr)
    prof = rearrangement(mv)
    pos = lam_arr > 0
    entry_k = np.empty(lam_arr.shape, dtype=np.int64)
    if prof.values.size:
        group_k = _threshold_index(prof.cum_masses, base)
        entry_k[pos] = group_k[np.searchsorted(-prof.values, -lam_arr[pos])]
        last_k = int(group_k.max())
    else:
        last_k = 0
    entry_k[~pos] = last_k

    ks = np.unique(entry_k)
    mask = entry_k == ks[:, None]
    block_vals = np.where(mask, lam_arr, 0.0)
    beta = 2.0 ** (-ks * eta) * np.sum(block_vals**q0, axis=1) ** (1.0 / q0)
    if q1 == _INF:
        gamma = 2.0 ** (ks * (1.0 - eta)) * block_vals.max(axis=1)
    else:
        gamma = 2.0 ** (ks * (1.0 - eta)) * np.sum(block_vals**q1, axis=1) ** (1.0 / q1)
    lhs = float(np.sum(beta**r0) ** (1.0 / r0) + np.sum(gamma**r0) ** (1.0 / r0))
    bound = ell_partition_constant(q0, q1, r0) * lebesgue_norm(mv, r0)
    ratio = 0.0 if bound == 0.0 else lhs / bound
    keys = ks.tolist()
    blocks = {k: np.flatnonzero(row) for k, row in zip(keys, mask)}
    return PartitionResult(
        blocks, eta, sigma, dict(zip(keys, beta.tolist())), dict(zip(keys, gamma.tolist())),
        lhs, bound, ratio,
    )


# ---------------------------------------------------------------------------
# Reiteration between Lorentz endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReiterationResult:
    """Suite outcome for one reiteration configuration: per-instance records
    ``{instance_id, lhs, rhs, ratio}`` and the observed ratio interval."""

    target_p: float
    target_r: float
    records: list[dict] = field(repr=False)
    min_ratio: float = 0.0
    max_ratio: float = 0.0


def _endpoint_norm(v: MeasuredValues, p: float, r: float) -> float:
    if p == 1.0:
        if r != 1.0:
            raise ValueError("endpoint with p=1 is supported only as L1 (r=1)")
        return lebesgue_norm(v, 1.0)
    if p == _INF:
        if r != _INF:
            raise ValueError("endpoint with p=inf is supported only as Linf (r=inf)")
        return lebesgue_norm(v, _INF)
    return lorentz_norm(v, LorentzParams(p, r))


def reiteration_check(
    p0: float,
    r0: float,
    p1: float,
    r1: float,
    theta: float,
    r: float,
    suite_size: int,
    seed: int = 0,
) -> ReiterationResult:
    """Compare the decomposition bound between Lorentz endpoints with the
    direct Lorentz norm at the composed parameters.

    The target space has ``1/p = (1-theta)/p0 + theta/p1``; when ``p0 == p1``
    the exponent condition ``1/r = (1-theta)/r0 + theta/r1`` is required (the
    composed second exponent is not free in that case).  For each random
    sequence the lhs is the smallest :func:`j_bound` over two canonical
    decompositions (the single-piece one and the layer-cake one) with
    endpoint norms in ``L^{p0,r0}`` and ``L^{p1,r1}`` and grid base
    ``rho = 2**(1/p0 - 1/p1)`` (base 2 in the equal-p case); the rhs is
    ``lorentz_norm`` at the target parameters.  Returns the per-instance
    records and the observed ratio interval, which must stay within fixed
    positive bounds for the reiteration identity to hold numerically.
    """
    target_p, instance = _reiteration_instance(p0, r0, p1, r1, theta, r)
    records = _suite_records(instance, suite_size, seed)
    ratios = [rec["ratio"] for rec in records]
    return ReiterationResult(target_p, float(r), records, min(ratios), max(ratios))


def _reiteration_instance(
    p0: float, r0: float, p1: float, r1: float, theta: float, r: float
) -> tuple[float, _Instance]:
    """Validated target exponent and per-instance ``(lhs, rhs)`` function of
    :func:`reiteration_check`."""
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    target_p = _compose(theta, p0, p1)
    if not 1.0 < target_p < _INF:
        raise ValueError(f"composed exponent p={target_p!r} outside (1, inf)")
    if p0 == p1:
        composed_inv_r = _inv(_compose(theta, r0, r1))
        if abs(_inv(r) - composed_inv_r) > 1e-12:
            raise ValueError(
                "equal-p reiteration requires 1/r = (1-theta)/r0 + theta/r1; "
                f"got 1/r={_inv(r)!r} vs composed {composed_inv_r!r}"
            )
        rho = 2.0
    else:
        rho = 2.0 ** (_inv(p0) - _inv(p1))
    params = InterpParams(theta, r, rho)
    target = LorentzParams(target_p, r)

    def norm0(v: MeasuredValues) -> float:
        return _endpoint_norm(v, p0, r0)

    def norm1(v: MeasuredValues) -> float:
        return _endpoint_norm(v, p1, r1)

    def instance(rng: np.random.Generator) -> tuple[float, float]:
        v = MeasuredValues.from_sequence(_random_sequence(rng))
        candidates = [trivial_decomposition(v, norm0, norm1)]
        # lognormal values are positive, so the layer cake has pieces
        cake = layer_cake_decompose(v)
        pieces = [MeasuredValues(row, v.masses) for row in cake.pieces]
        candidates.append(
            JDecomposition(cake.scales, cake.pieces, cake.masses,
                           np.array([norm0(u) for u in pieces]), np.array([norm1(u) for u in pieces]))
        )
        return min(j_bound(d, params) for d in candidates), lorentz_norm(v, target)

    return target_p, instance


# ---------------------------------------------------------------------------
# Suite runner for the CLI
# ---------------------------------------------------------------------------


def _random_sequence(rng: np.random.Generator) -> np.ndarray:
    return rng.lognormal(0.0, 1.5, int(rng.integers(3, 60)))


def _random_step_values(rng: np.random.Generator) -> MeasuredValues:
    values = _random_sequence(rng)
    return MeasuredValues(values, rng.uniform(0.1, 4.0, values.size))


def _suite_records(instance: _Instance, suite_size: int, seed: int) -> list[dict]:
    """Records ``{instance_id, lhs, rhs, ratio}`` of ``suite_size`` draws of
    ``instance`` from one generator seeded by ``seed``."""
    if suite_size < 1:
        raise ValueError("suite_size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    records: list[dict] = []
    for instance_id in range(suite_size):
        lhs, rhs = instance(rng)
        records.append({"instance_id": instance_id, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
    return records


def _k_equivalence_instance(p, r, q0, q1, theta) -> _Instance:
    target = LorentzParams(p, r)
    params = InterpParams(1.0 - 1.0 / target.p, target.r)

    def instance(rng):
        prof = rearrangement(_random_step_values(rng))
        return interpolation_norm_K(prof, params), lorentz_norm(prof, target)

    return instance


def _layer_cake_instance(p, r, q0, q1, theta) -> _Instance:
    target = LorentzParams(p, r)
    return lambda rng: _layer_cake_sides(_random_step_values(rng), target)


def _duality_instance(p, r, q0, q1, theta) -> _Instance:
    params = LorentzParams(p, r)

    def instance(rng):
        size = int(rng.integers(3, 60))
        masses = rng.uniform(0.1, 4.0, size)
        f = MeasuredValues(rng.lognormal(0.0, 1.0, size), masses)
        g = MeasuredValues(rng.lognormal(0.0, 1.0, size), masses)
        return _duality_sides(f, g, params)

    return instance


def _partition_instance(p, r, q0, q1, theta) -> _Instance:
    def instance(rng):
        size = int(rng.integers(5, 120))
        result = ell_partition(rng.lognormal(0.0, 1.5, size), q0, q1, r)
        return result.lhs, result.bound

    return instance


def _reiteration_suite_instance(p, r, q0, q1, theta) -> _Instance:
    r0 = 1.0 if q0 == 1.0 else r
    r1 = _INF if q1 == _INF else r
    return _reiteration_instance(q0, r0, q1, r1, theta, r)[1]


# check name -> builder of its per-instance function, called once per suite
# with the keyword options of :func:`run_interp_suite`
_CHECKS = {
    "k-equivalence": _k_equivalence_instance,
    "layer-cake": _layer_cake_instance,
    "duality": _duality_instance,
    "partition": _partition_instance,
    "reiteration": _reiteration_suite_instance,
}


def run_interp_suite(
    check: str,
    *,
    p: float = 2.0,
    r: float = 2.0,
    q0: float = 1.0,
    q1: float = _INF,
    theta: float = 0.5,
    suite_size: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Run one interpolation check over a seeded random suite of
    ``suite_size >= 1`` instances.

    Returns records ``{instance_id, lhs, rhs, ratio}``:

    - ``k-equivalence``: lhs = weighted K-norm at ``theta = 1 - 1/p``,
      rhs = Lorentz (p, r) norm; ratio bounded above and below.
    - ``layer-cake``: lhs = scale sums P + Q of the layer-cake decomposition,
      rhs = published constant times the Lorentz norm; ratio <= 1.
    - ``duality``: lhs = pairing, rhs = product of dual Lorentz norms;
      ratio <= 1.
    - ``partition``: lhs and rhs of the rank-threshold partition bound with
      ``(q0, q1, r0 = r)``; ratio <= 1.
    - ``reiteration``: endpoints ``(p0, p1) = (q0, q1)`` with second exponents
      pinned to the endpoint spaces (``r0 = 1`` when ``p0 = 1``, ``r1 = inf``
      when ``p1 = inf``, else ``r``); composed target ratio per instance.
    """
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}")
    instance = _CHECKS[check](p=p, r=r, q0=q0, q1=q1, theta=theta)
    return _suite_records(instance, suite_size, seed)
