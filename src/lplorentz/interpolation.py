"""Real-interpolation machinery for the couples (L1, Linf) and (l^q0, l^q1).

Provides the K-functional of the (L1, Linf) couple and its weighted norm,
the product-form upper bound for norms of decomposed elements (with a fully
derived constant, see :func:`j_bound_constant`), a disjoint-support
layer-cake decomposition realizing that bound, a duality pairing check, a
rank-threshold partition of sequences, and an empirical reiteration check.

The layer cake and the partition share one rank-block kernel and hold the
blocks of a block of rows as ``(G,)`` scales and ``(G, m)`` rows; their
``l^q`` block sums are the grid norm of :mod:`lplorentz.norms` at unit cell
volume.  One kernel
measures the pieces of every J-decomposition in endpoint spaces ``L^{p,r}``
named by exponent pairs ``(p, r)``.

Each check suite in :data:`CHECKS` draws its random instances one at a time,
in a fixed order from one seeded generator, each a tuple of equal-length 1-D
arrays.  The runner pads each column of a block of :data:`_BLOCK` instances
once into zero-padded ``(N, m)`` rows and evaluates the block on them and
their lengths: one sort orders all rows (the row kernel of
:mod:`lplorentz.norms`), and every sum is taken over each row's true length,
so a record has the bits of its instance evaluated alone.  The public
single-input functions are the one-row case of the same code.  Records come
from the one runner of :mod:`lplorentz.inequalities` that ``verify`` uses
too, whose ratio rule also gives :func:`layer_cake_bound_ratio`,
:func:`duality_pairing_check` and the ratio of :func:`ell_partition`.

All integrals over step profiles are closed-form except the middle pieces of
:func:`interpolation_norm_K`, which are analytic in the integration variable
and handled by fixed-order Gauss-Legendre panels on dyadic subintervals; the
panels of all pieces of all rows are laid out and evaluated as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import _ratio, _suite_records
from .norms import (
    LorentzParams,
    MeasuredValues,
    _as_lorentz_params,
    _check_exponent,
    _compose,
    _grid_lp,
    _inv,
    _lorentz_rows,
    _one_profile,
    _power_sums_log2,
    _Profiles,
    _profile_rows,
    _row_sums,
    _TINY,
    conjugate_exponent,
    rearrangement,
)

__all__ = [
    "CHECKS",
    "InterpParams",
    "JDecomposition",
    "PartitionResult",
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

# endpoint exponent pairs (p, r) of the couple (L1, Linf)
_L1_LINF = ((1.0, 1.0), (_INF, _INF))

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# instances per evaluated block of a check suite, a fixed count so that peak
# memory does not grow with the suite.  Larger blocks spread the numpy call
# overhead further but hold more padded rows: on 200-instance suites one block
# ran about 10 % faster than blocks of 128 and 72, and raised peak RSS by 8 %
# where these raise it by 6 %, against the 10 % the benchmark allows
_BLOCK = 128


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
    in the endpoint spaces ``L^{p0,r0}`` and ``L^{p1,r1}`` named by exponent
    pairs (L1 and Linf for the layer-cake check; Lorentz endpoints for
    reiteration experiments).  The product bound of :func:`j_bound` is
    invariant under a common integer shift of ``scales``.
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


def trivial_decomposition(v: MeasuredValues, end0, end1) -> JDecomposition:
    """Single-piece decomposition of ``v`` at scale 0, measured in the endpoint
    spaces ``L^{p,r}`` named by the exponent pairs ``end0`` and ``end1``."""
    pieces = v.values[None, :]
    return JDecomposition(np.zeros(1, dtype=np.int64), pieces, v.masses,
                          _piece_norms(pieces, v.masses, *end0), _piece_norms(pieces, v.masses, *end1))


def _piece_norms(pieces: np.ndarray, masses: np.ndarray, p: float, r: float, lengths=None) -> np.ndarray:
    """``L^{p,r}`` norm of each row of the nonnegative 2-D array ``pieces`` on
    the masses ``masses`` (one row for all, or one per piece): the L1 norm for
    ``p = 1``, the Linf norm for ``p = inf`` and the row kernel of
    :func:`lorentz_norm` otherwise.  Row ``i`` holds ``lengths[i]`` entries
    and zeros past them; every row is full when ``lengths`` is None."""
    if p == 1.0:
        if r != 1.0:
            raise ValueError("endpoint with p=1 is supported only as L1 (r=1)")
        return _row_sums(pieces * masses, lengths)
    if p == _INF:
        if r != _INF:
            raise ValueError("endpoint with p=inf is supported only as Linf (r=inf)")
        return pieces.max(axis=1, initial=0.0)
    params = LorentzParams(p, r)
    prof = _profile_rows(pieces, np.broadcast_to(masses, pieces.shape))
    return np.array(_lorentz_rows(prof, params.p, params.r))


def _pad(x: np.ndarray, counts: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """The 1-D ``x`` cut into consecutive rows of ``counts[i]`` entries, as one
    ``(N, max count)`` array padded with ``fill``."""
    out = np.full((counts.size, counts.max(initial=0)), fill)
    out[np.arange(out.shape[1]) < counts[:, None]] = x
    return out


def _unit_masses(lengths: np.ndarray) -> np.ndarray:
    """Counting measure on rows of ``lengths`` entries, zero past them."""
    return (np.arange(lengths.max(initial=0)) < lengths[:, None]).astype(float)


# ---------------------------------------------------------------------------
# K-functional of (L1, Linf) and its weighted norm
# ---------------------------------------------------------------------------


def k_functional_L1_Linf(v, t: float) -> float:
    """``K(t) = integral_0^t f*(s) ds``, the K-functional of ``v`` for the pair
    ``(L^1, L^inf)``: the least ``||f0||_1 + t*||f1||_inf`` over the splits
    ``f = f0 + f1``.  Truncating ``f`` at the level ``f*(t)`` attains it, with
    an L1 part of norm ``K(t) - t*f*(t)`` and an Linf part of norm ``f*(t)``.
    Evaluated in closed form on the step rearrangement."""
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
    dilates of a fixed profile.  The one-row case of :func:`_k_norm_rows`.
    """
    prof = rearrangement(v)
    if prof.values.size == 0:
        return 0.0
    return _k_norm_rows(_one_profile(prof), params.theta, params.r)[0]


# an overflow or underflow surfaces in the row totals, reported without numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _k_norm_rows(prof: _Profiles, theta: float, r: float) -> list[float]:
    """:func:`interpolation_norm_K` of each profile row of ``prof``.

    ``log(t**(-theta) K(t))`` is convex in ``ln t`` on each piece, so a row's
    largest, ``m``, is at a breakpoint.  The closed-form end pieces and the
    panel nodes are formed over ``e**(m*r)``, so none exceeds 1; each row sums
    its own panels in order, as alone.  A norm past the float range raises,
    and so does a total below the normal range: at large ``r`` the ln 2
    panels miss the peak.

    Each row is first divided, exactly, by the powers of two ``2**ev`` and
    ``2**ec`` nearest its largest value and its total mass, so that ``K``
    stays in the normal range where ``value * mass`` would not; the norm of
    the scaled row times ``2**(ev + ec*(1-theta))`` is the row's norm.  Leading
    steps whose scaled masses stay below the normal range join the first piece."""
    rows, width = prof.values.shape
    lengths = np.full(rows, width) if prof.lengths is None else prof.lengths
    ev = np.frexp(prof.values.max(axis=1, initial=0.0))[1]
    ec = np.frexp(prof.cum.max(axis=1, initial=0.0))[1]
    values, cum = np.ldexp(prof.values, -ev[:, None]), np.ldexp(prof.cum, -ec[:, None])
    prefix = np.cumsum(values * np.diff(cum, axis=1, prepend=0.0), axis=1)
    # the norm of a scaled row times factor * 2**power is the row's norm
    shift = ec * (1.0 - theta)
    whole = np.floor(shift)
    factor, power = 2.0 ** (shift - whole), ev + whole.astype(np.int64)

    if r == _INF:
        # a row repeats its last product past its length; an empty row gives 0
        norms = (np.where(cum > 0.0, cum, 1.0) ** (-theta) * prefix).max(axis=1, initial=0.0)
        return np.ldexp(norms * factor, power).tolist()

    kept = cum >= _TINY
    first = kept.argmax(axis=1)
    # log(t**(-theta) K(t)) at each kept breakpoint, repeated past a row's length; -inf in an empty row
    peak = np.where(kept, np.log(prefix) - theta * np.log(cum), -_INF)
    m = peak.max(axis=1)
    # interior piece i >= 1 of a row: K(t) = a + b*t on [S_{i-1}, S_i], u = ln t
    inner = (np.arange(1, width) < lengths[:, None]) & kept[:, :-1]
    b = values[:, 1:][inner]
    a = prefix[:, :-1][inner] - b * cum[:, :-1][inner]
    u0 = np.log(cum[:, :-1][inner])
    # from the mass ratio, so that scaling the masses by a power of 2 keeps the layout
    span = np.log(cum[:, 1:][inner] / cum[:, :-1][inner])
    nseg = np.maximum(1, np.ceil(span / _LN2)).astype(np.int64)
    piece = np.repeat(np.arange(b.size), nseg)
    owner = np.nonzero(inner)[0][piece]
    panel = np.arange(piece.size) - np.repeat(np.cumsum(nseg) - nseg, nseg)
    half = (span / (2 * nseg))[piece]
    # u and ((a + b*e**u) * e**(-theta*u - m))**r, formed in place to hold two node arrays at most
    u = half[:, None] * _GL_NODES
    u += (u0[piece] + (2 * panel + 1) * half)[:, None]
    integrand = np.exp(u)
    integrand *= b[piece, None]
    integrand += a[piece, None]
    u *= -theta
    u -= m[owner, None]
    integrand *= np.exp(u, out=u)
    integrand **= r
    integrand *= _GL_WEIGHTS
    total = np.exp(r * (peak[np.arange(rows), first] - m)) / ((1.0 - theta) * r)
    total += np.exp(r * (peak[:, -1] - m)) / (theta * r)
    total += np.bincount(owner, integrand.sum(axis=1) * half, minlength=rows)
    scaled = np.exp(m) * total ** (1.0 / r)
    norms = np.ldexp(scaled * factor, power)
    live = lengths > 0
    # joining leading steps moves K by less than min(_TINY, t), so the norm by less than that step's norm
    lost = (1.0 / ((1.0 - theta) * r) + 1.0 / (theta * r)) ** (1.0 / r) * _TINY ** (1.0 - theta)
    if not (scaled[live & ~kept[:, 0]] * 2.0**-53 >= lost).all():  # NaN fails
        raise ArithmeticError("interpolation integral needs masses that span past the float range")
    if not (norms[live] < _INF).all():
        raise ArithmeticError("interpolation integral diverged on this profile")
    if not (total[live] >= _TINY).all():
        raise ArithmeticError(f"interpolation integral underflows at r={r!r}: the ln 2 panels miss its peak")
    return np.where(live, norms, 0.0).tolist()


# ---------------------------------------------------------------------------
# Product-form bound for decomposed elements
# ---------------------------------------------------------------------------


def _weighted_sums(owner: np.ndarray, scales: np.ndarray, norms: np.ndarray, count: int,
                   slope: float, r: float) -> list[float]:
    """``|| 2**(j*slope) * norms[j] ||_{l^r}`` over the positive norms of each
    of ``count`` decompositions, decomposition ``i`` holding the pieces with
    ``owner == i`` (ascending), summed in base-2 logs; 0 for a decomposition
    without a positive norm."""
    keep = norms > 0.0
    # math.log2 and Python's pow keep the bits of a single decomposition
    exps = [j * slope + math.log2(n) for j, n in zip(scales[keep].tolist(), norms[keep].tolist())]
    counts = np.bincount(owner[keep], minlength=count)
    live = np.flatnonzero(counts)
    sums = [0.0] * count
    logs = _power_sums_log2(_pad(np.array(exps), counts, -_INF)[live], counts[live], r)
    for i, e in zip(live.tolist(), logs):
        sums[i] = 2.0**e
    return sums


def _j_sums(owner: np.ndarray, scales: np.ndarray, norms0: np.ndarray, norms1: np.ndarray,
            count: int, params: InterpParams) -> tuple[list[float], list[float]]:
    """:func:`j_sum_functional` of each of ``count`` decompositions, whose
    pieces are listed with their ``owner`` decomposition (ascending)."""
    theta, r = params.theta, params.r
    log_rho = math.log2(params.rho)
    return (
        _weighted_sums(owner, scales, norms0, count, -theta * log_rho, r),
        _weighted_sums(owner, scales, norms1, count, (1.0 - theta) * log_rho, r),
    )


def j_sum_functional(d: JDecomposition, params: InterpParams) -> tuple[float, float]:
    """Weighted scale sums ``P = || rho**(-j*theta) * norms0[j] ||_{l^r}`` and
    ``Q = || rho**(j*(1-theta)) * norms1[j] ||_{l^r}`` (suprema when r = inf)."""
    (p_sum,), (q_sum,) = _j_sums(np.zeros(d.scales.size, dtype=np.int64), d.scales, d.norms0, d.norms1, 1, params)
    return p_sum, q_sum


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
    return _j_bounds(np.zeros(d.scales.size, dtype=np.int64), d.scales, d.norms0, d.norms1, 1, params)[0]


def _j_bounds(owner: np.ndarray, scales: np.ndarray, norms0: np.ndarray, norms1: np.ndarray,
              count: int, params: InterpParams) -> list[float]:
    """:func:`j_bound` of each of ``count`` decompositions, whose pieces are
    listed with their ``owner`` decomposition (ascending)."""
    constant, theta = j_bound_constant(params), params.theta
    return [0.0 if p_sum == 0.0 or q_sum == 0.0 else constant * p_sum ** (1.0 - theta) * q_sum**theta
            for p_sum, q_sum in zip(*_j_sums(owner, scales, norms0, norms1, count, params))]


# ---------------------------------------------------------------------------
# Layer-cake decomposition at dyadic mass thresholds
# ---------------------------------------------------------------------------


def _threshold_index(d: np.ndarray, base: float) -> np.ndarray:
    """Integers ``k`` with ``base**k < d <= base**(k+1)`` for each entry of the
    nonempty positive array ``d`` and ``base > 1``, exact under Python's float
    ``pow``: a logarithm puts each ``k`` within one of its estimate, and one
    sorted table of ``base**j`` places every entry.  A block of rows makes
    one call, so one table covers the whole range of its entries.

    ``np.power`` can differ from Python's ``pow`` in the last bit, which
    moves a value lying on a power of ``base`` into the next block, so the
    table holds Python powers.  Its top power, one past the largest estimate,
    is formed only when an entry needs it, since it may raise ``OverflowError``.
    """
    base = float(base)
    est = np.ceil(np.log(d) / math.log(base)).astype(np.int64) - 1
    lo, hi = int(est.min()), int(est.max())
    table = [base**j for j in range(lo, hi + 1)]
    if d.max() > table[-1]:
        table.append(base ** (hi + 1))
    return lo - 1 + np.searchsorted(table, d)


def _threshold_blocks(values: np.ndarray, lengths: np.ndarray, prof: _Profiles, base: float):
    """Rank blocks of the rows of the zero-padded array ``values``, row ``i``
    holding ``lengths[i]`` entries, whose rearrangements are the rows of
    ``prof``: an entry whose value has superlevel mass ``d`` joins the block
    ``k`` of its row with ``base**k < d <= base**(k+1)``, zeros join their
    row's last block, and a row without positive values has no blocks.

    Returns the row ``owner`` and index ``ks`` of every block, ordered by
    row and then by increasing index, the ``(N, m)`` block number of every
    entry (-1 where an entry joins no block), and the ``(blocks, m)`` values
    of every block, each in its entries' places and zero elsewhere."""
    rows, width = values.shape
    steps = np.arange(width) < prof.lengths[:, None]
    step_k = np.zeros((rows, width), dtype=np.int64)
    if steps.any():
        step_k[steps] = _threshold_index(prof.cum[steps], base)
    # a block starts at each step whose index differs from the step before
    first = steps.copy()
    first[:, 1:] &= step_k[:, 1:] != step_k[:, :-1]
    owner = np.nonzero(first)[0]
    block_of_step = np.cumsum(first, axis=None).reshape(rows, width) - 1
    last_step = np.maximum(prof.lengths - 1, 0)[:, None]
    joins = (np.arange(width) < lengths[:, None]) & (prof.lengths[:, None] > 0)
    entry_block = np.where(joins, np.take_along_axis(block_of_step, np.minimum(prof.step, last_step), axis=1), -1)
    block_values = np.zeros((owner.size, width))
    block_values[entry_block[joins], np.nonzero(joins)[1]] = values[joins]
    return owner, step_k[first], entry_block, block_values


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
    values, masses = v.values[None, :], v.masses[None, :]
    _, ks, pieces, norms0, norms1 = _layer_cake_rows(values, masses, np.array([v.values.size]),
                                                     _profile_rows(values, masses), *_L1_LINF)
    return JDecomposition(ks, pieces, v.masses, norms0, norms1)


def _layer_cake_rows(values: np.ndarray, masses: np.ndarray, lengths: np.ndarray, prof: _Profiles, end0, end1):
    """Layer-cake pieces of each zero-padded row of ``values`` on ``masses``,
    row ``i`` holding ``lengths[i]`` entries and rearranged in row ``i`` of
    ``prof``, measured in the endpoint spaces named by the exponent pairs
    ``end0`` and ``end1``: the ``owner`` row, scale, values and the two
    endpoint norms of every piece, ordered by row and then by scale."""
    owner, ks, _, pieces = _threshold_blocks(values, lengths, prof, 2.0)
    piece_masses, piece_lengths = masses[owner], lengths[owner]
    return (owner, ks, pieces, _piece_norms(pieces, piece_masses, *end0, piece_lengths),
            _piece_norms(pieces, piece_masses, *end1, piece_lengths))


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


def _layer_cake_sides(values: np.ndarray, masses: np.ndarray, lengths: np.ndarray,
                      params: LorentzParams, interp: InterpParams) -> tuple[list[float], list[float]]:
    """``P + Q`` and ``C0 * lorentz_norm(v, params)`` for the layer-cake
    decomposition of each zero-padded row ``v`` of ``values`` on ``masses``,
    with the K-norm parameters ``interp`` of :func:`_k_params`."""
    prof = _profile_rows(values, masses)
    owner, ks, _, norms0, norms1 = _layer_cake_rows(values, masses, lengths, prof, *_L1_LINF)
    p_sums, q_sums = _j_sums(owner, ks, norms0, norms1, lengths.size, interp)
    constant = layer_cake_constant(params.p, params.r)
    return [p + q for p, q in zip(p_sums, q_sums)], [constant * n for n in _lorentz_rows(prof, params.p, params.r)]


def layer_cake_bound_ratio(v: MeasuredValues, params) -> float:
    """Ratio ``(P + Q) / (C0 * lorentz_norm(v, params))`` for the layer-cake
    decomposition of ``v``; at most 1 for every input."""
    params = _as_lorentz_params(params)
    (lhs,), (rhs,) = _layer_cake_sides(v.values[None, :], v.masses[None, :], np.array([v.values.size]),
                                       *_k_params(params.p, params.r, "p"))
    return _ratio(lhs, rhs)


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
    (pairing,), (product,) = _duality_sides(f.values[None, :], g.values[None, :], f.masses[None, :], None,
                                            *_dual_params(p, r, "p"))
    return _ratio(pairing, product)


def _duality_sides(f: np.ndarray, g: np.ndarray, masses: np.ndarray, lengths,
                   params: LorentzParams, dual: LorentzParams) -> tuple[list[float], list[float]]:
    """``integral f*g dmu`` and ``||f||_{p,r} * ||g||_{p',r'}`` for each pair of
    zero-padded rows of ``f`` and ``g`` on the rows of ``masses``, row ``i``
    holding ``lengths[i]`` entries (every row full when ``lengths`` is None),
    with ``params`` and its ``dual`` from :func:`_dual_params`."""
    pairings = _row_sums(f * g * masses, lengths).tolist()
    prof = _profile_rows(np.concatenate((f, g)), np.concatenate((masses, masses)))
    rows = len(f)
    f_prof, g_prof = (_Profiles(prof.values[half], prof.cum[half], prof.lengths[half])
                      for half in (slice(None, rows), slice(rows, None)))
    products = [a * b for a, b in zip(_lorentz_rows(f_prof, params.p, params.r), _lorentz_rows(g_prof, dual.p, dual.r))]
    return pairings, products


# ---------------------------------------------------------------------------
# Rank-threshold partition of sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Partition of sequence indices into rank blocks with weighted block sums.

    ``scales`` (K,) holds the increasing block indices.  Row ``i`` of the
    ``(K, n)`` bool mask ``blocks`` marks the indices whose superlevel rank
    lies in ``(2**(sigma*k), 2**(sigma*(k+1))]`` for ``k = scales[i]``;
    ``beta[i]`` and ``gamma[i]`` are that block's weighted q0- and q1-sums.
    ``lhs`` is the sum of their l^{r0} norms, bounded by
    ``bound = C * ||lambda||_{l^{r0}}``.
    """

    scales: np.ndarray
    blocks: np.ndarray
    eta: float
    sigma: float
    beta: np.ndarray
    gamma: np.ndarray
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
    return _partition_constant(*_partition_exponents(q0, q1, r0, "r0"))


def _partition_constant(q0: float, q1: float, r0: float, sigma: float) -> float:
    return (2.0 ** (sigma / q0) + (1.0 if q1 == _INF else 2.0 ** (sigma / q1))) * (
        1.0 - 2.0 ** (-sigma)
    ) ** (-1.0 / r0)


def _partition_exponents(
    q0: float, q1: float, r: float, r_name: str, q_names: tuple[str, str] = ("q0", "q1")
) -> tuple[float, float, float, float]:
    """``(q0, q1, r, sigma)`` as floats with ``q0 < r < q1`` and
    ``sigma = 1/(1/q0 - 1/q1)``; a ``ValueError`` names the middle exponent
    ``r_name``, or both ``q_names`` when the rank-threshold base
    ``2**sigma`` or the constant of :func:`ell_partition_constant` leaves
    the float range."""
    r = _check_exponent(r_name, r)
    q0, q1 = _check_exponent("q0", q0), _check_exponent("q1", q1)
    if not q0 < r < q1:
        raise ValueError(
            f"need q0 < {r_name} < q1 for a proper interpolation position, got {(q0, r, q1)!r}"
        )
    gap = _inv(q0) - _inv(q1)
    sigma = 1.0 / gap if gap > 0.0 else _INF
    try:
        finite = math.isfinite(2.0**sigma) and math.isfinite(_partition_constant(q0, q1, r, sigma))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"{q_names[0]}={q0!r} and {q_names[1]}={q1!r} are too close: sigma = 1/(1/q0 - 1/q1) = {sigma!r} "
            f"puts the rank thresholds 2**sigma or the bound constant outside the float range"
        )
    return q0, q1, r, sigma


def ell_partition(lam, q0: float, q1: float, r0: float) -> PartitionResult:
    """Partition sequence indices at geometric rank thresholds ``2**(sigma*k)``.

    ``sigma = 1/(1/q0 - 1/q1)`` and ``eta = (1/q0 - 1/r0) * sigma`` place
    ``l^{r0}`` at position ``eta`` between ``l^{q0}`` and ``l^{q1}``.  An entry
    whose superlevel rank (count of entries at least as large) is ``d`` joins
    block ``k`` with ``2**(sigma*k) < d <= 2**(sigma*(k+1))``; zero entries
    join the last block, where they contribute nothing, and a sequence of
    zeros has no blocks (``lhs = bound = ratio = 0``).  The weighted block
    sums satisfy ``||beta||_{l^{r0}} + ||gamma||_{l^{r0}} <= C * ||lambda||_{l^{r0}}``
    with ``C`` from :func:`ell_partition_constant`.
    """
    q0, q1, r0, sigma = _partition_exponents(q0, q1, r0, "r0")
    mv = MeasuredValues.from_sequence(lam)
    if mv.values.size == 0:
        raise ValueError("empty sequence")
    ks, entry_block, eta, beta, gamma, (lhs,), (bound,) = _partition_rows(
        mv.values[None, :], np.array([mv.values.size]), q0, q1, r0, sigma)
    blocks = entry_block[0] == np.arange(ks.size)[:, None]
    return PartitionResult(ks, blocks, eta, sigma, beta, gamma, lhs, bound, _ratio(lhs, bound))


def _partition_rows(values: np.ndarray, lengths: np.ndarray, q0: float, q1: float, r0: float, sigma: float):
    """Rank-threshold partition of each zero-padded row of ``values``, row
    ``i`` holding the ``lengths[i]`` nonnegative entries of one sequence:
    the block indices ``ks``, the ``(N, m)`` block number of every entry,
    ``eta``, the weighted sums ``beta`` and ``gamma`` of every block, ordered
    by row and then by index, and the lists of ``lhs`` and ``bound``."""
    eta = (_inv(q0) - _inv(r0)) * sigma
    prof = _profile_rows(values, _unit_masses(lengths))
    owner, ks, entry_block, block_vals = _threshold_blocks(values, lengths, prof, 2.0**sigma)
    block_lengths = lengths[owner]
    beta = 2.0 ** (-ks * eta) * _grid_lp(block_vals, q0, 1.0, axis=1, lengths=block_lengths)
    gamma = 2.0 ** (ks * (1.0 - eta)) * _grid_lp(block_vals, q1, 1.0, axis=1, lengths=block_lengths)
    counts = np.bincount(owner, minlength=lengths.size)
    lhs = [b + g for b, g in zip(_grid_lp(_pad(beta, counts), r0, 1.0, axis=1, lengths=counts).tolist(),
                                 _grid_lp(_pad(gamma, counts), r0, 1.0, axis=1, lengths=counts).tolist())]
    constant = _partition_constant(q0, q1, r0, sigma)
    bound = [constant * n for n in _grid_lp(values, r0, 1.0, axis=1, lengths=lengths).tolist()]
    return ks, entry_block, eta, beta, gamma, lhs, bound


# ---------------------------------------------------------------------------
# Reiteration between Lorentz endpoints
# ---------------------------------------------------------------------------


def reiteration_check(
    p0: float,
    r0: float,
    p1: float,
    r1: float,
    theta: float,
    r: float,
    suite_size: int,
    seed: int = 0,
) -> list[dict]:
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
    records ``{instance_id, lhs, rhs, ratio}`` of :func:`run_interp_suite`;
    the ratios must stay within fixed positive bounds for the reiteration
    identity to hold numerically.
    """
    return _run_suite(_reiteration_suite(p0, r0, p1, r1, theta, r), suite_size, seed)


def _reiteration_suite(p0: float, r0: float, p1: float, r1: float, theta: float, r: float,
                       names=("p0", "p1", "theta")):
    """The ``(draw, sides)`` suite of :func:`reiteration_check`, built after
    the exponents are validated; a ``ValueError`` calls ``p0``, ``p1`` and
    ``theta`` by ``names``."""
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"{names[2]} must lie in (0, 1), got {theta!r}")
    given = ", ".join(f"{name}={value!r}" for name, value in zip(names, (p0, p1, theta)))
    target_p = _compose(theta, p0, p1)
    if not 1.0 < target_p < _INF:
        raise ValueError(f"{given} compose p={target_p!r}, outside (1, inf)")
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
    # j_bound_constant divides by 1 - base**(-theta) and base**(1-theta) - 1
    base = max(rho, 1.0 / rho)
    if not base ** (-theta) < 1.0 < base ** (1.0 - theta):
        raise ValueError(f"{given} leave no bound constant: for the grid base rho={rho!r}, "
                         "rho**theta or rho**(1-theta) rounds to 1")
    params = InterpParams(theta, r, rho)
    target = LorentzParams(target_p, r)
    ends = ((p0, r0), (p1, r1))

    def sides(values, lengths):
        masses = _unit_masses(lengths)
        prof = _profile_rows(values, masses)
        rows = lengths.size
        single = _j_bounds(np.arange(rows), np.zeros(rows, dtype=np.int64),
                           *(_piece_norms(values, masses, *end, lengths) for end in ends), rows, params)
        # lognormal values are positive, so every layer cake has pieces
        owner, ks, _, norms0, norms1 = _layer_cake_rows(values, masses, lengths, prof, *ends)
        cake = _j_bounds(owner, ks, norms0, norms1, rows, params)
        return [min(bounds) for bounds in zip(single, cake)], _lorentz_rows(prof, target.p, target.r)

    return _random_sequence, sides


# ---------------------------------------------------------------------------
# Suite runner for the CLI
# ---------------------------------------------------------------------------


def _random_sequence(rng: np.random.Generator) -> tuple[np.ndarray]:
    return (rng.lognormal(0.0, 1.5, int(rng.integers(3, 60))),)


def _random_step_values(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    (values,) = _random_sequence(rng)
    return values, rng.uniform(0.1, 4.0, values.size)


def _run_suite(suite, suite_size: int, seed: int) -> list[dict]:
    """Records of the ``suite_size >= 1`` instances of the ``(draw, sides)``
    suite: the instances draw in turn from one generator seeded by ``seed``,
    and are evaluated :data:`_BLOCK` at a time."""
    if suite_size < 1:
        raise ValueError("suite_size must be >= 1")
    draw, sides = suite
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def blocks():
        for start in range(0, suite_size, _BLOCK):
            yield from zip(*_block_sides(sides, [draw(rng) for _ in range(min(_BLOCK, suite_size - start))]))

    return _suite_records(blocks())


def _block_sides(sides, draws):
    """``sides`` of a block of ``draws``, each a tuple of equal-length 1-D
    arrays: every column of the block zero-padded into one ``(N, m)`` array,
    then the lengths of its rows."""
    lengths = np.array([draw[0].size for draw in draws])
    return sides(*(_pad(np.concatenate(column), lengths) for column in zip(*draws)), lengths)


def _k_params(p, r, name: str = "--p") -> tuple[LorentzParams, InterpParams]:
    """``L^{p,r}`` and the parameters ``theta = 1 - 1/p`` and ``r`` of the
    K-norm equivalent to it; a ``ValueError`` names ``p`` as ``name`` when
    ``theta`` rounds to 1."""
    target = LorentzParams(p, r)
    theta = 1.0 - 1.0 / target.p
    if theta == 1.0:
        raise ValueError(f"{name}={target.p!r} is too large: theta = 1 - 1/p rounds to 1")
    return target, InterpParams(theta, target.r)


def _dual_params(p, r, name: str = "--p") -> tuple[LorentzParams, LorentzParams]:
    """``L^{p,r}`` and its dual ``L^{p',r'}``; a ``ValueError`` names ``p``
    as ``name`` when its conjugate ``p'`` rounds to 1."""
    params = LorentzParams(p, r)
    dual_p = conjugate_exponent(params.p)
    if dual_p == 1.0:
        raise ValueError(f"{name}={params.p!r} is too large: its conjugate p/(p-1) rounds to 1")
    return params, LorentzParams(dual_p, conjugate_exponent(params.r))


def _k_equivalence_suite(p, r, q0, q1, theta):
    target, params = _k_params(p, r)

    def sides(values, masses, lengths):
        prof = _profile_rows(values, masses)
        return _k_norm_rows(prof, params.theta, params.r), _lorentz_rows(prof, target.p, target.r)

    return _random_step_values, sides


def _layer_cake_suite(p, r, q0, q1, theta):
    params = _k_params(p, r)
    return _random_step_values, lambda *block: _layer_cake_sides(*block, *params)


def _duality_suite(p, r, q0, q1, theta):
    params = _dual_params(p, r)

    def draw(rng):
        size = int(rng.integers(3, 60))
        masses = rng.uniform(0.1, 4.0, size)
        return rng.lognormal(0.0, 1.0, size), rng.lognormal(0.0, 1.0, size), masses

    return draw, lambda *block: _duality_sides(*block, *params)


def _partition_suite(p, r, q0, q1, theta):
    q0, q1, r, sigma = _partition_exponents(q0, q1, r, "r", ("--q0", "--q1"))

    def draw(rng):
        return (rng.lognormal(0.0, 1.5, int(rng.integers(5, 120))),)

    return draw, lambda values, lengths: _partition_rows(values, lengths, q0, q1, r, sigma)[-2:]


def _reiteration_check_suite(p, r, q0, q1, theta):
    q0, q1 = _check_exponent("q0", q0), _check_exponent("q1", q1)
    r0 = 1.0 if q0 == 1.0 else r
    r1 = _INF if q1 == _INF else r
    return _reiteration_suite(q0, r0, q1, r1, theta, r, ("--q0", "--q1", "--theta"))


# check name -> builder of its ``(draw, sides)`` suite, called once per run with
# the keyword options of :func:`run_interp_suite`, in ``interp --check`` order:
# ``draw(rng)`` makes the random input of one instance as a tuple of equal-length
# 1-D arrays, and ``sides(*columns, lengths)`` gives the lists of lhs and rhs of
# a block of them, each column zero-padded into one ``(N, m)`` array
CHECKS = {
    "k-equivalence": _k_equivalence_suite,
    "layer-cake": _layer_cake_suite,
    "partition": _partition_suite,
    "duality": _duality_suite,
    "reiteration": _reiteration_check_suite,
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

    The instances are drawn one at a time from one generator seeded by
    ``seed`` and evaluated in blocks of zero-padded rows (see the module
    docstring); every record has the bits of its instance evaluated alone.
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
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    return _run_suite(CHECKS[check](p=p, r=r, q0=q0, q1=q1, theta=theta), suite_size, seed)
