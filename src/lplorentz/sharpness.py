"""Extremal families showing the composed outer exponent cannot be improved.

Builds compactly supported moment-vanishing atoms, solves the exponent system
that makes every scale contribute equally, assembles disjointly supported
translate-dilate sums ``f_L`` (coefficients ``2**(j*X)``) and ``g_L``
(coefficients ``2**(j*Y)``) over ``L`` scales, and evaluates their norms:
the two Besov-type bounds grow like ``L**(1/r0)`` and
``L**(1/r1)``, the pairing grows like ``L``, and the Lorentz lower bound
obtained from the pairing grows like ``L**(1/r)``.  Fitting these growth
rates over a sweep of ``L`` shows the inequality ratio grows like
``L**(1/r - 1/r_star)`` whenever ``1/r > 1/r_star``.  The families of a
sweep are nested, so every level is read off the largest family in one pass,
and the closed-form least-squares slope against ``log2 L`` gives the slopes
of all six growth curves.

The Besov bounds and the pairing are closed forms.  The dual Lorentz norm
of ``g_L`` is computed from the atom's rearrangement *sampled* at the 4096
midpoints of :func:`build_atom`, so it is exact for the sampled atom, not
for the polynomial one; acceptance test 8 bounds that sampling error at 2 %
against the sums sampled on a grid.  When ``r = p`` the dual space is
``L^{p'}`` and the norm is the ``l^{p'}`` sum of the per-scale norms, summed
in base-2 logs.  Otherwise it is evaluated on an exact merge of per-scale
copies of the sampled rearrangement: a sweep sorts the distribution entries
of its largest sum once and reads every level off that order.  No sum is
ever laid out or sampled on a grid here: the integer-count families with
concrete translates that cross-check the closed forms for small ``L`` live
with the tests, in ``tests/placed_family.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    RearrangementProfile,
    _as_besov_params,
    _check_exponent,
    _inv,
    _prefix_power_sums_log2,
    _profile_from_sorted,
    besov_seminorm,
    conjugate_exponent,
    lorentz_norm,
    rearrangement,
)
from .inequalities import CaseParams
from .spectral import GridSpec, SampledField, decompose

__all__ = [
    "Atom",
    "SharpnessParams",
    "AtomicSum",
    "GrowthResult",
    "build_atom",
    "solve_exponents",
    "build_params",
    "build_closed_form_family",
    "atomic_besov_upper",
    "atomic_distribution",
    "pairing",
    "growth_experiment",
    "default_level_grid",
]

_INF = math.inf

# Every atom is the ``moments``-th derivative of ``(1 - x**2)**M`` with
# ``M = moments + 2``, sampled at 4096 midpoints of ``[-1, 1]``.  Its
# power-basis coefficients grow like binomials, so from 17 moments on float64
# rounding leaves a moment above the 1e-10 check (from 24 on the expansion
# fails outright), long before the midpoints stop resolving the atom.
_SMOOTHNESS_ORDER = 2
_MIDPOINTS = 4096
_MAX_MOMENTS = 16


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Atom:
    """Compactly supported profile on ``[-1, 1]`` with vanishing moments.

    ``profile_coefficients`` are ascending power-basis coefficients of a
    polynomial vanishing (with several derivatives) at the endpoints; the
    atom is that polynomial on ``[-1, 1]`` and zero outside.  Moments of
    order below ``moments`` vanish and the profile is normalized to unit L2
    norm.  ``rearrangement`` is the decreasing rearrangement of ``|atom|``
    sampled at 4096 midpoints; the distributions of atomic sums are exact
    merges of scaled copies of it, so they inherit its sampling error.
    ``l2_norm_sq`` is stored for the closed-form pairing.
    """

    moments: int
    profile_coefficients: np.ndarray
    l2_norm_sq: float
    rearrangement: RearrangementProfile

    def evaluate(self, u) -> np.ndarray:
        return _profile_values(self.profile_coefficients, u)


def _profile_values(coefficients, u) -> np.ndarray:
    """The polynomial with ascending ``coefficients`` on ``[-1, 1]``, zero outside."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    vals = np.polynomial.polynomial.polyval(u, coefficients)
    return np.where(inside, vals, 0.0)


def _polynomial_moment(poly: Polynomial, order: int) -> float:
    integrand = Polynomial([0.0, 1.0]) ** order * poly if order else poly
    anti = integrand.integ()
    return float(anti(1.0) - anti(-1.0))


def build_atom(moments: int) -> Atom:
    """Atom with ``moments`` vanishing moments: the ``moments``-th derivative
    of the bump ``(1 - x**2)**M`` with ``M = moments + 2``, normalized to unit
    L2 norm.

    Every moment of order below ``moments`` vanishes exactly by integration
    by parts (the bump and its first ``M - 1`` derivatives vanish at the
    endpoints); this is verified both on the exact polynomial and by midpoint
    quadrature at 4096 midpoints.
    """
    if moments < 1:
        raise ValueError("moments must be >= 1")
    if moments > _MAX_MOMENTS:
        raise ValueError(
            f"moments must be at most {_MAX_MOMENTS}, the largest order whose moments vanish in float64, "
            f"got {moments}"
        )
    order = moments + _SMOOTHNESS_ORDER
    bump = Polynomial([1.0, 0.0, -1.0]) ** order
    profile = bump.deriv(moments)
    l2_sq = _polynomial_moment(profile * profile, 0)
    profile = profile / math.sqrt(l2_sq)

    for gamma in range(moments):
        residual = abs(_polynomial_moment(profile, gamma))
        if residual > 1e-10:
            raise ArithmeticError(f"moment {gamma} failed to vanish: {residual!r}")

    cell = 2.0 / _MIDPOINTS
    u = -1.0 + cell * (np.arange(_MIDPOINTS) + 0.5)
    samples = np.polynomial.polynomial.polyval(u, profile.coef)
    l1 = float(np.sum(np.abs(samples)) * cell)
    for gamma in range(moments):
        numeric = float(np.sum(u**gamma * samples) * cell) if gamma else float(np.sum(samples) * cell)
        if abs(numeric) > 1e-8 * l1:
            raise ArithmeticError(f"numeric moment {gamma} too large: {numeric!r}")

    profile_rearr = rearrangement(MeasuredValues(np.abs(samples), np.full_like(samples, cell)))
    l2_norm_sq = _polynomial_moment(profile * profile, 0)
    return Atom(moments, profile.coef, l2_norm_sq, profile_rearr)


# ---------------------------------------------------------------------------
# Exponent system
# ---------------------------------------------------------------------------


def solve_exponents(
    n: int, alpha: float, beta: float, q0: float, q1: float, names=("alpha", "beta", "q0", "q1")
) -> tuple[float, float, float]:
    """Solve for ``(delta, X, Y)`` making all per-scale contributions equal.

    The system is::

        X + alpha - n/q0 + delta/q0 = 0
        X - beta  - n/q1 + delta/q1 = 0
        Y - alpha - n*(1 - 1/q0) + delta*(1 - 1/q0) = 0

    whence ``delta = n - (alpha + beta)/(1/q0 - 1/q1)``; the fourth relation
    ``Y + beta - n*(1 - 1/q1) + delta*(1 - 1/q1) = 0`` and the pairing
    identity ``X + Y - n + delta = 0`` then hold automatically.  Requires
    ``q0 != q1`` and a resulting ``delta`` in ``[0, n)`` (otherwise the
    per-scale atom counts are not realizable and an error reports the value).
    Errors call ``alpha, beta, q0, q1`` by ``names``.
    """
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if not (alpha > 0 and beta > 0):
        raise ValueError(f"{names[0]} and {names[1]} must be positive")
    iq0, iq1 = _inv(q0), _inv(q1)
    if iq0 == iq1:
        raise ValueError(f"{names[2]} and {names[3]} must differ (the exponent solve divides by 1/q0 - 1/q1)")
    delta = n - (alpha + beta) / (iq0 - iq1)
    if not 0.0 <= delta < n:
        raise ValueError(
            f"infeasible count exponent delta={delta!r} from {names[0]}={alpha!r}, {names[1]}={beta!r}, "
            f"{names[2]}={q0!r} and {names[3]}={q1!r}; need 0 <= delta < n for realizable per-scale counts"
        )
    x_exp = (n - delta) * iq0 - alpha
    y_exp = alpha + (n - delta) * (1.0 - iq0)
    residuals = (
        x_exp + alpha - n * iq0 + delta * iq0,
        x_exp - beta - n * iq1 + delta * iq1,
        y_exp - alpha - n * (1.0 - iq0) + delta * (1.0 - iq0),
        y_exp + beta - n * (1.0 - iq1) + delta * (1.0 - iq1),
    )
    worst = max(abs(res) for res in residuals)
    if worst > 1e-12:
        raise ArithmeticError(f"exponent solve residual {worst!r} exceeds 1e-12")
    return delta, x_exp, y_exp


@dataclass(frozen=True, kw_only=True)
class SharpnessParams(CaseParams):
    """The exponents of one case plus what its extremal family needs: the
    dimension ``n`` and the solved ``(delta, X, Y)`` of :func:`solve_exponents`.
    ``theta``, ``p``, ``r_star`` and the checks are those of :class:`CaseParams`.
    """

    n: int
    delta: float
    x_exp: float
    y_exp: float


def build_params(
    n: int,
    alpha: float,
    beta: float,
    q0: float,
    q1: float,
    r0: float,
    r1: float,
    r: float | None = None,
    names=("alpha", "beta", "q0", "q1"),
) -> SharpnessParams:
    """Solve the exponent system and assemble a parameter set; ``r`` defaults
    to the composed exponent ``r_star``.  Only dimension 1 is supported for
    the geometric constructions.  Errors call ``alpha, beta, q0, q1`` by
    ``names``."""
    if n != 1:
        raise ValueError("only dimension n=1 is supported for atomic families")
    q0, q1 = _check_exponent("q0", q0), _check_exponent("q1", q1)
    delta, x_exp, y_exp = solve_exponents(n, alpha, beta, q0, q1, names)
    return SharpnessParams(alpha, beta, q0, q1, r0, r1, r, names, n=n, delta=delta, x_exp=x_exp, y_exp=y_exp)


# ---------------------------------------------------------------------------
# Atomic sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AtomicSum:
    """Sum ``sum_j 2**(j*coeff_exp) * sum_k atom(2**j x - k)`` over
    ``2**count_exps[i]`` disjointly supported translates at each scale
    ``scales[i]``; the translates are never materialized, only the closed
    forms below read the sum.  No closed form forms a count on its own, so
    none leaves the float range.  ``scales`` and ``count_exps`` are held as
    ``int64`` and float arrays, whatever sequences they are given as.
    """

    atom: Atom
    n: int
    coeff_exp: float
    scales: np.ndarray
    count_exps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.int64))
        object.__setattr__(self, "count_exps", np.asarray(self.count_exps, dtype=float))
        if len(self.scales) != len(self.count_exps):
            raise ValueError("scales and count_exps must have equal length")

    def coefficient(self, j: int) -> float:
        return 2.0 ** (j * self.coeff_exp)


def build_closed_form_family(params: SharpnessParams, atom: Atom, levels: int) -> tuple[AtomicSum, AtomicSum]:
    """The pair ``(f_L, g_L)`` over the scales ``1..levels`` with the real
    counts ``2**(delta*j)``, held as their exponents ``delta*j``; their Besov
    bounds and pairings are closed forms, whose equal-contribution identities
    hold in exact arithmetic and only up to float rounding in the computed
    values."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    scales = np.arange(1, levels + 1)
    count_exps = params.delta * scales
    f_sum = AtomicSum(atom, params.n, params.x_exp, scales, count_exps)
    g_sum = AtomicSum(atom, params.n, params.y_exp, scales, count_exps)
    return f_sum, g_sum


# ---------------------------------------------------------------------------
# Closed-form norms and pairings
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _atom_besov_calibration(coefficients: tuple[float, ...], s: float, q: float, r: float) -> float:
    """Seminorm of a single unit atom at scale 0, measured on a reference grid.

    This is the atom-dependent constant multiplying the closed-form scale sum
    in :func:`atomic_besov_upper`.  The atom enters only through its profile
    coefficients, so the cache is keyed on them and on the space: every atom
    :func:`build_atom` makes from the same parameters shares one entry.
    """
    grid = GridSpec(1, 4096, 8.0)
    x = grid.axis_coordinates()
    field = SampledField(grid, _profile_values(coefficients, x - 4.0))
    d = decompose(field, -2, 9)
    return besov_seminorm(d, BesovParams(s, q, r))


def _besov_terms(s: AtomicSum, space: BesovParams) -> tuple[float, np.ndarray]:
    """Calibration constant ``C_atom`` and per-scale base-2 exponents
    ``j*s' - j*n/q + log2 ||coeffs_j||_{l^q}`` of the closed-form bound of
    :func:`atomic_besov_upper`; the bound of the first ``L`` scales is
    ``C_atom * 2**e`` with ``e`` the :func:`~lplorentz.norms._prefix_power_sums_log2`
    of ``exps`` at level ``L`` and exponent ``space.q``."""
    if abs(space.s) >= s.atom.moments:
        raise ValueError(
            f"|s|={abs(space.s)!r} must stay below the atom's vanishing-moment order {s.atom.moments}"
        )
    iq = _inv(space.p)
    slope = space.s + s.coeff_exp - s.n * iq
    exps = s.scales * slope + iq * s.count_exps
    constant = _atom_besov_calibration(tuple(s.atom.profile_coefficients.tolist()), space.s, space.p, space.q)
    return constant, exps


def atomic_besov_upper(s: AtomicSum, spaceparams) -> float:
    """Closed-form seminorm bound: ``C_atom * (sum_j (2**(j*s') * 2**(-j*n/q)
    * ||coeffs_j||_{l^q})**r)**(1/r)`` with the per-scale coefficient blocks
    ``||coeffs_j||_{l^q} = 2**(count_exps[j]/q) * 2**(j*coeff_exp)``.

    Evaluated in base-2 logs with max-shift so arbitrarily long families do
    not overflow.  The scales contribute equally in exact arithmetic; the
    computed terms are equal only up to float rounding.  ``C_atom`` is the
    measured seminorm of one unit atom at scale zero, so a sum of that one
    atom (scale 0, count 1) returns exactly that constant.
    """
    spaceparams = _as_besov_params(spaceparams)
    constant, exps = _besov_terms(s, spaceparams)
    return constant * 2.0 ** _prefix_power_sums_log2(exps, [len(exps)], spaceparams.q)[0]


def atomic_distribution(s: AtomicSum) -> RearrangementProfile:
    """Decreasing rearrangement of an atomic sum, built from the atom's
    sampled rearrangement.

    Supports are disjoint, so the distribution is the sum of the per-scale
    distributions: scale ``j`` contributes the atom's rearrangement with
    values scaled by ``2**(j*coeff_exp)`` and masses by ``2**(count_exps[j] - j*n)``.
    The merge is exact for the atom sampled at 4096 midpoints;
    against the true atom it carries that sampling error, which acceptance
    test 8 bounds at 2 %.  A growth sweep merges only when ``r != p``; at
    ``r = p`` its dual norm needs no distribution (see :func:`_dual_norms`).
    """
    return next(_prefix_distributions(s, [len(s.scales)]))


def _scale_factors(s: AtomicSum, top_value: float, widths: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-scale value factors ``2**(j*coeff_exp)`` and mass factors
    ``2**(count_exps[j] - j*n)`` of ``s``, each formed as one power of two.

    Raises ``ArithmeticError`` naming the first scale at which a factor, the
    largest value or a mass entry overflows or underflows the float range.
    """
    low, high = float(widths.min()), float(widths.max())
    coefs, factors = [], []
    try:
        for j, e in zip(s.scales.tolist(), s.count_exps.tolist()):
            coef = s.coefficient(j)
            factor = 2.0 ** (e - j * s.n)
            if not (0.0 < coef * top_value < _INF and 0.0 < factor * low and factor * high < _INF):
                raise ArithmeticError(
                    f"atomic sum leaves the float range at scale {j}: "
                    f"value factor {coef!r}, mass factor {factor!r}"
                )
            coefs.append(coef)
            factors.append(factor)
    except OverflowError as exc:
        raise ArithmeticError(f"atomic sum leaves the float range at scale {j}: {exc}") from None
    return coefs, factors


def _prefix_distributions(s: AtomicSum, levels):
    """Yield the decreasing rearrangement of the sum over the first ``L``
    scales of ``s``, for each ``L`` in ``levels``.

    The entries of ``s`` (the atom's sampled rearrangement times each
    scale's factors, see :func:`atomic_distribution`) are sorted once and
    tagged with their scale index: an ``int32`` array of per-scale blocks,
    gathered through the sort order.  A boolean filter on the tag keeps the
    entries of the first ``L`` scales in sorted order, so no level sorts
    again.  Zero values are dropped.
    """
    base = s.atom.rearrangement
    widths = np.diff(np.concatenate(([0.0], base.cum_masses)))
    coefs, factors = _scale_factors(s, float(base.values[0]), widths)
    entries = MeasuredValues(np.multiply.outer(coefs, base.values), np.multiply.outer(factors, widths))
    order = np.argsort(entries.values)[::-1][: np.count_nonzero(entries.values)]
    values, masses = entries.values[order], entries.masses[order]
    scale = np.repeat(np.arange(len(coefs), dtype=np.int32), base.values.size)[order]
    del entries, order  # only the sorted copies stay alive across the yields
    for level in levels:
        keep = scale < level
        yield _profile_from_sorted(values[keep], masses[keep])


def _dual_norms(s: AtomicSum, levels, dual: LorentzParams) -> list[float]:
    """Lorentz norm ``||g_L||_{p',r'}`` in the space ``dual`` of the sum
    ``g_L`` over the first ``L`` scales of ``s``, for each ``L`` in ``levels``.

    For ``r' = p'`` the space is ``L^{p'}`` and the supports are disjoint, so
    the norm is the ``l^{p'}`` sum of the per-scale norms
    ``2**(j*coeff_exp) * 2**((count_exps[j] - j*n)/p') * ||a||_{p'}``, with
    ``a`` the atom's sampled rearrangement (the entries
    :func:`atomic_distribution` merges).  It is summed in base-2 logs, so no
    level sorts and no scale leaves the float range.  For ``r' != p'`` each
    level's norm is evaluated on :func:`_prefix_distributions`.
    """
    if dual.r != dual.p:
        return [lorentz_norm(profile, dual) for profile in _prefix_distributions(s, levels)]
    exps = s.scales * s.coeff_exp + (s.count_exps - s.scales * s.n) / dual.p + _atom_norm_log2(s.atom, dual)
    return [2.0**e for e in _prefix_power_sums_log2(exps, levels, dual.p)]


@lru_cache(maxsize=64)
def _atom_norm_log2(atom: Atom, space: LorentzParams) -> float:
    """``log2`` of the Lorentz norm in ``space`` of the atom's sampled
    rearrangement, computed once per atom and space."""
    return math.log2(lorentz_norm(atom.rearrangement, space))


def pairing(f: AtomicSum, g: AtomicSum) -> float:
    """Integral of ``f * g`` for two sums over the same atom layout, in closed
    form: ``sum_j 2**(count_exps[j] + j*(Ef + Eg - n)) * ||atom||_{L2}**2``.
    With the solved exponents ``Ef + Eg - n = -delta`` and ``count_exps[j] =
    delta*j``, so in exact arithmetic every term is ``||atom||_{L2}**2`` and
    the sum is the number of scales; the computed one is only up to float
    rounding (``7.999999999999922`` at ``L = 8`` in the composed sweep)."""
    if f.atom is not g.atom or not (np.array_equal(f.scales, g.scales) and np.array_equal(f.count_exps, g.count_exps)):
        raise ValueError("pairing requires the same atom layout on both factors")
    return float(_running_pairings(f, g)[-1]) * f.atom.l2_norm_sq


def _running_pairings(f: AtomicSum, g: AtomicSum) -> np.ndarray:
    """Left-to-right running sums of the :func:`pairing` terms: entry ``k`` sums the first ``k`` scales."""
    pair_exp = f.coeff_exp + g.coeff_exp - f.n
    terms = np.exp2(f.count_exps + f.scales * pair_exp)
    return np.cumsum(np.concatenate(([0.0], terms)))


# ---------------------------------------------------------------------------
# Growth experiment
# ---------------------------------------------------------------------------


def default_level_grid(l_min: int, l_max: int) -> list[int]:
    """Geometric level sweep ``{l_min * 2**k} union {round(1.5*l_min) * 2**k}``
    clipped to ``[l_min, l_max]``."""
    if not 1 <= l_min < l_max:
        raise ValueError("need 1 <= l_min < l_max")
    levels = set()
    for base in (l_min, round(1.5 * l_min)):
        value = base
        while value <= l_max:
            levels.add(int(value))
            value *= 2
    return sorted(levels)


@dataclass(frozen=True, eq=False)
class GrowthResult:
    """Outcome of a level sweep: per-level records with both sides of the
    inequality and fitted log-log slopes against their expected values."""

    levels: list[int]
    records: list[dict]
    slopes: dict[str, float]
    expected: dict[str, float]


def _least_squares_slopes(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Least-squares slope of each column of ``columns`` against ``x``, in
    closed form: ``sum((x - mean x) * (y - mean y)) / sum((x - mean x)**2)``,
    as two numpy sums rather than BLAS products, whose rounding varies by host."""
    dx = x - x.mean()
    return (dx[:, None] * (columns - columns.mean(axis=0))).sum(axis=0) / (dx * dx).sum()


def growth_experiment(params: SharpnessParams, atom: Atom, levels) -> GrowthResult:
    """Sweep the number of scales and fit growth exponents of all quantities.

    Uses the real counts ``2**(delta*j)``, with which every scale contributes
    equally in exact arithmetic: the two Besov bounds of ``f_L`` are then
    proportional to ``L**(1/r0)`` and ``L**(1/r1)``, the pairing to ``L``,
    and the Lorentz lower bound ``pairing / ||g_L||_{p',r'}`` approaches
    ``L**(1/r)``.  The computed values keep these identities only up to float
    rounding.  The dual norm is
    a closed-form ``l^{p'}`` sum over scales when ``r = p`` and a merge of
    the sampled distribution otherwise (:func:`_dual_norms`).  The fitted slopes
    are checked here (2%, 2%, 1%, 3% tolerances); the ratio slope is returned
    for the caller to compare against ``1/r - 1/r_star``.

    Every level family is a prefix of the largest one, so the levels are read
    off that top family in one pass: the per-scale Besov exponents and
    pairing terms are computed once, and each level takes the log-sum of its
    prefix (:func:`~lplorentz.norms._prefix_power_sums_log2`) and the
    left-to-right running pairing sum at its last scale.  Each quantity is
    one column over the levels, and the records, read off the columns, equal
    :func:`atomic_besov_upper` and :func:`pairing` on each level's own
    :func:`build_closed_form_family` bit for bit.  The six slopes are the
    closed-form least-squares slopes of the C-ordered ``(levels, 6)`` matrix
    of their base-2 logs against ``log2 L`` (:func:`_least_squares_slopes`);
    a numerical ``np.polyfit`` may round apart from them in the last bits.

    Requires at least 4 levels spanning a factor of 8 (three octaves).
    """
    levels = sorted(int(x) for x in levels)
    if len(levels) < 4 or levels[0] < 1 or levels[-1] < 8 * levels[0]:
        raise ValueError("need >= 4 levels spanning at least a factor of 8")
    theta = params.theta
    dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
    space0 = BesovParams(params.alpha, params.q0, params.r0)
    space1 = BesovParams(-params.beta, params.q1, params.r1)
    f_top, g_top = build_closed_form_family(params, atom, levels[-1])
    constant0, exps0 = _besov_terms(f_top, space0)
    constant1, exps1 = _besov_terms(f_top, space1)
    besov0 = np.array([constant0 * 2.0**e for e in _prefix_power_sums_log2(exps0, levels, space0.q)])
    besov1 = np.array([constant1 * 2.0**e for e in _prefix_power_sums_log2(exps1, levels, space1.q)])
    pair = _running_pairings(f_top, g_top)[levels] * atom.l2_norm_sq
    g_dual_norm = np.array(_dual_norms(g_top, levels, dual))
    rhs_product = np.array([b0 ** (1.0 - theta) * b1**theta for b0, b1 in zip(besov0.tolist(), besov1.tolist())])
    lorentz_lower = pair / g_dual_norm
    columns = {
        "L": np.array(levels), "besov0": besov0, "besov1": besov1, "pairing": pair, "g_dual_norm": g_dual_norm,
        "lorentz_lower": lorentz_lower, "rhs_product": rhs_product, "ratio": lorentz_lower / rhs_product,
    }
    records = [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]
    keys = ("besov0", "besov1", "pairing", "lorentz_lower", "rhs_product", "ratio")
    logs = np.log2(np.column_stack([columns[key] for key in keys]))
    slopes = dict(zip(keys, _least_squares_slopes(np.log2(np.asarray(levels, dtype=float)), logs).tolist()))
    expected = {
        "besov0": _inv(params.r0),
        "besov1": _inv(params.r1),
        "pairing": 1.0,
        "lorentz_lower": _inv(params.r),
        "rhs_product": _inv(params.r_star),
        "ratio": _inv(params.r) - _inv(params.r_star),
    }
    for key, tol in (("besov0", 0.02), ("besov1", 0.02), ("pairing", 0.01), ("lorentz_lower", 0.03)):
        want = expected[key]
        slack = tol * abs(want) if want != 0.0 else 0.005
        if abs(slopes[key] - want) > slack:
            raise ArithmeticError(
                f"fitted slope for {key} is {slopes[key]!r}, expected {want!r} within {slack!r}"
            )
    return GrowthResult(levels, records, slopes, expected)
