"""Extremal families showing the composed outer exponent cannot be improved.

Builds compactly supported moment-vanishing atoms, solves the exponent system
that makes every scale contribute equally, assembles disjointly supported
translate-dilate sums ``f_L`` (coefficients ``2**(j*X)``) and ``g_L``
(coefficients ``2**(j*Y)``) over ``L`` scales, and evaluates their norms:
the two Besov-type bounds grow like ``L**(1/r0)`` and
``L**(1/r1)``, the pairing grows like ``L``, and the Lorentz lower bound
obtained from the pairing grows like ``L**(1/r)``.  Fitting these growth
rates over a sweep of ``L`` shows the inequality ratio grows like
``L**(1/r - 1/r_star)`` whenever ``1/r > 1/r_star``.

The Besov bounds and the pairing are closed forms.  The dual Lorentz norm
of ``g_L`` is computed from the atom's rearrangement *sampled* at
``grid_resolution`` midpoints (4096 by default), so it is exact for the
sampled atom, not for the polynomial one; acceptance test 8 bounds that
sampling error at 2 % against rasterized fields.  When ``r = p`` the dual
space is ``L^{p'}`` and the norm is the ``l^{p'}`` sum of the per-scale
norms, summed in base-2 logs.  Otherwise it is evaluated on an exact merge
of per-scale copies of the sampled rearrangement: a sweep sorts the
distribution entries of its largest sum once and reads every level off
that order.  Rasterization appears only in cross-check oracles for small
``L``.
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
    _compose,
    _inv,
    _power_sum_log2,
    _profile_from_sorted,
    besov_seminorm,
    conjugate_exponent,
    lorentz_norm,
    rearrangement,
)
from .spectral import GridSpec, SampledField, decompose, make_cutoff_profile

__all__ = [
    "Atom",
    "SharpnessParams",
    "AtomicSum",
    "GrowthResult",
    "build_atom",
    "solve_exponents",
    "build_params",
    "scale_counts",
    "build_closed_form_family",
    "build_family",
    "verify_disjoint",
    "placement_extent",
    "rasterization_grid",
    "rasterize",
    "atomic_besov_upper",
    "atomic_distribution",
    "pairing",
    "growth_experiment",
    "default_level_grid",
]

_INF = math.inf


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
    sampled at ``grid_resolution`` midpoints; the distributions of atomic
    sums are exact merges of scaled copies of it, so they inherit its
    sampling error.  ``l2_norm_sq`` and ``l1_norm`` are stored for
    closed-form pairings and bounds.
    """

    moments: int
    smoothness_order: int
    grid_resolution: int
    profile_coefficients: np.ndarray
    l2_norm_sq: float
    l1_norm: float
    sup_norm: float
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


def build_atom(moments: int, smoothness_order: int = 2, grid_resolution: int = 4096) -> Atom:
    """Atom with ``moments`` vanishing moments: the ``moments``-th derivative
    of the bump ``(1 - x**2)**M`` with ``M = moments + smoothness_order``,
    normalized to unit L2 norm.

    Every moment of order below ``moments`` vanishes exactly by integration
    by parts (the bump and its first ``M - 1`` derivatives vanish at the
    endpoints); this is verified both on the exact polynomial and by midpoint
    quadrature at ``grid_resolution``.
    """
    if moments < 1:
        raise ValueError("moments must be >= 1")
    if smoothness_order < 1:
        raise ValueError("smoothness_order must be >= 1")
    order = moments + smoothness_order
    if grid_resolution < 128 or grid_resolution < 16 * order:
        raise ValueError(
            f"grid_resolution {grid_resolution} too coarse to resolve a degree-{2 * order} profile"
        )
    bump = Polynomial([1.0, 0.0, -1.0]) ** order
    profile = bump.deriv(moments)
    l2_sq = _polynomial_moment(profile * profile, 0)
    profile = profile / math.sqrt(l2_sq)

    for gamma in range(moments):
        residual = abs(_polynomial_moment(profile, gamma))
        if residual > 1e-10:
            raise ArithmeticError(f"moment {gamma} failed to vanish: {residual!r}")

    cell = 2.0 / grid_resolution
    u = -1.0 + cell * (np.arange(grid_resolution) + 0.5)
    samples = np.polynomial.polynomial.polyval(u, profile.coef)
    l1 = float(np.sum(np.abs(samples)) * cell)
    for gamma in range(moments):
        numeric = float(np.sum(u**gamma * samples) * cell) if gamma else float(np.sum(samples) * cell)
        if abs(numeric) > 1e-8 * l1:
            raise ArithmeticError(f"numeric moment {gamma} too large: {numeric!r}")

    profile_rearr = rearrangement(MeasuredValues(np.abs(samples), np.full_like(samples, cell)))
    l2_norm_sq = _polynomial_moment(profile * profile, 0)
    return Atom(
        moments,
        smoothness_order,
        grid_resolution,
        profile.coef,
        l2_norm_sq,
        l1,
        float(np.max(np.abs(samples))),
        profile_rearr,
    )


# ---------------------------------------------------------------------------
# Exponent system
# ---------------------------------------------------------------------------


def solve_exponents(n: int, alpha: float, beta: float, q0: float, q1: float) -> tuple[float, float, float]:
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
    """
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    iq0, iq1 = _inv(q0), _inv(q1)
    if iq0 == iq1:
        raise ValueError("q0 and q1 must differ (the exponent solve divides by 1/q0 - 1/q1)")
    delta = n - (alpha + beta) / (iq0 - iq1)
    if not 0.0 <= delta < n:
        raise ValueError(
            f"infeasible count exponent delta={delta!r}; need 0 <= delta < n "
            f"for realizable per-scale counts"
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


@dataclass(frozen=True)
class SharpnessParams:
    """Full parameter set of one extremal family.

    Carries the case exponents, the solved ``(delta, X, Y)`` and the first
    scale ``j1``; ``theta``, the Lorentz target ``p`` and the composed outer
    exponent ``r_star`` are derived as in the verification harness, and
    ``r = None`` selects ``r_star``.
    """

    n: int
    alpha: float
    beta: float
    q0: float
    q1: float
    r0: float
    r1: float
    r: float | None
    delta: float
    x_exp: float
    y_exp: float
    j1: int = 1

    def __post_init__(self) -> None:
        for name in ("q0", "q1", "r0", "r1"):
            object.__setattr__(self, name, _check_exponent(name, getattr(self, name)))
        r = self.r_star if self.r is None else _check_exponent("r", self.r)
        object.__setattr__(self, "r", r)

    @property
    def theta(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def p(self) -> float:
        return _compose(self.theta, self.q0, self.q1)

    @property
    def r_star(self) -> float:
        return _compose(self.theta, self.r0, self.r1)


def build_params(
    n: int,
    alpha: float,
    beta: float,
    q0: float,
    q1: float,
    r0: float,
    r1: float,
    r: float | None = None,
    j1: int = 1,
) -> SharpnessParams:
    """Solve the exponent system and assemble a parameter set; ``r`` defaults
    to the composed exponent ``r_star``.  Only dimension 1 is supported for
    the geometric constructions."""
    if n != 1:
        raise ValueError("only dimension n=1 is supported for atomic families")
    delta, x_exp, y_exp = solve_exponents(n, alpha, beta, q0, q1)
    return SharpnessParams(n, alpha, beta, q0, q1, r0, r1, r, delta, x_exp, y_exp, j1)


# ---------------------------------------------------------------------------
# Atomic sums
# ---------------------------------------------------------------------------


def scale_counts(delta: float, scales, mode: str = "exact"):
    """Per-scale atom counts ``A_j``.

    ``exact`` returns the real values ``2**(delta*j)`` (used by all closed
    forms: they make every scale contribute exactly equally).  ``integer``
    returns ``round(2**(delta*(j+1/2)))`` clamped to the admissible bracket
    ``[ceil(2**(delta*j)), floor(2**(delta*(j+1)))]``, falling back to the
    lower edge when rounding leaves the bracket empty; these are used for
    concrete placements and rasterization.

    Raises ``ArithmeticError`` naming the first scale whose count overflows
    the float range.
    """
    if mode not in ("exact", "integer"):
        raise ValueError(f"unknown count mode {mode!r}")
    counts = []
    try:
        for j in scales:
            if mode == "exact":
                counts.append(2.0 ** (delta * j))
                continue
            lo = math.ceil(2.0 ** (delta * j) - 1e-12)
            hi = math.floor(2.0 ** (delta * (j + 1)) + 1e-12)
            cand = round(2.0 ** (delta * (j + 0.5)))
            counts.append(max(lo, min(cand, hi)) if hi >= lo else lo)
    except OverflowError as exc:
        raise ArithmeticError(f"atom count leaves the float range at scale {j}: {exc}") from None
    return counts


@dataclass(frozen=True, eq=False)
class AtomicSum:
    """Sum ``sum_j 2**(j*coeff_exp) * sum_k atom(2**j x - k)`` over ``counts[i]``
    translates at each scale ``scales[i]``.

    ``placement`` maps each scale to the integer center numerators ``k``
    (centers are ``k * 2**-j``); it is ``None`` for closed-form families,
    whose translates are disjoint by construction but never materialized.
    """

    atom: Atom
    n: int
    coeff_exp: float
    scales: tuple[int, ...]
    counts: tuple[float, ...]
    placement: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.scales) != len(self.counts):
            raise ValueError("scales and counts must have equal length")
        if self.placement is not None:
            if len(self.placement) != len(self.scales):
                raise ValueError("placement must list one tuple of centers per scale")
            for count, ks in zip(self.counts, self.placement):
                if int(count) != count or len(ks) != int(count):
                    raise ValueError("placed sums need integer counts matching the placement")

    def coefficient(self, j: int) -> float:
        return 2.0 ** (j * self.coeff_exp)


def _placement_for_counts(scales, counts) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Disjoint per-scale rows: scale ``j`` occupies ``[cursor, cursor + (3*A-1)*2**-j]``
    with centers ``(cursor * 2**j + 1 + 3*i) * 2**-j``; rows are separated by
    integer gaps so all center numerators stay integers."""
    cursor = 1
    placement = []
    for j, count in zip(scales, counts):
        count = int(count)
        base = cursor * 2**j
        placement.append(tuple(base + 1 + 3 * i for i in range(count)))
        num = 3 * count - 1
        den = 2**j
        cursor = cursor + (num + den - 1) // den + 1
    return tuple(placement), cursor


def placement_extent(s: AtomicSum) -> int:
    """Integer length of the region occupied by a placed sum (with margins)."""
    if s.placement is None:
        raise ValueError("closed-form sums have no materialized placement")
    _, extent = _placement_for_counts(s.scales, s.counts)
    return extent


def build_closed_form_family(params: SharpnessParams, atom: Atom, levels: int) -> tuple[AtomicSum, AtomicSum]:
    """The pair ``(f_L, g_L)`` over ``levels`` scales with exact real counts
    ``2**(delta*j)``; their Besov bounds and pairings are closed forms."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    scales = tuple(range(params.j1, params.j1 + levels))
    counts = tuple(scale_counts(params.delta, scales, "exact"))
    f_sum = AtomicSum(atom, params.n, params.x_exp, scales, counts)
    g_sum = AtomicSum(atom, params.n, params.y_exp, scales, counts)
    return f_sum, g_sum


def build_family(params: SharpnessParams, atom: Atom, levels: int) -> tuple[AtomicSum, AtomicSum]:
    """The pair ``(f_L, g_L)`` with integer counts and a concrete disjoint
    placement shared by both sums; disjointness is verified exactly."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    scales = tuple(range(params.j1, params.j1 + levels))
    counts = tuple(float(c) for c in scale_counts(params.delta, scales, "integer"))
    placement, _ = _placement_for_counts(scales, counts)
    f_sum = AtomicSum(atom, params.n, params.x_exp, scales, counts, placement)
    g_sum = AtomicSum(atom, params.n, params.y_exp, scales, counts, placement)
    if not verify_disjoint(f_sum):
        raise ArithmeticError("placement produced overlapping supports")
    return f_sum, g_sum


def verify_disjoint(s: AtomicSum) -> bool:
    """Exact support disjointness via integer arithmetic, in ``O(N log N)``.

    The term with numerator ``k`` at scale ``j`` is supported on the open
    interval ``((k-1) * 2**-j, (k+1) * 2**-j)``; in cells of the finest scale
    ``J`` that is ``((k-1) * 2**(J-j), (k+1) * 2**(J-j))``.  Sorted by start,
    the supports are disjoint iff every start is at least the previous end
    (open supports may touch).  For two terms at scales ``j1 <= j2`` this is
    the criterion ``|k1 * 2**(j2-j1) - k2| >= 2**(j2-j1) + 1``.
    """
    if s.placement is None:
        raise ValueError("closed-form sums have no materialized placement")
    finest = max(s.scales, default=0)
    supports = []
    for j, ks in zip(s.scales, s.placement):
        cells = 2 ** (finest - j)
        supports.extend(((k - 1) * cells, (k + 1) * cells) for k in ks)
    supports.sort()
    return all(start >= end for (_, end), (start, _) in zip(supports, supports[1:]))


def rasterization_grid(s: AtomicSum, points_per_axis: int = 4096) -> GridSpec:
    """Power-of-two period just covering the placement, at the given resolution."""
    extent = placement_extent(s)
    period = 2.0 ** math.ceil(math.log2(extent + 1))
    return GridSpec(1, points_per_axis, period)


def rasterize(s: AtomicSum, grid: GridSpec) -> SampledField:
    """Sample a placed sum on a grid (cross-check oracle; closed forms are
    used everywhere else)."""
    if s.placement is None:
        raise ValueError("closed-form sums have no materialized placement")
    if grid.dim != 1:
        raise ValueError("rasterization is one-dimensional")
    if grid.period < placement_extent(s):
        raise ValueError("grid period does not cover the placement")
    x = grid.axis_coordinates()
    samples = np.zeros_like(x)
    for j, ks in zip(s.scales, s.placement):
        coeff = s.coefficient(j)
        for k in ks:
            samples += coeff * s.atom.evaluate(2.0**j * x - float(k))
    return SampledField(grid, samples)


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
    d = decompose(field, make_cutoff_profile(1.0), -2, 9)
    return besov_seminorm(d, BesovParams(s, q, r))


def atomic_besov_upper(s: AtomicSum, spaceparams) -> float:
    """Closed-form seminorm bound: ``C_atom * (sum_j (2**(j*s') * 2**(-j*n/q)
    * ||coeffs_j||_{l^q})**r)**(1/r)`` with the per-scale coefficient blocks
    ``||coeffs_j||_{l^q} = counts[j]**(1/q) * 2**(j*coeff_exp)``.

    Evaluated in base-2 logs with max-shift so arbitrarily long families
    neither overflow nor lose the exact equal-contribution structure.
    ``C_atom`` is the measured seminorm of one unit atom at scale zero, so a
    single-term sum returns exactly that constant.
    """
    spaceparams = _as_besov_params(spaceparams)
    if abs(spaceparams.s) >= s.atom.moments:
        raise ValueError(
            f"|s|={abs(spaceparams.s)!r} must stay below the atom's vanishing-moment order {s.atom.moments}"
        )
    q, r = spaceparams.p, spaceparams.q
    iq = _inv(q)
    slope = spaceparams.s + s.coeff_exp - s.n * iq
    exps = np.array([j * slope + iq * math.log2(c) for j, c in zip(s.scales, s.counts)])
    constant = _atom_besov_calibration(tuple(s.atom.profile_coefficients.tolist()), spaceparams.s, q, r)
    return constant * 2.0 ** _power_sum_log2(exps, r)


def atomic_distribution(s: AtomicSum) -> RearrangementProfile:
    """Decreasing rearrangement of an atomic sum, built from the atom's
    sampled rearrangement.

    Supports are disjoint, so the distribution is the sum of the per-scale
    distributions: scale ``j`` contributes the atom's rearrangement with
    values scaled by ``2**(j*coeff_exp)`` and masses by ``counts[j] * 2**(-j*n)``.
    The merge is exact for the atom sampled at ``grid_resolution`` midpoints;
    against the true atom it carries that sampling error, which acceptance
    test 8 bounds at 2 %.  A growth sweep merges only when ``r != p``; at
    ``r = p`` its dual norm needs no distribution (see :func:`_dual_norms`).
    """
    return next(_prefix_distributions(s, [len(s.scales)]))


def _scale_factors(s: AtomicSum, top_value: float, widths: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-scale value factors ``2**(j*coeff_exp)`` and mass factors
    ``counts[j] * 2**(-j*n)`` of ``s``.

    Raises ``ArithmeticError`` naming the first scale at which a factor, the
    largest value or a mass entry overflows or underflows the float range.
    """
    low, high = float(widths.min()), float(widths.max())
    coefs, factors = [], []
    try:
        for j, c in zip(s.scales, s.counts):
            coef = s.coefficient(j)
            factor = c * 2.0 ** (-j * s.n)
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
    ``2**(j*coeff_exp) * (counts[j] * 2**(-j*n))**(1/p') * ||a||_{p'}``, with
    ``a`` the atom's sampled rearrangement (the entries
    :func:`atomic_distribution` merges).  It is summed in base-2 logs, so no
    level sorts and no scale leaves the float range.  For ``r' != p'`` each
    level's norm is evaluated on :func:`_prefix_distributions`.
    """
    if dual.r != dual.p:
        return [lorentz_norm(profile, dual) for profile in _prefix_distributions(s, levels)]
    scales = np.asarray(s.scales, dtype=float)
    log_atom = math.log2(lorentz_norm(s.atom.rearrangement, dual))
    exps = scales * s.coeff_exp + (np.log2(s.counts) - scales * s.n) / dual.p + log_atom
    return [2.0 ** _power_sum_log2(exps[:level], dual.p) for level in levels]


def pairing(f: AtomicSum, g: AtomicSum) -> float:
    """Exact integral of ``f * g`` for two sums over the same atom layout:
    ``sum_j counts[j] * 2**(j*(Ef + Eg - n)) * ||atom||_{L2}**2``.  With the
    solved exponents this equals ``||atom||_{L2}**2 * sum_j counts[j] * 2**(-j*delta)``,
    which is exactly the number of scales when counts are exact."""
    if f.atom is not g.atom or f.scales != g.scales or f.counts != g.counts:
        raise ValueError("pairing requires the same atom layout on both factors")
    if f.placement != g.placement:
        raise ValueError("pairing requires identical placements")
    total = 0.0
    for j, c in zip(f.scales, f.counts):
        total += c * 2.0 ** (j * (f.coeff_exp + g.coeff_exp - f.n))
    return total * f.atom.l2_norm_sq


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
            if value >= l_min:
                levels.add(int(value))
            value *= 2
    return sorted(levels)


@dataclass(frozen=True, eq=False)
class GrowthResult:
    """Outcome of a level sweep: per-level records with both sides of the
    inequality and fitted log-log slopes against their expected values."""

    params: SharpnessParams
    levels: list[int]
    records: list[dict]
    slopes: dict[str, float]
    expected: dict[str, float]


def _fit_slope(levels, values) -> float:
    return float(np.polyfit(np.log2(np.asarray(levels, dtype=float)), np.log2(np.asarray(values)), 1)[0])


def growth_experiment(params: SharpnessParams, atom: Atom, levels) -> GrowthResult:
    """Sweep the number of scales and fit growth exponents of all quantities.

    Uses exact real counts so that every scale contributes equally: the two
    Besov bounds of ``f_L`` are then exactly proportional to ``L**(1/r0)``
    and ``L**(1/r1)``, the pairing to ``L``, and the Lorentz lower bound
    ``pairing / ||g_L||_{p',r'}`` approaches ``L**(1/r)``.  The dual norm is
    a closed-form ``l^{p'}`` sum over scales when ``r = p`` and a merge of
    the sampled distribution otherwise (:func:`_dual_norms`).  The fitted slopes
    are checked here (2%, 2%, 1%, 3% tolerances); the ratio slope is returned
    for the caller to compare against ``1/r - 1/r_star``.

    Requires at least 4 levels spanning a factor of 8 (three octaves).
    """
    levels = sorted(int(x) for x in levels)
    if len(levels) < 4 or levels[0] < 1 or levels[-1] < 8 * levels[0]:
        raise ValueError("need >= 4 levels spanning at least a factor of 8")
    theta = params.theta
    dual = LorentzParams(conjugate_exponent(params.p), conjugate_exponent(params.r))
    _, g_top = build_closed_form_family(params, atom, levels[-1])
    records = []
    for level, g_dual_norm in zip(levels, _dual_norms(g_top, levels, dual)):
        f_sum, g_sum = build_closed_form_family(params, atom, level)
        besov0 = atomic_besov_upper(f_sum, BesovParams(params.alpha, params.q0, params.r0))
        besov1 = atomic_besov_upper(f_sum, BesovParams(-params.beta, params.q1, params.r1))
        pair = pairing(f_sum, g_sum)
        lorentz_lower = pair / g_dual_norm
        rhs_product = besov0 ** (1.0 - theta) * besov1**theta
        records.append(
            {
                "L": level,
                "besov0": besov0,
                "besov1": besov1,
                "pairing": pair,
                "g_dual_norm": g_dual_norm,
                "lorentz_lower": lorentz_lower,
                "rhs_product": rhs_product,
                "ratio": lorentz_lower / rhs_product,
            }
        )
    slopes = {
        key: _fit_slope(levels, [rec[key] for rec in records])
        for key in ("besov0", "besov1", "pairing", "lorentz_lower", "rhs_product", "ratio")
    }
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
    return GrowthResult(params, levels, records, slopes, expected)
