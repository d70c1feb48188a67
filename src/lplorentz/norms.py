"""Lebesgue, Lorentz, Besov and Triebel-Lizorkin (semi)norms.

All scalar norms run through one abstraction, :class:`MeasuredValues`: the
pushforward description of ``|f|`` as a list of ``(value, mass)`` pairs.  A
sampled field contributes each cell with mass ``spacing**dim``; a sequence
contributes each entry with mass 1.  Lorentz norms are evaluated exactly on
the step-function decreasing rearrangement via per-piece closed-form
integrals, with one power of the cumulative masses per sum -- no quadrature
is involved anywhere in this module.

The distribution function uses the ``>= t`` (right-closed) convention.  The
``> t`` convention would change it only on the null set of jump thresholds
and leaves every integral norm unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import BlockDecomposition, SampledField

__all__ = [
    "MeasuredValues",
    "RearrangementProfile",
    "LorentzParams",
    "BesovParams",
    "rearrangement",
    "lorentz_norm",
    "lorentz_normalization",
    "lorentz_embedding_constant",
    "lebesgue_norm",
    "besov_seminorm",
    "triebel_seminorm",
    "conjugate_exponent",
]

_INF = math.inf
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _check_exponent(name: str, value: float) -> float:
    """``value`` as a float in ``[1, inf]``; raises ``ValueError`` naming ``name`` otherwise."""
    value = float(value)
    if value == _INF:
        return value
    if not (math.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must lie in [1, inf], got {value!r}")
    return value


def _inv(x: float) -> float:
    """Reciprocal ``1 / x`` with ``1 / inf = 0``."""
    return 0.0 if x == _INF else 1.0 / x


def _compose(theta: float, a: float, b: float) -> float:
    """Exponent ``c`` at position ``theta`` between ``a`` and ``b``:
    ``1/c = (1-theta)/a + theta/b``, with ``1/inf = 0`` and ``c = inf`` when
    the sum is 0."""
    inv = (1.0 - theta) * _inv(a) + theta * _inv(b)
    return _INF if inv == 0.0 else 1.0 / inv


def _prefix_power_sums_log2(exps, levels, r: float) -> list[float]:
    """``log2 (sum_i 2**(r*e_i))**(1/r)`` over each prefix ``exps[:L]`` of the
    base-2 exponents ``e_i``, for ``L`` in ``levels``, as Python floats: the
    ``l^r`` norm of ``2**e`` in log form, ``m + log2(sum_i 2**(r*(e_i - m)))/r``
    with ``m`` the prefix's largest exponent, so no power leaves the float
    range.  ``r = inf`` gives ``m``; one level ``[len(exps)]`` gives the whole
    sum, and level 0, an empty sum, gives ``-inf`` at every ``r``.

    The prefix maxima come from one running maximum.  Each level raises only
    its own prefix, shifted by its own maximum, and sums it as one contiguous
    1-D slice, so it keeps the bits of its one-row :func:`_power_sums_log2`;
    no entry past ``L`` is raised, so none can overflow, and the temporaries
    stay as long as the longest prefix.
    """
    exps = np.asarray(exps, dtype=float)
    tops = np.maximum.accumulate(np.concatenate(([-_INF], exps)))[np.asarray(levels)].tolist()
    if r == _INF:
        return tops
    return [
        m + math.log2(np.add.reduce(np.exp2(r * (exps[:n] - m)))) / r if n else -_INF
        for m, n in zip(tops, levels)
    ]


def _power_sums_log2(exps: np.ndarray, counts, r: float) -> list[float]:
    """:func:`_prefix_power_sums_log2` of each whole row ``exps[i, :counts[i]]``
    of the 2-D ``exps``, padded with ``-inf`` (of every full row when
    ``counts`` is None), as Python floats.  Every row holds at least one
    exponent."""
    tops = exps.max(axis=1, initial=-_INF)
    if r == _INF:
        return tops.tolist()
    sums = _row_sums(np.exp2(r * (exps - tops[:, None])), counts).tolist()
    return [m + math.log2(s) / r for m, s in zip(tops.tolist(), sums)]


def conjugate_exponent(r: float) -> float:
    """Dual exponent ``r / (r - 1)`` with the limit conventions 1 <-> inf."""
    r = _check_exponent("exponent", r)
    if r == 1.0:
        return _INF
    if r == _INF:
        return 1.0
    return r / (r - 1.0)


@dataclass(frozen=True)
class LorentzParams:
    """Primary exponent ``p`` in (1, inf) and secondary exponent ``r`` in [1, inf]."""

    p: float
    r: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not (math.isfinite(p) and p > 1.0):
            raise ValueError(f"p must lie in (1, inf), got {self.p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", _check_exponent("r", self.r))


@dataclass(frozen=True)
class BesovParams:
    """Regularity ``s``, inner integrability ``p``, and scale-sum exponent ``q``."""

    s: float
    p: float
    q: float

    def __post_init__(self) -> None:
        s = float(self.s)
        if not math.isfinite(s):
            raise ValueError(f"s must be finite, got {self.s!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", _check_exponent("p", self.p))
        object.__setattr__(self, "q", _check_exponent("q", self.q))


@dataclass(frozen=True, eq=False)
class MeasuredValues:
    """Nonnegative values carrying positive masses: the pushforward of ``|f|``."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).ravel()
        masses = np.asarray(self.masses, dtype=float).ravel()
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if values.size != masses.size:
            raise ValueError("values and masses must have equal length")
        if values.size == 0:
            return
        # min/max propagate NaN, and NaN fails every comparison
        if not (values.min() >= 0.0 and values.max() < _INF):
            raise ValueError("values must be finite and nonnegative")
        if not (masses.min() > 0.0 and masses.max() < _INF):
            raise ValueError("masses must be finite and strictly positive")

    @classmethod
    def from_sequence(cls, seq) -> "MeasuredValues":
        """Counting-measure view of a sequence: each entry has mass 1."""
        values = np.abs(np.asarray(seq, dtype=float).ravel())
        return cls(values, np.ones_like(values))

    @classmethod
    def from_field(cls, f: SampledField) -> "MeasuredValues":
        """Grid-measure view of a field: each sample has mass ``spacing**dim``."""
        values = np.abs(f.samples)
        return cls(values, np.full_like(values, f.grid.cell_volume))

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def aligned_with(self, other: "MeasuredValues") -> bool:
        """Whether ``self`` and ``other`` live entrywise on the same measure space."""
        return self.masses.size == other.masses.size and bool(
            np.array_equal(self.masses, other.masses)
        )


@dataclass(frozen=True, eq=False)
class RearrangementProfile:
    """Nonincreasing step profile ``f*``: value ``values[i]`` on cumulative-mass
    interval ``[cum_masses[i-1], cum_masses[i])`` and 0 beyond the last breakpoint."""

    values: np.ndarray
    cum_masses: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).ravel()
        cum = np.asarray(self.cum_masses, dtype=float).ravel()
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cum_masses", cum)
        if values.size != cum.size:
            raise ValueError("values and cum_masses must have equal length")
        if values.size == 0:
            return
        # monotone arrays take their extremes at the endpoints
        if not (values[0] < _INF and values[-1] > 0.0 and (values[1:] < values[:-1]).all()):
            raise ValueError("profile values must be finite, strictly decreasing and positive")
        if not (cum[0] > 0.0 and cum[-1] < _INF and (cum[1:] > cum[:-1]).all()):
            raise ValueError("cumulative masses must be finite, strictly increasing and positive")

    @property
    def total_mass(self) -> float:
        return float(self.cum_masses[-1]) if self.cum_masses.size else 0.0

    def evaluate(self, s) -> np.ndarray | float:
        """Value of the step profile at cumulative mass ``s >= 0``."""
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        idx = np.searchsorted(self.cum_masses, arr, side="right")
        padded = np.concatenate((self.values, [0.0]))
        out = padded[idx]
        return float(out[0]) if scalar else out

    def distribution(self, t: float) -> float:
        """Mass where the profile is at least ``t > 0``."""
        if not t > 0:
            raise ValueError("threshold must be positive")
        count = int(np.searchsorted(-self.values, -t, side="right"))
        return float(self.cum_masses[count - 1]) if count > 0 else 0.0


def rearrangement(v: MeasuredValues) -> RearrangementProfile:
    """Decreasing rearrangement of measured values as a step profile.

    Zero values carry no profile content; equal values are merged, so the
    profile is the generalized inverse of the distribution function.
    """
    if isinstance(v, RearrangementProfile):
        return v
    return _rearranged(v.values, v.masses)


def _rearranged(values: np.ndarray, masses: np.ndarray) -> RearrangementProfile:
    """Step profile of the nonnegative 1-D ``values`` carrying ``masses``."""
    pos = values > 0
    values = values[pos]
    masses = masses[pos]
    order = np.argsort(values)[::-1]
    return _profile_from_sorted(values[order], masses[order])


def _profile_from_sorted(values: np.ndarray, masses: np.ndarray) -> RearrangementProfile:
    """Step profile of positive ``values`` already sorted in decreasing order:
    equal values merge into one step carrying their summed mass, and a step
    whose mass the running sum absorbs (below half an ulp of it) has zero
    width, so it merges into the step above.

    Only input with ties builds the step index and runs ``reduceat``; on
    tie-free input every step is one entry, for which ``reduceat`` would be
    the identity, so both cases give the same bits.  An overflowing total
    mass is reported by the profile's ``ValueError``, without a numpy warning.
    """
    if values.size == 0:
        return RearrangementProfile(np.empty(0), np.empty(0))
    new_step = np.empty(values.size, dtype=bool)
    new_step[0] = True
    np.not_equal(values[1:], values[:-1], out=new_step[1:])
    if not new_step.all():
        starts = np.flatnonzero(new_step)
        values = values[starts]
        masses = np.add.reduceat(masses, starts)
    with np.errstate(over="ignore"):
        cum = np.cumsum(masses)
    grows = np.empty(cum.size, dtype=bool)
    grows[0] = True
    np.greater(cum[1:], cum[:-1], out=grows[1:])
    if not grows.all():
        values, cum = values[grows], cum[grows]
    return RearrangementProfile(values, cum)


@dataclass(eq=False)
class _Profiles:
    """Step profiles held as rows: row ``i`` is the profile with values
    ``values[i, :lengths[i]]`` and cumulative masses ``cum[i, :lengths[i]]``;
    past its length a row holds value 0 and its total mass.  ``lengths`` None
    means every row is full.  ``step[i, j]``, when present, is the profile
    step of entry ``j`` of the input row ``i``, and ``lengths[i]`` for a zero."""

    values: np.ndarray
    cum: np.ndarray
    lengths: np.ndarray | None
    step: np.ndarray | None = None


def _one_profile(prof: RearrangementProfile) -> _Profiles:
    return _Profiles(prof.values[None, :], prof.cum_masses[None, :], None)


def _row_sums(a: np.ndarray, lengths, power: float | None = None) -> np.ndarray:
    """``np.sum(a[i, :lengths[i]])`` for each row ``i`` of the 2-D ``a``, all of
    each row when ``lengths`` is None; the sums of the entries raised to
    ``power``, when given, which is raised one group of rows at a time.

    A pairwise sum depends on its length, so a zero-padded row need not sum
    to the bits of its unpadded row; rows of equal length are summed as one
    C-contiguous block, whose row sums are the 1-D sums bit for bit.
    """
    if lengths is None:
        return (a if power is None else a**power).sum(axis=1)
    out = np.empty(lengths.size)
    # the lengths present, without np.unique, whose first call imports numpy.ma
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == n)
        group = a[rows, :n]
        out[rows] = (group if power is None else group**power).sum(axis=1)
    return out


def _profile_rows(values: np.ndarray, masses: np.ndarray) -> _Profiles:
    """Decreasing rearrangements of the rows of the zero-padded ``(N, m)``
    arrays ``values`` (nonnegative) and ``masses``, with the profile step of
    every entry: the row kernel of the interpolation checks.

    One sort along the rows orders every row; a row without ties keeps its
    sorted positive prefix as its profile, which is what
    :func:`rearrangement` gives it.  Ties merge by summing masses, whose
    order the sort does not fix, so only a row with ties, or with a mass its
    running sum absorbs, goes through :func:`_profile_from_sorted`, sorted as
    :func:`rearrangement` sorts it; an entry of a merged step takes the step
    it merged into.  Only a total mass that is not finite raises.
    """
    order = np.argsort(values, axis=1)[:, ::-1]
    vals = np.take_along_axis(values, order, axis=1)
    new_step = np.empty(vals.shape, dtype=bool)
    new_step[:, :1] = True
    np.not_equal(vals[:, 1:], vals[:, :-1], out=new_step[:, 1:])
    step = np.empty(vals.shape, dtype=np.int64)
    np.put_along_axis(step, order, np.cumsum(new_step, axis=1) - 1, axis=1)
    positive = vals > 0.0
    lengths = positive.sum(axis=1)
    with np.errstate(over="ignore"):
        cum = np.cumsum(np.where(positive, np.take_along_axis(masses, order, axis=1), 0.0), axis=1)
    merged = (positive[:, 1:] & ~(new_step[:, 1:] & (cum[:, 1:] > cum[:, :-1]))).any(axis=1)
    # a merged row is checked as a RearrangementProfile below
    if cum.shape[1] and not (merged | np.isfinite(cum[:, -1])).all():
        raise ValueError("cumulative masses must be finite, strictly increasing and positive")
    for i in np.flatnonzero(merged).tolist():
        prof = _rearranged(values[i], masses[i])
        n = lengths[i] = prof.values.size
        vals[i, :n], vals[i, n:] = prof.values, 0.0
        cum[i, :n], cum[i, n:] = prof.cum_masses, prof.cum_masses[-1]
        stepped = np.searchsorted(-prof.values, -values[i], side="right") - 1
        step[i] = np.where(values[i] > 0.0, stepped, n)
    return _Profiles(vals, cum, lengths, step)


def _as_lorentz_params(params) -> LorentzParams:
    if isinstance(params, LorentzParams):
        return params
    return LorentzParams(*params)


def _power_root(power_sum, x: np.ndarray, p: float, diverged: str, axis=None):
    """``power_sum(x) ** (1/p)`` for a sum of ``p``-th powers of the
    nonnegative ``x`` reduced over ``axis``, 0-d when ``axis`` is None.

    A power sum that is a normal float keeps the bits of its plain root,
    unless its positive entries whose powers fall below the normal range
    carry enough mass to move it by more than half an ulp: each such power
    is off by up to half the smallest subnormal, ``_TINY * 2**-53`` per unit
    mass.  Any other sum is redone on its reduced slice of ``x`` divided by
    that slice's largest entry, and that maximum multiplies the root back;
    where that root leaves the float range too, it raises
    ``ArithmeticError(diverged.format(p=p))``.  Callers run it with overflow
    and invalid warnings off, so only that error reports an overflow.  The
    row kernel :func:`_lorentz_rows` rescues its rows on their weak-type
    products instead (:func:`_weak_type_root`).
    """
    total = power_sum(x)
    root = total ** (1.0 / p)
    plain = (total >= _TINY) & (total < _INF)
    small = (x > 0.0) & (x < _TINY ** (1.0 / p))
    if small.any():
        # the mass of the small entries, as the power sum of their indicator
        plain &= power_sum(small.astype(float)) * _TINY <= np.spacing(total) * 2.0**52
    if plain.all():
        return root
    top = x.max(axis=axis, keepdims=True, initial=0.0)
    rescaled = power_sum(x / np.where(top > 0.0, top, 1.0)) ** (1.0 / p) * top.reshape(np.shape(total))
    norm = np.where(plain, root, rescaled)
    if not np.isfinite(norm).all():
        raise ArithmeticError(diverged.format(p=p))
    return norm


def _lorentz_rows(prof: _Profiles, p: float, r: float) -> list[float]:
    """Lorentz ``(p, r)`` norm of each profile row of ``prof``, as Python floats.

    Each piece contributes ``value**r * (p/r) * (S_i**(r/p) - S_{i-1}**(r/p))``,
    with the powers ``S_i**(r/p)`` formed once per row and differenced in
    place; a row past its length adds nothing.  Each row's sum is taken over
    its length (see :func:`_row_sums`) and its root as a Python float.  That
    root keeps its bits where the sum and the row's smallest factors, its
    smallest value's power and its first mass power, are normal floats; any
    other nonempty row is redone on its weak-type products
    (:func:`_weak_type_root`), since a subnormal factor carries too few bits.
    For ``r = inf`` the norm is ``max_i value_i * S_i**(1/p)``.  A norm that
    leaves the float range raises ``ArithmeticError``.
    """
    diverged = "Lorentz integral diverged on this profile"
    # an overflow surfaces as a non-finite norm, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        if r == _INF:
            norms = (prof.values * prof.cum ** (1.0 / p)).max(axis=1, initial=0.0).tolist()
            # NaN fails the compare
            if not all(norm < _INF for norm in norms):
                raise ArithmeticError(diverged)
            return norms
        steps = prof.cum ** (r / p)
        # each row's smallest factors: its first mass power and its last value's power
        last = prof.values[:, -1] if prof.lengths is None else prof.values[np.arange(prof.lengths.size), prof.lengths - 1]
        floors = np.minimum(steps[:, 0], last**r).tolist()
        steps[:, 1:] -= steps[:, :-1]
        norms = _row_sums(prof.values**r * (p / r) * steps, prof.lengths).tolist()
        for i, (total, floor) in enumerate(zip(norms, floors)):
            if _TINY <= total < _INF and floor >= _TINY:
                norms[i] = total ** (1.0 / r)
            else:
                n = prof.values.shape[1] if prof.lengths is None else prof.lengths[i]
                norms[i] = _weak_type_root(prof.values[i, :n], prof.cum[i, :n], p, r, diverged) if n else 0.0
    return norms


def _weak_type_root(values: np.ndarray, cum: np.ndarray, p: float, r: float, diverged: str) -> float:
    """Lorentz ``(p, r)`` norm of one nonempty profile row for finite ``r``, as
    ``sum_i w_i**r * (p/r) * (1 - (S_{i-1}/S_i)**(r/p))`` over its weak-type
    products ``w_i = value_i * S_i**(1/p)``, divided by their largest, which
    multiplies the root back; each share is ``-expm1((r/p) * log(S_{i-1}/S_i))``,
    so no value or mass is raised alone.  A root that is 0 or not finite
    raises ``ArithmeticError(diverged)``; callers turn overflow and invalid
    warnings off."""
    w = values * cum ** (1.0 / p)
    top = w.max()
    with np.errstate(divide="ignore"):  # the first step's log(0)
        shares = -np.expm1((r / p) * np.log(np.concatenate(([0.0], cum[:-1])) / cum))
    norm = float(np.sum((w / top) ** r * shares) * (p / r)) ** (1.0 / r) * float(top)
    if not 0.0 < norm < _INF:
        raise ArithmeticError(diverged)
    return norm


def lorentz_norm(v, params) -> float:
    """Lorentz norm ``( integral (s**(1/p) f*(s))**r ds/s )**(1/r)``.

    Evaluated exactly on the step rearrangement, as the one-row case of the
    row kernel :func:`_lorentz_rows`: each piece contributes
    ``value**r * (p/r) * (S_i**(r/p) - S_{i-1}**(r/p))``.  For ``r = inf``
    the norm is ``sup_s s**(1/p) f*(s) = max_i value_i * S_i**(1/p)``, the
    weak-type norm.  A finite-``r`` sum whose powers leave the normal float
    range is redone on the weak-type products ``value_i * S_i**(1/p)``
    divided by the largest one (see :func:`_weak_type_root`), so scaling the
    values or the masses by any factor that keeps the norm a normal float
    scales the norm alike.  A norm that leaves the float range raises
    ``ArithmeticError``.
    """
    params = _as_lorentz_params(params)
    prof = rearrangement(v)
    if prof.values.size == 0:
        return 0.0
    return _lorentz_rows(_one_profile(prof), params.p, params.r)[0]


def lorentz_normalization(p: float, r: float) -> float:
    """Norm of the unit-mass indicator: ``(p/r)**(1/r)``, 1 when ``r = inf``.
    A Lorentz norm divided by it does not increase when ``r`` grows, so these
    quotients, not the raw norms, are ordered in ``r`` for embedding comparisons."""
    params = LorentzParams(p, r)
    if params.r == _INF:
        return 1.0
    return (params.p / params.r) ** (1.0 / params.r)


def lorentz_embedding_constant(p: float, r0: float, r1: float) -> float:
    """Constant ``C`` with ``lorentz(p, r1) <= C * lorentz(p, r0)`` for ``r0 <= r1``.

    ``C(p, r0, r1) = (r0/p)**(1/r0 - 1/r1)``; the ``r1 = inf`` case
    ``(r0/p)**(1/r0)`` is attained by indicator profiles.
    """
    params = LorentzParams(p, r0)
    r1 = _check_exponent("r1", r1)
    if r1 < params.r:
        raise ValueError(f"need r0 <= r1, got r0={r0!r}, r1={r1!r}")
    return (params.r / params.p) ** (_inv(params.r) - _inv(r1))


def lebesgue_norm(v: MeasuredValues, p: float) -> float:
    """Mass-weighted ``p``-norm of the values; ``p = inf`` gives the largest
    value.  A sum that leaves the normal float range is redone on the values
    divided by the largest one (see :func:`_power_root`); a norm that
    leaves the float range raises ``ArithmeticError``."""
    p = _check_exponent("p", p)
    if v.values.size == 0:
        return 0.0
    if p == _INF:
        return float(np.max(v.values))
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_power_root(lambda x: np.sum(x**p * v.masses), v.values, p,
                                 "Lebesgue integral diverged on these values"))


def _grid_lp(a: np.ndarray, p: float, cell_volume: float, axis=None, lengths=None):
    """Grid ``L^p`` norm of the nonnegative array ``a``, reduced over ``axis``;
    with ``cell_volume = 1`` it is the ``l^p`` norm of every block and sequence
    sum.  With ``lengths``, ``a`` is 2-D and zero-padded, row ``i`` holding
    ``lengths[i]`` entries, and ``axis = 1``: each row keeps the bits it has
    alone (see :func:`_row_sums`).  A sum that leaves the normal float range
    is redone on its row or column divided by that slice's largest entry (see
    :func:`_power_root`), which the zero padding leaves alone; a norm that
    leaves the float range raises ``ArithmeticError``."""
    diverged = "l^{p:g} sum diverged: a power left the float range"
    if p == _INF:
        norm = a.max(axis=axis, initial=0.0)
        if not np.isfinite(norm).all():
            raise ArithmeticError(diverged.format(p=p))
        return norm
    with np.errstate(over="ignore", invalid="ignore"):
        if lengths is None:
            return _power_root(lambda x: np.sum(x**p, axis=axis) * cell_volume, a, p, diverged, axis)
        return _power_root(lambda x: _row_sums(x, lengths, p) * cell_volume, a, p, diverged, axis)


def _as_besov_params(params) -> BesovParams:
    if isinstance(params, BesovParams):
        return params
    return BesovParams(*params)


def besov_seminorm(d: BlockDecomposition, params) -> float:
    """``( sum_j (2**(j*s) * ||block_j||_{L^p})**q )**(1/q)`` over available blocks.

    ``q = inf`` takes the supremum over scales.  The lowpass field does not
    contribute, so constant fields have seminorm zero.  A sum that leaves the
    float range, or a weight ``2**(j*s)`` that does on a nonzero block,
    raises ``ArithmeticError``, here and in :func:`triebel_seminorm`; a zero
    block adds 0 whatever its weight.
    """
    params = _as_besov_params(params)
    rows = np.abs(d.blocks.reshape(d.blocks.shape[0], -1))
    block_norms = _grid_lp(rows, params.p, d.grid.cell_volume, axis=1)
    # an overflowing weight surfaces as a non-finite scale sum, reported there;
    # a zero block adds nothing, whatever its weight
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.where(block_norms > 0.0, 2.0 ** (d.scales * params.s) * block_norms, 0.0)
    return float(_grid_lp(weighted, params.q, 1.0))


def triebel_seminorm(d: BlockDecomposition, params) -> float:
    """``|| ( sum_j (2**(j*s) |block_j|)**q )**(1/q) ||_{L^p}`` on the grid.

    The ``q``-aggregation acts pointwise across scales before the outer
    ``L^p`` norm; ``q = inf`` takes the pointwise supremum over scales.
    Coincides with :func:`besov_seminorm` when ``p == q``.
    """
    params = _as_besov_params(params)
    rows = np.abs(d.blocks.reshape(d.blocks.shape[0], -1))
    # an overflowing weight surfaces as a non-finite scale sum, reported there;
    # a zero entry adds nothing, whatever its weight
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.where(rows > 0.0, rows * 2.0 ** (d.scales * params.s)[:, None], 0.0)
    envelope = _grid_lp(weighted, params.q, 1.0, axis=0)
    return float(_grid_lp(envelope, params.p, d.grid.cell_volume))
