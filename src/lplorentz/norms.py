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
    "distribution_function",
    "rearrangement",
    "lorentz_norm",
    "lorentz_normalization",
    "normalized_lorentz_norm",
    "lorentz_embedding_constant",
    "lebesgue_norm",
    "besov_seminorm",
    "triebel_seminorm",
    "conjugate_exponent",
]

_INF = math.inf


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


def _power_sum_log2(exps, r: float) -> float:
    """``log2 (sum_i 2**(r*e_i))**(1/r)`` for base-2 exponents ``e_i``, the
    ``l^r`` norm of ``2**e`` in log form: ``m + log2(sum_i 2**(r*(e_i - m)))/r``
    with ``m = max_i e_i``, so no power leaves the float range.  ``r = inf``
    gives ``m``."""
    m = float(np.max(exps))
    if r == _INF:
        return m
    return m + math.log2(float(np.sum(2.0 ** (r * (exps - m))))) / r


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
    def from_pairs(cls, pairs) -> "MeasuredValues":
        if len(pairs) == 0:
            return cls(np.empty(0), np.empty(0))
        values, masses = zip(*pairs)
        return cls(np.asarray(values, dtype=float), np.asarray(masses, dtype=float))

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

    def scaled(self, factor: float) -> "MeasuredValues":
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        return MeasuredValues(self.values * factor, self.masses)

    def restricted(self, index) -> "MeasuredValues":
        return MeasuredValues(self.values[index], self.masses[index])

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


def distribution_function(v, t: float) -> float:
    """Total mass where the value is at least ``t > 0`` (right-closed convention)."""
    if not t > 0:
        raise ValueError("threshold must be positive")
    if isinstance(v, RearrangementProfile):
        return v.distribution(t)
    return float(v.masses[v.values >= t].sum())


def rearrangement(v: MeasuredValues) -> RearrangementProfile:
    """Decreasing rearrangement of measured values as a step profile.

    Zero values carry no profile content; equal values are merged, so the
    profile is the generalized inverse of the distribution function.
    """
    if isinstance(v, RearrangementProfile):
        return v
    pos = v.values > 0
    values = v.values[pos]
    masses = v.masses[pos]
    order = np.argsort(values)[::-1]
    return _profile_from_sorted(values[order], masses[order])


def _profile_from_sorted(values: np.ndarray, masses: np.ndarray) -> RearrangementProfile:
    """Step profile of positive ``values`` already sorted in decreasing order:
    equal values merge into one step carrying their summed mass.

    Only input with ties builds the step index and runs ``reduceat``; on
    tie-free input every step is one entry, for which ``reduceat`` would be
    the identity, so both cases give the same bits.
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
    return RearrangementProfile(values, np.cumsum(masses))


def _as_lorentz_params(params) -> LorentzParams:
    if isinstance(params, LorentzParams):
        return params
    return LorentzParams(*params)


def lorentz_norm(v, params) -> float:
    """Lorentz norm ``( integral (s**(1/p) f*(s))**r ds/s )**(1/r)``.

    Evaluated exactly on the step rearrangement: each piece contributes
    ``value**r * (p/r) * (S_i**(r/p) - S_{i-1}**(r/p))``, where the powers
    ``S_i**(r/p)`` are computed once and differenced in place.  For ``r = inf``
    the norm is ``sup_s s**(1/p) f*(s) = max_i value_i * S_i**(1/p)``, the
    weak-type norm.
    """
    params = _as_lorentz_params(params)
    prof = rearrangement(v)
    values, cum = prof.values, prof.cum_masses
    if values.size == 0:
        return 0.0
    p, r = params.p, params.r
    if r == _INF:
        return float(np.max(values * cum ** (1.0 / p)))
    # an overflow surfaces as a non-finite total, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        steps = cum ** (r / p)
        steps[1:] -= steps[:-1]
        total = float(np.sum(values**r * (p / r) * steps))
    if not math.isfinite(total):
        raise ArithmeticError("Lorentz integral diverged on this profile")
    return total ** (1.0 / r)


def lorentz_normalization(p: float, r: float) -> float:
    """Norm of the unit-mass indicator: ``(p/r)**(1/r)``, 1 when ``r = inf``."""
    params = LorentzParams(p, r)
    if params.r == _INF:
        return 1.0
    return (params.p / params.r) ** (1.0 / params.r)


def normalized_lorentz_norm(v, params) -> float:
    """Lorentz norm divided by the unit-indicator norm.

    The normalized family is monotone: it does not increase when ``r``
    grows, which makes it the right quantity for embedding comparisons
    (the raw norms are not ordered in ``r``).
    """
    params = _as_lorentz_params(params)
    return lorentz_norm(v, params) / lorentz_normalization(params.p, params.r)


def lorentz_embedding_constant(p: float, r0: float, r1: float) -> float:
    """Constant ``C`` with ``lorentz(p, r1) <= C * lorentz(p, r0)`` for ``r0 <= r1``.

    ``C(p, r0, r1) = (r0/p)**(1/r0 - 1/r1)``; the ``r1 = inf`` case
    ``(r0/p)**(1/r0)`` is attained by indicator profiles.
    """
    params = LorentzParams(p, r0)
    r1 = _check_exponent("r1", r1)
    if r1 < params.r:
        raise ValueError(f"need r0 <= r1, got r0={r0!r}, r1={r1!r}")
    inv0 = 0.0 if params.r == _INF else 1.0 / params.r
    inv1 = 0.0 if r1 == _INF else 1.0 / r1
    return (params.r / params.p) ** (inv0 - inv1)


def lebesgue_norm(v: MeasuredValues, p: float) -> float:
    """Mass-weighted ``p``-norm of the values; ``p = inf`` gives the largest value."""
    p = _check_exponent("p", p)
    if v.values.size == 0:
        return 0.0
    if p == _INF:
        return float(np.max(v.values))
    total = float(np.sum(v.values**p * v.masses))
    if not math.isfinite(total):
        raise ArithmeticError("Lebesgue integral diverged on these values")
    return total ** (1.0 / p)


def _grid_lp(a: np.ndarray, p: float, cell_volume: float, axis=None):
    """Grid ``L^p`` norm of the nonnegative array ``a``, reduced over ``axis``."""
    if p == _INF:
        return a.max(axis=axis, initial=0.0)
    return (np.sum(a**p, axis=axis) * cell_volume) ** (1.0 / p)


def _as_besov_params(params) -> BesovParams:
    if isinstance(params, BesovParams):
        return params
    return BesovParams(*params)


def besov_seminorm(d: BlockDecomposition, params) -> float:
    """``( sum_j (2**(j*s) * ||block_j||_{L^p})**q )**(1/q)`` over available blocks.

    ``q = inf`` takes the supremum over scales.  The lowpass field does not
    contribute, so constant fields have seminorm zero.
    """
    params = _as_besov_params(params)
    rows = np.abs(d.blocks.reshape(d.blocks.shape[0], -1))
    weighted = 2.0 ** (d.scales * params.s) * _grid_lp(rows, params.p, d.grid.cell_volume, axis=1)
    if params.q == _INF:
        return float(weighted.max(initial=0.0))
    return float(np.sum(weighted**params.q) ** (1.0 / params.q))


def triebel_seminorm(d: BlockDecomposition, params) -> float:
    """``|| ( sum_j (2**(j*s) |block_j|)**q )**(1/q) ||_{L^p}`` on the grid.

    The ``q``-aggregation acts pointwise across scales before the outer
    ``L^p`` norm; ``q = inf`` takes the pointwise supremum over scales.
    Coincides with :func:`besov_seminorm` when ``p == q``.
    """
    params = _as_besov_params(params)
    rows = np.abs(d.blocks.reshape(d.blocks.shape[0], -1))
    weighted = rows * 2.0 ** (d.scales * params.s)[:, None]
    if params.q == _INF:
        envelope = weighted.max(axis=0, initial=0.0)
    else:
        envelope = np.sum(weighted**params.q, axis=0) ** (1.0 / params.q)
    return float(_grid_lp(envelope, params.p, d.grid.cell_volume))
