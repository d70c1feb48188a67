"""Placed extremal families: a brute-force oracle for the closed forms of
:mod:`lplorentz.sharpness`.

The library only ever reads an :class:`~lplorentz.sharpness.AtomicSum`
through closed forms with exact real counts ``2**(delta*j)``.  This oracle
builds concrete instances instead: integer counts inside the admissible
bracket, a disjoint placement of the translates, and samples of the sum on a
grid.  A placed sum is a plain ``AtomicSum`` whose count exponents are the
``math.log2`` of its integer counts, plus a separate placement, which maps
each scale to the integer center numerators ``k`` of its translates (centers
``k * 2**-j``).  So the library's closed forms (distribution, pairing, Besov
bound) run on placed instances unchanged, and tests compare them against the
rasterized fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from lplorentz.sharpness import Atom, AtomicSum, SharpnessParams
from lplorentz.spectral import GridSpec, SampledField

Placement = tuple[tuple[int, ...], ...]


class PlacedFamily(NamedTuple):
    """The pair ``(f_L, g_L)`` sharing one placement, and the integer length
    ``extent`` of the region the placement occupies (with margins)."""

    f: AtomicSum
    g: AtomicSum
    placement: Placement
    extent: int


def integer_counts(delta: float, scales) -> list[int]:
    """``round(2**(delta*(j+1/2)))`` clamped to the admissible bracket
    ``[ceil(2**(delta*j)), floor(2**(delta*(j+1)))]``, falling back to the
    lower edge when rounding leaves the bracket empty."""
    counts = []
    for j in scales:
        lo = math.ceil(2.0 ** (delta * j) - 1e-12)
        hi = math.floor(2.0 ** (delta * (j + 1)) + 1e-12)
        cand = round(2.0 ** (delta * (j + 0.5)))
        counts.append(max(lo, min(cand, hi)) if hi >= lo else lo)
    return counts


def place(scales, counts) -> tuple[Placement, int]:
    """Disjoint per-scale rows and their extent: scale ``j`` occupies
    ``[cursor, cursor + (3*A-1)*2**-j]`` with centers
    ``(cursor * 2**j + 1 + 3*i) * 2**-j``; rows are separated by integer gaps
    so all center numerators stay integers."""
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


def build_placed_family(params: SharpnessParams, atom: Atom, levels: int) -> PlacedFamily:
    """The pair ``(f_L, g_L)`` over the scales ``1..levels`` with integer
    counts and a concrete placement shared by both sums; disjointness is
    verified exactly."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    scales = tuple(range(1, levels + 1))
    counts = integer_counts(params.delta, scales)
    placement, extent = place(scales, counts)
    if not verify_disjoint(scales, placement):
        raise ArithmeticError("placement produced overlapping supports")
    count_exps = tuple(map(math.log2, counts))
    f_sum = AtomicSum(atom, params.n, params.x_exp, scales, count_exps)
    g_sum = AtomicSum(atom, params.n, params.y_exp, scales, count_exps)
    return PlacedFamily(f_sum, g_sum, placement, extent)


def verify_disjoint(scales, placement: Placement) -> bool:
    """Exact support disjointness via integer arithmetic, in ``O(N log N)``.

    The term with numerator ``k`` at scale ``j`` is supported on the open
    interval ``((k-1) * 2**-j, (k+1) * 2**-j)``; in cells of the finest scale
    ``J`` that is ``((k-1) * 2**(J-j), (k+1) * 2**(J-j))``.  Sorted by start,
    the supports are disjoint iff every start is at least the previous end
    (open supports may touch).  For two terms at scales ``j1 <= j2`` this is
    the criterion ``|k1 * 2**(j2-j1) - k2| >= 2**(j2-j1) + 1``.
    """
    finest = max(scales, default=0)
    supports = []
    for j, ks in zip(scales, placement):
        cells = 2 ** (finest - j)
        supports.extend(((k - 1) * cells, (k + 1) * cells) for k in ks)
    supports.sort()
    return all(start >= end for (_, end), (start, _) in zip(supports, supports[1:]))


def rasterization_grid(extent: int, points_per_axis: int = 4096) -> GridSpec:
    """Power-of-two period just covering a placement of length ``extent``."""
    period = 2.0 ** math.ceil(math.log2(extent + 1))
    return GridSpec(1, points_per_axis, period)


def rasterize(s: AtomicSum, placement: Placement, grid: GridSpec) -> SampledField:
    """Sample the sum ``s`` with its translates at ``placement`` on a grid."""
    if len(placement) != len(s.scales):
        raise ValueError("placement must list one tuple of centers per scale")
    if any(math.log2(len(ks)) != e for ks, e in zip(placement, s.count_exps)):
        raise ValueError("placed sums need count exponents log2 of the placement lengths")
    if grid.dim != 1:
        raise ValueError("rasterization is one-dimensional")
    if any((max(ks) + 1) * 2.0**-j > grid.period for j, ks in zip(s.scales, placement) if ks):
        raise ValueError("grid period does not cover the placement")
    x = grid.axis_coordinates()
    samples = np.zeros_like(x)
    for j, ks in zip(s.scales, placement):
        coeff = s.coefficient(j)
        for k in ks:
            samples += coeff * s.atom.evaluate(2.0**j * x - float(k))
    return SampledField(grid, samples)
