"""Periodic sampled grids and dyadic frequency-block decompositions.

A real-valued function on a periodic box is represented by its samples on a
uniform grid.  This module provides:

* one fixed smooth radial plateau cutoff :func:`phi` (identically 1 inside
  radius 1/2, identically 0 outside radius 1) and the derived annulus
  profile :func:`psi`, ``psi(rho) = phi(rho/2) - phi(rho)``, supported on
  ``1/2 <= rho <= 2``; every decomposition uses this one cutoff,
* the dyadic block decomposition of a sampled field built on the unitary FFT:
  block ``j`` carries the part of the spectrum in the annulus
  ``2**(j-1) <= |xi| <= 2**(j+1)``, and a lowpass field carries everything
  below the first block,
* telescoping reconstruction ``lowpass + sum of blocks``, exact (to machine
  precision) only for fields band-limited below ``2**(j_max + 1)``; the
  spectrum above that is dropped,
* JSON (de)serialization of sampled fields with an optional binary sidecar.

The plateau's logistic ``1 / (1 + exp(-z))`` takes ``exp`` from ``math.exp``,
one entry at a time, and not from ``np.exp``.  The multiplier stack feeds the
FFT of every ``verify`` report, so its bits are the report's bits.  The libm
``exp`` behind ``math.exp`` is the one that compiled logistics call, while
numpy's vectorized ``exp`` rounds differently in the last bit on about 2 % of
transition-band inputs (measured on an AVX-512 host).  The per-entry loop
runs over the transition band only, once per cached multiplier stack.

Frequencies are measured in absolute units: the lattice frequency with
integer index ``k`` corresponds to ``|xi| = 2*pi*|k| / period``, so dyadic
annuli are comparable across grid refinements.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GridSpec",
    "SampledField",
    "BlockDecomposition",
    "phi",
    "psi",
    "decompose",
    "reconstruct",
    "lowest_scale_for_dc_only",
    "save_field",
    "load_field",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _exp(x: float) -> float:
    """libm ``exp`` of ``x``, with ``inf`` where ``math.exp`` overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box ``[0, period)**dim`` with dim 1 or 2.

    ``spacing * points_per_axis == period`` holds exactly as represented,
    since ``spacing`` is defined as the quotient.
    """

    dim: int
    points_per_axis: int
    period: float = 2.0 * math.pi

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim!r}")
        if not isinstance(self.points_per_axis, int) or not _is_power_of_two(self.points_per_axis) or self.points_per_axis < 8:
            raise ValueError(
                f"points_per_axis must be a power of two >= 8, got {self.points_per_axis!r}"
            )
        if not (isinstance(self.period, (int, float)) and math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be a positive finite real, got {self.period!r}")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def nyquist(self) -> float:
        """Largest frequency magnitude representable along one axis."""
        return math.pi * self.points_per_axis / self.period

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def axis_frequencies(self) -> np.ndarray:
        """Signed frequencies along one axis, in FFT bin order."""
        n = self.points_per_axis
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer lattice indices
        return (2.0 * math.pi / self.period) * k

    def frequency_magnitudes(self) -> np.ndarray:
        """``|xi|`` for every lattice frequency, shaped like the field array."""
        xi = self.axis_frequencies()
        if self.dim == 1:
            return np.abs(xi)
        return np.hypot(xi[:, None], xi[None, :])


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real samples of a function on a :class:`GridSpec`, flat row-major.

    The field owns a read-only copy of the samples it is given.
    """

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float).ravel()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if samples.size != self.grid.num_points:
            raise ValueError(
                f"expected {self.grid.num_points} samples for this grid, got {samples.size}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")

    def as_array(self) -> np.ndarray:
        """Samples shaped ``(n,)`` in 1D or ``(n, n)`` row-major in 2D."""
        if self.grid.dim == 1:
            return self.samples
        n = self.grid.points_per_axis
        return self.samples.reshape(n, n)


def phi(rho) -> np.ndarray | float:
    """Smooth radial plateau cutoff at radius ``|rho|`` (vectorized).

    ``phi`` equals 1 for ``|rho| <= 1/2`` and 0 for ``|rho| >= 1``; over the
    transition it is the logistic of ``1/t - 1/(1-t)`` with ``t = 2*rho - 1``,
    an infinitely differentiable glue whose derivatives of every order vanish
    at both ends.  Near ``rho = 1``, where ``exp(-z)`` overflows, the logistic
    is exactly 0.
    """
    arr = np.abs(np.asarray(rho, dtype=float))
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    out[arr <= 0.5] = 1.0
    mid = (arr > 0.5) & (arr < 1.0)
    if np.any(mid):
        t = 2.0 * arr[mid] - 1.0
        z = 1.0 / t - 1.0 / (1.0 - t)
        out[mid] = 1.0 / (1.0 + np.fromiter(map(_exp, (-z).tolist()), float, z.size))
    return float(out[0]) if scalar else out


def psi(rho) -> np.ndarray | float:
    """Annulus profile ``phi(rho/2) - phi(rho)``, supported on ``1/2 <= rho <= 2``
    with ``psi(1) = 1``.  The dilates ``psi(rho/2**j)`` telescope exactly:
    summing consecutive annuli collapses to a difference of two plateaus."""
    arr = np.asarray(rho, dtype=float)
    return phi(arr / 2.0) - phi(arr)


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Dyadic frequency blocks of a sampled field plus the lowpass remainder.

    ``blocks`` has shape ``(J, *grid shape)``, ``J = j_max - j_min + 1``, in
    scale order: row ``i`` is block ``j = j_min + i`` (see :attr:`scales`), the
    spectrum weighted by ``psi(|xi| / 2**j)`` (hence supported in
    ``2**(j-1) <= |xi| <= 2**(j+1)``).  ``lowpass``, of grid shape, carries
    ``phi(|xi| / 2**j_min)``.  ``lowpass + blocks.sum(axis=0)`` reconstructs
    the original field up to the residual above ``2**(j_max + 1)``.
    """

    grid: GridSpec
    j_min: int
    j_max: int
    blocks: np.ndarray
    lowpass: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.points_per_axis,) * self.grid.dim
        if self.blocks.shape != (self.j_max - self.j_min + 1, *shape) or self.lowpass.shape != shape:
            raise ValueError(f"blocks and lowpass do not fit scales [{self.j_min}, {self.j_max}] on {shape}")

    @property
    def scales(self) -> np.ndarray:
        """Scale index ``j`` of each row of ``blocks``, as floats."""
        return np.arange(self.j_min, self.j_max + 1, dtype=float)


@functools.lru_cache(maxsize=64)
def _multiplier_stack(grid: GridSpec, j_min: int, j_max: int) -> np.ndarray:
    """Cached Fourier multipliers: the lowpass ``phi(|xi| / 2**j_min)`` in row 0,
    then the blocks ``psi(|xi| / 2**j)`` for ``j = j_min..j_max``."""
    mags = grid.frequency_magnitudes()
    rows = [phi(mags * 2.0 ** (-j_min))]
    rows += [psi(mags * 2.0 ** (-j)) for j in range(j_min, j_max + 1)]
    return np.stack(rows)


def decompose(f: SampledField, j_min: int, j_max: int) -> BlockDecomposition:
    """Split a field into dyadic frequency blocks ``j_min..j_max`` plus lowpass.

    One FFT of the field and one batched inverse FFT of the stacked spectra
    (lowpass, then blocks in increasing ``j``) give every output; the blocks
    are returned as one ``(J, *grid shape)`` array in that scale order.
    Requires ``j_min < j_max`` and ``2**(j_max + 1)`` within the grid's
    Nyquist frequency, so that the top annulus is representable.
    """
    grid = f.grid
    if j_min >= j_max:
        raise ValueError(f"j_min must be strictly below j_max, got [{j_min}, {j_max}]")
    if 2.0 ** (j_max + 1) > grid.nyquist * (1.0 + 1e-12):
        raise ValueError(
            f"top block frequency 2**{j_max + 1} exceeds the grid Nyquist frequency {grid.nyquist:g}"
        )
    # Complex transforms keep each output bit-identical to a separate per-block
    # transform, so fields whose ratios tie up to rounding keep their order.
    # The inverse transform writes over the product spectra: one (J+1)-row
    # complex temporary fewer per call.  With it, a process whose glibc mmap
    # threshold had not been raised by some earlier import re-faulted heap
    # pages on every 4096-point instance (4.0 M against 8.5 k minor faults in
    # 20 s of bench verify ops) and ran about 25 % slower.
    spectra = _multiplier_stack(grid, j_min, j_max) * np.fft.fftn(f.as_array(), norm="ortho")
    axes = tuple(range(1, grid.dim + 1))
    fields = np.fft.ifftn(spectra, axes=axes, norm="ortho", out=spectra).real.copy()
    return BlockDecomposition(grid, j_min, j_max, fields[1:], fields[0])


def reconstruct(d: BlockDecomposition) -> SampledField:
    """Add the blocks, in scale order, to the lowpass field."""
    return SampledField(d.grid, sum(d.blocks, d.lowpass))


def lowest_scale_for_dc_only(grid: GridSpec) -> int:
    """Largest ``j_min`` whose lowpass multiplier vanishes on every nonzero frequency.

    With this ``j_min`` the lowpass field reduces exactly to the mean of the
    input, so zero-mean fields decompose into blocks alone.
    """
    # Need phi(2**(-j) * xi_min) = 0, i.e. 2**(-j) * (2*pi/period) >= 1.
    return math.floor(math.log2(2.0 * math.pi / grid.period) + 1e-12)


def save_field(f: SampledField, path, *, sidecar: bool = False) -> Path:
    """Write a field as JSON; optionally store samples in a binary sidecar.

    The JSON object has keys ``dim``, ``points_per_axis``, ``period`` and
    either ``samples`` (a flat row-major list) or ``samples_file`` (the name
    of a sibling file of little-endian 64-bit floats in the same order).
    """
    path = Path(path)
    doc = {
        "dim": f.grid.dim,
        "points_per_axis": f.grid.points_per_axis,
        "period": float(f.grid.period),
    }
    if sidecar:
        binpath = path.with_name(path.name + ".bin")
        binpath.write_bytes(f.samples.astype("<f8").tobytes())
        doc["samples_file"] = binpath.name
    else:
        doc["samples"] = [float(x) for x in f.samples]
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


def load_field(path) -> SampledField:
    """Read a field written by :func:`save_field` (inline or sidecar samples)."""
    path = Path(path)
    doc = json.loads(path.read_text())
    grid = GridSpec(int(doc["dim"]), int(doc["points_per_axis"]), float(doc["period"]))
    if "samples_file" in doc:
        raw = (path.parent / doc["samples_file"]).read_bytes()
        samples = np.frombuffer(raw, dtype="<f8").astype(float)
    else:
        samples = np.asarray(doc["samples"], dtype=float)
    return SampledField(grid, samples)
