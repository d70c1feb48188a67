"""Periodic sampled grids and dyadic frequency-block decompositions.

A real-valued function on a periodic box is represented by its samples on a
uniform grid.  This module provides:

* a smooth radial plateau cutoff ``phi`` (identically 1 inside radius 1/2,
  identically 0 outside radius 1) and the derived annulus profile
  ``psi(rho) = phi(rho/2) - phi(rho)`` supported on ``1/2 <= rho <= 2``,
* the dyadic block decomposition of a sampled field built on the unitary FFT:
  block ``j`` carries the part of the spectrum in the annulus
  ``2**(j-1) <= |xi| <= 2**(j+1)``, and a lowpass field carries everything
  below the first block,
* telescoping reconstruction ``lowpass + sum of blocks``, exact (to machine
  precision) only for fields band-limited below ``2**(j_max + 1)``; the
  spectrum above that is dropped,
* JSON (de)serialization of sampled fields with an optional binary sidecar.

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
from scipy.special import expit

__all__ = [
    "GridSpec",
    "SampledField",
    "CutoffProfile",
    "BlockDecomposition",
    "make_cutoff_profile",
    "decompose",
    "reconstruct",
    "lowest_scale_for_dc_only",
    "save_field",
    "load_field",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth radial plateau cutoff and its derived annulus profile.

    ``phi`` equals 1 for ``|rho| <= 1/2`` and 0 for ``|rho| >= 1``; over the
    transition it is the logistic of ``s*(1/t - 1/(1-t))`` with
    ``t = 2*rho - 1``, an infinitely differentiable glue whose derivatives of
    every order vanish at both ends.  Larger ``transition_sharpness`` makes a
    steeper transition.  ``psi(rho) = phi(rho/2) - phi(rho)`` is supported on
    ``1/2 <= rho <= 2`` with ``psi(1) = 1``, and the dilates ``psi(rho/2**j)``
    telescope exactly: summing consecutive annuli collapses to a difference
    of two plateau evaluations.
    """

    transition_sharpness: float = 1.0

    def __post_init__(self) -> None:
        s = self.transition_sharpness
        if not (isinstance(s, (int, float)) and math.isfinite(s) and s > 0):
            raise ValueError(f"transition_sharpness must be a positive real, got {s!r}")

    def phi(self, rho) -> np.ndarray | float:
        """Plateau profile evaluated at radius ``|rho|`` (vectorized)."""
        arr = np.abs(np.asarray(rho, dtype=float))
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        out[arr <= 0.5] = 1.0
        mid = (arr > 0.5) & (arr < 1.0)
        if np.any(mid):
            t = 2.0 * arr[mid] - 1.0
            out[mid] = expit(self.transition_sharpness * (1.0 / t - 1.0 / (1.0 - t)))
        return float(out[0]) if scalar else out

    def psi(self, rho) -> np.ndarray | float:
        """Annulus profile ``phi(rho/2) - phi(rho)``, supported on [1/2, 2]."""
        arr = np.asarray(rho, dtype=float)
        return self.phi(arr / 2.0) - self.phi(arr)

    def block_multiplier(self, j: int, magnitudes: np.ndarray) -> np.ndarray:
        """Fourier multiplier of block ``j``: ``psi(|xi| / 2**j)``."""
        return self.psi(magnitudes * 2.0 ** (-j))

    def lowpass_multiplier(self, j: int, magnitudes: np.ndarray) -> np.ndarray:
        """Fourier multiplier of the lowpass below block ``j``: ``phi(|xi| / 2**j)``."""
        return self.phi(magnitudes * 2.0 ** (-j))


def make_cutoff_profile(transition_sharpness: float = 1.0) -> CutoffProfile:
    """Build a smooth radial cutoff profile of the given transition sharpness."""
    return CutoffProfile(float(transition_sharpness))


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
def _multiplier_stack(grid: GridSpec, profile: CutoffProfile, j_min: int, j_max: int) -> np.ndarray:
    """Cached Fourier multipliers: the lowpass in row 0, then the blocks ``j_min..j_max``."""
    mags = grid.frequency_magnitudes()
    rows = [profile.lowpass_multiplier(j_min, mags)]
    rows += [profile.block_multiplier(j, mags) for j in range(j_min, j_max + 1)]
    return np.stack(rows)


def decompose(f: SampledField, profile: CutoffProfile, j_min: int, j_max: int) -> BlockDecomposition:
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
    spectra = _multiplier_stack(grid, profile, j_min, j_max) * np.fft.fftn(f.as_array(), norm="ortho")
    fields = np.fft.ifftn(spectra, axes=tuple(range(1, grid.dim + 1)), norm="ortho").real.copy()
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
