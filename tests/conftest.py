"""Shared helpers for the test suite."""

import numpy as np

from lplorentz.norms import MeasuredValues
from lplorentz.spectral import GridSpec, SampledField


def random_step_values(rng, max_len: int = 40, sigma: float = 1.5) -> MeasuredValues:
    """Random nonnegative step profile: lognormal values, uniform masses."""
    k = int(rng.integers(1, max_len))
    return MeasuredValues(rng.lognormal(0.0, sigma, k), rng.uniform(0.05, 3.0, k))


def random_band_limited_field(
    grid: GridSpec, band_lo: float, band_hi: float, rng: np.random.Generator
) -> SampledField:
    """Gaussian random field whose spectrum is confined to ``band_lo <= |xi| <= band_hi``."""
    mags = grid.frequency_magnitudes()
    mask = (mags >= band_lo) & (mags <= band_hi)
    if not np.any(mask):
        raise ValueError(f"no lattice frequencies inside the band [{band_lo:g}, {band_hi:g}]")
    z = rng.standard_normal(mags.shape) + 1j * rng.standard_normal(mags.shape)
    return SampledField(grid, np.fft.ifftn(z * mask, norm="ortho").real)
