"""Tests for grids, cutoff profiles, and dyadic block decompositions."""

import math

import numpy as np
import pytest

from conftest import random_band_limited_field
from lplorentz.spectral import (
    BlockDecomposition,
    GridSpec,
    SampledField,
    decompose,
    load_field,
    lowest_scale_for_dc_only,
    make_cutoff_profile,
    reconstruct,
    save_field,
)

TWO_PI = 2.0 * math.pi


class TestGridSpec:
    def test_geometry_relations(self):
        grid = GridSpec(1, 1024, TWO_PI)
        assert grid.spacing * 1024 == pytest.approx(TWO_PI, rel=1e-15)
        assert grid.cell_volume == pytest.approx(grid.spacing, rel=1e-15)
        assert grid.num_points == 1024
        assert grid.nyquist == pytest.approx(math.pi * 1024 / TWO_PI, rel=1e-15)

    def test_axis_frequencies_are_absolute_units(self):
        # with period 2*pi the frequency lattice is exactly the integers
        grid = GridSpec(1, 64, TWO_PI)
        freqs = grid.axis_frequencies()
        expected = np.fft.fftfreq(64, d=1.0 / 64)
        assert np.allclose(freqs, expected, atol=0.0)

    def test_two_dimensional_magnitudes(self):
        grid = GridSpec(2, 8, TWO_PI)
        mags = grid.frequency_magnitudes()
        assert mags.shape == (8, 8)
        assert mags[0, 0] == 0.0
        assert mags[0, 1] == pytest.approx(1.0)
        assert mags[1, 1] == pytest.approx(math.sqrt(2.0))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            GridSpec(0, 64, TWO_PI)
        with pytest.raises(ValueError):
            GridSpec(1, 63, TWO_PI)
        with pytest.raises(ValueError):
            GridSpec(1, 64, -1.0)
        with pytest.raises(ValueError):
            GridSpec(3, 8, TWO_PI)


class TestSampledField:
    def test_shape_validation(self):
        grid = GridSpec(2, 8, TWO_PI)
        with pytest.raises(ValueError):
            SampledField(grid, np.zeros(8))
        field = SampledField(grid, np.zeros((8, 8)))
        assert field.as_array().shape == (8, 8)

    def test_owns_a_read_only_copy(self):
        source = np.arange(8.0)
        field = SampledField(GridSpec(1, 8, TWO_PI), source)
        source[0] = 99.0
        assert field.samples.tolist() == list(range(8))
        with pytest.raises(ValueError):
            field.samples[0] = 1.0
        with pytest.raises(ValueError):
            field.as_array()[0] = 1.0


class TestCutoffProfile:
    def test_plateau_and_support(self):
        profile = make_cutoff_profile(1.0)
        assert profile.phi(0.0) == 1.0
        assert profile.phi(0.5) == 1.0
        assert profile.phi(1.0) == 0.0
        assert profile.phi(7.3) == 0.0
        # strictly interior transition samples (the glue saturates to exactly
        # 0 or 1 in floating point very close to the plateau edges)
        rho = np.linspace(0.6, 0.9, 61)
        vals = profile.phi(rho)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_band_function_is_difference_of_plateaus(self):
        profile = make_cutoff_profile(2.0)
        rho = np.linspace(0.0, 4.0, 401)
        assert np.allclose(profile.psi(rho), profile.phi(rho / 2.0) - profile.phi(rho), atol=0.0)
        # vanishes outside (1/2, 2)
        assert profile.psi(0.5) == 0.0
        assert profile.psi(2.0) == 0.0
        assert profile.psi(1.0) == 1.0

    def test_telescoping_partition_is_exact(self):
        profile = make_cutoff_profile(1.0)
        rho = np.geomspace(1e-3, 1e3, 500)
        total = profile.phi(rho / 2.0**-3)
        for j in range(-3, 9):
            total = total + profile.psi(rho / 2.0**j)
        assert np.allclose(total, profile.phi(rho / 2.0**9), atol=1e-15)


def per_block_decomposition(f, profile, j_min, j_max):
    """Reference decomposition: one FFT, then a separate inverse FFT for the
    lowpass and for each block, keeping the real part."""
    mags = f.grid.frequency_magnitudes()
    spectrum = np.fft.fftn(f.as_array(), norm="ortho")
    lowpass = np.fft.ifftn(profile.lowpass_multiplier(j_min, mags) * spectrum, norm="ortho").real
    blocks = [
        np.fft.ifftn(profile.block_multiplier(j, mags) * spectrum, norm="ortho").real
        for j in range(j_min, j_max + 1)
    ]
    return np.stack(blocks), lowpass


class TestDecomposition:
    @pytest.mark.parametrize(
        "grid, band_hi, j_max",
        [(GridSpec(1, 1024, TWO_PI), 600.0, 8), (GridSpec(2, 64, TWO_PI), 50.0, 4)],
    )
    def test_stacked_transform_matches_per_block_reference(self, grid, band_hi, j_max):
        rng = np.random.default_rng(13)
        f = random_band_limited_field(grid, 0.0, band_hi, rng)
        profile = make_cutoff_profile(1.0)
        d = decompose(f, profile, 0, j_max)
        blocks, lowpass = per_block_decomposition(f, profile, 0, j_max)
        shape = (grid.points_per_axis,) * grid.dim
        assert d.blocks.shape == (j_max + 1, *shape) and d.lowpass.shape == shape
        assert np.array_equal(d.scales, np.arange(0, j_max + 1))
        # One stacked inverse transform gives the per-block results bit for bit.
        assert np.array_equal(d.blocks, blocks)
        assert np.array_equal(d.lowpass, lowpass)

    def test_layout_mismatch_rejected(self):
        grid = GridSpec(1, 64, TWO_PI)
        with pytest.raises(ValueError):
            BlockDecomposition(grid, 0, 3, np.zeros((3, 64)), np.zeros(64))
        with pytest.raises(ValueError):
            BlockDecomposition(grid, 0, 3, np.zeros((4, 64)), np.zeros(32))

    def test_round_trip_is_exact_1d(self):
        grid = GridSpec(1, 2048, TWO_PI)
        rng = np.random.default_rng(7)
        f = random_band_limited_field(grid, 1.0, 250.0, rng)
        d = decompose(f, make_cutoff_profile(1.0), 0, 8)
        err = np.max(np.abs(reconstruct(d).samples - f.samples))
        assert err <= 1e-12 * np.max(np.abs(f.samples))

    def test_round_trip_is_exact_2d(self):
        grid = GridSpec(2, 64, TWO_PI)
        rng = np.random.default_rng(3)
        f = random_band_limited_field(grid, 1.0, 15.9, rng)
        d = decompose(f, make_cutoff_profile(1.0), 0, 4)
        err = np.max(np.abs(reconstruct(d).samples - f.samples))
        assert err <= 1e-12 * np.max(np.abs(f.samples))

    def test_single_mode_lands_in_its_annulus(self):
        grid = GridSpec(1, 1024, TWO_PI)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.cos(16.0 * x))
        d = decompose(f, make_cutoff_profile(1.0), 0, 8)
        energies = {j: float(np.sum(b**2)) for j, b in zip(range(d.j_min, d.j_max + 1), d.blocks)}
        # frequency 16 = 2**4 sits exactly at the peak of block 4
        assert energies[4] == pytest.approx(np.sum(f.samples**2), rel=1e-12)
        for j, en in energies.items():
            if j != 4:
                assert en <= 1e-24 * energies[4]

    def test_blocks_are_spectrally_supported_in_annuli(self):
        grid = GridSpec(1, 1024, TWO_PI)
        rng = np.random.default_rng(11)
        f = random_band_limited_field(grid, 1.0, 200.0, rng)
        d = decompose(f, make_cutoff_profile(1.0), 0, 8)
        mags = grid.frequency_magnitudes()
        for j, block in zip(range(d.j_min, d.j_max + 1), d.blocks):
            spectrum = np.fft.fftn(block, norm="ortho")
            outside = (mags <= 2.0 ** (j - 1)) | (mags >= 2.0 ** (j + 1))
            assert np.max(np.abs(spectrum[outside])) <= 1e-12 * (1.0 + np.max(np.abs(spectrum)))

    def test_zero_mean_field_has_zero_lowpass_at_dc_only_scale(self):
        grid = GridSpec(1, 512, TWO_PI)
        j_min = lowest_scale_for_dc_only(grid)
        assert j_min == 0
        x = grid.axis_coordinates()
        f = SampledField(grid, np.sin(3.0 * x) + 0.25 * np.cos(7.0 * x))
        d = decompose(f, make_cutoff_profile(1.0), j_min, 7)
        assert np.max(np.abs(d.lowpass)) <= 1e-14

    def test_lowpass_is_exact_mean_for_constant(self):
        grid = GridSpec(1, 256, TWO_PI)
        f = SampledField(grid, np.full(256, 2.5))
        d = decompose(f, make_cutoff_profile(1.0), 0, 6)
        assert np.allclose(d.lowpass, 2.5, atol=1e-13)
        for block in d.blocks:
            assert np.max(np.abs(block)) <= 1e-13

    def test_scale_range_validation(self):
        grid = GridSpec(1, 256, TWO_PI)
        f = SampledField(grid, np.zeros(256))
        profile = make_cutoff_profile(1.0)
        with pytest.raises(ValueError):
            decompose(f, profile, 4, 4)
        with pytest.raises(ValueError):
            # 2**(j_max+1) beyond the representable frequencies
            decompose(f, profile, 0, 8)

    def test_dc_only_scale_for_non_unit_period(self):
        grid = GridSpec(1, 4096, 16.0)
        j_min = lowest_scale_for_dc_only(grid)
        assert j_min == -2
        x = grid.axis_coordinates()
        f = SampledField(grid, np.sin(2.0 * math.pi * x / 16.0))
        d = decompose(f, make_cutoff_profile(1.0), j_min, 8)
        assert np.max(np.abs(d.lowpass)) <= 1e-14


class TestBandLimitedGenerator:
    def test_determinism_and_band(self):
        grid = GridSpec(1, 1024, TWO_PI)
        f1 = random_band_limited_field(grid, 4.0, 60.0, np.random.default_rng(5))
        f2 = random_band_limited_field(grid, 4.0, 60.0, np.random.default_rng(5))
        assert np.array_equal(f1.samples, f2.samples)
        spectrum = np.fft.fftn(f1.samples, norm="ortho")
        mags = grid.frequency_magnitudes()
        outside = (mags < 4.0) | (mags > 60.0)
        assert np.max(np.abs(spectrum[outside])) <= 1e-12 * np.max(np.abs(spectrum))

    def test_samples_are_real(self):
        grid = GridSpec(2, 32, TWO_PI)
        f = random_band_limited_field(grid, 1.0, 8.0, np.random.default_rng(9))
        assert f.samples.dtype == np.float64


class TestFieldIO:
    def test_json_round_trip(self, tmp_path):
        grid = GridSpec(2, 16, 4.0)
        rng = np.random.default_rng(2)
        f = SampledField(grid, rng.standard_normal((16, 16)))
        path = save_field(f, tmp_path / "field.json")
        g = load_field(path)
        assert g.grid.dim == 2 and g.grid.points_per_axis == 16 and g.grid.period == 4.0
        assert np.array_equal(f.samples, g.samples)

    def test_binary_sidecar_round_trip(self, tmp_path):
        grid = GridSpec(1, 64, TWO_PI)
        f = SampledField(grid, np.linspace(-1, 1, 64))
        save_field(f, tmp_path / "field.json", sidecar=True)
        assert (tmp_path / "field.json.bin").exists()
        g = load_field(tmp_path / "field.json")
        assert np.array_equal(f.samples, g.samples)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_field(tmp_path / "nope.json")
