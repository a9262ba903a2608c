import math

import numpy as np
import pytest

from evosc.errors import (
    ConfigError,
    DegenerateFitError,
    InconsistentMotionError,
    InsufficientDataError,
    NoPeakError,
)
from evosc.freqest import (
    DEFAULT_NUM_PEAKS,
    Spectrum,
    SpectrumPeak,
    fit_sinusoid,
    fuse_axis_peaks,
    initialize,
    normalize,
    nudft_spectrum,
    top_peaks,
)
from evosc.track import SAMPLE_DTYPE

from oracles import direct_nudft, direct_spectrum


class TestNormalize:
    def test_values_are_mean_free(self, make_sine_samples):
        s = make_sine_samples(omega=100.0, a=1.0, b=0.5, c=37.0)
        series = normalize(s, "u")
        assert series.values.mean() == pytest.approx(0.0, abs=1e-12)

    def test_times_round_trip(self, make_sine_samples):
        s = make_sine_samples(omega=80.0, a=1.0, b=0.0, c=0.0)
        series = normalize(s, "u")
        np.testing.assert_allclose(series.times_s, s["t"] * 1e-6, atol=1e-12)

    def test_bad_axis(self, make_sine_samples):
        with pytest.raises(ConfigError):
            normalize(make_sine_samples(omega=1.0, a=1.0, b=0.0, c=0.0), "w")

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            normalize(np.zeros(1, dtype=SAMPLE_DTYPE), "u")

    def test_zero_time_span(self):
        s = np.zeros(4, dtype=SAMPLE_DTYPE)
        s["t"] = 100
        with pytest.raises(InsufficientDataError):
            normalize(s, "u")


class TestSpectrum:
    def test_gridded_matches_direct_path(self, make_sine_samples):
        s = make_sine_samples(omega=130.0, a=1.0, b=0.0, c=0.0, n=1000,
                              t_span_s=1.5, noise=0.3, seed=42)
        series = normalize(s, "u")
        fast = nudft_spectrum(series)
        slow = direct_spectrum(series.values, series.times_s, fast.omegas)
        scale = slow.max()
        err = np.abs(fast.magnitudes - slow) / scale
        assert err.max() < 1e-6

    def test_direct_matches_literal_sum(self, make_sine_samples):
        s = make_sine_samples(omega=130.0, a=0.8, b=-0.4, c=5.0, n=200, noise=0.1)
        series = normalize(s, "u")
        omegas = np.linspace(100.0, 160.0, 61)
        ref = direct_nudft(series.times_s, series.values, omegas)
        np.testing.assert_allclose(direct_spectrum(series.values, series.times_s, omegas),
                                   ref, rtol=1e-9, atol=1e-9)

    def test_peak_sits_at_signal_frequency(self, make_sine_samples):
        s = make_sine_samples(omega=130.0, a=1.0, b=0.7, c=12.0, n=2000,
                              t_span_s=2.0, seed=3)
        spec = nudft_spectrum(normalize(s, "u"))
        step = spec.omegas[1] - spec.omegas[0]
        best = spec.omegas[np.argmax(spec.magnitudes)]
        assert abs(best - 130.0) <= step

    def test_magnitude_scales_linearly(self, make_sine_samples):
        s = make_sine_samples(omega=90.0, a=1.0, b=0.0, c=0.0, n=400)
        series = normalize(s, "u")
        base = nudft_spectrum(series).magnitudes
        series.values = series.values * 3.0
        scaled = nudft_spectrum(series).magnitudes
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-9)

    def test_custom_band_gridded_agrees(self, make_sine_samples):
        s = make_sine_samples(omega=300.0, a=1.0, b=0.0, c=0.0, n=600, noise=0.05)
        series = normalize(s, "u")
        fast = nudft_spectrum(series, band=(250.0, 350.0), grid_points=512)
        slow = direct_spectrum(series.values, series.times_s, fast.omegas)
        err = np.abs(fast.magnitudes - slow) / slow.max()
        assert err.max() < 1e-6

    def test_bad_arguments(self, make_sine_samples):
        series = normalize(make_sine_samples(omega=50.0, a=1.0, b=0.0, c=0.0), "u")
        with pytest.raises(ConfigError):
            nudft_spectrum(series, band=(100.0, 100.0))
        with pytest.raises(ConfigError):
            nudft_spectrum(series, grid_points=3)


class TestTopPeaks:
    def test_gaussian_bump_refined_exactly(self):
        # log of a gaussian is an exact parabola, so the sub-bin quadratic
        # refinement must land on the true centre
        omegas = np.linspace(50.0, 150.0, 201)
        centre = 98.37
        mags = np.exp(-((omegas - centre) ** 2) / 40.0)
        peaks = top_peaks(Spectrum(omegas=omegas, magnitudes=mags))
        assert peaks[0].omega == pytest.approx(centre, abs=1e-9)

    def test_orders_by_magnitude_and_truncates(self):
        # four local maxima; the weakest is cut at DEFAULT_NUM_PEAKS = 3
        omegas = np.linspace(0.0, 12.0, 13)
        mags = np.zeros(13)
        mags[2], mags[5], mags[8], mags[10] = 1.0, 3.0, 2.0, 1.5
        peaks = top_peaks(Spectrum(omegas=omegas, magnitudes=mags))
        assert DEFAULT_NUM_PEAKS == 3
        assert [p.bin_index for p in peaks] == [5, 8, 10]
        assert peaks[0].magnitude >= peaks[1].magnitude >= peaks[2].magnitude

    def test_monotone_spectrum_has_no_peak(self):
        omegas = np.linspace(0.0, 1.0, 32)
        with pytest.raises(NoPeakError):
            top_peaks(Spectrum(omegas=omegas, magnitudes=np.linspace(0.1, 1.0, 32)))

    def test_all_zero_spectrum_rejected(self):
        omegas = np.linspace(0.0, 1.0, 32)
        with pytest.raises(NoPeakError):
            top_peaks(Spectrum(omegas=omegas, magnitudes=np.zeros(32)))


class TestFitSinusoid:
    def test_exact_on_noiseless_data(self, make_sine_samples):
        s = make_sine_samples(omega=75.0, a=1.5, b=-0.7, c=40.0, n=300)
        fit = fit_sinusoid(s, "u", 75.0)
        assert fit.a == pytest.approx(1.5, rel=1e-6)
        assert fit.b == pytest.approx(-0.7, rel=1e-6)
        assert fit.c == pytest.approx(40.0, rel=1e-6)
        assert fit.residual_rms < 1e-6

    def test_residual_tracks_noise_level(self, make_sine_samples):
        s = make_sine_samples(omega=75.0, a=1.0, b=0.0, c=0.0, n=4000, noise=0.25,
                              seed=9)
        fit = fit_sinusoid(s, "u", 75.0)
        assert fit.residual_rms == pytest.approx(0.25, rel=0.1)

    def test_zero_frequency_is_degenerate(self, make_sine_samples):
        s = make_sine_samples(omega=75.0, a=1.0, b=0.0, c=0.0, n=50)
        with pytest.raises(DegenerateFitError):
            fit_sinusoid(s, "u", 0.0)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_sinusoid(np.zeros(2, dtype=SAMPLE_DTYPE), "u", 10.0)


def peak(omega, mag):
    return SpectrumPeak(omega=omega, magnitude=mag, bin_index=0)


class TestFusePeaks:
    def test_both_empty(self):
        with pytest.raises(NoPeakError):
            fuse_axis_peaks([], [])

    def test_single_axis_passthrough(self):
        assert fuse_axis_peaks([peak(100.0, 1.0)], []) == 100.0
        assert fuse_axis_peaks([], [peak(90.0, 1.0)]) == 90.0

    def test_weak_axis_ignored(self):
        assert fuse_axis_peaks([peak(100.0, 1.0)], [peak(250.0, 0.05)]) == 100.0
        assert fuse_axis_peaks([peak(250.0, 0.05)], [peak(100.0, 1.0)]) == 100.0

    def test_close_peaks_magnitude_weighted(self):
        got = fuse_axis_peaks([peak(100.0, 3.0)], [peak(102.0, 1.0)])
        assert got == pytest.approx((100.0 * 3.0 + 102.0 * 1.0) / 4.0)

    def test_moderate_disagreement_stronger_axis_wins(self):
        assert fuse_axis_peaks([peak(100.0, 1.0)], [peak(115.0, 2.0)]) == 115.0
        assert fuse_axis_peaks([peak(100.0, 2.0)], [peak(115.0, 1.0)]) == 100.0

    def test_large_disagreement_rejected(self):
        with pytest.raises(InconsistentMotionError):
            fuse_axis_peaks([peak(100.0, 1.0)], [peak(200.0, 1.0)])


class TestInitialize:
    def test_circular_motion_recovered(self, make_sine_samples):
        omega = 100.0 * math.pi
        s = make_sine_samples(omega=omega, a=2.0, b=0.0, c=32.0, n=1500,
                              t_span_s=1.0, noise=0.05, seed=4)
        rng = np.random.default_rng(5)
        t = s["t"] * 1e-6
        s["v"] = 2.0 * np.cos(omega * t) + 32.0 + rng.normal(0.0, 0.05, s.shape[0])
        result = initialize(s)
        assert result.omega == pytest.approx(omega, rel=2e-3)
        assert math.hypot(result.init_u.a, result.init_u.b) == pytest.approx(2.0, rel=0.02)
        assert math.hypot(result.init_v.a, result.init_v.b) == pytest.approx(2.0, rel=0.02)
        assert result.init_u.c == pytest.approx(32.0, abs=0.05)
        assert result.peaks_u and result.peaks_v

    def test_flat_samples_raise(self):
        s = np.zeros(100, dtype=SAMPLE_DTYPE)
        s["t"] = np.arange(100) * 1000
        s["u"] = 7.0
        s["v"] = 7.0
        with pytest.raises(NoPeakError):
            initialize(s)

    def test_two_samples_raise(self):
        # both axes peak, but a three-coefficient fit needs three samples
        s = np.zeros(2, dtype=SAMPLE_DTYPE)
        s["t"] = [15106, 23108]
        s["u"] = [14.529524, 17.344854]
        s["v"] = [15.250879, 16.003243]
        with pytest.raises(InsufficientDataError):
            initialize(s)
