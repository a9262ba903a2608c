"""Frequency initialization from irregular centroid samples.

Pipeline: DC-remove one axis of the track samples, evaluate the nonuniform
DFT magnitude over a uniform angular-frequency band, pick local maxima with
sub-bin quadratic refinement, then least-squares fit a*sin(w t) + b*cos(w t) + c
at the chosen frequency.

The spectrum is computed by Gaussian gridding (spread onto a 2x oversampled
uniform grid, FFT, deconvolve the kernel), which matches the direct O(N*K)
sum to better than 1e-6 relative magnitude; the tests keep the direct sum as
its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFitError,
    InconsistentMotionError,
    InsufficientDataError,
    NoPeakError,
)

DEFAULT_BAND = (30.0, 500.0)
DEFAULT_GRID_POINTS = 2048
DEFAULT_NUM_PEAKS = 3

# Gaussian-gridding parameters: 2x oversampling and spreading to
# +-SPREAD_WIDTH grid points. Kernel variance pi*W/12/(K/2)^2 balances the
# truncation and alias terms at ~exp(-2*pi*W/3) ~ 1e-10 relative error.
OVERSAMPLING = 2
SPREAD_WIDTH = 11


@dataclass
class NormalizedSeries:
    """Zero-mean sample values and their times in seconds."""

    values: np.ndarray
    times_s: np.ndarray


@dataclass
class Spectrum:
    omegas: np.ndarray
    magnitudes: np.ndarray


@dataclass(frozen=True)
class SpectrumPeak:
    omega: float
    magnitude: float
    bin_index: int


@dataclass(frozen=True)
class SinusoidInit:
    """Least-squares fit of value = a*sin(omega t) + b*cos(omega t) + c."""

    omega: float
    a: float
    b: float
    c: float
    residual_rms: float


@dataclass
class InitResult:
    omega: float
    init_u: SinusoidInit
    init_v: SinusoidInit
    peaks_u: list = field(default_factory=list)
    peaks_v: list = field(default_factory=list)


def normalize(samples: np.ndarray, axis: str) -> NormalizedSeries:
    """DC-remove one axis ('u' or 'v') and take its times to seconds."""
    if axis not in ("u", "v"):
        raise ConfigError(f"axis must be 'u' or 'v', got {axis!r}")
    if samples.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {samples.shape[0]}")
    t = samples["t"].astype(np.int64)
    t0, t1 = int(t[0]), int(t[-1])
    if t1 <= t0:
        raise InsufficientDataError("sample time span is zero")
    vals = samples[axis].astype(float)
    # times go through phases on [-pi, pi] and back: the frozen spectra keep
    # that round trip's rounding
    phases = -math.pi + (t - t0) * (2.0 * math.pi / (t1 - t0))
    times_s = (t0 + (phases + math.pi) * (t1 - t0) / (2.0 * math.pi)) * 1e-6
    return NormalizedSeries(values=vals - float(vals.mean()), times_s=times_s)


def check_band(band: tuple[float, float], grid_points: int) -> None:
    """ConfigError unless band is finite and increasing and grid_points is at
    least 4; NaN fails every comparison."""
    if not grid_points >= 4:
        raise ConfigError(f"grid_points must be at least 4, got {grid_points}")
    if not -math.inf < float(band[0]) < float(band[1]) < math.inf:
        raise ConfigError(f"band must be finite and increasing, got {tuple(band)}")


def nudft_spectrum(
    series: NormalizedSeries,
    band: tuple[float, float] = DEFAULT_BAND,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> Spectrum:
    """Nonuniform DFT magnitude |sum_j v_j exp(-i w t_j)| over a uniform band,
    by Gaussian gridding onto an oversampled FFT (equal to the direct sum to
    1e-6 relative magnitude)."""
    check_band(band, grid_points)
    omegas = np.linspace(float(band[0]), float(band[1]), grid_points)
    return Spectrum(omegas=omegas, magnitudes=np.abs(_gridded(series.values, series.times_s,
                                                              omegas)))


def _gridded(values: np.ndarray, t: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    k_modes = omegas.shape[0]
    delta = (omegas[-1] - omegas[0]) / (k_modes - 1)
    # shift the band centre to frequency zero so modes are symmetric
    half = k_modes // 2
    w_c = omegas[0] + half * delta
    c = values * np.exp(-1j * w_c * t)
    x = np.mod(delta * t, 2.0 * math.pi)

    m_r = OVERSAMPLING * k_modes
    h = 2.0 * math.pi / m_r
    tau = math.pi * SPREAD_WIDTH / 12.0 / half**2

    grid = np.zeros(m_r, dtype=complex)
    nearest = np.rint(x / h).astype(np.int64)
    for d in range(-SPREAD_WIDTH, SPREAD_WIDTH + 1):
        idx = np.mod(nearest + d, m_r)
        kernel = np.exp(-((x - (nearest + d) * h) ** 2) / (4.0 * tau))
        np.add.at(grid, idx, c * kernel)

    fhat = np.fft.fft(grid)
    k = np.arange(k_modes) - half
    deconv = (1.0 / m_r) * math.sqrt(math.pi / tau) * np.exp(k.astype(float) ** 2 * tau)
    return fhat[np.mod(k, m_r)] * deconv


def top_peaks(spectrum: Spectrum) -> list[SpectrumPeak]:
    """The DEFAULT_NUM_PEAKS strongest strict local maxima, strongest first,
    with quadratic sub-bin refinement."""
    mag = spectrum.magnitudes
    if mag.shape[0] < 3 or not np.any(mag > 0):
        raise NoPeakError("spectrum has no local maximum")
    inner = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    idx = np.nonzero(inner)[0] + 1
    if idx.size == 0:
        raise NoPeakError("spectrum has no local maximum")
    idx = idx[np.argsort(mag[idx])[::-1][:DEFAULT_NUM_PEAKS]]
    step = spectrum.omegas[1] - spectrum.omegas[0]
    peaks = []
    for i in idx:
        if np.all(mag[i - 1 : i + 2] > 0):
            lm, l0, lp = np.log(mag[i - 1 : i + 2])
            denom = lm - 2.0 * l0 + lp
            shift = 0.0 if denom == 0.0 else 0.5 * (lm - lp) / denom
        else:
            shift = 0.0
        peaks.append(
            SpectrumPeak(
                omega=float(spectrum.omegas[i] + shift * step),
                magnitude=float(mag[i]),
                bin_index=int(i),
            )
        )
    return peaks


def fit_sinusoid(samples: np.ndarray, axis: str, omega: float) -> SinusoidInit:
    """Least-squares a*sin(w t) + b*cos(w t) + c over raw axis values (t seconds)."""
    if samples.shape[0] < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {samples.shape[0]}")
    t = samples["t"].astype(float) * 1e-6
    vals = samples[axis].astype(float)
    design = np.column_stack([np.sin(omega * t), np.cos(omega * t), np.ones_like(t)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 3:
        raise DegenerateFitError(f"design matrix rank {rank} < 3 at omega={omega}")
    resid = vals - design @ coeffs
    return SinusoidInit(
        omega=float(omega),
        a=float(coeffs[0]),
        b=float(coeffs[1]),
        c=float(coeffs[2]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def _axis_peaks(samples, axis, band, grid_points):
    try:
        return top_peaks(nudft_spectrum(normalize(samples, axis), band, grid_points))
    except (InsufficientDataError, NoPeakError):
        return []


def fuse_axis_peaks(peaks_u: list, peaks_v: list) -> float:
    """Shared dominant frequency from per-axis peak lists.

    Within 5% relative disagreement the axes are averaged weighted by peak
    magnitude; within 25% the stronger axis wins; beyond that the motion is
    inconsistent. An axis whose peak is under 10% of the other's magnitude is
    treated as signal-free.
    """
    if not peaks_u and not peaks_v:
        raise NoPeakError("no usable spectral peak on either axis")
    if not peaks_u:
        return peaks_v[0].omega
    if not peaks_v:
        return peaks_u[0].omega
    pu, pv = peaks_u[0], peaks_v[0]
    if pu.magnitude < 0.1 * pv.magnitude:
        return pv.omega
    if pv.magnitude < 0.1 * pu.magnitude:
        return pu.omega
    rel = abs(pu.omega - pv.omega) / (0.5 * (pu.omega + pv.omega))
    if rel <= 0.05:
        wsum = pu.magnitude + pv.magnitude
        return (pu.omega * pu.magnitude + pv.omega * pv.magnitude) / wsum
    if rel <= 0.25:
        return pu.omega if pu.magnitude >= pv.magnitude else pv.omega
    raise InconsistentMotionError(
        f"axis frequencies disagree by {100 * rel:.1f}%: "
        f"u={pu.omega:.3f} rad/s vs v={pv.omega:.3f} rad/s"
    )


def initialize(
    samples: np.ndarray,
    band: tuple[float, float] = DEFAULT_BAND,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> InitResult:
    """Spectral peak search (gridded, DEFAULT_NUM_PEAKS per axis) plus
    per-axis sinusoid fits at the fused frequency. Each fit has three
    coefficients, so fewer than 3 samples are an InsufficientDataError."""
    if samples.shape[0] < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {samples.shape[0]}")
    peaks_u = _axis_peaks(samples, "u", band, grid_points)
    peaks_v = _axis_peaks(samples, "v", band, grid_points)
    omega = fuse_axis_peaks(peaks_u, peaks_v)
    return InitResult(omega=omega, init_u=fit_sinusoid(samples, "u", omega),
                      init_v=fit_sinusoid(samples, "v", omega), peaks_u=peaks_u,
                      peaks_v=peaks_v)
