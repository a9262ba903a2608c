"""Frame quality metrics for event streams.

Statistical metrics operate on per-window frames: Shannon entropy of the
binary occupancy frame, population variance of the count frame, and mean
forward-difference gradient magnitude. Structural metrics run an edge
pipeline: Gaussian blur, binarization (Otsu over the nonzero support by
default), Zhang-Suen thinning, then 8-connected component statistics on the
skeleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import AccumFrame, BinaryFrame, SensorGeometry, accumulate, binarize, window_starts
from .errors import ConfigError
from .io import _write_csv

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def shannon_entropy(frame: BinaryFrame) -> float:
    """Entropy (bits) of the Bernoulli pixel-occupancy distribution."""
    bits = frame.bits
    if bits.size == 0:
        raise ConfigError("entropy of an empty frame is undefined")
    q = float(np.count_nonzero(bits)) / bits.size
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def frame_variance(frame: AccumFrame) -> float:
    """Population variance of the per-pixel event counts."""
    if frame.counts.size == 0:
        raise ConfigError("variance of an empty frame is undefined")
    return float(np.var(frame.counts.astype(float)))


def gradient_magnitude(frame: AccumFrame) -> float:
    """Mean magnitude of forward-difference gradients, zero at trailing edges."""
    counts = frame.counts.astype(float)
    if counts.size == 0:
        raise ConfigError("gradient of an empty frame is undefined")
    gx = np.zeros_like(counts)
    gy = np.zeros_like(counts)
    gx[:, :-1] = counts[:, 1:] - counts[:, :-1]
    gy[:-1, :] = counts[1:, :] - counts[:-1, :]
    return float(np.mean(np.hypot(gx, gy)))


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with radius ceil(3*sigma) and reflected borders."""
    if sigma <= 0:
        return image.astype(float)
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    out = ndimage.convolve1d(image.astype(float), kernel, axis=0, mode="reflect")
    return ndimage.convolve1d(out, kernel, axis=1, mode="reflect")


def otsu_threshold(values: np.ndarray, bins: int = 256) -> float:
    """Otsu's threshold over the positive support of the value distribution."""
    support = values[values > 0]
    if support.size == 0:
        return 0.0
    vmax = float(support.max())
    if support.min() == vmax:
        return vmax / 2.0
    hist, edges = np.histogram(support, bins=bins, range=(0.0, vmax))
    p = hist.astype(float) / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    w0 = np.cumsum(p)
    mu = np.cumsum(p * centers)
    mu_total = mu[-1]
    w1 = 1.0 - w0
    valid = (w0 > 0) & (w1 > 0)
    between = np.zeros_like(w0)
    between[valid] = (mu_total * w0[valid] - mu[valid]) ** 2 / (w0[valid] * w1[valid])
    # upper edge of the argmax bin: class 0 is "<= bin k", and binarization
    # downstream compares strictly, so the whole bin must fall below
    return float(edges[int(np.argmax(between)) + 1])


def zhang_suen_thin(bits: np.ndarray) -> np.ndarray:
    """Iterative two-subpass thinning; runs until no pixel is deleted."""
    img = bits.astype(np.uint8).copy()
    while True:
        changed = False
        for subpass in (0, 1):
            p = np.pad(img, 1)
            # clockwise ring P2..P9 starting at north
            p2 = p[:-2, 1:-1]; p3 = p[:-2, 2:]; p4 = p[1:-1, 2:]; p5 = p[2:, 2:]
            p6 = p[2:, 1:-1]; p7 = p[2:, :-2]; p8 = p[1:-1, :-2]; p9 = p[:-2, :-2]
            ring = (p2, p3, p4, p5, p6, p7, p8, p9)
            b = sum(int_ring.astype(np.int32) for int_ring in ring)
            a = sum(
                ((ring[i] == 0) & (ring[(i + 1) % 8] == 1)).astype(np.int32)
                for i in range(8)
            )
            if subpass == 0:
                cond = (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
            else:
                cond = (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
            kill = (img == 1) & (b >= 2) & (b <= 6) & (a == 1) & cond
            if kill.any():
                img[kill] = 0
                changed = True
        if not changed:
            return img.astype(bool)


def label_components(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labeling."""
    labels, count = ndimage.label(bits, structure=EIGHT_CONNECTED)
    return labels, int(count)


def count_junctions(skeleton: np.ndarray) -> int:
    """Skeleton pixels with more than two set 8-neighbours."""
    p = np.pad(skeleton.astype(np.int32), 1)
    neighbours = (
        p[:-2, 1:-1] + p[:-2, 2:] + p[1:-1, 2:] + p[2:, 2:]
        + p[2:, 1:-1] + p[2:, :-2] + p[1:-1, :-2] + p[:-2, :-2]
    )
    return int(np.count_nonzero(skeleton & (neighbours > 2)))


@dataclass
class EdgeReport:
    num_components: int
    avg_contour_length: float
    junction_count: int
    t0: int
    t1: int


def edge_pipeline(frame: AccumFrame, blur_sigma: float = 1.5) -> EdgeReport:
    """Blur, binarize at the Otsu threshold, thin, and measure the skeleton.

    Contour length is the pixel count of a skeleton component (edges are one
    pixel wide after thinning). An all-zero frame reports zeros.
    """
    counts = frame.counts.astype(float)
    if counts.size == 0:
        raise ConfigError("edge pipeline needs a non-empty frame")
    if not counts.any():
        return EdgeReport(0, 0.0, 0, frame.t0, frame.t1)
    blurred = gaussian_blur(counts, blur_sigma)
    bits = blurred > otsu_threshold(blurred)
    if not bits.any():
        return EdgeReport(0, 0.0, 0, frame.t0, frame.t1)
    skeleton = zhang_suen_thin(bits)
    labels, count = label_components(skeleton)
    if count == 0:
        return EdgeReport(0, 0.0, 0, frame.t0, frame.t1)
    sizes = np.bincount(labels.ravel())[1:]
    return EdgeReport(
        num_components=count,
        avg_contour_length=float(sizes.mean()),
        junction_count=count_junctions(skeleton),
        t0=frame.t0,
        t1=frame.t1,
    )


@dataclass
class WindowMetrics:
    t0: int
    entropy: float
    variance: float
    grad_mag: float
    num_components: int
    avg_contour_length: float
    junction_count: int


def stream_metrics(
    events: np.ndarray,
    geometry: SensorGeometry,
    t_begin: int,
    t_end: int,
    window_us: int = 10_000,
    blur_sigma: float = 1.5,
    with_edges: bool = True,
) -> list[WindowMetrics]:
    """Per-window metrics over disjoint windows tiling [t_begin, t_end)."""
    starts = window_starts(t_begin, t_end, window_us)
    # The windows tile the range, so one search over the n + 1 edges bounds
    # them all; searching the whole stream per window would recast its
    # timestamps every time.
    bounds = np.searchsorted(events["t"], np.append(starts, starts[-1:] + int(window_us)))
    out = []
    for i, t0 in enumerate(starts.tolist()):
        frame = accumulate(events[bounds[i]:bounds[i + 1]], (t0, t0 + window_us), geometry)
        if with_edges:
            edge = edge_pipeline(frame, blur_sigma=blur_sigma)
            edges = (edge.num_components, edge.avg_contour_length, edge.junction_count)
        else:
            edges = (0, 0.0, 0)
        out.append(
            WindowMetrics(
                t0=t0,
                entropy=shannon_entropy(binarize(frame)),
                variance=frame_variance(frame),
                grad_mag=gradient_magnitude(frame),
                num_components=edges[0],
                avg_contour_length=edges[1],
                junction_count=edges[2],
            )
        )
    return out


def write_metrics_csv(dest, rows: list[WindowMetrics]) -> None:
    fields = ("t0", "entropy", "variance", "grad_mag", "num_components",
              "avg_contour_length", "junction_count")
    _write_csv(dest, "t0_us,entropy,variance,grad_mag,num_components,avg_len,junctions",
               "{},{:.9g},{:.9g},{:.9g},{},{:.9g},{}",
               [np.array([getattr(r, f) for r in rows]) for f in fields])
