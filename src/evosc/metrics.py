"""Frame quality metrics for event streams.

Statistical metrics operate on per-window frames: Shannon entropy of the
binary occupancy frame, population variance of the count frame, and mean
forward-difference gradient magnitude. Structural metrics run an edge
pipeline: Gaussian blur, binarization (Otsu over the nonzero support by
default), Zhang-Suen thinning, then 8-connected component statistics on the
skeleton.

The edge pipeline runs on a stack of windows, shape (n, H, W), one window
per plane: stream_metrics stacks its windows and edge_pipeline is the same
code on a stack of one. Thinning reads each sub-pass's predicate from a
256-entry table indexed by the pixel's 8-neighbour code and thins the whole
stack until no window changes; a window that has converged deletes nothing
on later passes, so it ends as it would alone. Component labels use a
structure that never joins two planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AccumFrame, BinaryFrame, SensorGeometry, accumulate, binarize, window_starts
from .errors import ConfigError
from .io import _write_csv

# pixels per stack of windows in stream_metrics, bounding the edge
# pipeline's temporaries on large sensors
_EDGE_BLOCK_PX = 1 << 20


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
    """Separable Gaussian over the last two axes, with radius ceil(3*sigma)
    and reflected borders; a stack of frames is blurred frame by frame."""
    if sigma <= 0:
        return image.astype(float)
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    from scipy import ndimage  # here, so that `import evosc` loads no scipy
    out = ndimage.convolve1d(image.astype(float), kernel, axis=-2, mode="reflect")
    return ndimage.convolve1d(out, kernel, axis=-1, mode="reflect")


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


def _ring(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views P2..P9 (clockwise from north) of the neighbours of every pixel
    of a frame or stack whose last two axes are padded by one."""
    return (p[..., :-2, 1:-1], p[..., :-2, 2:], p[..., 1:-1, 2:], p[..., 2:, 2:],
            p[..., 2:, 1:-1], p[..., 2:, :-2], p[..., 1:-1, :-2], p[..., :-2, :-2])


def _pad(a: np.ndarray) -> np.ndarray:
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)])


def _zhang_suen_table(subpass: int) -> np.ndarray:
    """Deletion predicate of one sub-pass for every 8-neighbour code, where
    Pk is bit k - 2 of the code."""
    code = np.arange(256)
    ring = [(code >> i) & 1 for i in range(8)]
    p2, _, p4, _, p6, _, p8, _ = ring
    b = sum(ring)
    a = sum((ring[i] == 0) & (ring[(i + 1) % 8] == 1) for i in range(8))
    if subpass == 0:
        cond = (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        cond = (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return (b >= 2) & (b <= 6) & (a == 1) & cond


_ZHANG_SUEN_TABLES = (_zhang_suen_table(0), _zhang_suen_table(1))


def zhang_suen_thin(bits: np.ndarray) -> np.ndarray:
    """Iterative two-subpass thinning of an (H, W) frame or an (n, H, W)
    stack, frame by frame; runs until no pixel of any frame is deleted."""
    padded = _pad(bits.astype(bool))
    img = padded[..., 1:-1, 1:-1]
    ring = [r.view(np.uint8) for r in _ring(padded)]
    code = np.empty(img.shape, dtype=np.uint8)
    while True:
        changed = False
        for table in _ZHANG_SUEN_TABLES:
            # code = sum of Pk << (k - 2), built from P9 down in place
            np.copyto(code, ring[7])
            for r in ring[6::-1]:
                code <<= 1
                code |= r
            kill = np.take(table, code) & img
            if kill.any():
                img[kill] = False
                changed = True
        if not changed:
            return img.copy()


def label_components(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected component labeling of a frame, or of each frame of a
    stack: labels run on across frames but never join two of them."""
    structure = np.zeros((3,) * bits.ndim, dtype=int)
    structure[(1,) * (bits.ndim - 2)] = 1
    from scipy import ndimage
    labels, count = ndimage.label(bits, structure=structure)
    return labels, int(count)


def count_junctions(skeleton: np.ndarray):
    """Skeleton pixels with more than two set 8-neighbours: one count for a
    frame, an array of one per frame for a stack."""
    neighbours = sum(r.astype(np.int32) for r in _ring(_pad(skeleton)))
    return np.count_nonzero(skeleton & (neighbours > 2), axis=(-2, -1))


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
    if frame.counts.size == 0:
        raise ConfigError("edge pipeline needs a non-empty frame")
    (edges,) = _edge_stack(frame.counts[None], blur_sigma)
    return EdgeReport(*edges, t0=frame.t0, t1=frame.t1)


def _edge_stack(counts: np.ndarray, blur_sigma: float) -> list[tuple[int, float, int]]:
    """(num_components, avg_contour_length, junction_count) of each frame of
    an (n, H, W) stack of counts."""
    blurred = gaussian_blur(counts, blur_sigma)
    thresholds = np.array([otsu_threshold(b) for b in blurred])
    skeleton = zhang_suen_thin(blurred > thresholds[:, None, None])
    labels, count = label_components(skeleton)
    # a component lies in one frame: count each one in the frame of its pixels
    frame_of = np.zeros(count + 1, dtype=np.intp)
    frame_of[labels[skeleton]] = np.nonzero(skeleton)[0]
    components = np.bincount(frame_of[1:], minlength=len(counts)).tolist()
    pixels = np.count_nonzero(skeleton, axis=(1, 2)).tolist()
    junctions = count_junctions(skeleton).tolist()
    return [(c, p / c if c else 0.0, j) for c, p, j in zip(components, pixels, junctions)]


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
    starts = starts.tolist()
    per_block = max(1, _EDGE_BLOCK_PX // (geometry.width * geometry.height))
    out = []
    for lo in range(0, len(starts), per_block):
        frames = [accumulate(events[bounds[i]:bounds[i + 1]], (t0, t0 + window_us), geometry)
                  for i, t0 in enumerate(starts[lo:lo + per_block], lo)]
        if with_edges:
            edges = _edge_stack(np.stack([f.counts for f in frames]), blur_sigma)
        else:
            edges = [(0, 0.0, 0)] * len(frames)
        out.extend(
            WindowMetrics(
                frame.t0,
                shannon_entropy(binarize(frame)),
                frame_variance(frame),
                gradient_magnitude(frame),
                *edge,
            )
            for frame, edge in zip(frames, edges)
        )
    return out


def write_metrics_csv(dest, rows: list[WindowMetrics]) -> None:
    fields = ("t0", "entropy", "variance", "grad_mag", "num_components",
              "avg_contour_length", "junction_count")
    _write_csv(dest, "t0_us,entropy,variance,grad_mag,num_components,avg_len,junctions",
               "{},{:.9g},{:.9g},{:.9g},{},{:.9g},{}",
               [np.array([getattr(r, f) for r in rows]) for f in fields])
