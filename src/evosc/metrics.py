"""Frame quality metrics for event streams.

A window's frame is its (H, W) array of per-pixel event counts, and a run of
windows is an (n, H, W) stack of them (core.window_counts). Every metric
takes a frame or a stack and reduces over the last two axes, one value per
frame. Statistical metrics: Shannon entropy of the occupancy (a pixel with
any count is occupied), population variance of the counts, and mean
forward-difference gradient magnitude. Structural metrics (edge_stats) run
an edge pipeline: Gaussian blur, binarization (Otsu over the nonzero support
of each frame), Zhang-Suen thinning, then 8-connected component statistics
on the skeleton.

Thinning reads each sub-pass's predicate from a 256-entry table indexed by
the pixel's 8-neighbour code and thins the whole stack until no frame
changes; a frame that has converged deletes nothing on later passes, so it
ends as it would alone. Component labels use a structure that never joins
two frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SensorGeometry, window_counts
from .errors import ConfigError
from .io import _write_csv

# pixels per stack of windows in stream_metrics. A stack's float temporaries
# (1 MB at 8 bytes a pixel) then stay in a core's L2 cache: on the 64x64 demo
# stream, with 2 MB of L2 per core, stacks of 2^20 pixels made the metrics
# without edges 1.4x slower than stacks of 2^17.
_BLOCK_PX = 1 << 17


def _check_frames(counts: np.ndarray, what: str) -> int:
    """Pixels per frame of an (H, W) frame or (n, H, W) stack; a ConfigError
    when the frame is empty."""
    px = counts.shape[-2] * counts.shape[-1]
    if px == 0:
        raise ConfigError(f"{what} of an empty frame is undefined")
    return px


def _bernoulli_entropy(q: float) -> float:
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def shannon_entropy(counts: np.ndarray):
    """Entropy (bits) of the Bernoulli pixel-occupancy distribution of a
    frame, or of each frame of a stack."""
    q = np.count_nonzero(counts, axis=(-2, -1)) / _check_frames(counts, "entropy")
    # math.log2 per frame: numpy's vectorised log2 may differ in the last bit
    h = [_bernoulli_entropy(v) for v in np.ravel(q).tolist()]
    return np.reshape(h, np.shape(q))[()]


def frame_variance(counts: np.ndarray):
    """Population variance of the per-pixel event counts of a frame, or of
    each frame of a stack."""
    _check_frames(counts, "variance")
    return np.var(counts.astype(float), axis=(-2, -1))


def gradient_magnitude(counts: np.ndarray):
    """Mean magnitude of forward-difference gradients, zero at trailing
    edges, of a frame or of each frame of a stack."""
    _check_frames(counts, "gradient")
    c = counts.astype(float)
    gx = np.zeros_like(c)
    gy = np.zeros_like(c)
    np.subtract(c[..., 1:], c[..., :-1], out=gx[..., :-1])
    np.subtract(c[..., 1:, :], c[..., :-1, :], out=gy[..., :-1, :])
    return np.mean(np.hypot(gx, gy, out=gx), axis=(-2, -1))


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


def otsu_threshold(values: np.ndarray, bins: int = 256):
    """Otsu's threshold over the positive support of a 1-D array of values,
    or of each row (last axis) of a 2-D array. A row without support gets 0,
    one whose support is a single value v gets v / 2.

    The rows share one bincount over (row, bin) keys. A row's bins are those
    np.histogram(support, bins, range=(0, vmax)) makes: the same edges, and
    the same rounding of a value onto its bin.
    """
    rows = np.reshape(values, (-1, np.shape(values)[-1])).astype(float, copy=False)
    support = rows > 0
    vmax = np.max(rows, axis=1, initial=0.0)
    vmin = np.min(rows, axis=1, where=support, initial=np.inf)
    out = np.where(vmin == vmax, vmax / 2.0, 0.0)
    regular = np.flatnonzero(vmin < vmax)
    if regular.size:
        top, support = vmax[regular], support[regular]
        v = rows[regular][support]
        row = np.repeat(np.arange(regular.size), np.count_nonzero(support, axis=1))
        # np.linspace(0, top, bins + 1) of each row
        edges = np.arange(bins + 1.0) * (top / bins)[:, None]
        edges[:, -1] = top
        idx = (v / top[row] * bins).astype(np.intp)
        idx[idx == bins] -= 1
        first = row * (bins + 1)
        idx[v < edges.ravel()[first + idx]] -= 1
        idx[(v >= edges.ravel()[first + idx + 1]) & (idx != bins - 1)] += 1
        hist = np.bincount(row * bins + idx, minlength=regular.size * bins).reshape(-1, bins)
        p = hist / hist.sum(axis=1, keepdims=True)
        w0 = np.cumsum(p, axis=1)
        mu = np.cumsum(p * (0.5 * (edges[:, :-1] + edges[:, 1:])), axis=1)
        w1 = 1.0 - w0
        valid = (w0 > 0) & (w1 > 0)
        between = np.zeros_like(w0)
        mu_total = np.broadcast_to(mu[:, -1:], mu.shape)
        between[valid] = ((mu_total[valid] * w0[valid] - mu[valid]) ** 2
                          / (w0[valid] * w1[valid]))
        # upper edge of the argmax bin: class 0 is "<= bin k", and binarization
        # downstream compares strictly, so the whole bin must fall below
        out[regular] = edges[np.arange(regular.size), np.argmax(between, axis=1) + 1]
    return out.reshape(np.shape(values)[:-1])[()]


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


def edge_stats(counts: np.ndarray, blur_sigma: float = 1.5):
    """(num_components, avg_contour_length, junction_count) of a frame of
    counts, or three arrays of one per frame of a stack: blur, threshold
    each frame at its Otsu level, thin, and measure the skeleton.

    Contour length is the pixel count of a skeleton component (edges are one
    pixel wide after thinning). An all-zero frame reports zeros.
    """
    _check_frames(counts, "edge pipeline")
    stack = counts.reshape((-1,) + counts.shape[-2:])
    blurred = gaussian_blur(stack, blur_sigma)
    thresholds = otsu_threshold(blurred.reshape(len(blurred), -1))
    skeleton = zhang_suen_thin(blurred > thresholds[:, None, None])
    labels, count = label_components(skeleton)
    # a component lies in one frame: count each one in the frame of its pixels
    frame_of = np.zeros(count + 1, dtype=np.intp)
    frame_of[labels[skeleton]] = np.nonzero(skeleton)[0]
    components = np.bincount(frame_of[1:], minlength=len(stack))
    pixels = np.count_nonzero(skeleton, axis=(1, 2))
    avg = np.divide(pixels, components, out=np.zeros(len(stack)), where=components > 0)
    return tuple(a.reshape(counts.shape[:-2])[()]
                 for a in (components, avg, count_junctions(skeleton)))


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
    """Per-window metrics over disjoint windows tiling [t_begin, t_end),
    scored on one stack of window counts per block of _BLOCK_PX pixels."""
    if window_us <= 0:
        raise ConfigError(f"window length must be positive, got {window_us}")
    windows = range(int(t_begin), int(t_end), int(window_us))
    per_block = max(1, _BLOCK_PX // (geometry.width * geometry.height))
    out = []
    for lo in range(0, len(windows), per_block):
        block = windows[lo:lo + per_block]
        counts = window_counts(events, geometry, block.start, block.stop, block.step)
        columns = [shannon_entropy(counts), frame_variance(counts), gradient_magnitude(counts)]
        if with_edges:
            columns += edge_stats(counts, blur_sigma)
        else:
            columns += [np.zeros(len(block), int), np.zeros(len(block)), np.zeros(len(block), int)]
        out.extend(WindowMetrics(*row) for row in zip(block, *(c.tolist() for c in columns)))
    return out


def write_metrics_csv(dest, rows: list[WindowMetrics]) -> None:
    fields = ("t0", "entropy", "variance", "grad_mag", "num_components",
              "avg_contour_length", "junction_count")
    _write_csv(dest, "t0_us,entropy,variance,grad_mag,num_components,avg_len,junctions",
               "{},{:.9g},{:.9g},{:.9g},{},{:.9g},{}",
               [np.array([getattr(r, f) for r in rows]) for f in fields])
