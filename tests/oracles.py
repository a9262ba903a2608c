"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (pure Python
loops, brute-force linear algebra, high-precision arithmetic) so it shares no
code path with the package under test.
"""

import math
from collections import deque

import mpmath as mp
import numpy as np

from evosc.track import SAMPLE_DTYPE

mp.mp.dps = 30


def flood_fill_components(bits: np.ndarray) -> int:
    """8-connected component count by breadth-first flood fill."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not bits[sy, sx] or seen[sy, sx]:
                continue
            count += 1
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            while queue:
                y, x = queue.popleft()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
    return count


def steady_state_reference(mass_kg, ecc_mass_kg, ecc_m, damping, stiffness, omega):
    """Rotating-imbalance steady state in 30-digit arithmetic -> (amp, phase)."""
    M = mp.mpf(repr(mass_kg))
    m = mp.mpf(repr(ecc_mass_kg))
    e = mp.mpf(repr(ecc_m))
    c = mp.mpf(repr(damping))
    k = mp.mpf(repr(stiffness))
    w = mp.mpf(repr(omega))
    den = mp.sqrt((k - M * w**2) ** 2 + (c * w) ** 2)
    amp = m * e * w**2 / den
    phase = mp.atan2(c * w, k - M * w**2)
    return float(amp), float(phase)


def bernoulli_entropy_reference(q) -> float:
    """Binary entropy in bits at occupancy q, high precision."""
    qq = mp.mpf(repr(q))
    if qq == 0 or qq == 1:
        return 0.0
    return float(-(qq * mp.log(qq, 2) + (1 - qq) * mp.log(1 - qq, 2)))


def project_reference(point_m, extrinsics, focal_px, cx, cy):
    """Pinhole projection by explicit homogeneous matrix product."""
    p = np.asarray([point_m[0], point_m[1], point_m[2], 1.0])
    cam = np.asarray(extrinsics) @ p
    if cam[2] <= 0:
        raise ValueError("behind camera")
    return (
        focal_px * cam[0] / cam[2] + cx,
        focal_px * cam[1] / cam[2] + cy,
    )


def exponential_centroid(ts_us, xs, ys, tau_s):
    """Per-event exponentially weighted centroid, one output row per event."""
    weight = 0.0
    cu = cv = 0.0
    t_last = None
    out = []
    for t, x, y in zip(ts_us, xs, ys):
        decay = 1.0 if t_last is None else np.exp(-(t - t_last) * 1e-6 / tau_s)
        t_last = t
        weight = weight * decay + 1.0
        cu += (x - cu) / weight
        cv += (y - cv) / weight
        out.append((t, cu, cv, weight))
    return out


def tracker_event_loop(tracker, events):
    """A fresh CentroidTracker's samples, one in-patch event at a time: the
    recursion w <- d*w + 1, c <- c + (x - c)/w and the emission gates in order
    (min_weight, warmup_s, emit_period_s)."""
    patch = tracker.patch
    inside = ((np.abs(events["x"].astype(float) - patch.cx) <= patch.half_size)
              & (np.abs(events["y"].astype(float) - patch.cy) <= patch.half_size))
    sub = events[inside]
    weight, cu, cv = 0.0, patch.cx, patch.cy
    t_start = t_last = t_emit = None
    rows = []
    for t, x, y in zip(sub["t"].tolist(), sub["x"].tolist(), sub["y"].tolist()):
        if t_last is None:
            decay, t_start = 1.0, t
        else:
            decay = math.exp(-(t - t_last) * 1e-6 / tracker.tau_s)
        t_last = t
        weight = weight * decay + 1.0
        cu += (x - cu) / weight
        cv += (y - cv) / weight
        if weight < tracker.min_weight:
            continue
        if tracker.warmup_s is not None and (t - t_start) * 1e-6 < tracker.warmup_s:
            continue
        if t_emit is not None and (t - t_emit) * 1e-6 < tracker.emit_period_s:
            continue
        t_emit = t
        rows.append((tracker.tracker_id, t, cu, cv))
    return np.array(rows, dtype=SAMPLE_DTYPE)


def crossing_events(lat, l_ref, last_emit, first_step, threshold, step_us, refractory_us,
                    max_crossings):
    """One simulator block of the threshold-crossing model, a pixel, a step
    and a level at a time.

    lat[r] is the latent value before step first_step + r and lat[r + 1] the
    one after it. In each step a pixel crosses floor(|lat - ref| / threshold)
    levels, at most max_crossings, each at the linear-interpolated instant
    clipped to the step (the step start when the latent value does not move),
    and emits unless it comes less than refractory_us after its last
    emission. l_ref and last_emit are updated in place. Returns
    (t_us, pixel, polarity) by step, then level, then pixel.
    """
    t_out, pixel_out, pol_out = [], [], []
    for r in range(lat.shape[0] - 1):
        fired = []
        for p in range(lat.shape[1]):
            l_prev, l_now, ref = float(lat[r, p]), float(lat[r + 1, p]), float(l_ref[p])
            delta = l_now - ref
            n = min(math.floor(abs(delta) / threshold), max_crossings)
            if n == 0:
                continue
            pol = math.copysign(1.0, delta)
            rise = l_now - l_prev
            for k in range(1, n + 1):
                level = ref + pol * (k * threshold)
                frac = 0.0 if rise == 0.0 else (level - l_prev) / rise
                t = (first_step + r) * step_us + min(max(frac, 0.0), 1.0) * step_us
                if t >= last_emit[p] + refractory_us:
                    fired.append((k, p, t, pol))
                    last_emit[p] = t
            l_ref[p] = ref + pol * n * threshold
        for _, p, t, pol in sorted(fired, key=lambda e: e[0]):
            t_out.append(t)
            pixel_out.append(p)
            pol_out.append(pol)
    return (np.array(t_out, dtype=float), np.array(pixel_out, dtype=np.intp),
            np.array(pol_out, dtype=float))


def direct_nudft(times_s, values, omegas):
    """Literal nonuniform DFT magnitude, one omega at a time."""
    mags = []
    for w in omegas:
        acc = 0 + 0j
        for t, v in zip(times_s, values):
            acc += v * np.exp(-1j * w * t)
        mags.append(abs(acc))
    return np.asarray(mags)


def otsu_threshold_reference(values: np.ndarray, bins: int = 256) -> float:
    """Otsu's threshold over the positive support of values, from
    np.histogram of that support, one frame at a time."""
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
    return float(edges[int(np.argmax(between)) + 1])


def direct_spectrum(values: np.ndarray, t: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """|sum_j v_j exp(-i w t_j)| for each w, by the direct O(N*K) sum in
    matrix blocks."""
    out = np.empty(omegas.shape[0], dtype=complex)
    block = max(1, int(4e6 // max(1, t.shape[0])))
    for s in range(0, omegas.shape[0], block):
        w = omegas[s : s + block]
        out[s : s + block] = np.exp(-1j * np.outer(w, t)) @ values.astype(complex)
    return np.abs(out)


def gaussian_kernel_reference(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps over radius ceil(3*sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def brute_force_junctions(skel: np.ndarray) -> int:
    """Set pixels with more than two set 8-neighbours, by direct enumeration."""
    h, w = skel.shape
    count = 0
    for r in range(h):
        for c in range(w):
            if not skel[r, c]:
                continue
            n = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and skel[rr, cc]:
                        n += 1
            if n > 2:
                count += 1
    return count


def zhang_suen_deletes(ring, subpass: int) -> bool:
    """Zhang & Suen (CACM 1984) deletion test for a set pixel whose
    neighbours P2..P9, clockwise from north, are the 0/1 values in ring."""
    p2, p3, p4, p5, p6, p7, p8, p9 = ring
    b = sum(ring)
    a = sum(1 for i in range(8) if ring[i] == 0 and ring[(i + 1) % 8] == 1)
    if subpass == 0:
        cond = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
    else:
        cond = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
    return 2 <= b <= 6 and a == 1 and cond


def zhang_suen_reference(bits: np.ndarray) -> np.ndarray:
    """Zhang-Suen thinning pixel by pixel; pixels outside the frame are 0."""
    img = [[int(v) for v in row] for row in bits]
    h, w = len(img), len(img[0]) if img else 0

    def at(r, c):
        return img[r][c] if 0 <= r < h and 0 <= c < w else 0

    ring_offsets = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
    changed = True
    while changed:
        changed = False
        for subpass in (0, 1):
            kill = [(r, c) for r in range(h) for c in range(w) if img[r][c] and
                    zhang_suen_deletes([at(r + dr, c + dc) for dr, dc in ring_offsets], subpass)]
            for r, c in kill:
                img[r][c] = 0
            changed = changed or bool(kill)
    return np.array(img, dtype=bool).reshape(bits.shape)


def jacobian_fd(h_fn, state, eps=1e-7):
    """Finite-difference Jacobian of h_fn at state (1-D array)."""
    state = np.asarray(state, dtype=float)
    base = h_fn(state)
    out = np.empty(state.shape[0])
    for i in range(state.shape[0]):
        bumped = state.copy()
        bumped[i] += eps
        out[i] = (h_fn(bumped) - base) / eps
    return out


# Frozen reference values, computed with the formulas above at 30 digits.
MOTOR_OMEGA_2V = 476.850925105  # V=2.0, k_phi=0.00374, R=3.75, T_q=0.216e-3
STEADY_AMP_REF = 6.33614306666e-4  # M=0.1, m=0.01, e=0.005, c=2, k=4000, w=150
STEADY_PHASE_REF = 0.169778273968
MIN_DETECT_D_REF = 1.01660863882  # fov=39 deg, res=720, r=1 mm, threshold=1 px
ENTROPY_QUARTER = 0.811278124459
