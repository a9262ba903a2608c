"""Exponentially-weighted event centroid tracking.

Each tracker owns a fixed square patch. Every in-patch event decays the
accumulated weight by d = exp(-dt/tau) and adds weight 1 at the event pixel:
w <- d*w + 1, S <- d*S + x, centroid S/w, i.e. the centroid of all past events
under an exponential forgetting kernel. Samples are emitted at most once per
emission period once enough weight has accumulated.

The recursion is a first-order linear scan, and CentroidTracker.run computes
it with cumulative sums. It cuts the in-patch events into chunks that span at
most _CHUNK_TAUS (30) tau; within a chunk starting at t_c, every event's w and
S scaled by g = exp((t - t_c)/tau) are running sums of g and g*x, plus the
previous chunk's state times exp(-(t_c - t_prev)/tau). The span keeps g below
e^30, so the sums cannot overflow. The state carries from chunk to chunk and
from call to call. Each chunk's emissions are picked before the next chunk
is scanned, so of the per-event arrays only the in-patch times (and
coordinates) span the stream; weights and centroids exist a chunk at a time,
and a stream emits about one sample per 200 in-patch events. Only the
emission gate is a Python loop, one step per emitted sample.

Viewed as a linear system, the kernel is a first-order low pass: a centroid
oscillating at omega is attenuated by 1/sqrt(1 + (omega*tau)^2) and delayed by
atan(omega*tau). Both are deterministic functions of omega*tau and can be
divided back out once omega is known (see lowpass_gain / delag_coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OrderingError
from .io import _read_bytes, _write_csv

DEFAULT_TAU_S = 0.005
DEFAULT_EMIT_PERIOD_S = 0.001
DEFAULT_MIN_WEIGHT = 5.0
# emissions start this many tau after the first in-patch event (see warmup_s)
DEFAULT_WARMUP_TAUS = 3.0

# a scan chunk spans at most this many tau, so its exp((t - t_c)/tau) <= e^30 ~ 1e13
_CHUNK_TAUS = 30.0
# search keys are clamped to the largest timestamp, so a huge span or period cannot overflow
_T_MAX = 2**64 - 1

SAMPLE_DTYPE = np.dtype([("id", "<u4"), ("t", "<u8"), ("u", "<f8"), ("v", "<f8")])


@dataclass(frozen=True)
class PatchSpec:
    """Square region of interest: centre pixel and half size."""

    cx: float
    cy: float
    half_size: int = 12

    def __post_init__(self):
        if not (-math.inf < self.cx < math.inf and -math.inf < self.cy < math.inf):
            raise ConfigError(f"cx and cy must be finite, got ({self.cx}, {self.cy})")
        if self.half_size <= 0:
            raise ConfigError(f"half_size must be positive, got {self.half_size}")

    def contains(self, x, y):
        """Mask of the coordinates inside the patch (see _near)."""
        return self._near(np.asarray(x), self.cx) & self._near(np.asarray(y), self.cy)

    def _near(self, v, c):
        """|v - c| <= half_size, the difference taken in float64. Integer v
        (event columns are uint16) is compared with that test's bounds, with
        no float copy: float64(i) - c never falls as i rises, so each bound
        is the first integer passing a test, found by bisection."""
        if v.dtype.kind not in "iu":
            return np.abs(np.subtract(v, c, dtype=np.float64)) <= self.half_size
        info, first = np.iinfo(v.dtype), []
        for passes in (lambda i: float(i) - c >= -self.half_size,
                       lambda i: float(i) - c > self.half_size):
            a, b = int(info.min), int(info.max) + 1  # b when no integer passes
            while a < b:
                mid = (a + b) // 2
                a, b = (a, mid) if passes(mid) else (mid + 1, b)
            first.append(a)
        return (first[0] <= v) & (v < first[1])


def check_tracker_params(tau_s: float, emit_period_s: float, min_weight: float,
                         warmup_s: float | None = None) -> None:
    """ConfigError unless tau_s and emit_period_s are positive and finite,
    min_weight is finite and at least 1, and warmup_s is None or non-negative
    and finite; NaN fails every comparison."""
    if not (0 < tau_s < math.inf and 0 < emit_period_s < math.inf):
        raise ConfigError("tau_s and emit_period_s must be positive and finite")
    if not 1 <= min_weight < math.inf:
        raise ConfigError(f"min_weight must be finite and at least 1, got {min_weight}")
    if warmup_s is not None and not 0 <= warmup_s < math.inf:
        raise ConfigError(f"warmup_s must be non-negative and finite, got {warmup_s}")


@dataclass
class CentroidTracker:
    """Streaming centroid tracker over one patch.

    run scans the in-patch events in chunks of at most _CHUNK_TAUS * tau,
    picking each chunk's emissions as it goes (see the module docstring).
    Weight, centroid and the times of the last event, the first event and
    the last emission carry over between calls, so a stream fed in pieces
    gives the samples of one call over the whole stream, to rounding.
    warmup_s, when set, suppresses emissions until that much time has passed
    since the first in-patch event; the centroid starts at the patch centre
    and needs a few tau to forget it.
    """

    patch: PatchSpec
    tau_s: float = DEFAULT_TAU_S
    emit_period_s: float = DEFAULT_EMIT_PERIOD_S
    min_weight: float = DEFAULT_MIN_WEIGHT
    tracker_id: int = 0
    warmup_s: float | None = None

    def __post_init__(self):
        check_tracker_params(self.tau_s, self.emit_period_s, self.min_weight, self.warmup_s)
        self.weight = 0.0
        self.cu = self.patch.cx
        self.cv = self.patch.cy
        self._t_last = None
        self._t_emit = None
        self._t_start = None

    def run(self, events: np.ndarray) -> np.ndarray:
        """Run over a time-sorted stream (fields t, x, y); returns emitted samples.

        State carries over between calls, so a stream fed in pieces gives the
        samples of one call over the whole stream.
        """
        inside = self.patch.contains(events["x"], events["y"])
        ts = events["t"][inside]
        if ts.size and (np.any(ts[1:] < ts[:-1])
                        or (self._t_last is not None and ts[0] < self._t_last)):
            raise OrderingError("tracker fed an event stream out of time order")
        if ts.size == 0:
            return samples_array([])
        if self._t_start is None:
            self._t_start = self._t_last = int(ts[0])
        picked = []
        for lo, w, u, v in self._scan(ts, events["x"][inside], events["y"][inside]):
            tc = ts[lo:lo + w.size]
            ok = w >= self.min_weight
            if self.warmup_s is not None:
                ok &= ~((tc - self._t_start) * 1e-6 < self.warmup_s)
            picks = np.flatnonzero(ok)
            picks = picks[self._emissions(tc[picks])]
            picked.append((tc[picks], u[picks], v[picks]))
        out = np.empty(sum(t.size for t, _, _ in picked), dtype=SAMPLE_DTYPE)
        out["id"] = self.tracker_id
        for name, column in zip("tuv", zip(*picked)):
            out[name] = np.concatenate(column)
        return out

    def _scan(self, ts, xs, ys):
        """(start, w, u, v) of each chunk of the in-patch events: the weight and
        centroid after each of its events, from the carried state.

        With d = exp(-dt/tau), w <- d*w + 1 and S <- d*S + x give w and S at
        event i as (sum of g_j for j <= i, plus the carried term) / g_i, where
        g_j = exp((t_j - t_c)/tau) and t_c is the chunk's first time. A chunk
        spans at most _CHUNK_TAUS * tau, so g stays below exp(_CHUNK_TAUS).
        Coordinates are summed relative to the patch centre. The tracker's
        state follows each chunk as it is yielded.
        """
        n = ts.size
        cx, cy = self.patch.cx, self.patch.cy
        rate = 1e-6 / self.tau_s
        span_us = int(_CHUNK_TAUS * self.tau_s * 1e6)
        weight, t_prev = self.weight, self._t_last
        s_u, s_v = (self.cu - cx) * weight, (self.cv - cy) * weight
        i = 0
        while i < n:
            t_c = int(ts[i])
            j = int(ts.searchsorted(np.uint64(min(t_c + span_us, _T_MAX)), side="right"))
            g = np.exp((ts[i:j] - t_c) * rate)
            carry = math.exp(-(t_c - t_prev) * rate)
            den = np.cumsum(g)
            den += weight * carry
            num_u = np.cumsum(g * np.subtract(xs[i:j], cx, dtype=np.float64))
            num_u += s_u * carry
            num_v = np.cumsum(g * np.subtract(ys[i:j], cy, dtype=np.float64))
            num_v += s_v * carry
            w = den / g
            weight, s_u, s_v = w[-1], num_u[-1] / g[-1], num_v[-1] / g[-1]
            u = np.divide(num_u, den, out=num_u)
            u += cx
            v = np.divide(num_v, den, out=num_v)
            v += cy
            t_prev = int(ts[j - 1])
            self.weight, self.cu, self.cv = float(weight), float(u[-1]), float(v[-1])
            self._t_last = t_prev
            yield i, w, u, v
            i = j

    def _emissions(self, tc) -> list[int]:
        """Indices into the candidate times tc that emit: the first candidate at
        least emit_period_s after the last emission, repeatedly."""
        period = self.emit_period_s
        gap_us = int(period * 1e6)
        picks = []
        t_emit, k, n = self._t_emit, 0, tc.size
        while k < n:
            if t_emit is not None:
                lo = k
                k = max(lo, int(tc.searchsorted(np.uint64(min(t_emit + gap_us, _T_MAX)))))
                # the test is monotone in t: step to its first passing candidate
                while k > lo and not (int(tc[k - 1]) - t_emit) * 1e-6 < period:
                    k -= 1
                while k < n and (int(tc[k]) - t_emit) * 1e-6 < period:
                    k += 1
                if k == n:
                    break
            picks.append(k)
            t_emit, k = int(tc[k]), k + 1
        self._t_emit = t_emit
        return picks


def samples_array(rows) -> np.ndarray:
    """Structured samples from (id, t, u, v) tuples."""
    return np.array(rows, dtype=SAMPLE_DTYPE)


def track_events(events: np.ndarray, trackers: list[CentroidTracker]) -> np.ndarray:
    """Run several trackers over one stream; samples sorted by (t, id)."""
    parts = [tr.run(events) for tr in trackers]
    if not parts:
        return samples_array([])
    merged = np.concatenate(parts)
    order = np.lexsort((merged["id"], merged["t"]))
    return merged[order]


def lowpass_gain(omega: float, tau_s: float) -> float:
    """Amplitude attenuation of the exponential window at angular rate omega."""
    return 1.0 / math.sqrt(1.0 + (omega * tau_s) ** 2)


def delag_coefficients(a: float, b: float, omega: float, tau_s: float) -> tuple[float, float]:
    """Undo the exponential window's first-order lag on fitted (a, b).

    With the measured offset a*sin(theta) + b*cos(theta) written as the phasor
    b - i*a, the window divides the true phasor by (1 + i*omega*tau).
    Multiplying back restores both amplitude and phase.
    """
    wt = omega * tau_s
    return a - wt * b, b + wt * a


def write_samples_csv(dest, samples: np.ndarray) -> None:
    _write_csv(dest, "id,t_us,u,v", "{},{},{:.6f},{:.6f}",
               [samples["id"], samples["t"], samples["u"], samples["v"]])


def read_samples_csv(source) -> np.ndarray:
    lines = [ln for ln in _read_bytes(source).decode().splitlines() if ln.strip()]
    if not lines or lines[0] != "id,t_us,u,v":
        raise ConfigError(f"bad samples header: {lines[0] if lines else '(empty)'}")
    rows = []
    for ln in lines[1:]:
        sid, t, u, v = ln.split(",")
        rows.append((int(sid), int(t), float(u), float(v)))
    return samples_array(rows)
