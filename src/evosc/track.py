"""Exponentially-weighted event centroid tracking.

Each tracker owns a fixed square patch. Every in-patch event decays the
accumulated weight by exp(-dt/tau) and pulls the running centroid toward the
event pixel with weight 1, i.e. the centroid of all past events under an
exponential forgetting kernel. Samples are emitted at most once per emission
period once enough weight has accumulated.

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

SAMPLE_DTYPE = np.dtype([("id", "<u4"), ("t", "<u8"), ("u", "<f8"), ("v", "<f8")])


@dataclass(frozen=True)
class PatchSpec:
    """Square region of interest: centre pixel and half size."""

    cx: float
    cy: float
    half_size: int = 12

    def __post_init__(self):
        if self.half_size <= 0:
            raise ConfigError(f"half_size must be positive, got {self.half_size}")

    def contains(self, x, y):
        # Subtract in float64: event coords arrive as uint16 and would wrap.
        dx = np.subtract(x, self.cx, dtype=np.float64)
        dy = np.subtract(y, self.cy, dtype=np.float64)
        return (np.abs(dx) <= self.half_size) & (np.abs(dy) <= self.half_size)


@dataclass
class CentroidTracker:
    """Streaming centroid tracker over one patch.

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
        if self.tau_s <= 0 or self.emit_period_s <= 0:
            raise ConfigError("tau_s and emit_period_s must be positive")
        if self.min_weight < 1:
            raise ConfigError(f"min_weight must be at least 1, got {self.min_weight}")
        self.weight = 0.0
        self.cu = self.patch.cx
        self.cv = self.patch.cy
        self._t_last = None
        self._t_emit = None
        self._t_start = None

    def ingest(self, t_us: int, x: float, y: float):
        """Feed one event; returns an emitted (id, t, u, v) sample or None."""
        if self._t_last is not None and t_us < self._t_last:
            raise OrderingError(f"tracker fed t={t_us} after t={self._t_last}")
        if not self.patch.contains(x, y):
            return None
        return self._step(t_us, x, y)

    def _step(self, t_us: int, x: float, y: float):
        """Update with one in-patch event that is not earlier than the last."""
        if self._t_last is None:
            decay = 1.0
            self._t_start = t_us
        else:
            decay = math.exp(-(t_us - self._t_last) * 1e-6 / self.tau_s)
        self._t_last = t_us
        self.weight = self.weight * decay + 1.0
        self.cu += (x - self.cu) / self.weight
        self.cv += (y - self.cv) / self.weight
        if self.weight < self.min_weight:
            return None
        if self.warmup_s is not None and (t_us - self._t_start) * 1e-6 < self.warmup_s:
            return None
        if self._t_emit is not None and (t_us - self._t_emit) * 1e-6 < self.emit_period_s:
            return None
        self._t_emit = t_us
        return (self.tracker_id, t_us, self.cu, self.cv)

    def run(self, events: np.ndarray) -> np.ndarray:
        """Run over a sorted event stream; returns emitted samples."""
        inside = self.patch.contains(events["x"], events["y"])
        sub = events[inside]
        ts = sub["t"]
        if ts.size and (np.any(ts[1:] < ts[:-1])
                        or (self._t_last is not None and ts[0] < self._t_last)):
            raise OrderingError("tracker fed an event stream out of time order")
        out = []
        step = self._step
        for t, x, y in zip(ts.tolist(), sub["x"].tolist(), sub["y"].tolist()):
            s = step(t, x, y)
            if s is not None:
                out.append(s)
        return samples_array(out)


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
