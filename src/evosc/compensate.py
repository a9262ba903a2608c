"""Per-event motion compensation.

Each event is moved back into the virtual (static) camera frame by
subtracting the predicted oscillatory offset at its timestamp: one phase
evaluation and one cosine per axis per event, vectorized over the stream.
Compensated coordinates are kept both real-valued and rounded; rounded
coordinates falling outside the sensor are clamped and flagged rather than
dropped, so event count and order are always preserved.

Tracking mode maps each event with the filter state after the last sample
strictly before it. It walks the samples once, advancing the caller's
states in place and recording the phasor after each sample, then expands
that table to one phasor per event by run length (events must be in time
order, as every stream is); no events are buffered between samples. A stream
cut into consecutive chunks, with the states carried from chunk to chunk,
compensates bit-identically to one call over the whole stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import EVENT_DTYPE, SensorGeometry
from .ekf import NoiseConfig, SinusoidState, phasor, phasor_offset, predict, update
from .errors import ConfigError
from .freqest import SinusoidInit
from .io import _write_csv
from .sim import OscillatorConfig, wrap_angle
from .track import delag_coefficients


@dataclass
class CompensatedEvents:
    """Column store of compensated events, same order as the input stream."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    yi: np.ndarray
    polarity: np.ndarray
    out_of_bounds: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    def to_events(self, drop_out_of_bounds: bool = False) -> np.ndarray:
        """Rounded-coordinate event stream (clamped, or filtered when dropping)."""
        keep = ~self.out_of_bounds if drop_out_of_bounds else slice(None)
        out = np.empty(int(np.count_nonzero(~self.out_of_bounds))
                       if drop_out_of_bounds else self.t.shape[0], dtype=EVENT_DTYPE)
        out["t"] = self.t[keep]
        out["x"] = self.xi[keep]
        out["y"] = self.yi[keep]
        out["p"] = self.polarity[keep]
        return out


def _delagged_phasor(state: SinusoidState, lag_tau_s: float | None):
    """phasor() of the state with the centroid window's lag removed when lag_tau_s is set."""
    if lag_tau_s:
        a, b = delag_coefficients(state.a, state.b, state.omega, lag_tau_s)
        state = state.snapshot()._replace(a=a, b=b)
    return phasor(state)


def compensate_stream(
    events: np.ndarray,
    state_u: SinusoidState,
    state_v: SinusoidState,
    geometry: SensorGeometry,
    mode: str = "fixed_state",
    samples: np.ndarray | None = None,
    noise: NoiseConfig | None = None,
    lag_tau_s: float | None = None,
) -> CompensatedEvents:
    """Map events into the virtual static frame.

    fixed_state mode extrapolates the given filter states across the whole
    stream. tracking mode maps each event with the state after the last
    sample strictly before it (the given state before the first sample), and
    advances state_u/state_v in place through every sample: on return they
    equal filter_samples' final states, ready to carry into the next chunk of
    a stream. lag_tau_s, when given, removes the centroid window's
    first-order gain and phase lag from the states before they are applied.
    """
    t = events["t"].astype(np.float64)
    x = events["x"].astype(np.float64)
    y = events["y"].astype(np.float64)
    if mode == "fixed_state":
        x -= phasor_offset(*_delagged_phasor(state_u, lag_tau_s), t)
        y -= phasor_offset(*_delagged_phasor(state_v, lag_tau_s), t)
    elif mode == "tracking":
        if samples is None or noise is None:
            raise ConfigError("tracking mode requires samples and noise config")
        table = _tracking_phasors(state_u, state_v, samples, noise, lag_tau_s)
        # column j serves the events after sample j - 1, up to and including sample j
        bounds = np.searchsorted(events["t"], samples["t"], side="right")
        counts = np.diff(bounds, prepend=0, append=events.shape[0])
        x -= phasor_offset(*np.repeat(table[:4], counts, axis=1), t)
        y -= phasor_offset(*np.repeat(table[4:], counts, axis=1), t)
    else:
        raise ConfigError(f"unknown compensation mode {mode!r}")
    xi = np.rint(x).astype(np.int32)
    yi = np.rint(y).astype(np.int32)
    oob = (xi < 0) | (xi >= geometry.width) | (yi < 0) | (yi >= geometry.height)
    np.clip(xi, 0, geometry.width - 1, out=xi)
    np.clip(yi, 0, geometry.height - 1, out=yi)
    return CompensatedEvents(
        t=events["t"].copy(), x=x, y=y, xi=xi, yi=yi,
        polarity=events["p"].copy(), out_of_bounds=oob,
    )


def _tracking_phasors(state_u, state_v, samples, noise, lag_tau_s):
    """(8, n_samples + 1) table, u then v phasor: column 0 from the given
    states, column i + 1 after sample i."""
    rows = [(*_delagged_phasor(state_u, lag_tau_s), *_delagged_phasor(state_v, lag_tau_s))]
    for t, u, v in zip(samples["t"].tolist(), samples["u"].tolist(), samples["v"].tolist()):
        predict(state_u, t, noise)
        predict(state_v, t, noise)
        update(state_u, u, noise)
        update(state_v, v, noise)
        rows.append((*_delagged_phasor(state_u, lag_tau_s), *_delagged_phasor(state_v, lag_tau_s)))
    return np.array(rows, dtype=np.float64).T


def states_from_config(cfg: OscillatorConfig, t_ref_us: int = 0) -> tuple[SinusoidState, SinusoidState]:
    """Exact filter states equivalent to a known oscillation (for closed loops)."""

    def mk(amp: float, phi: float) -> SinusoidState:
        return SinusoidState(
            theta=wrap_angle(cfg.omega * t_ref_us * 1e-6 + phi), omega=cfg.omega,
            a=0.0, b=amp, c=0.0, covariance=np.zeros((5, 5)), t_us=int(t_ref_us),
        )

    return mk(cfg.amp_x_px, cfg.phi_x), mk(cfg.amp_y_px, cfg.phi_y)


def states_from_init(
    init_u: SinusoidInit, init_v: SinusoidInit, t_ref_us: int = 0
) -> tuple[SinusoidState, SinusoidState]:
    """Filter states from per-axis least-squares fits (theta = 0 at t_ref)."""
    from .ekf import init as ekf_init

    return ekf_init(init_u, t_ref_us), ekf_init(init_v, t_ref_us)


def throughput_bench(
    events: np.ndarray,
    state_u: SinusoidState,
    state_v: SinusoidState,
    geometry: SensorGeometry,
    repeats: int = 10,
) -> dict:
    """Time the fixed-state hot path; returns mean/std ns per event."""
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    compensate_stream(events, state_u, state_v, geometry)  # warm cache
    per_event = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        compensate_stream(events, state_u, state_v, geometry)
        t1 = time.perf_counter_ns()
        per_event.append((t1 - t0) / events.shape[0])
    per_event = np.asarray(per_event)
    return {
        "events": int(events.shape[0]),
        "repeats": repeats,
        "ns_per_event_mean": float(per_event.mean()),
        "ns_per_event_std": float(per_event.std()),
        "events_per_second": float(1e9 / per_event.mean()),
    }


def write_compensated_csv(dest, comp: CompensatedEvents) -> None:
    """Real-valued CSV variant: t_us,x,y,p with three decimals."""
    _write_csv(dest, "t_us,x,y,p", "{},{:.3f},{:.3f},{}",
               [comp.t, comp.x, comp.y, comp.polarity])
