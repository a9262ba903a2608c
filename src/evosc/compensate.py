"""Per-event motion compensation.

Each event is moved back into the virtual (static) camera frame by
subtracting the predicted oscillatory offset at its timestamp. The stream is
walked block by block (_BLOCK events, so the temporaries stay cache-sized),
and within a block the offset is evaluated once per distinct timestamp, one
cosine per axis, then repeated over the events sharing it. Compensated
coordinates are kept both real-valued and rounded; rounded coordinates
falling outside the sensor are clamped and flagged rather than dropped, so
event count and order are always preserved.

Tracking mode maps each event with the filter state after the last sample
strictly before it, from a table of one phasor per sample. The table is
given (the pipeline builds it from the ekf stage's traces), or built by
walking the samples once, advancing the caller's states in place; no events
are buffered between samples. A stream cut into consecutive chunks, with the
states carried from chunk to chunk, compensates bit-identically to one call
over the whole stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import EVENT_DTYPE, SensorGeometry
from .ekf import NoiseConfig, SinusoidState, StateSnapshot, phasor, phasor_offset, predict, update
from .errors import ConfigError
from .freqest import SinusoidInit
from .io import _write_csv
from .sim import OscillatorConfig, wrap_angle
from .track import delag_coefficients

# events per block of the compensation walk, so that its temporaries stay in cache
_BLOCK = 1 << 16


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


def _delagged_phasor(state: SinusoidState | StateSnapshot, lag_tau_s: float | None):
    """phasor() of the state with the centroid window's lag removed when lag_tau_s is set."""
    if lag_tau_s:
        a, b = delag_coefficients(state.a, state.b, state.omega, lag_tau_s)
        state = StateSnapshot(state.theta, state.omega, a, b, state.c, state.t_us)
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
    phasors: np.ndarray | None = None,
) -> CompensatedEvents:
    """Map events into the virtual static frame.

    fixed_state mode extrapolates the given filter states across the whole
    stream. tracking mode maps each event with the state after the last
    sample strictly before it (the given state before the first sample), and
    advances state_u/state_v in place through every sample: on return they
    equal filter_samples' final states, ready to carry into the next chunk of
    a stream. lag_tau_s, when given, removes the centroid window's
    first-order gain and phase lag from the states before they are applied.

    phasors, in tracking mode, is that table already built (trace_phasors of
    the states and their filter_samples traces over samples): the states are
    then neither walked nor advanced. It replaces noise and lag_tau_s, so it
    is given without them.
    """
    if phasors is not None and (mode != "tracking" or noise is not None
                                or lag_tau_s is not None):
        raise ConfigError("a phasor table is given in tracking mode, "
                          "without noise or lag_tau_s")
    if mode == "fixed_state":
        table = np.array([_delagged_phasor(state_u, lag_tau_s)
                          + _delagged_phasor(state_v, lag_tau_s)]).T
        sample_t = None
    elif mode == "tracking":
        if samples is None or (noise is None and phasors is None):
            raise ConfigError("tracking mode requires samples and noise config")
        if phasors is None:
            table = _tracking_phasors(state_u, state_v, samples, noise, lag_tau_s)
        elif phasors.shape != (8, samples.shape[0] + 1):
            raise ConfigError(f"phasor table of shape {phasors.shape} for "
                              f"{samples.shape[0]} samples")
        else:
            table = phasors
        sample_t = samples["t"]
    else:
        raise ConfigError(f"unknown compensation mode {mode!r}")
    n = events.shape[0]
    t_all = events["t"].copy()
    x, y = np.empty(n), np.empty(n)
    xi, yi = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    oob = np.zeros(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = events[lo:hi]
        t = t_all[lo:hi]
        starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
        run_t = t[starts]
        counts = np.diff(starts, append=t.shape[0])
        # column j serves the events after sample j - 1, up to and including
        # sample j; all events of a run share their timestamp, hence a column
        col = 0 if sample_t is None else np.searchsorted(sample_t, run_t, side="left")
        run_t = run_t.astype(np.float64)
        for coord, rows, real, rounded, size in (("x", table[:4], x, xi, geometry.width),
                                                 ("y", table[4:], y, yi, geometry.height)):
            real = real[lo:hi]
            real[...] = block[coord]
            real -= np.repeat(phasor_offset(*rows[:, col], run_t), counts)
            r = rounded[lo:hi]
            np.rint(real, out=r, casting="unsafe")
            # viewed unsigned, a negative coordinate is out of range too
            oob[lo:hi] |= r.view(np.uint32) >= size
            np.clip(r, 0, size - 1, out=r)
    return CompensatedEvents(
        t=t_all, x=x, y=y, xi=xi, yi=yi,
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


def trace_phasors(state_u, state_v, trace_u, trace_v, lag_tau_s=None) -> np.ndarray:
    """The table _tracking_phasors walks the filter for, read from the
    filter_samples traces of state_u and state_v instead: column 0 from the
    states, column i + 1 from trace row i. Pass it to tracking mode as phasors."""
    rows = [(*_delagged_phasor(state_u, lag_tau_s), *_delagged_phasor(state_v, lag_tau_s))]
    for ru, rv in zip(trace_u.tolist(), trace_v.tolist()):
        # a trace row is (t, theta, omega, a, b, c, innovation, accepted)
        rows.append((*_delagged_phasor(StateSnapshot(*ru[1:6], ru[0]), lag_tau_s),
                     *_delagged_phasor(StateSnapshot(*rv[1:6], rv[0]), lag_tau_s)))
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
