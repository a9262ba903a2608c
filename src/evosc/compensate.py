"""Per-event motion compensation.

Each event is moved back into the virtual (static) camera frame by
subtracting the predicted oscillatory offset at its timestamp. The stream,
and to_events' packing, are walked in blocks by core.map_blocks, which
splits them across threads with the same output bit for bit whatever the
CPU count; within a block the offset is evaluated once per distinct
timestamp, one cosine per axis, then repeated over the events sharing it.
The result keeps only what is computed, the real-valued coordinates; its
t and polarity read the caller's records in place, and the rounded
coordinates are derived block by block where they are read (to_events, or
xi, yi and out_of_bounds). Rounded coordinates falling outside the sensor
are clamped and flagged rather than dropped, so event count and order are
always preserved.

Tracking mode maps each event with the filter state after the last sample
strictly before it, from a table of one phasor per sample. The table is
given (the pipeline builds it from the ekf stage's traces), or built by
walking the samples once, advancing the caller's states in place; no events
are buffered between samples. It is built on the calling thread before the
blocks are walked, so no worker thread runs a (traced) filter step. A stream
cut into consecutive chunks, with the states carried from chunk to chunk,
compensates bit-identically to one call over the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import EVENT_DTYPE, SensorGeometry, map_blocks
from .ekf import NoiseConfig, SinusoidState, StateSnapshot, phasor, phasor_offset, predict, update
from .errors import ConfigError
from .freqest import SinusoidInit
from .io import _write_csv
from .sim import OscillatorConfig, wrap_angle
from .track import delag_coefficients


@dataclass
class CompensatedEvents:
    """Compensated events, in the order of the input records they are read
    from: the real-valued coordinates x and y, and the records' own t and
    polarity. The rounded coordinates xi and yi (clamped to the sensor) and
    the out_of_bounds mask are derived block by block where they are read."""

    records: np.ndarray
    x: np.ndarray
    y: np.ndarray
    geometry: SensorGeometry

    def __len__(self) -> int:
        return self.records.shape[0]

    @property
    def t(self) -> np.ndarray:
        return self.records["t"]

    @property
    def polarity(self) -> np.ndarray:
        return self.records["p"]

    @property
    def xi(self) -> np.ndarray:
        return self._derive(0, np.int32)

    @property
    def yi(self) -> np.ndarray:
        return self._derive(1, np.int32)

    @property
    def out_of_bounds(self) -> np.ndarray:
        return self._derive(2, bool)

    def _derive(self, k: int, dtype) -> np.ndarray:
        """Column k of _block over the whole stream, block by block."""
        out = np.empty(len(self), dtype=dtype)

        def fill(lo, hi):
            out[lo:hi] = self._block(lo, hi)[k]

        map_blocks(fill, len(self))
        return out

    def _block(self, lo: int, hi: int):
        """(xi, yi, out_of_bounds) of records [lo, hi)."""
        xi, x_out = _rounded(self.x[lo:hi], self.geometry.width)
        yi, y_out = _rounded(self.y[lo:hi], self.geometry.height)
        return xi, yi, x_out | y_out

    def to_events(self, drop_out_of_bounds: bool = False) -> np.ndarray:
        """Rounded-coordinate event stream (clamped, or filtered when
        dropping), packed block by block through map_blocks."""
        n = len(self)
        if drop_out_of_bounds:
            kept = map_blocks(lambda lo, hi: hi - lo - int(np.count_nonzero(
                self._block(lo, hi)[2])), n)
            # where each block's kept records start in the output
            starts = np.cumsum([0] + kept).tolist()
        out = np.empty(starts[-1] if drop_out_of_bounds else n, dtype=EVENT_DTYPE)

        def pack(lo, hi):
            xi, yi, oob = self._block(lo, hi)
            if drop_out_of_bounds:
                i = lo // core._BLOCK
                dest, keep = out[starts[i]:starts[i + 1]], ~oob
            else:
                dest, keep = out[lo:hi], slice(None)
            block = self.records[lo:hi]
            for name, column in (("t", block["t"]), ("x", xi), ("y", yi), ("p", block["p"])):
                dest[name] = column[keep]

        map_blocks(pack, n)
        return out


def _rounded(real: np.ndarray, size: int):
    """(real rounded to int32 and clamped to [0, size), where it was outside).
    The unsafe cast takes a value that does not fit int32, NaN and the
    infinities included, to the platform's out-of-range integer (INT32_MIN on
    x86), so it is clamped and flagged too."""
    r = np.empty(real.shape[0], dtype=np.int32)
    with np.errstate(invalid="ignore"):
        np.rint(real, out=r, casting="unsafe")
    # viewed unsigned, a negative coordinate is out of range too
    outside = r.view(np.uint32) >= size
    return np.clip(r, 0, size - 1, out=r), outside


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
    """Map events into the virtual static frame. The result reads the
    caller's records in place (its t and polarity are views of them), and
    events is neither copied nor changed.

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
    x, y = np.empty(n), np.empty(n)

    def compensate_block(lo, hi):
        block = events[lo:hi]
        t = block["t"]
        starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
        run_t = t[starts]
        counts = np.diff(starts, append=t.shape[0])
        # column j serves the events after sample j - 1, up to and including
        # sample j; all events of a run share their timestamp, hence a column
        col = 0 if sample_t is None else np.searchsorted(sample_t, run_t, side="left")
        run_t = run_t.astype(np.float64)
        for coord, rows, real in (("x", table[:4], x), ("y", table[4:], y)):
            real = real[lo:hi]
            real[...] = block[coord]
            real -= np.repeat(phasor_offset(*rows[:, col], run_t), counts)

    map_blocks(compensate_block, n)
    return CompensatedEvents(records=events, x=x, y=y, geometry=geometry)


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


def write_compensated_csv(dest, comp: CompensatedEvents, header: bool = True) -> None:
    """Real-valued CSV variant: t_us,x,y,p with three decimals. Without the
    header line, the rows of consecutive pieces of a stream append to one file."""
    _write_csv(dest, "t_us,x,y,p" if header else None, "{},{:.3f},{:.3f},{}",
               [comp.t, comp.x, comp.y, comp.polarity])
