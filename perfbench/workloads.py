"""The benchmark's four seeded workloads.

Each workload builds its inputs from a seed (`inputs`), runs one timed job on
them (`job`), and checks the job's output outside the timed region (`check`).
`check` returns one message per failed operation plus the figures the job
produced (frequency error, variance gain, replay latencies, ...).

Sizes: "full" is what the benchmark measures; "small" is a scaled-down
version of the same job, used to warm up before timing and by the smoke tests.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evosc import apps, compensate, ekf, io as evio, metrics, sim, track
from evosc.core import EVENT_DTYPE, SensorGeometry
from evosc.freqest import SinusoidInit

OMEGA = 100.0 * math.pi
TRUTH_HZ = OMEGA / (2.0 * math.pi)
TAU_S = 0.005
CHUNK_US = 1000
WINDOW_US = 10_000
# compensated coordinates must match their reference to this many pixels
COORD_TOL_PX = 1e-6


def orbit_phase(seed: int) -> float:
    """The seed's one free scene parameter: the x phase of a circular orbit."""
    return float(np.random.default_rng(seed).uniform(-math.pi, math.pi))


def circular_orbit(amp_px: float, seed: int) -> sim.OscillatorConfig:
    phi = orbit_phase(seed)
    return sim.OscillatorConfig(amp_x_px=amp_px, amp_y_px=amp_px, omega=OMEGA,
                                phi_x=phi, phi_y=phi - math.pi / 2.0)


def evt_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return struct.unpack(evio.HEADER_FMT, fh.read(evio.HEADER_SIZE))[4]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).view(np.uint8))
    return h.hexdigest()


def offset_formula_error(events, x, y, osc, block: int = 1_000_000) -> float:
    """Largest distance of compensated (x, y) from (x, y) - camera_offset(t).

    Blockwise, so the check stays small next to the job it checks.
    """
    err = 0.0
    for lo in range(0, events.shape[0], block):
        ev = events[lo:lo + block]
        du, dv = sim.camera_offset(ev["t"] * 1e-6, osc)
        err = max(err, np.max(np.abs(x[lo:lo + block] - (ev["x"] - du))),
                  np.max(np.abs(y[lo:lo + block] - (ev["y"] - dv))))
    return err


def median_variance(rows) -> float:
    return float(np.median([r.variance for r in rows]))


@dataclass
class Inputs:
    seed: int
    workdir: Path
    data: dict = field(default_factory=dict)


class DemoPipeline:
    """run_pipeline on the demo disk scene, artifacts written to disk."""

    name = "demo_pipeline"
    default_seed = 0
    ops_per_rep = 1
    min_reps = 2  # the determinism check compares reps with each other
    sizes = {"full": (64, 1.0, 14), "small": (32, 0.2, 8)}

    def inputs(self, seed, size, workdir) -> Inputs:
        side, duration, half = self.sizes[size]
        osc = circular_orbit(3.0, seed)
        config = {
            "geometry": {"width": side, "height": side},
            "scene": {
                "pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": side / 2.0},
                "contrast": 2.0,
                "duration_s": duration,
                "oscillation": {"amp_x_px": osc.amp_x_px, "amp_y_px": osc.amp_y_px,
                                "omega_rad_s": osc.omega,
                                "phi_x": osc.phi_x, "phi_y": osc.phi_y},
            },
            "tracker": {"patches": [{"cx": side / 2.0, "cy": side / 2.0, "half_size": half}],
                        "tau_s": TAU_S},
            "metrics": {"window_ms": WINDOW_US / 1000, "edges": True},
        }
        return Inputs(seed, workdir, {"config": config})

    def job(self, inp: Inputs, rep_dir: Path):
        apps.run_pipeline(inp.data["config"], rep_dir, seed=inp.seed)
        return rep_dir

    def check(self, inp: Inputs, rep_dir: Path, memo: dict):
        report = json.loads((rep_dir / "report.json").read_text())
        freq_err = abs(report["frequency_hz"] - TRUTH_HZ)
        gain = report["variance_gain"]
        n_raw = evt_count(rep_dir / "events.evt")
        n_comp = evt_count(rep_dir / "compensated.evt")
        digests = {name: hashlib.sha256((rep_dir / name).read_bytes()).hexdigest()
                   for name in ("events.evt", "compensated.evt")}
        first = memo.setdefault("digests", digests)
        shutil.rmtree(rep_dir)
        problems = []
        if freq_err > 0.15:
            problems.append(f"frequency error {freq_err:.4f} Hz > 0.15 Hz")
        if not gain > 1.0:
            problems.append(f"variance gain {gain:.4f} <= 1")
        if n_comp != n_raw:
            problems.append(f"{n_comp} compensated events for {n_raw} raw")
        if digests != first:
            problems.append("artifacts differ from the first rep's")
        failed = ["; ".join(problems)] if problems else []
        return failed, {"freq_err_hz": freq_err, "variance_gain": gain}


class DepthTwoPlane:
    """Two depth planes (Z2/Z1 = 0.5), simulated, then relative_depth."""

    name = "depth_two_plane"
    default_seed = 11
    ops_per_rep = 1
    min_reps = 1
    truth_ratio = 0.5
    sizes = {"full": (96, 0.5), "small": (48, 0.2)}

    def inputs(self, seed, size, workdir) -> Inputs:
        side, duration = self.sizes[size]
        s = side / 96.0
        half = int(round(14 * s))
        near, far = 24.0 * s, 72.0 * s
        scene = sim.SceneSpec(
            pattern=sim.Disks(radius_px=6.0 * s, pitch_px=48.0 * s, offset_px=24.0 * s),
            contrast=2.0,
            depth_planes=(
                sim.DepthPlane(depth_m=1.0, region=(0, 0, side // 2, side)),
                sim.DepthPlane(depth_m=self.truth_ratio, region=(side // 2, 0, side, side)),
            ),
        )
        data = {
            "scene": scene,
            "osc": circular_orbit(1.2, seed),
            "geometry": SensorGeometry(width=side, height=side),
            "duration_s": duration,
            "plane_1": [track.PatchSpec(cx=near, cy=near, half_size=half),
                        track.PatchSpec(cx=near, cy=far, half_size=half)],
            "plane_2": [track.PatchSpec(cx=far, cy=near, half_size=half),
                        track.PatchSpec(cx=far, cy=far, half_size=half)],
        }
        return Inputs(seed, workdir, data)

    def job(self, inp: Inputs, rep_dir: Path):
        d = inp.data
        out = sim.simulate(d["scene"], d["osc"], d["geometry"], duration_s=d["duration_s"],
                           seed=inp.seed)
        return apps.relative_depth(out.events, d["plane_1"], d["plane_2"],
                                   truth_ratio=self.truth_ratio)

    def check(self, inp: Inputs, report, memo: dict):
        err = abs(report.ratio - self.truth_ratio) / self.truth_ratio
        hz = float(np.mean([p.omega for p in report.planes])) / (2.0 * math.pi)
        failed = [f"depth ratio {report.ratio:.4f} is {err:.1%} off {self.truth_ratio}"] \
            if err > 0.10 else []
        return failed, {"depth_ratio_err": err, "freq_err_hz": abs(hz - TRUTH_HZ)}


class CheckerFixed:
    """Dense checkerboard, fixed-state compensation, metrics without edges."""

    name = "checker_fixed"
    default_seed = 5
    ops_per_rep = 1
    min_reps = 1
    noise_rate_hz = 5.0
    sizes = {"full": (64, 1.0), "small": (32, 0.2)}

    def inputs(self, seed, size, workdir) -> Inputs:
        side, duration = self.sizes[size]
        data = {
            "scene": sim.SceneSpec(pattern=sim.Checkerboard(), contrast=2.0),
            "osc": circular_orbit(3.0, seed),
            "geometry": SensorGeometry(width=side, height=side),
            "duration_s": duration,
        }
        return Inputs(seed, workdir, data)

    def job(self, inp: Inputs, rep_dir: Path):
        d = inp.data
        geom, t_end = d["geometry"], int(round(d["duration_s"] * 1e6))
        vib = sim.simulate(d["scene"], d["osc"], geom, duration_s=d["duration_s"],
                           noise_rate_hz=self.noise_rate_hz, seed=inp.seed)
        state_u, state_v = compensate.states_from_config(d["osc"], 0)
        comp = compensate.compensate_stream(vib.events, state_u, state_v, geom)
        kept = comp.to_events(drop_out_of_bounds=True)
        raw_rows = metrics.stream_metrics(vib.events, geom, 0, t_end, WINDOW_US,
                                          with_edges=False)
        comp_rows = metrics.stream_metrics(kept, geom, 0, t_end, WINDOW_US,
                                           with_edges=False)
        return vib.events, comp, raw_rows, comp_rows

    def check(self, inp: Inputs, out, memo: dict):
        events, comp, raw_rows, comp_rows = out
        gain = median_variance(comp_rows) / median_variance(raw_rows)
        err = offset_formula_error(events, comp.x, comp.y, inp.data["osc"])
        problems = []
        if gain < 1.3:
            problems.append(f"variance gain {gain:.4f} < 1.3")
        if err > COORD_TOL_PX:
            problems.append(f"compensated coordinates {err:.3g} px off x - camera_offset(t)")
        failed = ["; ".join(problems)] if problems else []
        return failed, {"variance_gain": gain}


def tracking_reference(events, samples, state_u, state_v, noise, lag_tau_s,
                       block: int = 1_000_000):
    """Compensated (x, y) that tracking mode defines, built without it.

    One filter_samples pass per axis gives the state after every sample.
    Tracking mode maps the events with t <= sample t (searchsorted side="right"
    from the sample's side) before it applies that sample, so each event uses
    the state after the last sample strictly before it, or the initial state
    when there is none; offsets are the de-lagged phasors of those states.
    """
    axes = []
    for state, axis in ((state_u, "u"), (state_v, "v")):
        _, trace = ekf.filter_samples(samples, copy.deepcopy(state), noise, axis=axis)

        def col(key, first):
            return np.concatenate([[first], trace[key].astype(np.float64)])

        theta, omega = col("theta", state.theta), col("omega", state.omega)
        a, b, t0 = col("a", state.a), col("b", state.b), col("t", float(state.t_us))
        if lag_tau_s:
            a, b = track.delag_coefficients(a, b, omega, lag_tau_s)
        amp = np.hypot(a, b)
        psi = np.where(amp > 0, np.arctan2(a, b), 0.0)
        axes.append((amp, theta - psi, omega, t0))
    out_x = np.empty(events.shape[0])
    out_y = np.empty(events.shape[0])
    for lo in range(0, events.shape[0], block):
        ev = events[lo:lo + block]
        k = np.searchsorted(samples["t"], ev["t"], side="left")
        t = ev["t"].astype(np.float64)
        for (amp, phase0, omega, t0), coord, dest in zip(axes, ("x", "y"), (out_x, out_y)):
            off = amp[k] * np.cos(phase0[k] + omega[k] * 1e-6 * (t - t0[k]))
            dest[lo:lo + block] = ev[coord] - off
    return out_x, out_y


def synthetic_samples(rng, chunks: int, geometry: SensorGeometry, osc, sigma_px: float):
    """One centroid sample per 1 ms chunk at a random time inside it.

    Each axis is the commanded sinusoid seen through the tracker's first-order
    lag (gain and phase of tau = TAU_S), about the sensor centre, plus noise.
    """
    t = np.arange(chunks, dtype=np.uint64) * CHUNK_US + rng.integers(
        0, CHUNK_US, chunks, dtype=np.uint64)
    gain = track.lowpass_gain(osc.omega, TAU_S)
    lag = math.atan(osc.omega * TAU_S)
    ts = t * 1e-6
    samples = np.empty(chunks, dtype=track.SAMPLE_DTYPE)
    samples["id"] = 0
    samples["t"] = t
    samples["u"] = geometry.cx + gain * osc.amp_x_px * np.cos(osc.omega * ts + osc.phi_x - lag) \
        + rng.normal(0.0, sigma_px, chunks)
    samples["v"] = geometry.cy + gain * osc.amp_y_px * np.cos(osc.omega * ts + osc.phi_y - lag) \
        + rng.normal(0.0, sigma_px, chunks)
    fits = []
    for amp, phi, c in ((osc.amp_x_px, osc.phi_x, geometry.cx),
                        (osc.amp_y_px, osc.phi_y, geometry.cy)):
        # g*A*cos(w t + phi - lag) = a*sin(w t) + b*cos(w t)
        fits.append(SinusoidInit(omega=osc.omega, a=-gain * amp * math.sin(phi - lag),
                                 b=gain * amp * math.cos(phi - lag), c=c, residual_rms=0.0))
    return samples, fits


@dataclass
class StreamOutput:
    read_back: np.ndarray
    batch: compensate.CompensatedEvents
    batch_s: float
    replay_s: float
    chunk_ns: np.ndarray


class Stream10M:
    """1e7 uniform events: the .evt file path in batch, then an online replay."""

    name = "stream_10m"
    default_seed = 1
    ops_per_rep = 2  # batch file compensation, chunked replay
    min_reps = 1
    sizes = {"full": (10_000_000, 1000), "small": (100_000, 50)}
    geometry = SensorGeometry(width=1280, height=720)

    def inputs(self, seed, size, workdir) -> Inputs:
        n, chunks = self.sizes[size]
        rng = np.random.default_rng(seed)
        g = self.geometry
        events = np.empty(n, dtype=EVENT_DTYPE)
        t = rng.integers(0, chunks * CHUNK_US, n, dtype=np.uint64)
        t.sort()
        events["t"] = t
        del t
        events["x"] = rng.integers(0, g.width, n, dtype=np.uint16)
        events["y"] = rng.integers(0, g.height, n, dtype=np.uint16)
        events["p"] = rng.integers(0, 2, n, dtype=np.int8) * 2 - 1
        osc = sim.OscillatorConfig(amp_x_px=3.0, amp_y_px=2.0, omega=OMEGA,
                                   phi_x=rng.uniform(-math.pi, math.pi),
                                   phi_y=rng.uniform(-math.pi, math.pi))
        samples, fits = synthetic_samples(rng, chunks, g, osc, sigma_px=0.05)
        workdir.mkdir(parents=True, exist_ok=True)
        in_path = workdir / "stream_in.evt"
        evio.write_events(in_path, events, g)
        edges = np.arange(chunks + 1, dtype=np.uint64) * CHUNK_US
        data = {
            "events": events,
            "events_digest": digest(events),
            "osc": osc,
            "in_path": in_path,
            "out_path": workdir / "stream_out.evt",
            "fixed": compensate.states_from_config(osc, 0),
            "init": [ekf.init(fit, 0) for fit in fits],
            "samples": samples,
            "noise": ekf.NoiseConfig(),
            "event_bounds": np.searchsorted(events["t"], edges).tolist(),
            "sample_bounds": np.searchsorted(samples["t"], edges).tolist(),
            "replay_x": np.empty(n),
            "replay_y": np.empty(n),
        }
        return Inputs(seed, workdir, data)

    def job(self, inp: Inputs, rep_dir: Path):
        d = inp.data
        started = time.perf_counter()
        read_back, geometry = evio.read_events(d["in_path"])
        state_u, state_v = d["fixed"]
        batch = compensate.compensate_stream(read_back, state_u, state_v, geometry)
        evio.write_events(d["out_path"], batch.to_events(), geometry)
        batch_s = time.perf_counter() - started

        started = time.perf_counter()
        events, samples, noise = d["events"], d["samples"], d["noise"]
        eb, sb = d["event_bounds"], d["sample_bounds"]
        out_x, out_y = d["replay_x"], d["replay_y"]
        # tracking mode advances the states it is given, carrying them to the next chunk
        state_u, state_v = copy.deepcopy(d["init"])
        chunk_ns = np.empty(len(eb) - 1, dtype=np.int64)
        for i in range(len(eb) - 1):
            lo, hi = eb[i], eb[i + 1]
            t0 = time.perf_counter_ns()
            comp = compensate.compensate_stream(
                events[lo:hi], state_u, state_v, self.geometry, mode="tracking",
                samples=samples[sb[i]:sb[i + 1]], noise=noise, lag_tau_s=TAU_S,
            )
            chunk_ns[i] = time.perf_counter_ns() - t0
            out_x[lo:hi] = comp.x
            out_y[lo:hi] = comp.y
        replay_s = time.perf_counter() - started
        return StreamOutput(read_back, batch, batch_s, replay_s, chunk_ns)

    def check(self, inp: Inputs, out: StreamOutput, memo: dict):
        """Verify the first rep in full; later reps must match it bit for bit."""
        d = inp.data
        digests = {
            "read_back": digest(out.read_back),
            "written": hashlib.sha256(d["out_path"].read_bytes()).hexdigest(),
            "batch": digest(out.batch.x, out.batch.y),
            "replay": digest(d["replay_x"], d["replay_y"]),
        }
        verified = memo.get("digests")
        if verified is None:
            batch_problems, replay_problem = self.verify(inp, out, digests)
        else:
            batch_problems = [f"{key} differs from the verified rep's"
                              for key in ("read_back", "written", "batch")
                              if digests[key] != verified[key]]
            replay_problem = None if digests["replay"] == verified["replay"] \
                else "differs from the verified rep's"
        failed = []
        if batch_problems:
            failed.append("batch: " + "; ".join(batch_problems))
        if replay_problem:
            failed.append("replay: " + replay_problem)
        if verified is None and not failed:
            memo["digests"] = digests
        n = d["events"].shape[0]
        return failed, {
            "replay_mevps": n / out.replay_s * 1e-6,
            "batch_s": out.batch_s,
            "replay_s": out.replay_s,
            "chunk_ns": out.chunk_ns,
        }

    def verify(self, inp: Inputs, out: StreamOutput, digests: dict):
        """Full check against the inputs and independent references."""
        d = inp.data
        events, batch, osc = d["events"], out.batch, d["osc"]
        batch_problems = []
        if digests["read_back"] != d["events_digest"]:
            batch_problems.append("read_events differs from the events written")
        written, _ = evio.read_events(d["out_path"])
        if not (np.array_equal(written["t"], batch.t) and np.array_equal(written["x"], batch.xi)
                and np.array_equal(written["y"], batch.yi)
                and np.array_equal(written["p"], batch.polarity)):
            batch_problems.append("written .evt differs from the compensated events")
        del written
        err = offset_formula_error(events, batch.x, batch.y, osc)
        if err > COORD_TOL_PX:
            batch_problems.append(f"fixed-state output {err:.3g} px off the offset formula")

        ref_x, ref_y = tracking_reference(events, d["samples"], *d["init"], d["noise"], TAU_S)
        replay_err = max(np.max(np.abs(ref_x - d["replay_x"]), initial=0.0),
                         np.max(np.abs(ref_y - d["replay_y"]), initial=0.0))
        replay_problem = f"{replay_err:.3g} px off the one-pass reference" \
            if replay_err > COORD_TOL_PX else None
        return batch_problems, replay_problem


WORKLOADS = {w.name: w for w in (DemoPipeline(), DepthTwoPlane(), CheckerFixed(), Stream10M())}
