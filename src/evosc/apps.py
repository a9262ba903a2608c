"""End-to-end applications built from the toolkit stages.

estimate_motion   tracker -> spectral init -> per-axis EKF over one patch
estimate_scene_frequency   disjoint trials, each a spectral peak that a
                  golden-section search on the sinusoid fit's residual refines
relative_depth    amplitude ratio of two depth planes (ratio = Z2/Z1)
min_detectable_distance    the pixel-displacement formula solved for distance
run_pipeline      every stage in order, writing its artifacts and a manifest
*_stage           one function per pipeline stage, also behind the CLI subcommands

The applications take the tracker's tau_s and emit_period_s; the rest are the
pipeline's defaults. estimate_motion and the ekf stage share _filter_axes, which
starts at the first sample. estimate.json is written and read here alone.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import SensorGeometry, check_finite, check_non_negative, check_positive, from_section
from .ekf import (
    NoiseConfig,
    SinusoidState,
    amplitude_phase,
    filter_samples,
    write_trace_csv,
)
from .errors import ConfigError, InsufficientDataError, StageError, UnreliableEstimateError
from .freqest import (
    DEFAULT_BAND,
    DEFAULT_GRID_POINTS,
    InitResult,
    SinusoidInit,
    SpectrumPeak,
    check_band,
    fit_sinusoid,
    initialize,
)
from .io import write_events, write_json
from .sim import (
    DEFAULT_REFRACTORY_US,
    DEFAULT_STEP_US,
    DEFAULT_THRESHOLD,
    DepthPlane,
    Mount,
    MovingTarget,
    OscillatorConfig,
    SceneSpec,
    check_sim_params,
    read_pattern,
    simulate,
)
from .track import (
    DEFAULT_EMIT_PERIOD_S,
    DEFAULT_MIN_WEIGHT,
    DEFAULT_TAU_S,
    DEFAULT_WARMUP_TAUS,
    CentroidTracker,
    PatchSpec,
    check_tracker_params,
    delag_coefficients,
    lowpass_gain,
    track_events,
    write_samples_csv,
)
from .compensate import (
    compensate_stream,
    states_from_init,
    trace_phasors,
    write_compensated_csv,
)
from .metrics import stream_metrics, write_metrics_csv

CONVERGENCE_RMS_PX = 1.0
CONVERGENCE_SPAN = 100
# how far an estimate file's omega_rad_s and frequency_hz may stray from its
# axes' omega; estimate_stage writes one float, so its own files agree exactly
OMEGA_REL_TOL = 1e-9


@dataclass
class MotionEstimate:
    """Full single-patch motion estimate: shared omega, per-axis filter states."""

    omega: float
    init_result: InitResult
    state_u: SinusoidState
    state_v: SinusoidState
    trace_u: np.ndarray
    trace_v: np.ndarray
    samples: np.ndarray
    tracker_tau_s: float
    t_ref_us: int


def estimate_motion(
    events: np.ndarray,
    patch: PatchSpec,
    tau_s: float = DEFAULT_TAU_S,
    emit_period_s: float = DEFAULT_EMIT_PERIOD_S,
) -> MotionEstimate:
    """Track one patch, initialize from its spectrum, then filter every sample,
    each with the pipeline's defaults.

    The tracker drops its first DEFAULT_WARMUP_TAUS * tau_s of samples: its
    centroid starts at the patch centre, and samples emitted before it
    forgets that start would bias both the fit and the first filter updates.
    """
    samples = TrackerSection(tau_s=tau_s, emit_period_s=emit_period_s).tracker(patch).run(events)
    if samples.shape[0] < 8:
        raise InsufficientDataError(
            f"patch at ({patch.cx}, {patch.cy}) produced {samples.shape[0]} samples"
        )
    init_result = initialize(samples)
    (state_u, state_v), (trace_u, trace_v) = _filter_axes(samples, init_result, NoiseConfig())
    return MotionEstimate(
        omega=init_result.omega,
        init_result=init_result,
        state_u=state_u,
        state_v=state_v,
        trace_u=trace_u,
        trace_v=trace_v,
        samples=samples,
        tracker_tau_s=tau_s,
        t_ref_us=int(samples["t"][0]),
    )


# ---------------------------------------------------------------------------
# scene frequency


@dataclass
class FrequencyReport:
    estimate_hz: float
    per_trial_hz: list[float]
    three_sigma_hz: float
    truth_hz: float | None = None
    abs_error_hz: float | None = None
    aliased: bool = False


def estimate_scene_frequency(
    events: np.ndarray,
    patch: PatchSpec,
    trials: int = 10,
    tau_s: float = DEFAULT_TAU_S,
    emit_period_s: float = DEFAULT_EMIT_PERIOD_S,
    truth_hz: float | None = None,
) -> FrequencyReport:
    """Dominant motion frequency from disjoint independent trials.

    The stream's span is cut into `trials` equal segments; each runs a fresh
    tracker, spectral peak search, and a local least-squares refinement of
    the peak frequency against the raw samples. A truth_hz, when given, must
    be positive and finite; the report then has the mean absolute error.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if truth_hz is not None:
        check_positive(truth_hz=truth_hz)
    if events.shape[0] == 0:
        raise InsufficientDataError("empty event stream")
    tracking = TrackerSection(tau_s=tau_s, emit_period_s=emit_period_s)
    t0, t1 = int(events["t"][0]), int(events["t"][-1])
    if t1 <= t0:
        raise InsufficientDataError("event stream has zero time span")
    # one search bounds every trial (a search per trial recasts the stream)
    bounds = np.searchsorted(events["t"], np.linspace(t0, t1 + 1, trials + 1))
    per_trial = []
    nyquist_hz = 0.5 / emit_period_s
    aliased = False
    for i in range(trials):
        samples = tracking.tracker(patch).run(events[bounds[i]:bounds[i + 1]])
        if samples.shape[0] < 8:
            raise InsufficientDataError(f"trial {i} produced {samples.shape[0]} samples")
        omega = _refine_omega(samples, initialize(samples).omega)
        hz = omega / (2.0 * math.pi)
        if hz > nyquist_hz:
            aliased = True
        per_trial.append(hz)
    estimate = float(np.mean(per_trial))
    spread = float(3.0 * np.std(per_trial, ddof=1)) if trials > 1 else 0.0
    report = FrequencyReport(
        estimate_hz=estimate,
        per_trial_hz=per_trial,
        three_sigma_hz=spread,
        truth_hz=truth_hz,
        aliased=aliased,
    )
    if truth_hz is not None:
        report.abs_error_hz = float(np.mean(np.abs(np.asarray(per_trial) - truth_hz)))
    return report


def _refine_omega(samples, omega) -> float:
    """Polish the peak by minimizing the sinusoid-fit residual around it.

    Two error sources pull the raw spectral peak: grid quantization, and on
    short windows the negative-frequency lobe leaking into the positive one.
    The least-squares sinusoid fit models both lobes, so its residual is a
    smooth function of omega with an unbiased minimum. Search within half a
    Rayleigh width (pi / window span) or two grid steps of the default band,
    whichever is wider, so the leakage bias stays inside the bracket; the
    search is golden-section, to a bracket 1e-4 rad/s wide.
    """
    step = (DEFAULT_BAND[1] - DEFAULT_BAND[0]) / (DEFAULT_GRID_POINTS - 1)
    t = samples["t"]
    t_span_s = max(float(t[-1] - t[0]) * 1e-6, 1e-9)
    span = max(2.0 * step, math.pi / t_span_s)
    lo = max(DEFAULT_BAND[0], omega - span)
    hi = min(DEFAULT_BAND[1], omega + span)

    def cost(w: float) -> float:
        ru = fit_sinusoid(samples, "u", w).residual_rms
        rv = fit_sinusoid(samples, "v", w).residual_rms
        return ru * ru + rv * rv

    return _golden_section(cost, lo, hi, xatol=1e-4)


def _golden_section(cost, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of a cost unimodal on [lo, hi], by golden-section search
    (Kiefer 1953): each evaluation keeps the part of the bracket around the
    lower of its two inner points, which shrinks it by a factor 1/phi, until
    it is at most xatol wide. Returns the midpoint of that last bracket.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = cost(x1), cost(x2)
    while hi - lo > xatol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = cost(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = cost(x2)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# relative depth


@dataclass
class PlaneEstimate:
    amplitude_px: float
    converged_at_us: int
    omega: float


@dataclass
class DepthRatioReport:
    ratio: float
    amplitude_1_px: float
    amplitude_2_px: float
    truth_ratio: float | None = None
    planes: list[PlaneEstimate] = field(default_factory=list)


def _converged_amplitude(est: MotionEstimate) -> PlaneEstimate:
    """Time-averaged amplitude after the innovation RMS convergence gate.

    The gate: the RMS of the last CONVERGENCE_SPAN innovations falls below
    CONVERGENCE_RMS_PX on both axes. Amplitude is the quadrature sum of the
    per-axis means of hypot(a, b) from the gate onward, corrected for the
    tracker window's attenuation.
    """
    n = est.trace_u.shape[0]
    if n < CONVERGENCE_SPAN:
        raise UnreliableEstimateError(f"only {n} samples, need {CONVERGENCE_SPAN}")
    start = None
    for trace in (est.trace_u, est.trace_v):
        sq = np.cumsum(trace["innovation"] ** 2)
        window = sq[CONVERGENCE_SPAN - 1 :].copy()
        window[1:] -= sq[: n - CONVERGENCE_SPAN]
        rms = np.sqrt(window / CONVERGENCE_SPAN)
        idx = np.nonzero(rms < CONVERGENCE_RMS_PX)[0]
        if idx.size == 0:
            raise UnreliableEstimateError(
                f"innovation RMS never fell below {CONVERGENCE_RMS_PX} px"
            )
        here = int(idx[0]) + CONVERGENCE_SPAN - 1
        start = here if start is None else max(start, here)
    amp_u = float(np.mean(np.hypot(est.trace_u["a"][start:], est.trace_u["b"][start:])))
    amp_v = float(np.mean(np.hypot(est.trace_v["a"][start:], est.trace_v["b"][start:])))
    omega = float(np.mean(est.trace_v["omega"][start:]))
    return PlaneEstimate(
        amplitude_px=math.hypot(amp_u, amp_v) / lowpass_gain(omega, est.tracker_tau_s),
        converged_at_us=int(est.trace_u["t"][start]),
        omega=omega,
    )


def _plane_amplitude(events, patches, tau_s, emit_period_s):
    """Mean converged amplitude across one plane's trackers."""
    if isinstance(patches, PatchSpec):
        patches = [patches]
    if not patches:
        raise ConfigError("each plane needs at least one patch")
    estimates = [_converged_amplitude(estimate_motion(events, p, tau_s, emit_period_s))
                 for p in patches]
    return float(np.mean([e.amplitude_px for e in estimates])), estimates


def relative_depth(
    events: np.ndarray,
    patch_plane_1,
    patch_plane_2,
    truth_ratio: float | None = None,
    tau_s: float = DEFAULT_TAU_S,
    emit_period_s: float = DEFAULT_EMIT_PERIOD_S,
) -> DepthRatioReport:
    """Amplitude ratio of two planes; equals the inverse depth ratio Z2/Z1.

    Each plane takes a PatchSpec or a sequence of them; per-plane amplitude is
    the mean over that plane's trackers, each an estimate_motion with tau_s
    and emit_period_s. A truth_ratio, when given, must be positive and finite.
    """
    if truth_ratio is not None:
        check_positive(truth_ratio=truth_ratio)
    amp1, ests1 = _plane_amplitude(events, patch_plane_1, tau_s, emit_period_s)
    amp2, ests2 = _plane_amplitude(events, patch_plane_2, tau_s, emit_period_s)
    if amp2 <= 0:
        raise UnreliableEstimateError("plane 2 amplitude is zero")
    return DepthRatioReport(
        ratio=amp1 / amp2,
        amplitude_1_px=amp1,
        amplitude_2_px=amp2,
        truth_ratio=truth_ratio,
        planes=ests1 + ests2,
    )


# ---------------------------------------------------------------------------
# detectability


def min_detectable_distance(
    fov_rad: float,
    resolution_px: int,
    radius_m: float,
    pixel_threshold: float = 1.0,
) -> float:
    """Largest distance whose peak image displacement still reaches
    pixel_threshold.

    The mount tilts the optical axis by pi/2 - atan(d/r), which shifts the
    image by tan(pi/2 - atan(d/r)) * F = (r/d) * F px, F = (res/2) / tan(fov/2);
    so the distance is r * F / pixel_threshold.
    """
    if not (0 < fov_rad < math.pi):
        raise ConfigError(f"fov must be in (0, pi), got {fov_rad}")
    check_positive(resolution_px=resolution_px, radius_m=radius_m,
                   pixel_threshold=pixel_threshold)
    return radius_m * (resolution_px / 2.0) / math.tan(fov_rad / 2.0) / pixel_threshold


# ---------------------------------------------------------------------------
# pipeline config: one frozen dataclass per block, read by core.from_section;
# field names are the block's keys, and a field without a default is required


@dataclass(frozen=True)
class OscillationSection:
    """`scene.oscillation`: plane 0's image motion, amp * cos(omega t + phi) per axis."""

    amp_x_px: float = 3.0
    amp_y_px: float = 3.0
    omega_rad_s: float = 100.0 * math.pi
    phi_x: float = 0.0
    phi_y: float = -math.pi / 2.0

    def __post_init__(self):
        self.oscillator()  # OscillatorConfig holds the amplitude, omega and phase rules

    def oscillator(self) -> OscillatorConfig:
        return OscillatorConfig(self.amp_x_px, self.amp_y_px, self.omega_rad_s,
                                self.phi_x, self.phi_y)


@dataclass(frozen=True)
class SceneSection:
    """`scene`: moved by one of oscillation (the default), physical (a
    sim.Mount, seen at plane 0's depth) and moving_target (a
    sim.MovingTarget). pattern and depth_planes left unset take SceneSpec's
    defaults; a moving target's pattern defaults to a centred triangle."""

    pattern: object | None = field(default=None, metadata={"read": read_pattern})
    depth_planes: tuple[DepthPlane, ...] | None = None
    contrast: float = SceneSpec.contrast
    duration_s: float = 1.0
    threshold: float = DEFAULT_THRESHOLD
    noise_rate_hz: float = 0.0
    step_us: int = DEFAULT_STEP_US
    refractory_us: int = DEFAULT_REFRACTORY_US
    oscillation: OscillationSection | None = None
    physical: Mount | None = None
    moving_target: MovingTarget | None = None

    def __post_init__(self):
        check_sim_params(self.duration_s, self.threshold, self.step_us,
                         self.noise_rate_hz, self.refractory_us)
        self.spec()  # SceneSpec holds the contrast and depth-plane rules
        if sum(m is not None for m in (self.oscillation, self.physical, self.moving_target)) > 1:
            raise ConfigError("give one of oscillation, physical and moving_target")
        if self.moving_target is not None and self.depth_planes is not None:
            raise ConfigError("a moving_target scene has one plane; it takes no depth_planes")

    def spec(self) -> SceneSpec:
        """The scene's SceneSpec."""
        given = {k: getattr(self, k) for k in ("pattern", "depth_planes")
                 if getattr(self, k) is not None}
        return SceneSpec(contrast=self.contrast, **given)


@dataclass(frozen=True)
class TrackerSection:
    """`tracker`: one tracker per patch (default: the frame's centre quarter)."""

    patches: tuple[PatchSpec, ...] = ()
    tau_s: float = DEFAULT_TAU_S
    emit_period_s: float = DEFAULT_EMIT_PERIOD_S
    min_weight: float = DEFAULT_MIN_WEIGHT
    warmup_s: float | None = None

    def __post_init__(self):
        check_tracker_params(self.tau_s, self.emit_period_s, self.min_weight,
                             0.0 if self.warmup_s is None else self.warmup_s)
        if self.warmup_s is None:  # the warm-up tracker() uses
            check_finite(**{f"the default warm-up {DEFAULT_WARMUP_TAUS:g} * tau_s":
                            DEFAULT_WARMUP_TAUS * self.tau_s})

    def tracker(self, patch: PatchSpec, tracker_id: int = 0) -> CentroidTracker:
        """A tracker on patch; warmup_s defaults to DEFAULT_WARMUP_TAUS * tau_s."""
        warmup_s = DEFAULT_WARMUP_TAUS * self.tau_s if self.warmup_s is None else self.warmup_s
        return CentroidTracker(patch, tau_s=self.tau_s, emit_period_s=self.emit_period_s,
                               min_weight=self.min_weight, tracker_id=tracker_id,
                               warmup_s=warmup_s)


@dataclass(frozen=True)
class EstimateSection:
    band_rad_s: tuple[float, float] = DEFAULT_BAND
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        check_band(self.band_rad_s, self.grid_points)


@dataclass(frozen=True)
class EkfSection:
    sigma_r_px: float = NoiseConfig.sigma_r

    def __post_init__(self):
        NoiseConfig(sigma_r=self.sigma_r_px)  # NoiseConfig holds the sigma_r range rule


@dataclass(frozen=True)
class MetricsSection:
    window_ms: float = 10.0
    blur_sigma: float = 1.5
    edges: bool = True

    def __post_init__(self):
        check_finite(window_ms=self.window_ms)
        if self.window_ms < 0.001:
            raise ConfigError(f"window_ms must be finite and at least 0.001 (1 us), "
                              f"got {self.window_ms}")
        check_non_negative(blur_sigma=self.blur_sigma)

    @property
    def window_us(self) -> int:
        """The window length rounded to the nearest microsecond, as
        metrics_stage windows."""
        return round(self.window_ms * 1000)


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline config file; run_pipeline's seed argument overrides `seed`."""

    seed: int = 0
    geometry: SensorGeometry = SensorGeometry(width=96, height=96)
    scene: SceneSection = SceneSection()
    tracker: TrackerSection = TrackerSection()
    estimate: EstimateSection = EstimateSection()
    ekf: EkfSection = EkfSection()
    metrics: MetricsSection = MetricsSection()


def build_scene(section: SceneSection, geometry: SensorGeometry
                ) -> tuple[SceneSpec, OscillatorConfig, dict]:
    """(scene, oscillation, sim kwargs) of a scene section on the run's sensor,
    simulate's arguments."""
    sim_kwargs = {k: getattr(section, k) for k in
                  ("duration_s", "threshold", "noise_rate_hz", "step_us", "refractory_us")}
    if (target := section.moving_target) is not None:
        return (*target.preset(geometry, section.pattern, section.contrast), sim_kwargs)
    scene = section.spec()
    if (mount := section.physical) is not None:
        return scene, mount.oscillator(geometry, scene.depth_planes[0].depth_m), sim_kwargs
    return scene, (section.oscillation or OscillationSection()).oscillator(), sim_kwargs


# the manifest's map of every artifact a run writes, by name
ARTIFACTS = {
    "events": "events.evt", "truth": "truth.json", "samples": "samples.csv",
    "estimate": "estimate.json",
    "ekf_trace_u": "ekf_trace_u.csv", "ekf_trace_v": "ekf_trace_v.csv",
    "compensated": "compensated.evt", "compensated_csv": "compensated.csv",
    "metrics_raw": "metrics_raw.csv", "metrics_compensated": "metrics_compensated.csv",
    "report": "report.json",
}


def run_pipeline(config: dict, out_dir: str | Path, seed: int | None = None) -> dict:
    """Run every stage in order, writing artifacts and a manifest to out_dir.

    simulate, track, estimate, ekf, compensate, metrics and report each take
    the results of the stages before them. A KeyError, OSError or ValueError
    inside a stage is raised as a StageError naming it. Every run with the
    same config and seed produces byte-identical event and CSV artifacts.
    The config is read as a PipelineConfig before out_dir is made: an unknown
    or missing key, or a value out of range, in any block is a ConfigError.
    """
    config = from_section(PipelineConfig, config)
    seed = config.seed if seed is None else int(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict = {}

    @contextmanager
    def stage(name: str):
        started = time.perf_counter()
        try:
            yield
        except (KeyError, OSError, ValueError) as exc:
            raise StageError(name, str(exc)) from exc
        timings[name] = time.perf_counter() - started

    geometry, tau_s = config.geometry, config.tracker.tau_s
    with stage("simulate"):
        events = simulate_stage(config.scene, geometry, seed, out).events
    with stage("track"):
        samples = primary_samples(
            track_stage(config.tracker, events, geometry, out / "samples.csv"))
    with stage("estimate"):
        init_result = estimate_stage(config.estimate, samples, tau_s, out / "estimate.json")
    with stage("ekf"):
        states, traces = ekf_stage(samples, init_result,
                                   NoiseConfig(sigma_r=config.ekf.sigma_r_px), out)
    with stage("compensate"):
        compensated = compensate_stage(events, init_result, traces, geometry, samples, tau_s,
                                       out)
    with stage("metrics"):
        rows_raw = metrics_stage(config.metrics, events, geometry, out / "metrics_raw.csv")
        rows_comp = metrics_stage(config.metrics, compensated, geometry,
                                  out / "metrics_compensated.csv")
    with stage("report"):
        report_stage(seed, init_result, states, tau_s, rows_raw, rows_comp,
                     out / "report.json")

    manifest = {"version": __version__, "seed": seed, "stages": list(timings),
                "artifacts": dict(ARTIFACTS), "timings_s": timings}
    write_json(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# one function per stage, shared by run_pipeline and the CLI subcommands.
# Each takes its config section and inputs, writes its artifacts and returns
# its result.


def simulate_stage(section: SceneSection, geometry: SensorGeometry, seed: int, out_dir: Path):
    """Simulate the scene section; writes events.evt and truth.json to out_dir."""
    scene, osc, sim_kwargs = build_scene(section, geometry)
    sim_out = simulate(scene, osc, geometry, seed=seed, **sim_kwargs)
    write_events(out_dir / "events.evt", sim_out.events, geometry)
    write_json(out_dir / "truth.json", {
        "seed": seed,
        "geometry": geometry.to_dict(),
        "planes": [t.to_dict() for t in sim_out.truth],
        "num_events": int(sim_out.events.shape[0]),
    })
    return sim_out


def track_stage(section: TrackerSection, events: np.ndarray, geometry: SensorGeometry, dest):
    """One tracker per configured patch (default: the centre quarter of the
    frame); writes the samples CSV, with the tracker's tau, to dest and
    returns the samples."""
    patches = section.patches or (PatchSpec(cx=(geometry.width - 1) / 2.0,
                                            cy=(geometry.height - 1) / 2.0,
                                            half_size=min(geometry.width, geometry.height) // 4),)
    samples = track_events(events, [section.tracker(p, i) for i, p in enumerate(patches)])
    write_samples_csv(dest, samples, section.tau_s)
    return samples


def primary_samples(samples: np.ndarray) -> np.ndarray:
    """The samples of the lowest tracker id present (the first configured
    tracker that emitted), which the estimate, ekf and compensate stages fit."""
    if samples.shape[0] == 0:
        return samples
    return samples[samples["id"] == samples["id"].min()]


def estimate_stage(section: EstimateSection, samples: np.ndarray, tracker_tau_s: float, dest):
    """Spectral init over one tracker's samples; writes the estimate JSON, with
    the first sample's time as t_ref_us, to dest (a path or a text stream) and
    returns the init."""
    init_result = initialize(samples, band=section.band_rad_s, grid_points=section.grid_points)
    u, v = (EstimateAxis(**asdict(init), peaks=tuple(peaks)) for init, peaks in (
        (init_result.init_u, init_result.peaks_u), (init_result.init_v, init_result.peaks_v)))
    write_json(dest, asdict(EstimateFile(
        u, v, omega_rad_s=init_result.omega, frequency_hz=init_result.omega / (2.0 * math.pi),
        t_ref_us=int(samples["t"][0]), tracker_tau_s=tracker_tau_s)))
    return init_result


def ekf_stage(samples, init_result: InitResult, noise: NoiseConfig, out_dir: Path):
    """_filter_axes; writes ekf_trace_{u,v}.csv and returns its (states, traces)."""
    states, traces = _filter_axes(samples, init_result, noise)
    for axis, trace in zip("uv", traces):
        write_trace_csv(out_dir / f"ekf_trace_{axis}.csv", trace)
    return states, traces


def _filter_axes(samples, init_result: InitResult, noise: NoiseConfig):
    """Filter each axis from its init at the first sample's time through every
    sample; returns the final (state_u, state_v) and the (trace_u, trace_v)
    they came through. estimate_motion and the ekf stage both filter through it."""
    starts = states_from_init(init_result.init_u, init_result.init_v, int(samples["t"][0]))
    (state_u, trace_u), (state_v, trace_v) = (
        filter_samples(samples, start, noise, axis=axis) for axis, start in zip("uv", starts))
    return (state_u, state_v), (trace_u, trace_v)


def compensate_stage(events, init_result: InitResult, traces, geometry, samples,
                     tracker_tau_s: float, out_dir: Path) -> np.ndarray:
    """Tracking-mode compensation with the tracker lag divided out: every
    event is mapped with the filter's freshest estimate at its time, read from
    the ekf stage's (trace_u, trace_v) of the same samples and init. Writes
    compensated.evt and compensated.csv to out_dir and returns the records
    of compensated.evt."""
    states = states_from_init(init_result.init_u, init_result.init_v, int(samples["t"][0]))
    comp = compensate_stream(events, *states, geometry, mode="tracking", samples=samples,
                             phasors=trace_phasors(*states, *traces, tracker_tau_s))
    # the stage's peak is compensate_stream's per-block work, not either writer
    write_compensated_csv(out_dir / "compensated.csv", comp)
    records = comp.to_events()
    write_events(out_dir / "compensated.evt", records, geometry)
    return records


def metrics_stage(section: MetricsSection, events, geometry, dest):
    """Per-window metrics over the stream's span ([0, 1) when it is empty);
    writes the CSV to dest. A compensated stream keeps its input's times, so
    its windows are the input's."""
    t0, t1 = (int(events["t"][0]), int(events["t"][-1]) + 1) if events.shape[0] else (0, 1)
    rows = stream_metrics(events, geometry, t0, t1, section.window_us,
                          section.blur_sigma, section.edges)
    write_metrics_csv(dest, rows)
    return rows


def report_stage(seed: int, init_result: InitResult, states, tracker_tau_s: float,
                 rows_raw, rows_comp, dest) -> dict:
    """Frequency, de-lagged amplitude and phase of the ekf stage's final
    (state_u, state_v), and the median frame metrics of the raw and
    compensated rows; writes the report JSON to dest."""
    report: dict = {"seed": seed, "omega_rad_s": init_result.omega,
                    "frequency_hz": init_result.omega / (2.0 * math.pi)}
    for key, st in zip(("state_u", "state_v"), states):
        a, b = delag_coefficients(st.a, st.b, st.omega, tracker_tau_s)
        amp, phase = amplitude_phase(replace(st, a=a, b=b))
        report[key] = {"amplitude_px": amp, "phase_rad": phase,
                       "omega_rad_s": st.omega, "offset_px": st.c}
    for label, rows in (("raw", rows_raw), ("compensated", rows_comp)):
        report[f"median_variance_{label}"] = float(np.median([r.variance for r in rows]))
        report[f"median_entropy_{label}"] = float(np.median([r.entropy for r in rows]))
    raw = report["median_variance_raw"]
    if raw > 0:
        report["variance_gain"] = report["median_variance_compensated"] / raw
    write_json(dest, report)
    return report


@dataclass(frozen=True)
class EstimateAxis(SinusoidInit):
    """One axis of an estimate file: the fit (residual_rms may be left out)
    and the spectrum peaks it started from."""

    residual_rms: float = 0.0
    peaks: tuple[SpectrumPeak, ...] = ()


@dataclass(frozen=True)
class EstimateFile:
    """estimate.json, written by estimate_stage with asdict and read by
    read_estimate with core.from_section. omega_rad_s and frequency_hz, when
    given, restate each axis's omega (in rad/s and Hz) and must agree with it
    to a relative OMEGA_REL_TOL: compensation reads the axes alone."""

    u: EstimateAxis
    v: EstimateAxis
    omega_rad_s: float | None = None
    frequency_hz: float | None = None
    t_ref_us: int = 0
    tracker_tau_s: float | None = None

    def __post_init__(self):
        if self.tracker_tau_s is not None:
            check_non_negative(tracker_tau_s=self.tracker_tau_s)
        for key, per_rad_s in (("omega_rad_s", 1.0), ("frequency_hz", 2.0 * math.pi)):
            value = getattr(self, key)
            for name, axis in (("u", self.u), ("v", self.v)):
                stated = axis.omega / per_rad_s
                if value is not None and not math.isclose(value, stated, rel_tol=OMEGA_REL_TOL):
                    raise ConfigError(f"{key} is {value}, but {name}.omega gives {stated} "
                                      f"(relative tolerance {OMEGA_REL_TOL:g})")


def read_estimate(path) -> tuple[SinusoidState, SinusoidState, float | None]:
    """(state_u, state_v, tracker_tau_s) of an estimate file, read strictly as
    an EstimateFile: an unknown or missing key, or a value of the wrong type
    or out of range, is a ConfigError naming it."""
    est = from_section(EstimateFile, json.loads(Path(path).read_text()))
    return (*states_from_init(est.u, est.v, est.t_ref_us), est.tracker_tau_s)
