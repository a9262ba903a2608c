"""End-to-end applications built from the toolkit stages.

estimate_motion   tracker -> spectral init -> per-axis EKF over one patch
estimate_scene_frequency   independent disjoint trials of spectral estimation
relative_depth    amplitude ratio of two depth planes (ratio = Z2/Z1)
min_detectable_distance    bisection on the pixel-displacement formula
absolute_depth    stereo-style depth from a known physical motion baseline
run_pipeline      staged artifact-producing run with a manifest
*_stage           one function per pipeline stage, also behind the CLI subcommands
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import SensorGeometry
from .ekf import (
    NoiseConfig,
    SinusoidState,
    amplitude_phase,
    filter_samples,
    init as ekf_init,
    write_trace_csv,
)
from .errors import ConfigError, InsufficientDataError, StageError, UnreliableEstimateError
from .freqest import (
    DEFAULT_BAND,
    DEFAULT_GRID_POINTS,
    DEFAULT_NUM_PEAKS,
    InitResult,
    _axis_peaks,
    fit_sinusoid,
    fuse_axis_peaks,
    initialize,
)
from .io import write_events, write_json
from .sim import (
    PATTERNS,
    DepthPlane,
    MotorParams,
    OscillatorConfig,
    PhysicalOscillator,
    SceneSpec,
    WorldMotion,
    motor_speed,
    simulate,
    simulate_moving_target,
)
from .track import (
    DEFAULT_EMIT_PERIOD_S,
    DEFAULT_MIN_WEIGHT,
    DEFAULT_TAU_S,
    DEFAULT_WARMUP_TAUS,
    CentroidTracker,
    PatchSpec,
    delag_coefficients,
    lowpass_gain,
    track_events,
    write_samples_csv,
)
from .compensate import (
    compensate_stream,
    states_from_init,
    write_compensated_csv,
)
from .metrics import stream_metrics, write_metrics_csv

CONVERGENCE_RMS_PX = 1.0
CONVERGENCE_SPAN = 100

PIPELINE_STAGES = ("simulate", "track", "estimate", "ekf", "compensate", "metrics", "report")
DEFAULT_GEOMETRY = {"width": 96, "height": 96}


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
    min_weight: float = DEFAULT_MIN_WEIGHT,
    band: tuple[float, float] = DEFAULT_BAND,
    grid_points: int = DEFAULT_GRID_POINTS,
    noise: NoiseConfig | None = None,
    tracker_id: int = 0,
    warmup_s: float | None = None,
) -> MotionEstimate:
    """Track one patch, initialize from its spectrum, then filter every sample.

    warmup_s defaults to 3*tau_s: the tracker centroid starts at the patch
    centre, and samples emitted before it forgets that start would bias both
    the fit and the first filter updates.
    """
    noise = noise or NoiseConfig()
    if warmup_s is None:
        warmup_s = DEFAULT_WARMUP_TAUS * tau_s
    tracker = CentroidTracker(
        patch, tau_s=tau_s, emit_period_s=emit_period_s,
        min_weight=min_weight, tracker_id=tracker_id, warmup_s=warmup_s,
    )
    samples = tracker.run(events)
    if samples.shape[0] < 8:
        raise InsufficientDataError(
            f"patch at ({patch.cx}, {patch.cy}) produced {samples.shape[0]} samples"
        )
    init_result = initialize(samples, band=band, grid_points=grid_points)
    t_ref = int(samples["t"][0])
    state_u = ekf_init(init_result.init_u, t_ref)
    state_v = ekf_init(init_result.init_v, t_ref)
    state_u, trace_u = filter_samples(samples, state_u, noise, axis="u")
    state_v, trace_v = filter_samples(samples, state_v, noise, axis="v")
    return MotionEstimate(
        omega=init_result.omega,
        init_result=init_result,
        state_u=state_u,
        state_v=state_v,
        trace_u=trace_u,
        trace_v=trace_v,
        samples=samples,
        tracker_tau_s=tau_s,
        t_ref_us=t_ref,
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
    band: tuple[float, float] = DEFAULT_BAND,
    grid_points: int = DEFAULT_GRID_POINTS,
    tau_s: float = DEFAULT_TAU_S,
    emit_period_s: float = DEFAULT_EMIT_PERIOD_S,
    min_weight: float = DEFAULT_MIN_WEIGHT,
    truth_hz: float | None = None,
    warmup_s: float | None = None,
) -> FrequencyReport:
    """Dominant motion frequency from disjoint independent trials.

    The stream's span is cut into `trials` equal segments; each runs a fresh
    tracker, spectral peak search, and a local least-squares refinement of
    the peak frequency against the raw samples.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if events.shape[0] == 0:
        raise InsufficientDataError("empty event stream")
    if warmup_s is None:
        warmup_s = DEFAULT_WARMUP_TAUS * tau_s
    t0, t1 = int(events["t"][0]), int(events["t"][-1])
    if t1 <= t0:
        raise InsufficientDataError("event stream has zero time span")
    # one search bounds every trial (a search per trial recasts the stream)
    bounds = np.searchsorted(events["t"], np.linspace(t0, t1 + 1, trials + 1))
    per_trial = []
    nyquist_hz = 0.5 / emit_period_s
    aliased = False
    for i in range(trials):
        segment = events[bounds[i]:bounds[i + 1]]
        tracker = CentroidTracker(
            patch, tau_s=tau_s, emit_period_s=emit_period_s,
            min_weight=min_weight, warmup_s=warmup_s,
        )
        samples = tracker.run(segment)
        if samples.shape[0] < 8:
            raise InsufficientDataError(f"trial {i} produced {samples.shape[0]} samples")
        peaks_u = _axis_peaks(samples, "u", band, grid_points, DEFAULT_NUM_PEAKS, "gridded")
        peaks_v = _axis_peaks(samples, "v", band, grid_points, DEFAULT_NUM_PEAKS, "gridded")
        omega = _refine_omega(samples, fuse_axis_peaks(peaks_u, peaks_v), band, grid_points)
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


def _refine_omega(samples, omega, band, grid_points, span_bins: float = 2.0) -> float:
    """Polish the peak by minimizing the sinusoid-fit residual around it.

    Two error sources pull the raw spectral peak: grid quantization, and on
    short windows the negative-frequency lobe leaking into the positive one.
    The least-squares sinusoid fit models both lobes, so its residual is a
    smooth function of omega with an unbiased minimum. Search within half a
    Rayleigh width (pi / window span) or span_bins grid steps, whichever is
    wider, so the leakage bias stays inside the bracket.
    """
    from scipy.optimize import minimize_scalar

    step = (band[1] - band[0]) / (grid_points - 1)
    t = samples["t"]
    t_span_s = max(float(t[-1] - t[0]) * 1e-6, 1e-9)
    span = max(span_bins * step, math.pi / t_span_s)
    lo = max(band[0], omega - span)
    hi = min(band[1], omega + span)

    def cost(w: float) -> float:
        ru = fit_sinusoid(samples, "u", w).residual_rms
        rv = fit_sinusoid(samples, "v", w).residual_rms
        return ru * ru + rv * rv

    res = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-4})
    return float(res.x) if res.success else omega


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


def _plane_amplitude(events, patches, first_id, **estimate_kwargs):
    """Mean converged amplitude across one plane's trackers."""
    if isinstance(patches, PatchSpec):
        patches = [patches]
    if not patches:
        raise ConfigError("each plane needs at least one patch")
    estimates = [
        _converged_amplitude(
            estimate_motion(events, p, tracker_id=first_id + i, **estimate_kwargs)
        )
        for i, p in enumerate(patches)
    ]
    return float(np.mean([e.amplitude_px for e in estimates])), estimates


def relative_depth(
    events: np.ndarray,
    patch_plane_1,
    patch_plane_2,
    truth_ratio: float | None = None,
    **estimate_kwargs,
) -> DepthRatioReport:
    """Amplitude ratio of two planes; equals the inverse depth ratio Z2/Z1.

    Each plane takes a PatchSpec or a sequence of them; per-plane amplitude is
    the mean over that plane's trackers.
    """
    amp1, ests1 = _plane_amplitude(events, patch_plane_1, 1, **estimate_kwargs)
    amp2, ests2 = _plane_amplitude(events, patch_plane_2, 1 + len(ests1), **estimate_kwargs)
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
# detectability and absolute depth


def fov_from_geometry(geometry) -> float:
    """Vertical field of view (rad) of a pinhole sensor: 2*atan((h/2)/f)."""
    return 2.0 * math.atan2(geometry.height / 2.0, geometry.focal_length_px)


def pixel_displacement(distance_m: float, fov_rad: float, resolution_px: int, radius_m: float) -> float:
    """Peak image displacement (px) of a target at the given distance.

    The mount tilts the optical axis by theta = pi/2 - atan(d/r); the image
    shifts by tan(theta) * (res/2) / tan(fov/2).
    """
    theta = math.pi / 2.0 - math.atan2(distance_m, radius_m)
    return math.tan(theta) * (resolution_px / 2.0) / math.tan(fov_rad / 2.0)


def min_detectable_distance(
    fov_rad: float,
    resolution_px: int,
    radius_m: float,
    pixel_threshold: float = 1.0,
    tol_m: float = 1e-9,
) -> float:
    """Largest distance whose displacement still reaches pixel_threshold.

    Solves pixel_displacement(d) = pixel_threshold by bisection on the
    monotone-decreasing displacement curve.
    """
    if not (0 < fov_rad < math.pi):
        raise ConfigError(f"fov must be in (0, pi), got {fov_rad}")
    if resolution_px <= 0 or radius_m <= 0 or pixel_threshold <= 0:
        raise ConfigError("resolution, radius and threshold must be positive")
    lo = radius_m * 1e-6
    if pixel_displacement(lo, fov_rad, resolution_px, radius_m) < pixel_threshold:
        raise ConfigError("displacement below threshold even at zero distance")
    hi = radius_m
    while pixel_displacement(hi, fov_rad, resolution_px, radius_m) >= pixel_threshold:
        hi *= 2.0
        if hi > 1e9:
            raise ConfigError("displacement never falls below threshold")
    while hi - lo > tol_m:
        mid = 0.5 * (lo + hi)
        if pixel_displacement(mid, fov_rad, resolution_px, radius_m) >= pixel_threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def absolute_depth(amplitude_px: float, baseline_m: float, focal_px: float) -> float:
    """Depth from the stereo identity: the physical motion is the baseline and
    the image amplitude is the disparity, so depth = f * baseline / amplitude."""
    if amplitude_px <= 0 or baseline_m <= 0 or focal_px <= 0:
        raise ConfigError("amplitude, baseline and focal length must be positive")
    return focal_px * baseline_m / amplitude_px


# ---------------------------------------------------------------------------
# pipeline


def build_scene(config: dict) -> tuple[SceneSpec, OscillatorConfig | None, dict]:
    """Build (scene, oscillation, sim kwargs) from a scene config dict.

    The oscillation comes either from image-plane parameters ("oscillation"),
    from the physical mount model ("physical"), or is absent for
    moving-target scenes ("moving_target"), which draw the configured
    pattern (default: simulate_moving_target's centred triangle) on one plane.
    """
    if "moving_target" in config and "depth_planes" in config:
        raise ConfigError("a moving_target scene has one plane; it takes no depth_planes")
    pattern = _build_pattern(config.get("pattern", {"type": "checkerboard"}), "pattern")
    planes = []
    for i, p in enumerate(config.get("depth_planes", [{}])):
        region = tuple(p["region"]) if p.get("region") else None
        plane_pattern = (_build_pattern(p["pattern"], f"depth_planes[{i}].pattern")
                         if p.get("pattern") else None)
        planes.append(DepthPlane(depth_m=float(p.get("depth_m", 1.0)),
                                 region=region, pattern=plane_pattern))
    scene = SceneSpec(
        pattern=pattern,
        contrast=float(config.get("contrast", 0.5)),
        depth_planes=tuple(planes),
    )
    sim_kwargs = {
        "duration_s": float(config.get("duration_s", 1.0)),
        "threshold": float(config.get("threshold", 0.2)),
        "noise_rate_hz": float(config.get("noise_rate_hz", 0.0)),
    }
    if "step_us" in config:
        sim_kwargs["step_us"] = int(config["step_us"])
    if "refractory_us" in config:
        sim_kwargs["refractory_us"] = int(config["refractory_us"])
    if "moving_target" in config:
        return scene, None, sim_kwargs
    if "physical" in config:
        cfg = _oscillation_from_physical(config["physical"], config)
    else:
        osc = config.get("oscillation", {})
        cfg = OscillatorConfig(
            amp_x_px=float(osc.get("amp_x_px", 3.0)),
            amp_y_px=float(osc.get("amp_y_px", 3.0)),
            omega=float(osc.get("omega_rad_s", 100.0 * math.pi)),
            phi_x=float(osc.get("phi_x", 0.0)),
            phi_y=float(osc.get("phi_y", -math.pi / 2.0)),
        )
    return scene, cfg, sim_kwargs


def _build_pattern(d: dict, section: str):
    kind = d.get("type", "checkerboard")
    if kind not in PATTERNS:
        raise ConfigError(f"unknown pattern type {kind!r}")
    return _from_section(PATTERNS[kind], {k: v for k, v in d.items() if k != "type"}, section)


def _from_section(cls, d: dict, section: str):
    """cls(**d) for a dataclass, with an unknown or missing key a ConfigError
    that names the section and the key."""
    known = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ConfigError(f"{section}: unknown key {key!r}")
    for name, f in known.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{section}: missing key {name!r}")
    return cls(**d)


def _oscillation_from_physical(phys: dict, scene_cfg: dict) -> OscillatorConfig:
    if "omega_rad_s" in phys:
        omega = float(phys["omega_rad_s"])
    elif "voltage" in phys:
        motor = _from_section(MotorParams, phys.get("motor", {}), "physical.motor")
        omega = motor_speed(float(phys["voltage"]), motor)
    else:
        raise ConfigError("physical config needs omega_rad_s or voltage")
    osc = PhysicalOscillator(
        mass_kg=float(phys["mass_kg"]),
        eccentric_mass_kg=float(phys["eccentric_mass_kg"]),
        eccentricity_m=float(phys["eccentricity_m"]),
        damping=float(phys["damping"]),
        stiffness=float(phys["stiffness"]),
        omega_drive=omega,
    )
    motion = WorldMotion.from_steady_state(osc, circular=bool(phys.get("circular", True)))
    geometry = SensorGeometry.from_dict(scene_cfg.get("geometry") or phys["geometry"])
    return OscillatorConfig.from_world(motion, geometry, float(phys.get("depth_m", 1.0)))


def run_pipeline(config: dict, out_dir: str | Path, seed: int | None = None) -> dict:
    """Run the staged pipeline, writing artifacts and a manifest to out_dir.

    Runs the stages listed in config["stages"] (default: all) in canonical
    order. Later stages consume earlier stages' in-memory results; a stage
    whose inputs were not produced raises a StageError. Every run with the
    same config and seed produces byte-identical event and CSV artifacts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(config.get("seed", 0) if seed is None else seed)
    stages = list(config.get("stages", PIPELINE_STAGES))
    unknown = set(stages) - set(PIPELINE_STAGES)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    manifest: dict = {
        "version": __version__,
        "seed": seed,
        "stages": [],
        "artifacts": {},
        "timings_s": {},
    }
    ctx: dict = {
        "geometry": SensorGeometry.from_dict(config.get("geometry", DEFAULT_GEOMETRY)),
        "noise": NoiseConfig(sigma_r=float(config.get("ekf", {}).get("sigma_r_px", 0.5))),
    }

    for stage in PIPELINE_STAGES:
        if stage not in stages:
            continue
        started = time.perf_counter()
        try:
            _run_stage(stage, config, ctx, out, seed, manifest["artifacts"])
        except (KeyError, OSError, ValueError) as exc:
            raise StageError(stage, str(exc)) from exc
        manifest["stages"].append(stage)
        manifest["timings_s"][stage] = time.perf_counter() - started

    write_json(out / "manifest.json", manifest)
    return manifest


def _require(ctx: dict, key: str, stage: str):
    if key not in ctx:
        raise StageError(stage, f"missing upstream result {key!r}; enable its stage")
    return ctx[key]


def _run_stage(stage, config, ctx, out, seed, artifacts):
    """Feed one stage its config section and upstream results; keep what it returns."""
    geometry: SensorGeometry = ctx["geometry"]

    if stage == "simulate":
        ctx["events"] = simulate_stage(config.get("scene", {}), geometry, seed, out).events
        artifacts.update(events="events.evt", truth="truth.json")

    elif stage == "track":
        events = _require(ctx, "events", stage)
        samples, ctx["tracker_tau_s"] = track_stage(
            config.get("tracker", {}), events, geometry, out / "samples.csv"
        )
        ctx["primary_samples"] = primary_samples(samples)
        artifacts["samples"] = "samples.csv"

    elif stage == "estimate":
        samples = _require(ctx, "primary_samples", stage)
        ctx["init_result"], ctx["t_ref_us"] = estimate_stage(
            config.get("estimate", {}), samples, ctx["tracker_tau_s"], out / "estimate.json"
        )
        artifacts["estimate"] = "estimate.json"

    elif stage == "ekf":
        samples = _require(ctx, "primary_samples", stage)
        init_result = _require(ctx, "init_result", stage)
        ctx["state_u"], ctx["state_v"] = ekf_stage(
            samples, init_result, ctx["t_ref_us"], ctx["noise"], out
        )
        artifacts.update(ekf_trace_u="ekf_trace_u.csv", ekf_trace_v="ekf_trace_v.csv")

    elif stage == "compensate":
        events = _require(ctx, "events", stage)
        init_result = _require(ctx, "init_result", stage)
        ctx["compensated"] = compensate_stage(
            events, init_result, ctx["t_ref_us"], geometry,
            _require(ctx, "primary_samples", stage), ctx["noise"], ctx["tracker_tau_s"], out,
        )
        artifacts.update(compensated="compensated.evt", compensated_csv="compensated.csv")

    elif stage == "metrics":
        events = _require(ctx, "events", stage)
        mcfg = config.get("metrics", {})
        span = window_span(events)
        ctx["metrics_raw"] = metrics_stage(mcfg, events, geometry, out / "metrics_raw.csv", span)
        artifacts["metrics_raw"] = "metrics_raw.csv"
        if "compensated" in ctx:
            ctx["metrics_comp"] = metrics_stage(
                mcfg, ctx["compensated"].to_events(), geometry,
                out / "metrics_compensated.csv", span,
            )
            artifacts["metrics_compensated"] = "metrics_compensated.csv"

    elif stage == "report":
        report_stage(seed, ctx, out / "report.json")
        artifacts["report"] = "report.json"


# ---------------------------------------------------------------------------
# stages: one function each, shared by run_pipeline and the CLI subcommands.
# Each takes its config section and inputs, writes its artifacts and returns
# its result.


def simulate_stage(section: dict, geometry: SensorGeometry, seed: int, out_dir: Path):
    """Simulate the scene section; writes events.evt and truth.json to out_dir."""
    scene, osc, sim_kwargs = build_scene(section)
    if "moving_target" in section:
        mt = section["moving_target"]
        sim_out = simulate_moving_target(
            freq_hz=float(mt["freq_hz"]), path_radius_px=float(mt["radius_px"]),
            geometry=geometry, pattern=scene.pattern if "pattern" in section else None,
            seed=seed, contrast=scene.contrast, **sim_kwargs,
        )
    else:
        sim_out = simulate(scene, osc, geometry, seed=seed, **sim_kwargs)
    write_events(out_dir / "events.evt", sim_out.events, geometry)
    write_json(out_dir / "truth.json", {
        "seed": seed,
        "geometry": geometry.to_dict(),
        "planes": [t.to_dict() for t in sim_out.truth],
        "num_events": int(sim_out.events.shape[0]),
    })
    return sim_out


def track_stage(section: dict, events: np.ndarray, geometry: SensorGeometry, dest):
    """One tracker per configured patch (default: the centre quarter of the
    frame); writes the samples CSV to dest and returns (samples, tau_s)."""
    patches = section.get("patches")
    if not patches:
        patches = [{"cx": (geometry.width - 1) / 2.0,
                    "cy": (geometry.height - 1) / 2.0,
                    "half_size": min(geometry.width, geometry.height) // 4}]
    tau = float(section.get("tau_s", DEFAULT_TAU_S))
    trackers = [
        CentroidTracker(
            PatchSpec(cx=float(p["cx"]), cy=float(p["cy"]),
                      half_size=int(p.get("half_size", 12))),
            tau_s=tau,
            emit_period_s=float(section.get("emit_period_s", DEFAULT_EMIT_PERIOD_S)),
            min_weight=float(section.get("min_weight", DEFAULT_MIN_WEIGHT)),
            tracker_id=i,
            warmup_s=float(section.get("warmup_s", DEFAULT_WARMUP_TAUS * tau)),
        )
        for i, p in enumerate(patches)
    ]
    samples = track_events(events, trackers)
    write_samples_csv(dest, samples)
    return samples, tau


def primary_samples(samples: np.ndarray) -> np.ndarray:
    """The samples of the first tracker id, which the estimate, ekf and
    compensate stages fit."""
    if samples.shape[0] == 0:
        return samples
    return samples[samples["id"] == samples["id"][0]]


def estimate_stage(section: dict, samples: np.ndarray, tracker_tau_s: float, dest):
    """Spectral init over one tracker's samples; writes the estimate JSON to dest
    (a path or a text stream) and returns (init_result, t_ref_us)."""
    if samples.shape[0] == 0:
        raise InsufficientDataError("no tracker samples to estimate from")
    init_result = initialize(
        samples,
        band=tuple(section.get("band_rad_s", DEFAULT_BAND)),
        grid_points=int(section.get("grid_points", DEFAULT_GRID_POINTS)),
    )
    t_ref = int(samples["t"][0])
    write_json(dest, _estimate_json(init_result, t_ref, tracker_tau_s))
    return init_result, t_ref


def ekf_stage(samples, init_result: InitResult, t_ref_us: int, noise: NoiseConfig,
              out_dir: Path):
    """Filter both axes from the init; writes ekf_trace_{u,v}.csv and returns
    the final (state_u, state_v)."""
    states = []
    for axis, init in (("u", init_result.init_u), ("v", init_result.init_v)):
        state, trace = filter_samples(samples, ekf_init(init, t_ref_us), noise, axis=axis)
        write_trace_csv(out_dir / f"ekf_trace_{axis}.csv", trace)
        states.append(state)
    return tuple(states)


def compensate_stage(events, init_result: InitResult, t_ref_us: int, geometry, samples,
                     noise: NoiseConfig, tracker_tau_s: float, out_dir: Path):
    """Tracking-mode compensation with the tracker lag divided out: the filter
    is replayed along the stream from fresh init states, so every event is
    mapped with the freshest estimate at its time. Writes compensated.evt and
    compensated.csv to out_dir."""
    state_u, state_v = states_from_init(init_result.init_u, init_result.init_v, t_ref_us)
    comp = compensate_stream(
        events, state_u, state_v, geometry, mode="tracking",
        samples=samples, noise=noise, lag_tau_s=tracker_tau_s,
    )
    write_events(out_dir / "compensated.evt", comp.to_events(), geometry)
    write_compensated_csv(out_dir / "compensated.csv", comp)
    return comp


def window_span(events: np.ndarray) -> tuple[int, int]:
    """[t0, t1) of the metric windows: the stream's span, or [0, 1) when empty."""
    if events.shape[0] == 0:
        return 0, 1
    return int(events["t"][0]), int(events["t"][-1]) + 1


def metrics_stage(section: dict, events, geometry, dest, span: tuple[int, int] | None = None):
    """Per-window metrics over span (default: the stream's own); writes the CSV to dest."""
    t0, t1 = window_span(events) if span is None else span
    rows = stream_metrics(
        events, geometry, t0, t1, int(float(section.get("window_ms", 10)) * 1000),
        float(section.get("blur_sigma", 1.5)), bool(section.get("edges", True)),
    )
    write_metrics_csv(dest, rows)
    return rows


def report_stage(seed: int, ctx: dict, dest) -> dict:
    """Summary of whatever ran: frequency, de-lagged per-axis amplitude and
    phase, and median frame metrics; writes the report JSON to dest."""
    report: dict = {"seed": seed}
    if "init_result" in ctx:
        report["omega_rad_s"] = ctx["init_result"].omega
        report["frequency_hz"] = ctx["init_result"].omega / (2.0 * math.pi)
    for key in ("state_u", "state_v"):
        if key in ctx:
            st = ctx[key]
            a, b = delag_coefficients(st.a, st.b, st.omega, ctx["tracker_tau_s"])
            amp, phase = amplitude_phase(replace(st, a=a, b=b))
            report[key] = {"amplitude_px": amp, "phase_rad": phase,
                           "omega_rad_s": st.omega, "offset_px": st.c}
    for label, rows_key in (("raw", "metrics_raw"), ("compensated", "metrics_comp")):
        if rows_key in ctx:
            rows = ctx[rows_key]
            report[f"median_variance_{label}"] = float(np.median([r.variance for r in rows]))
            report[f"median_entropy_{label}"] = float(np.median([r.entropy for r in rows]))
    if "median_variance_raw" in report and "median_variance_compensated" in report:
        raw = report["median_variance_raw"]
        if raw > 0:
            report["variance_gain"] = report["median_variance_compensated"] / raw
    write_json(dest, report)
    return report


def _estimate_json(init_result: InitResult, t_ref_us: int, tracker_tau_s: float | None) -> dict:
    def axis(init, peaks):
        return None if init is None else {**asdict(init), "peaks": [asdict(p) for p in peaks]}

    return {
        "omega_rad_s": init_result.omega,
        "frequency_hz": init_result.omega / (2.0 * math.pi),
        "t_ref_us": t_ref_us,
        "tracker_tau_s": tracker_tau_s,
        "u": axis(init_result.init_u, init_result.peaks_u),
        "v": axis(init_result.init_v, init_result.peaks_v),
    }
