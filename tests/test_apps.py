import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosc import apps, compensate, ekf
from evosc.apps import (
    MetricsSection,
    PipelineConfig,
    SceneSection,
    build_scene,
    estimate_motion,
    estimate_scene_frequency,
    min_detectable_distance,
    relative_depth,
    run_pipeline,
)
from evosc.compensate import compensate_stream, states_from_init, write_compensated_csv
from evosc.core import SensorGeometry, empty_events, from_section
from evosc.ekf import NoiseConfig, amplitude_phase, write_trace_csv
from evosc.errors import (
    ConfigError,
    InsufficientDataError,
    StageError,
)
from evosc.io import read_events, write_events
from evosc.sim import Checkerboard, Disks, OscillatorConfig, simulate_moving_target
from evosc.track import PatchSpec, lowpass_gain, read_samples_csv

from oracles import MIN_DETECT_D_REF, MOTOR_OMEGA_2V, pixel_displacement


def closed_form_distance(fov_rad, resolution_px, radius_m, threshold=1.0):
    # tan(pi/2 - atan(d/r)) = r/d, so displacement = (r/d)*(res/2)/tan(fov/2)
    return radius_m * (resolution_px / 2.0) / (math.tan(fov_rad / 2.0) * threshold)


class TestGeometryHelpers:
    def test_pixel_displacement_closed_form(self):
        fov, res, r = math.radians(39.0), 720, 1e-3
        for d in (0.1, 0.5, 1.0, 2.0):
            want = (r / d) * (res / 2.0) / math.tan(fov / 2.0)
            assert pixel_displacement(d, fov, res, r) == pytest.approx(want, rel=1e-12)

    def test_displacement_decreases_with_distance(self):
        fov, res, r = math.radians(39.0), 720, 1e-3
        ds = np.linspace(0.05, 5.0, 50)
        disp = [pixel_displacement(d, fov, res, r) for d in ds]
        assert np.all(np.diff(disp) < 0)


class TestMinDetectableDistance:
    FOV = math.radians(39.0)

    def test_matches_closed_form_and_frozen_value(self):
        got = min_detectable_distance(self.FOV, 720, 1e-3)
        assert got == pytest.approx(closed_form_distance(self.FOV, 720, 1e-3),
                                    abs=1e-8)
        assert got == pytest.approx(MIN_DETECT_D_REF, abs=1e-8)

    def test_root_condition(self):
        d = min_detectable_distance(self.FOV, 720, 1e-3, pixel_threshold=2.0)
        assert pixel_displacement(d, self.FOV, 720, 1e-3) == pytest.approx(2.0,
                                                                           abs=1e-4)

    def test_threshold_scaling(self):
        # doubling the threshold halves the distance (displacement ~ 1/d)
        d1 = min_detectable_distance(self.FOV, 720, 1e-3, pixel_threshold=1.0)
        d2 = min_detectable_distance(self.FOV, 720, 1e-3, pixel_threshold=2.0)
        assert d1 / d2 == pytest.approx(2.0, rel=1e-6)

    @given(st.floats(0.05, 3.0, exclude_min=True, exclude_max=True), st.integers(1, 8192),
           st.floats(1e-4, 1.0), st.floats(0.1, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_displacement_at_the_distance_is_the_threshold(self, fov, res, r, threshold):
        d = min_detectable_distance(fov, res, r, pixel_threshold=threshold)
        assert pixel_displacement(d, fov, res, r) == pytest.approx(threshold, rel=1e-9)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            min_detectable_distance(0.0, 720, 1e-3)
        with pytest.raises(ConfigError):
            min_detectable_distance(self.FOV, 0, 1e-3)
        with pytest.raises(ConfigError):
            min_detectable_distance(self.FOV, 720, math.inf)
        with pytest.raises(ConfigError):
            min_detectable_distance(self.FOV, 720, 1e-3, pixel_threshold=math.nan)


class TestEstimateMotion:
    def test_recovers_commanded_oscillation(self, disk_stream, disk_cfg):
        est = estimate_motion(disk_stream.events, PatchSpec(cx=32.0, cy=32.0,
                                                            half_size=14))
        assert est.omega == pytest.approx(disk_cfg.omega, rel=2e-3)
        gain = lowpass_gain(est.state_u.omega, est.tracker_tau_s)
        amp_u, _ = amplitude_phase(est.state_u)
        amp_v, _ = amplitude_phase(est.state_v)
        assert amp_u / gain == pytest.approx(3.0, rel=0.08)
        assert amp_v / gain == pytest.approx(3.0, rel=0.08)
        assert est.state_u.c == pytest.approx(32.0, abs=0.3)
        assert est.state_v.c == pytest.approx(32.0, abs=0.3)
        assert est.t_ref_us == int(est.samples["t"][0])
        assert est.trace_u.shape == est.samples.shape

    def test_warmup_default_drops_early_samples(self, disk_stream):
        est = estimate_motion(disk_stream.events, PatchSpec(cx=32.0, cy=32.0,
                                                            half_size=14))
        first = int(disk_stream.events["t"][0])
        assert int(est.samples["t"][0]) - first >= 3.0 * est.tracker_tau_s * 1e6 - 1

    def test_empty_patch_rejected(self, disk_stream):
        with pytest.raises(InsufficientDataError):
            estimate_motion(disk_stream.events, PatchSpec(cx=5.0, cy=5.0,
                                                          half_size=3))


class TestSceneFrequency:
    def test_disjoint_trials_agree_with_truth(self, disk_stream):
        report = estimate_scene_frequency(disk_stream.events,
                                          PatchSpec(cx=32.0, cy=32.0, half_size=14),
                                          trials=4, truth_hz=50.0)
        assert len(report.per_trial_hz) == 4
        assert report.abs_error_hz < 0.5
        assert report.estimate_hz == pytest.approx(50.0, abs=0.3)
        assert report.three_sigma_hz >= 0.0
        assert not report.aliased

    def test_single_trial_has_zero_spread(self, disk_stream):
        report = estimate_scene_frequency(disk_stream.events,
                                          PatchSpec(cx=32.0, cy=32.0, half_size=14),
                                          trials=1)
        assert report.three_sigma_hz == 0.0
        assert report.truth_hz is None and report.abs_error_hz is None

    def test_trials_are_the_per_trial_searches(self, disk_stream, monkeypatch):
        """One search over all edges cuts the same segments as a search per trial."""
        seen = []

        class Recording(apps.CentroidTracker):
            def run(self, events):
                seen.append(events)
                return super().run(events)

        monkeypatch.setattr(apps, "CentroidTracker", Recording)
        ev = disk_stream.events
        estimate_scene_frequency(ev, PatchSpec(cx=32.0, cy=32.0, half_size=14), trials=3)
        edges = np.linspace(int(ev["t"][0]), int(ev["t"][-1]) + 1, 4)
        assert len(seen) == 3
        for i, segment in enumerate(seen):
            lo, hi = np.searchsorted(ev["t"], [edges[i], edges[i + 1]])
            assert segment.tobytes() == ev[lo:hi].tobytes()

    def test_bad_arguments(self, disk_stream):
        patch = PatchSpec(cx=32.0, cy=32.0, half_size=14)
        with pytest.raises(ConfigError):
            estimate_scene_frequency(disk_stream.events, patch, trials=0)
        with pytest.raises(InsufficientDataError):
            estimate_scene_frequency(disk_stream.events[:0], patch)

    @pytest.mark.parametrize("truth_hz", [math.nan, math.inf, -10.0, 0.0])
    def test_truth_must_be_positive_and_finite(self, disk_stream, truth_hz):
        """A NaN truth would put NaN in the report's JSON, and a negative one
        an error against a frequency no scene has."""
        with pytest.raises(ConfigError, match="truth_hz must be positive and finite"):
            estimate_scene_frequency(disk_stream.events,
                                     PatchSpec(cx=32.0, cy=32.0, half_size=14),
                                     truth_hz=truth_hz)


def test_golden_section_brackets_the_minimizer():
    """On a parabola the search stops with a bracket at most xatol wide
    around the vertex, after 2 + ceil(log(width / xatol) / log(phi))
    evaluations."""
    seen = []

    def cost(w):
        seen.append(w)
        return (w - 3.3) ** 2

    found = apps._golden_section(cost, 0.0, 10.0, xatol=1e-4)
    assert abs(found - 3.3) <= 0.5e-4
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert len(seen) == 2 + math.ceil(math.log(10.0 / 1e-4) / math.log(phi))
    assert all(0.0 < w < 10.0 for w in seen)


def test_refined_omega_matches_scipy_bounded_minimizer(monkeypatch):
    """On criterion 01's scenes (seed 3, 2 s, 10 trials each) every trial's
    golden-section omega is within 1e-4 rad/s of scipy's bounded minimizer
    on the same cost and bracket, and is the omega the report gives."""
    from scipy.optimize import minimize_scalar

    searches = []
    golden = apps._golden_section

    def recording(cost, lo, hi, xatol):
        omega = golden(cost, lo, hi, xatol)
        ref = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-4})
        searches.append((omega, float(ref.x)))
        return omega

    monkeypatch.setattr(apps, "_golden_section", recording)
    geom = SensorGeometry(width=64, height=64)
    patch = PatchSpec(cx=31.5, cy=31.5, half_size=20)
    for freq in (7.5, 10.0, 15.2, 20.0, 22.6):
        out = simulate_moving_target(freq, 4.0, geom, duration_s=2.0, contrast=2.0, seed=3)
        report = estimate_scene_frequency(out.events, patch, trials=10)
        omegas = [omega for omega, _ in searches[-10:]]
        assert report.per_trial_hz == [w / (2.0 * math.pi) for w in omegas]
    ours, ref = np.array(searches).T
    assert ours.shape == (50,)
    np.testing.assert_allclose(ours, ref, rtol=0.0, atol=1e-4)


@pytest.fixture(scope="module")
def four_disk_stream(geom64):
    from evosc.sim import SceneSpec, simulate

    cfg = OscillatorConfig(amp_x_px=1.5, amp_y_px=1.5, omega=100.0 * math.pi,
                           phi_x=0.0, phi_y=-math.pi / 2.0)
    scene = SceneSpec(pattern=Disks(pitch_px=32.0, offset_px=16.0), contrast=2.0)
    return simulate(scene, cfg, geom64, duration_s=0.8, seed=9)


class TestRelativeDepth:
    def test_same_plane_ratio_near_unity(self, four_disk_stream):
        report = relative_depth(
            four_disk_stream.events,
            PatchSpec(cx=16.0, cy=16.0, half_size=10),
            PatchSpec(cx=48.0, cy=48.0, half_size=10),
        )
        assert report.ratio == pytest.approx(1.0, abs=0.03)
        assert len(report.planes) == 2
        assert report.amplitude_1_px == pytest.approx(1.5 * math.sqrt(2.0), rel=0.1)

    def test_multi_patch_planes(self, four_disk_stream):
        report = relative_depth(
            four_disk_stream.events,
            [PatchSpec(cx=16.0, cy=16.0, half_size=10),
             PatchSpec(cx=48.0, cy=16.0, half_size=10)],
            [PatchSpec(cx=16.0, cy=48.0, half_size=10),
             PatchSpec(cx=48.0, cy=48.0, half_size=10)],
        )
        assert len(report.planes) == 4
        assert report.ratio == pytest.approx(1.0, abs=0.03)

    def test_empty_plane_rejected(self, four_disk_stream):
        with pytest.raises(ConfigError):
            relative_depth(four_disk_stream.events, [],
                           PatchSpec(cx=48.0, cy=48.0, half_size=10))

    @pytest.mark.parametrize("truth_ratio", [math.nan, math.inf, -0.5, 0.0])
    def test_truth_must_be_positive_and_finite(self, four_disk_stream, truth_ratio):
        with pytest.raises(ConfigError, match="truth_ratio must be positive and finite"):
            relative_depth(four_disk_stream.events,
                           PatchSpec(cx=16.0, cy=16.0, half_size=10),
                           PatchSpec(cx=48.0, cy=48.0, half_size=10),
                           truth_ratio=truth_ratio)


G64 = SensorGeometry(width=64, height=64)


def scene_of(section: dict, geometry: SensorGeometry = G64):
    return build_scene(from_section(SceneSection, section, "scene"), geometry)


class TestBuildScene:
    def test_defaults(self):
        scene, osc, kwargs = scene_of({})
        assert isinstance(scene.pattern, Checkerboard)
        assert scene.contrast == 0.5
        assert osc.omega == pytest.approx(100.0 * math.pi)
        assert kwargs["duration_s"] == 1.0

    def test_explicit_pattern_and_oscillation(self):
        scene, osc, kwargs = scene_of({
            "pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": 32.0},
            "contrast": 2.0,
            "duration_s": 0.25,
            "oscillation": {"amp_x_px": 1.0, "amp_y_px": 2.0, "omega_rad_s": 60.0,
                            "phi_x": 0.1, "phi_y": 0.2},
        })
        assert isinstance(scene.pattern, Disks)
        assert scene.pattern.pitch_px == 1000.0
        assert osc == OscillatorConfig(amp_x_px=1.0, amp_y_px=2.0, omega=60.0,
                                       phi_x=0.1, phi_y=0.2)
        assert kwargs["duration_s"] == 0.25

    def test_unknown_pattern(self):
        with pytest.raises(ConfigError):
            scene_of({"pattern": {"type": "plasma"}})

    def test_moving_target_has_no_oscillation(self):
        scene, osc, _ = scene_of({"moving_target": {"freq_hz": 10.0, "radius_px": 3.0}})
        assert osc is None

    def test_moving_target_rejects_depth_planes(self):
        with pytest.raises(ConfigError, match="depth_planes"):
            scene_of({"moving_target": {"freq_hz": 10.0, "radius_px": 3.0},
                      "depth_planes": [{"depth_m": 1.0}]})

    def test_depth_planes_parsed(self):
        scene, _, _ = scene_of({
            "depth_planes": [
                {"depth_m": 1.0, "region": [0, 0, 32, 64]},
                {"depth_m": 2.0, "region": [32, 0, 64, 64],
                 "pattern": {"type": "stripes"}},
            ],
        })
        assert len(scene.depth_planes) == 2
        assert scene.depth_planes[0].depth_m == 1.0
        assert scene.depth_planes[1].region == (32, 0, 64, 64)
        assert scene.depth_planes[1].pattern is not None

    def test_physical_voltage_drives_motor_model(self):
        physical = {"voltage": 2.0, "mass_kg": 0.1, "eccentric_mass_kg": 0.01,
                    "eccentricity_m": 0.005, "damping": 2.0, "stiffness": 4000.0,
                    "depth_m": 1.0}
        scene, osc, _ = scene_of({"physical": physical})
        assert osc.omega == pytest.approx(MOTOR_OMEGA_2V, rel=1e-9)
        assert osc.amp_x_px == osc.amp_y_px > 0
        # the amplitude scales with the focal length of the geometry passed in
        _, osc_f200, _ = scene_of({"physical": physical},
                                  SensorGeometry(width=64, height=64, focal_length_px=200.0))
        assert osc_f200.amp_x_px == pytest.approx(2.0 * osc.amp_x_px, rel=1e-12)

    def test_physical_direct_omega(self):
        scene, osc, _ = scene_of({
            "physical": {
                "omega_rad_s": 150.0, "circular": False,
                "mass_kg": 0.1, "eccentric_mass_kg": 0.01, "eccentricity_m": 0.005,
                "damping": 2.0, "stiffness": 4000.0,
            },
        })
        assert osc.omega == 150.0
        assert osc.amp_x_px == 0.0

    def test_physical_missing_drive(self):
        with pytest.raises(ConfigError):
            scene_of({"physical": {"mass_kg": 0.1, "eccentric_mass_kg": 0.01,
                                   "eccentricity_m": 0.005, "damping": 2.0,
                                   "stiffness": 4000.0}})


PIPELINE_CONFIG = {
    "geometry": {"width": 64, "height": 64},
    "scene": {
        "pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": 32.0},
        "contrast": 2.0,
        "duration_s": 0.4,
    },
    "tracker": {"patches": [{"cx": 32.0, "cy": 32.0, "half_size": 14}],
                "tau_s": 0.005},
    "metrics": {"window_ms": 10, "edges": False},
}
ROOT = Path(__file__).resolve().parents[1]


def test_shipped_configs_read_through_the_schema(tmp_path, monkeypatch):
    """The demo script's and the benchmark's pipeline configs use only declared
    keys, so a key that drifts out of the schema fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    demo = importlib.import_module("run_demo").DEMO_CONFIG
    pipeline = importlib.import_module("workloads").DemoPipeline()
    bench = [pipeline.inputs(0, size, tmp_path).data["config"] for size in pipeline.sizes]
    for config in [demo, PIPELINE_CONFIG, *bench]:
        read = from_section(PipelineConfig, config)
        assert read.tracker.patches and read.metrics.window_ms == 10.0


class TestPipeline:
    def test_full_run_writes_all_artifacts(self, tmp_path):
        manifest = run_pipeline(PIPELINE_CONFIG, tmp_path, seed=3)
        assert manifest["stages"] == list(
            ("simulate", "track", "estimate", "ekf", "compensate", "metrics",
             "report")
        )
        for name in ("events.evt", "samples.csv", "estimate.json",
                     "ekf_trace_u.csv", "ekf_trace_v.csv", "compensated.evt",
                     "compensated.csv", "metrics_raw.csv",
                     "metrics_compensated.csv", "report.json", "manifest.json",
                     "truth.json"):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["frequency_hz"] == pytest.approx(50.0, abs=0.5)
        assert report["median_variance_compensated"] > report["median_variance_raw"]

    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        import hashlib

        def digest(d):
            out = {}
            for p in sorted(d.iterdir()):
                if p.name == "manifest.json":  # contains timings
                    continue
                out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            return out

        run_pipeline(PIPELINE_CONFIG, tmp_path / "a", seed=3)
        run_pipeline(PIPELINE_CONFIG, tmp_path / "b", seed=3)
        da, db = digest(tmp_path / "a"), digest(tmp_path / "b")
        assert da == db

    # sha256 as the per-sample buffered tracking loop wrote them, 0.2 s at seed 3;
    # two sources of the phasor table must reproduce them
    FROZEN_TRACKING = {
        "compensated.evt": "fc64f81e92c96c35bce6a5d5a04d9f7132356a03ed4ca5da544d4d85f95bd6d4",
        "compensated.csv": "a3fdc4bdb3691284ae6b028d9d588a335c7f432436569d1a4fb514f1cb846a64",
    }
    # sha256 of the tracker's samples as the per-event loop wrote them, same run;
    # without its first line, "# tracker_tau_s=0.005", the file hashes to 494ef438...
    FROZEN_SAMPLES = {
        "samples.csv": "23c5267cb8c9f09a4f03ec456c6f7494533f958c9fa4ea299ff4fa7e45bccc88",
    }
    # sha256 of the metrics path's artifacts as the per-window frame types wrote
    # them, same run
    FROZEN_METRICS = {
        "metrics_raw.csv": "496bd7cc1b1e05d8cf16e92507a1711de70a2dcf2e56dbb36ad0bea76d479079",
        "metrics_compensated.csv":
            "a4960061ea646c5a74dcf52bd27f8d0864b299f260e659a6e3429b3d5634b7ed",
        "report.json": "b58ffa5aad594066f5681ff6aba848ffbc477b762de5c5e5c8fbc45a279a16f2",
    }
    SHORT_CONFIG = {**PIPELINE_CONFIG, "scene": {**PIPELINE_CONFIG["scene"], "duration_s": 0.2}}

    def test_metrics_artifacts_match_frozen_digest(self, tmp_path):
        run_pipeline(self.SHORT_CONFIG, tmp_path, seed=3)
        for name, want in self.FROZEN_METRICS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_tracking_compensation_matches_frozen_digest(self, tmp_path):
        # the library walk: compensate_stream filters the samples itself, on the
        # pipeline's events, first-tracker samples and init
        config = from_section(PipelineConfig, self.SHORT_CONFIG)
        geometry, tau_s = config.geometry, config.tracker.tau_s
        events = apps.simulate_stage(config.scene, geometry, 3, tmp_path).events
        samples = apps.primary_samples(apps.track_stage(config.tracker, events, geometry,
                                                        tmp_path / "samples.csv"))
        init = apps.estimate_stage(config.estimate, samples, tau_s, tmp_path / "estimate.json")
        t_ref = int(samples["t"][0])
        comp = compensate_stream(events, *states_from_init(init.init_u, init.init_v, t_ref),
                                 geometry, mode="tracking", samples=samples,
                                 noise=NoiseConfig(sigma_r=config.ekf.sigma_r_px),
                                 lag_tau_s=tau_s)
        write_events(tmp_path / "compensated.evt", comp.to_events(), geometry)
        write_compensated_csv(tmp_path / "compensated.csv", comp)
        for name, want in {**self.FROZEN_SAMPLES, **self.FROZEN_TRACKING}.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_estimate_motion_filters_like_the_ekf_stage(self, tmp_path):
        """The library's one-patch estimate and the pipeline, on the config's
        first patch with the pipeline's defaults, write the same traces."""
        run_pipeline(self.SHORT_CONFIG, tmp_path, seed=3)
        config = from_section(PipelineConfig, self.SHORT_CONFIG)
        events, _ = read_events(tmp_path / "events.evt")
        est = estimate_motion(events, config.tracker.patches[0], tau_s=config.tracker.tau_s)
        for axis, trace in (("u", est.trace_u), ("v", est.trace_v)):
            buf = io.BytesIO()
            write_trace_csv(buf, trace)
            assert buf.getvalue() == (tmp_path / f"ekf_trace_{axis}.csv").read_bytes(), axis

    def test_compensation_reads_the_ekf_stage_traces(self, tmp_path, monkeypatch):
        """The pipeline walks the filter once: one filter_samples pass per
        axis, no filter step from compensation, the table read from the traces
        gives the same bytes, and the compensated records are built once, for
        compensated.evt and the metrics alike."""
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(apps, "filter_samples", counted("filter", ekf.filter_samples))
        monkeypatch.setattr(compensate, "predict", counted("predict", ekf.predict))
        monkeypatch.setattr(compensate, "update", counted("update", ekf.update))
        monkeypatch.setattr(compensate.CompensatedEvents, "to_events",
                            counted("to_events", compensate.CompensatedEvents.to_events))
        run_pipeline(self.SHORT_CONFIG, tmp_path, seed=3)
        assert calls == ["filter", "filter", "to_events"]
        for name, want in {**self.FROZEN_SAMPLES, **self.FROZEN_TRACKING}.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_primary_samples_are_the_first_configured_trackers(self, tmp_path):
        """On a scene whose second tracker emits first, the stages after the
        tracker fit the first configured tracker's samples."""
        config = from_section(PipelineConfig, {
            "geometry": {"width": 64, "height": 64},
            "scene": {"duration_s": 0.3, "depth_planes": [
                {"region": [0, 0, 32, 64],
                 "pattern": {"type": "stripes", "angle_rad": math.pi / 2.0}},
                {"region": [32, 0, 64, 64], "pattern": {"type": "stripes", "angle_rad": 0.0}},
            ]},
            "tracker": {"patches": [{"cx": 16.0, "cy": 32.0, "half_size": 8},
                                    {"cx": 48.0, "cy": 32.0, "half_size": 8}]},
        })
        events = apps.simulate_stage(config.scene, config.geometry, 1, tmp_path).events
        samples = apps.track_stage(config.tracker, events, config.geometry,
                                   tmp_path / "samples.csv")
        assert samples["id"][0] == 1
        primary = apps.primary_samples(samples)
        assert primary.tobytes() == samples[samples["id"] == 0].tobytes()
        assert primary.shape[0] > 100

    @pytest.mark.parametrize("block, message", [
        ({"metrics": {"window_ms": 0.0001}},
         "metrics: window_ms must be finite and at least 0.001 (1 us), got 0.0001"),
        ({"metrics": {"window_ms": math.nan}},
         "metrics: window_ms must be finite and at least 0.001 (1 us), got nan"),
        ({"metrics": {"window_ms": "Infinity"}},
         "metrics: window_ms must be finite and at least 0.001 (1 us), got inf"),
        ({"tracker": {"tau_s": 0}},
         "tracker: tau_s and emit_period_s must be positive and finite"),
        ({"tracker": {"tau_s": "nan"}},
         "tracker: tau_s and emit_period_s must be positive and finite"),
        ({"tracker": {"emit_period_s": -0.001}},
         "tracker: tau_s and emit_period_s must be positive and finite"),
        ({"tracker": {"emit_period_s": math.inf}},
         "tracker: tau_s and emit_period_s must be positive and finite"),
        ({"tracker": {"min_weight": 0.5}},
         "tracker: min_weight must be finite and at least 1, got 0.5"),
        ({"tracker": {"min_weight": math.nan}},
         "tracker: min_weight must be finite and at least 1, got nan"),
        ({"estimate": {"grid_points": 3}}, "estimate: grid_points must be at least 4, got 3"),
        ({"estimate": {"band_rad_s": [500.0, 30.0]}},
         "estimate: band must be finite and increasing, got (500.0, 30.0)"),
        ({"estimate": {"band_rad_s": [30.0, "nan"]}},
         "estimate: band must be finite and increasing, got (30.0, nan)"),
        ({"scene": {"step_us": 0}}, "scene: step_us must be positive and finite, got 0"),
        ({"scene": {"duration_s": -1.0}},
         "scene: duration_s must be positive and finite, got -1.0"),
        ({"scene": {"threshold": "Infinity"}},
         "scene: threshold must be positive and finite, got inf"),
        ({"metrics": {"blur_sigma": math.nan}}, "metrics: blur_sigma must be finite, got nan"),
        ({"ekf": {"sigma_r_px": 0}}, "ekf: sigma_r must be positive and finite, got 0.0"),
        # SceneSpec's and OscillatorConfig's own rules, applied when the config is read
        ({"scene": {"contrast": 0}}, "scene: contrast must be positive and finite, got 0.0"),
        ({"scene": {"oscillation": {"amp_x_px": -1}}},
         "scene.oscillation: amplitudes must be non-negative and finite, got (-1.0, 3.0)"),
        ({"scene": {"noise_rate_hz": -1.0}},
         "scene: noise_rate_hz must be non-negative and finite, got -1.0"),
        ({"scene": {"refractory_us": -5}},
         "scene: refractory_us must be non-negative and finite, got -5"),
        # NaN fails every comparison; the rules are written so that it fails them
        ({"scene": {"contrast": "nan"}}, "scene: contrast must be positive and finite, got nan"),
        ({"scene": {"oscillation": {"amp_y_px": "nan"}}},
         "scene.oscillation: amplitudes must be non-negative and finite, got (3.0, nan)"),
        ({"scene": {"oscillation": {"omega_rad_s": "nan"}}},
         "scene.oscillation: omega must be non-negative and finite, got nan"),
        ({"scene": {"moving_target": {"freq_hz": 0, "radius_px": 2}}},
         "scene.moving_target: freq_hz and path_radius_px must be positive and finite, "
         "got (0.0, 2.0)"),
        ({"scene": {"moving_target": {"freq_hz": 10, "radius_px": "nan"}}},
         "scene.moving_target: freq_hz and path_radius_px must be positive and finite, "
         "got (10.0, nan)"),
        # a NaN warm-up would switch it off; a NaN or infinite centre leaves the patch empty
        ({"tracker": {"warmup_s": -0.001}},
         "tracker: warmup_s must be non-negative and finite, got -0.001"),
        ({"tracker": {"warmup_s": "nan"}},
         "tracker: warmup_s must be non-negative and finite, got nan"),
        ({"tracker": {"patches": [{"cx": "nan", "cy": 32.0}]}},
         "tracker.patches[0]: cx and cy must be finite, got (nan, 32.0)"),
        ({"tracker": {"patches": [{"cx": 32.0, "cy": 32.0}, {"cx": 8.0, "cy": "-Infinity"}]}},
         "tracker.patches[1]: cx and cy must be finite, got (8.0, -inf)"),
        ({"metrics": {"blur_sigma": -2}},
         "metrics: blur_sigma must be non-negative (0 is no blur), got -2.0"),
    ])
    def test_out_of_range_values_fail_before_any_stage(self, tmp_path, block, message):
        with pytest.raises(ConfigError) as err:
            run_pipeline({**PIPELINE_CONFIG, **block}, tmp_path / "run")
        assert str(err.value) == message
        assert not (tmp_path / "run").exists()

    def test_window_ms_rounds_to_the_nearest_us(self):
        # 1.005 * 1000 is 1004.9999999999999, which int() would cut to 1004
        config = from_section(PipelineConfig, {**PIPELINE_CONFIG, "metrics": {"window_ms": 1.005}})
        assert config.metrics.window_us == 1005
        assert MetricsSection().window_us == 10_000

    def test_stage_failure_names_the_stage(self, tmp_path, monkeypatch):
        # an OSError, KeyError or ValueError inside a stage is a StageError
        # tagged with it; the stages before it have written their artifacts
        def unwritable(dest, trace):
            raise OSError(f"cannot write {Path(dest).name}")

        monkeypatch.setattr(apps, "write_trace_csv", unwritable)
        with pytest.raises(StageError) as err:
            run_pipeline(self.SHORT_CONFIG, tmp_path, seed=3)
        assert err.value.stage == "ekf"
        assert str(err.value) == "[ekf] cannot write ekf_trace_u.csv"
        assert (tmp_path / "estimate.json").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_estimate_artifact_contents(self, tmp_path):
        run_pipeline(PIPELINE_CONFIG, tmp_path, seed=3)
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert est["omega_rad_s"] == pytest.approx(100.0 * math.pi, rel=2e-3)
        assert est["u"]["peaks"] and est["v"]["peaks"]
        assert est["tracker_tau_s"] == 0.005

    def test_report_amplitudes_are_delagged(self, tmp_path):
        # the EKF tracks the tracker's low-passed centroid; the report divides
        # that window's gain and lag back out, so it gives the image amplitude
        run_pipeline(PIPELINE_CONFIG, tmp_path, seed=3)
        report = json.loads((tmp_path / "report.json").read_text())
        truth = json.loads((tmp_path / "truth.json").read_text())["planes"][0]
        assert truth["amp_x_px"] == truth["amp_y_px"] == 3.0
        for key in ("state_u", "state_v"):
            assert report[key]["amplitude_px"] == pytest.approx(3.0, abs=0.15), key


ZERO_MOTION_CONFIG = {
    **PIPELINE_CONFIG,
    "scene": {**PIPELINE_CONFIG["scene"],
              "oscillation": {"amp_x_px": 0.0, "amp_y_px": 0.0}},
}


# The child's events and peak resident set. Linux carries the parent's
# resident set into a child's ru_maxrss at exec, so the peak is read from
# VmHWM, which counts from the exec.
PIPELINE_PEAK = """
import json, sys
from evosc.apps import run_pipeline
run_pipeline(json.loads(sys.argv[1]), sys.argv[2], seed=0)
with open(sys.argv[2] + "/truth.json") as fh:
    events = json.load(fh)["num_events"]
with open("/proc/self/status") as fh:
    print(events, next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_pipeline_peak_grows_by_under_60_bytes_per_event(tmp_path):
    """run_pipeline's peak resident set, each run in a fresh process, grows
    by less than 60 bytes per event from a 0.25 s to a 0.5 s recording
    (0.71M to 1.42M events) of the demo scene with a disk every 16 px,
    tracked over the whole frame. At the peak, 42 bytes per event must be
    alive: the input records (13), the compensated coordinates (16) and the
    compensated records (13). A tracker that kept five float64 arrays per
    in-patch event made it grow by 86 bytes per event."""
    config = {"geometry": {"width": 64, "height": 64},
              "scene": {"pattern": {"type": "disks", "pitch_px": 16.0, "radius_px": 5.0},
                        "contrast": 2.0,
                        "oscillation": {"amp_x_px": 3.0, "amp_y_px": 3.0,
                                        "omega_rad_s": 100.0 * math.pi, "phi_y": -math.pi / 2}},
              "tracker": {"patches": [{"cx": 31.5, "cy": 31.5, "half_size": 32}]},
              "metrics": {"window_ms": 10, "edges": True}}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = []
    for duration in (0.25, 0.5):
        config["scene"]["duration_s"] = duration
        out = subprocess.run([sys.executable, "-c", PIPELINE_PEAK, json.dumps(config),
                              str(tmp_path / str(duration))],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        events, peak_kib = map(int, out.stdout.split())
        runs.append((events, peak_kib * 1024))
    (n0, peak0), (n1, peak1) = runs
    assert n1 - n0 > 600_000
    assert (peak1 - peak0) / (n1 - n0) < 60.0


class TestEmptyStream:
    def test_estimate_reports_insufficient_data(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            run_pipeline(ZERO_MOTION_CONFIG, tmp_path)
        assert (tmp_path / "events.evt").stat().st_size == 24  # header only

    def test_two_samples_are_insufficient_data(self, tmp_path):
        # a three-coefficient fit needs three samples: the estimate stage
        # fails on two, rather than a later stage on an init with no axes
        config = {"geometry": {"width": 32, "height": 32},
                  "scene": {"pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": 16.0},
                            "contrast": 2.0, "duration_s": 0.025},
                  "tracker": {"patches": [{"cx": 16.0, "cy": 16.0, "half_size": 8}],
                              "emit_period_s": 0.008}}
        with pytest.raises(InsufficientDataError) as err:
            run_pipeline(config, tmp_path)
        assert str(err.value) == "need at least 3 samples, got 2"
        assert read_samples_csv(tmp_path / "samples.csv")[0].shape[0] == 2
        assert not (tmp_path / "estimate.json").exists()

    def test_metrics_use_one_unit_window(self, tmp_path):
        rows = apps.metrics_stage(MetricsSection(), empty_events(),
                                  SensorGeometry(width=64, height=64), tmp_path / "metrics.csv")
        assert len(rows) == 1
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0"
