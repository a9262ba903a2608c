"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line (run
with -s to stream them). Thresholds are stated inline next to each assert.
"""

import hashlib
import math

import numpy as np
import pytest

from evosc.apps import (
    estimate_motion,
    estimate_scene_frequency,
    relative_depth,
    run_pipeline,
)
from evosc.compensate import compensate_stream, states_from_config, states_from_init
from evosc.core import SensorGeometry, make_events
from evosc.ekf import NoiseConfig, amplitude_phase, init as ekf_init, predict, update
from evosc.freqest import SinusoidInit, normalize, nudft_spectrum
from evosc.metrics import (
    frame_variance,
    gradient_magnitude,
    label_components,
    shannon_entropy,
    stream_metrics,
    zhang_suen_thin,
)
from evosc.sim import (
    Checkerboard,
    DepthPlane,
    Disks,
    OscillatorConfig,
    SceneSpec,
    camera_offset,
    moving_target,
    simulate,
)
from evosc.track import SAMPLE_DTYPE, PatchSpec

from oracles import direct_spectrum, flood_fill_components
from timing import throughput_bench

OMEGA = 100.0 * math.pi


class _report:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.num:02d}: {self.desc}")
        return False


def _median_variance(events, geometry, t_end_us):
    rows = stream_metrics(events, geometry, 0, t_end_us, window_us=10_000,
                          with_edges=False)
    return float(np.median([r.variance for r in rows]))


def test_criterion_01_frequency_estimation():
    """Mean absolute error <= 0.15 Hz and 3-sigma <= 0.3 Hz at five drive
    frequencies, 10 disjoint trials over 2 s each."""
    with _report(1, "frequency estimation error and spread"):
        geom = SensorGeometry(width=64, height=64)
        patch = PatchSpec(cx=31.5, cy=31.5, half_size=20)
        for freq in (7.5, 10.0, 15.2, 20.0, 22.6):
            out = simulate(*moving_target(freq, 4.0, geom, contrast=2.0), geom,
                           duration_s=2.0, seed=3)
            report = estimate_scene_frequency(out.events, patch, trials=10,
                                              truth_hz=freq)
            assert report.abs_error_hz <= 0.15, (freq, report.abs_error_hz)
            assert report.three_sigma_hz <= 0.3, (freq, report.three_sigma_hz)


def test_criterion_02_relative_depth():
    """Recovered two-plane amplitude ratio within 10% of the true Z2/Z1 for
    ratios 0.33, 0.50, 0.66."""
    with _report(2, "two-plane relative depth within 10%"):
        geom = SensorGeometry(width=96, height=96)
        cfg = OscillatorConfig(amp_x_px=1.2, amp_y_px=1.2, omega=OMEGA,
                               phi_x=0.0, phi_y=-math.pi / 2.0)
        plane1_patches = [PatchSpec(cx=24.0, cy=24.0, half_size=14),
                          PatchSpec(cx=24.0, cy=72.0, half_size=14)]
        plane2_patches = [PatchSpec(cx=72.0, cy=24.0, half_size=14),
                          PatchSpec(cx=72.0, cy=72.0, half_size=14)]
        for truth in (0.33, 0.50, 0.66):
            scene = SceneSpec(
                pattern=Disks(pitch_px=48.0, offset_px=24.0),
                contrast=2.0,
                depth_planes=(
                    DepthPlane(depth_m=1.0, region=(0, 0, 48, 96)),
                    DepthPlane(depth_m=truth, region=(48, 0, 96, 96)),
                ),
            )
            out = simulate(scene, cfg, geom, duration_s=1.0, seed=11)
            report = relative_depth(out.events, plane1_patches, plane2_patches,
                                    truth_ratio=truth)
            rel_err = abs(report.ratio - truth) / truth
            assert rel_err <= 0.10, (truth, report.ratio, rel_err)


def test_criterion_03_variance_ordering():
    """10 ms-window median frame variance: compensated > vibrated > static,
    with compensated >= 1.3x vibrated, on the checkerboard scene."""
    with _report(3, "compensation sharpens frame variance"):
        geom = SensorGeometry(width=64, height=64)
        scene = SceneSpec(pattern=Checkerboard(), contrast=2.0)
        cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=3.0, omega=OMEGA,
                               phi_x=0.0, phi_y=-math.pi / 2.0)
        still = OscillatorConfig(amp_x_px=0.0, amp_y_px=0.0, omega=OMEGA)
        vib = simulate(scene, cfg, geom, duration_s=1.0, noise_rate_hz=5.0, seed=5)
        static = simulate(scene, still, geom, duration_s=1.0, noise_rate_hz=5.0,
                          seed=5)
        # the checkerboard is periodic, so patch tracking cannot anchor a
        # tracker here; compensation runs from the commanded states instead
        su, sv = states_from_config(cfg, 0)
        comp = compensate_stream(vib.events, su, sv, geom).to_events(
            drop_out_of_bounds=True
        )
        v_static = _median_variance(static.events, geom, 1_000_000)
        v_vib = _median_variance(vib.events, geom, 1_000_000)
        v_comp = _median_variance(comp, geom, 1_000_000)
        assert v_comp > v_vib > v_static, (v_comp, v_vib, v_static)
        assert v_comp >= 1.3 * v_vib, (v_comp, v_vib)


def test_criterion_04_entropy_gain():
    """Vibrated-stream median window entropy >= 2x the static stream's, with
    smaller window-to-window spread."""
    with _report(4, "vibration raises occupancy entropy"):
        geom = SensorGeometry(width=64, height=64)
        scene = SceneSpec(pattern=Disks(), contrast=2.0)
        cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=3.0, omega=OMEGA,
                               phi_x=0.0, phi_y=-math.pi / 2.0)
        still = OscillatorConfig(amp_x_px=0.0, amp_y_px=0.0, omega=OMEGA)
        vib = simulate(scene, cfg, geom, duration_s=1.0, noise_rate_hz=1.0, seed=5)
        static = simulate(scene, still, geom, duration_s=1.0, noise_rate_hz=1.0,
                          seed=5)

        def entropies(events):
            rows = stream_metrics(events, geom, 0, 1_000_000, window_us=10_000,
                                  with_edges=False)
            return np.array([r.entropy for r in rows])

        h_vib = entropies(vib.events)
        h_static = entropies(static.events)
        assert np.median(h_vib) >= 2.0 * np.median(h_static), (
            np.median(h_vib), np.median(h_static)
        )
        assert h_vib.std() < h_static.std(), (h_vib.std(), h_static.std())


def test_criterion_05_closed_loop_residual():
    """Full init + filter + tracking-mode compensation on a known oscillation:
    >= 99% of events within 1 px of virtual-frame truth, RMS < 0.3 px."""
    with _report(5, "closed-loop compensation residual"):
        geom = SensorGeometry(width=64, height=64)
        cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=3.0, omega=OMEGA,
                               phi_x=0.0, phi_y=-math.pi / 2.0)
        scene = SceneSpec(pattern=Disks(pitch_px=1000.0, offset_px=32.0),
                          contrast=2.0)
        out = simulate(scene, cfg, geom, duration_s=2.0, seed=7)
        est = estimate_motion(out.events, PatchSpec(cx=32.0, cy=32.0, half_size=14))
        su, sv = states_from_init(est.init_result.init_u, est.init_result.init_v,
                                  est.t_ref_us)
        comp = compensate_stream(out.events, su, sv, geom, mode="tracking",
                                 samples=est.samples, noise=NoiseConfig(),
                                 lag_tau_s=est.tracker_tau_s)
        du, dv = camera_offset(comp.t * 1e-6, cfg)
        rx = comp.x - (out.events["x"].astype(float) - du)
        ry = comp.y - (out.events["y"].astype(float) - dv)
        residual = np.hypot(rx, ry)
        frac = float(np.mean(residual <= 1.0))
        rms = float(np.sqrt(np.mean(residual**2)))
        assert frac >= 0.99, frac
        assert rms < 0.3, rms


def test_criterion_06_ekf_recovery():
    """2000 noiseless measurements: omega within 1%, amplitude within 5%,
    offset within 0.1 px; covariance symmetric PSD at every step."""
    with _report(6, "filter recovers generating sinusoid"):
        omega, a, b, c = 80.0, 2.0, -1.5, 33.0
        rng = np.random.default_rng(0)
        t_us = np.sort(rng.integers(0, 2_000_000, 2000).astype(np.uint64))
        t = t_us * 1e-6
        samples = np.zeros(2000, dtype=SAMPLE_DTYPE)
        samples["t"] = t_us
        samples["u"] = a * np.sin(omega * t) + b * np.cos(omega * t) + c
        fit = SinusoidInit(omega=omega * 1.003, a=a * 0.9, b=b * 1.1, c=c + 0.3,
                           residual_rms=0.0)
        state = ekf_init(fit, int(t_us[0]))
        noise = NoiseConfig(sigma_r=0.1)
        for s in samples:
            predict(state, int(s["t"]), noise)
            update(state, float(s["u"]), noise)
            p = state.covariance
            assert np.allclose(p, p.T, atol=1e-10)
            assert np.linalg.eigvalsh(p).min() > -1e-10
        assert abs(state.omega - omega) / omega <= 0.01, state.omega
        amp, _ = amplitude_phase(state)
        assert abs(amp - math.hypot(a, b)) / math.hypot(a, b) <= 0.05, amp
        assert abs(state.c - c) <= 0.1, state.c


def test_criterion_07_spectrum_fast_path():
    """Gaussian-gridded spectrum matches the direct nonuniform DFT to 1e-6
    relative magnitude on a 1000-sample random series over [30, 500] rad/s."""
    with _report(7, "fast spectrum equals direct transform"):
        rng = np.random.default_rng(42)
        t_us = np.sort(rng.integers(0, 1_500_000, 1000).astype(np.uint64))
        t = t_us * 1e-6
        samples = np.zeros(1000, dtype=SAMPLE_DTYPE)
        samples["t"] = t_us
        samples["u"] = np.sin(130.0 * t) + rng.normal(0.0, 0.3, 1000)
        series = normalize(samples, "u")
        fast = nudft_spectrum(series, band=(30.0, 500.0))
        slow = direct_spectrum(series.values, series.times_s, fast.omegas)
        err = np.abs(fast.magnitudes - slow) / slow.max()
        assert err.max() < 1e-6, err.max()


def test_criterion_08_metric_formulas():
    """Entropy closed-form value, variance/gradient hand cases, thinning
    idempotence, and component counts against a flood-fill oracle on 100
    random 64x64 bitmaps."""
    with _report(8, "metric formula spot checks and oracles"):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0] = True
        h = shannon_entropy(bits)
        assert abs(h - 0.8113) <= 1e-4, h

        var = frame_variance(np.array([[0, 0], [2, 2]]))
        assert var == pytest.approx(1.0)

        counts = np.zeros((2, 3))
        counts[:, 1] = 3.0
        grad = gradient_magnitude(counts)
        assert grad == pytest.approx(2.0)

        rng = np.random.default_rng(0)
        for _ in range(100):
            bitmap = rng.random((64, 64)) < 0.5
            skel = zhang_suen_thin(bitmap)
            np.testing.assert_array_equal(skel, zhang_suen_thin(skel))
            _, n = label_components(bitmap)
            assert n == flood_fill_components(bitmap.astype(np.uint8))


def test_criterion_09_throughput():
    """Fixed-state compensation sustains >= 10 Mev/s over 1e7 events."""
    with _report(9, "compensation throughput"):
        rng = np.random.default_rng(1)
        n = 10_000_000
        events = make_events(
            np.sort(rng.integers(0, 10_000_000, n)),
            rng.integers(0, 1280, n),
            rng.integers(0, 720, n),
            rng.choice([-1, 1], n),
            validate=False,
        )
        geom = SensorGeometry(width=1280, height=720)
        su, sv = states_from_config(
            OscillatorConfig(amp_x_px=3.0, amp_y_px=2.0, omega=OMEGA,
                             phi_x=0.1, phi_y=-1.0)
        )
        bench = throughput_bench(events, su, sv, geom, repeats=5)
        assert bench["events_per_second"] >= 10e6, bench


def test_criterion_10_determinism(tmp_path):
    """Two pipeline runs with the same seed produce byte-identical event
    files and CSV artifacts."""
    with _report(10, "pipeline determinism"):
        config = {
            "geometry": {"width": 64, "height": 64},
            "scene": {
                "pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": 32.0},
                "contrast": 2.0,
                "duration_s": 1.0,
                "oscillation": {"amp_x_px": 3.0, "amp_y_px": 3.0,
                                "omega_rad_s": OMEGA,
                                "phi_x": 0.0, "phi_y": -math.pi / 2.0},
            },
            "tracker": {"patches": [{"cx": 32.0, "cy": 32.0, "half_size": 14}],
                        "tau_s": 0.005},
        }
        run_pipeline(config, tmp_path / "a", seed=3)
        run_pipeline(config, tmp_path / "b", seed=3)

        def digests(d):
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(d.iterdir())
                if p.name != "manifest.json"  # holds wall-clock timings
            }

        da, db = digests(tmp_path / "a"), digests(tmp_path / "b")
        assert set(da) == set(db)
        assert {"events.evt", "samples.csv", "compensated.evt",
                "metrics_raw.csv", "metrics_compensated.csv"} <= set(da)
        for name in da:
            assert da[name] == db[name], name
