import copy
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosc import core, io as evio
from evosc.compensate import (
    CompensatedEvents,
    compensate_stream,
    states_from_config,
    states_from_init,
    trace_phasors,
    write_compensated_csv,
)
from evosc.core import SensorGeometry, make_events
from evosc.ekf import NoiseConfig, filter_samples, phasor
from evosc.errors import ConfigError
from evosc.freqest import SinusoidInit
from evosc.sim import OscillatorConfig, camera_offset, phasor_offset
from evosc.track import SAMPLE_DTYPE, delag_coefficients, lowpass_gain

from timing import throughput_bench

GEOM = SensorGeometry(width=64, height=64)


def random_events(n, seed=0, width=64, height=64, t_max=1_000_000):
    rng = np.random.default_rng(seed)
    return make_events(
        np.sort(rng.integers(0, t_max, n)),
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.choice([-1, 1], n),
    )


def per_event_reference(ev, samples, su, sv, noise, lag_tau_s):
    """One filter_samples pass per axis, then each event takes the de-lagged
    state after the last sample strictly before it (the initial state when none),
    gathered per event."""
    k = np.searchsorted(samples["t"], ev["t"], side="left")
    t = ev["t"].astype(np.float64)
    out = []
    for state, axis, coord in ((su, "u", "x"), (sv, "v", "y")):
        _, trace = filter_samples(samples, copy.deepcopy(state), noise, axis=axis)
        rows = [(state.theta, state.omega, state.a, state.b, float(state.t_us))]
        rows += [(r["theta"], r["omega"], r["a"], r["b"], float(r["t"])) for r in trace]
        table = []
        for theta, omega, a, b, t0 in rows:
            if lag_tau_s:
                a, b = delag_coefficients(a, b, omega, lag_tau_s)
            amp = math.hypot(a, b)
            psi = math.atan2(a, b) if amp > 0 else 0.0
            table.append((amp, theta - psi, omega, t0))
        amp, phase0, omega, t0 = np.array(table).T
        out.append(ev[coord] - amp[k] * np.cos(phase0[k] + omega[k] * 1e-6 * (t - t0[k])))
    return out


@given(
    amp_x=st.floats(0.0, 4.0), amp_y=st.floats(0.0, 4.0),
    phi_x=st.floats(-math.pi, math.pi), phi_y=st.floats(-math.pi, math.pi),
    t_ref=st.integers(0, 2_000_000),
)
@settings(max_examples=40, deadline=None)
def test_states_from_config_reproduce_commanded_offsets(amp_x, amp_y, phi_x, phi_y, t_ref):
    cfg = OscillatorConfig(amp_x_px=amp_x, amp_y_px=amp_y, omega=100.0 * math.pi,
                           phi_x=phi_x, phi_y=phi_y)
    su, sv = states_from_config(cfg, t_ref_us=t_ref)
    t = np.array([0.0, 1234.0, 777_777.0, 2_500_000.0])
    du, dv = (phasor_offset(*phasor(s), t) for s in (su, sv))
    du_true, dv_true = camera_offset(t * 1e-6, cfg)
    np.testing.assert_allclose(du, du_true, atol=1e-9)
    np.testing.assert_allclose(dv, dv_true, atol=1e-9)


def test_states_from_init_match_fit_prediction():
    fu = SinusoidInit(omega=90.0, a=1.0, b=0.5, c=30.0, residual_rms=0.0)
    fv = SinusoidInit(omega=90.0, a=-0.2, b=2.0, c=31.0, residual_rms=0.0)
    su, sv = states_from_init(fu, fv, t_ref_us=40_000)
    t = np.array([40_000.0, 100_000.0, 900_000.0])
    du, dv = (phasor_offset(*phasor(s), t) for s in (su, sv))
    ts = t * 1e-6
    np.testing.assert_allclose(du, 1.0 * np.sin(90.0 * ts) + 0.5 * np.cos(90.0 * ts),
                               atol=1e-9)
    np.testing.assert_allclose(dv, -0.2 * np.sin(90.0 * ts) + 2.0 * np.cos(90.0 * ts),
                               atol=1e-9)


class TestFixedState:
    def test_exact_states_cancel_synthetic_shift(self):
        """Events displaced by a known oscillation land back on their source
        pixel after compensation."""
        cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=2.0, omega=100.0 * math.pi,
                               phi_x=0.4, phi_y=-1.0)
        rng = np.random.default_rng(1)
        n = 5000
        t = np.sort(rng.integers(0, 1_000_000, n))
        x0 = rng.integers(8, 56, n).astype(float)
        y0 = rng.integers(8, 56, n).astype(float)
        du, dv = camera_offset(t * 1e-6, cfg)
        ev = make_events(t, np.rint(x0 + du), np.rint(y0 + dv), np.ones(n, int))
        su, sv = states_from_config(cfg)
        comp = compensate_stream(ev, su, sv, GEOM)
        # rounding the shifted coordinate costs at most half a pixel per axis
        assert np.max(np.abs(comp.x - x0)) <= 0.5 + 1e-9
        assert np.max(np.abs(comp.y - y0)) <= 0.5 + 1e-9

    def test_zero_state_is_identity(self):
        ev = random_events(300)
        su, sv = states_from_config(OscillatorConfig(amp_x_px=0.0, amp_y_px=0.0,
                                                     omega=10.0))
        comp = compensate_stream(ev, su, sv, GEOM)
        np.testing.assert_array_equal(comp.xi, ev["x"])
        np.testing.assert_array_equal(comp.yi, ev["y"])
        np.testing.assert_array_equal(comp.t, ev["t"])
        np.testing.assert_array_equal(comp.polarity, ev["p"])
        assert not comp.out_of_bounds.any()

    def test_order_and_count_preserved(self):
        ev = random_events(2000, seed=3)
        cfg = OscillatorConfig(amp_x_px=5.0, amp_y_px=5.0, omega=200.0)
        su, sv = states_from_config(cfg)
        comp = compensate_stream(ev, su, sv, GEOM)
        assert len(comp) == ev.shape[0]
        np.testing.assert_array_equal(comp.t, ev["t"])

    def test_out_of_bounds_clamped_and_flagged(self):
        ev = make_events([10, 20], [0, 63], [5, 5], [1, 1])
        su, sv = states_from_config(OscillatorConfig(amp_x_px=4.0, amp_y_px=0.0,
                                                     omega=1.0, phi_x=0.0))
        comp = compensate_stream(ev, su, sv, GEOM)
        # offset ~ +4 px at t~0, so x=0 maps to -4 -> clamped to 0, flagged
        assert comp.out_of_bounds[0]
        assert comp.xi[0] == 0
        assert not comp.out_of_bounds[1]
        kept = comp.to_events(drop_out_of_bounds=True)
        assert kept.shape[0] == 1
        full = comp.to_events()
        assert full.shape[0] == 2

    def test_lag_compensation_rescales_state(self):
        # a pure-cosine state with lagged coefficients: delag must restore
        # the true amplitude before subtraction
        omega, tau = 100.0 * math.pi, 0.005
        cfg = OscillatorConfig(amp_x_px=2.0, amp_y_px=0.0, omega=omega)
        su, sv = states_from_config(cfg)
        gain = lowpass_gain(omega, tau)
        rot = complex(su.b, -su.a) / complex(1.0, omega * tau)
        su.a, su.b = -rot.imag, rot.real
        assert math.hypot(su.a, su.b) == pytest.approx(2.0 * gain)
        ev = make_events([0], [32], [32], [1])
        comp = compensate_stream(ev, su, sv, GEOM, lag_tau_s=tau)
        # at t=0 the true offset is amp*cos(phi_x)=2, so x should move by -2
        assert comp.x[0] == pytest.approx(32.0 - 2.0, abs=1e-9)

    def test_unknown_mode_rejected(self):
        ev = random_events(10)
        su, sv = states_from_config(OscillatorConfig(amp_x_px=1.0, amp_y_px=1.0,
                                                     omega=10.0))
        with pytest.raises(ConfigError):
            compensate_stream(ev, su, sv, GEOM, mode="adaptive")


class TestTracking:
    def make_noiseless_setup(self, n_events=20_000, n_samples=400, seed=2):
        cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=2.0, omega=100.0 * math.pi,
                               phi_x=0.0, phi_y=-math.pi / 2.0)
        rng = np.random.default_rng(seed)
        t = np.sort(rng.integers(0, 1_000_000, n_events))
        x0 = rng.integers(8, 56, n_events).astype(float)
        y0 = rng.integers(8, 56, n_events).astype(float)
        du, dv = camera_offset(t * 1e-6, cfg)
        ev = make_events(t, np.rint(x0 + du), np.rint(y0 + dv), np.ones(n_events, int))
        ts = np.linspace(0, 1_000_000, n_samples).astype(np.uint64)
        su_t, sv_t = camera_offset(ts * 1e-6, cfg)
        samples = np.zeros(n_samples, dtype=SAMPLE_DTYPE)
        samples["t"] = ts
        samples["u"] = 32.0 + su_t
        samples["v"] = 32.0 + sv_t
        return cfg, ev, samples, x0, y0

    def test_requires_samples_and_noise(self):
        ev = random_events(10)
        su, sv = states_from_config(OscillatorConfig(amp_x_px=1.0, amp_y_px=1.0,
                                                     omega=10.0))
        with pytest.raises(ConfigError):
            compensate_stream(ev, su, sv, GEOM, mode="tracking")

    def test_perfect_samples_keep_residual_small(self):
        cfg, ev, samples, x0, y0 = self.make_noiseless_setup()
        su, sv = states_from_config(cfg)
        # sample values carry the patch-centre mean; the filter c must too
        su.c, sv.c = 32.0, 32.0
        su.covariance = np.diag([1e-4, 1e-2, 1e-2, 1e-2, 1e-2])
        sv.covariance = su.covariance.copy()
        comp = compensate_stream(ev, su, sv, GEOM, mode="tracking",
                                 samples=samples, noise=NoiseConfig(sigma_r=0.1))
        assert np.max(np.abs(comp.x - x0)) <= 0.75
        assert np.max(np.abs(comp.y - y0)) <= 0.75

    def test_matches_fixed_state_when_samples_confirm_state(self):
        cfg, ev, samples, _, _ = self.make_noiseless_setup()
        su_a, sv_a = states_from_config(cfg)
        fixed = compensate_stream(ev, su_a, sv_a, GEOM)
        su_b, sv_b = states_from_config(cfg)
        su_b.c, sv_b.c = 32.0, 32.0
        su_b.covariance = np.diag([1e-8, 1e-8, 1e-8, 1e-8, 1e-8])
        sv_b.covariance = su_b.covariance.copy()
        tracked = compensate_stream(ev, su_b, sv_b, GEOM, mode="tracking",
                                    samples=samples, noise=NoiseConfig(sigma_r=0.5))
        np.testing.assert_allclose(tracked.x, fixed.x, atol=5e-3)
        np.testing.assert_allclose(tracked.y, fixed.y, atol=5e-3)

    def test_tracking_corrects_stale_frequency(self):
        """With a slightly wrong initial omega, fixed-state drifts out of
        phase but sample feedback keeps the tracking path aligned."""
        cfg, ev, samples, x0, _ = self.make_noiseless_setup()
        stale = OscillatorConfig(amp_x_px=3.0, amp_y_px=2.0,
                                 omega=cfg.omega * 1.02,
                                 phi_x=0.0, phi_y=-math.pi / 2.0)
        su_f, sv_f = states_from_config(stale)
        fixed = compensate_stream(ev, su_f, sv_f, GEOM)
        su_t, sv_t = states_from_config(stale)
        su_t.c, sv_t.c = 32.0, 32.0
        su_t.covariance = np.diag([1e-2, 1.0, 1e-2, 1e-2, 1e-2])
        sv_t.covariance = su_t.covariance.copy()
        tracked = compensate_stream(ev, su_t, sv_t, GEOM, mode="tracking",
                                    samples=samples, noise=NoiseConfig(sigma_r=0.1))
        half = ev.shape[0] // 2
        err_fixed = np.abs(fixed.x - x0)[half:]
        err_tracked = np.abs(tracked.x - x0)[half:]
        assert err_tracked.mean() < 0.3 * err_fixed.mean()
        assert su_t.omega == pytest.approx(cfg.omega, rel=1e-3)

    def noisy_run(self, seed=4):
        """Stale-frequency states and noisy samples, so the states change at every sample."""
        cfg, ev, samples, _, _ = self.make_noiseless_setup(n_events=30_000, n_samples=300,
                                                           seed=seed)
        rng = np.random.default_rng(seed)
        samples["u"] += rng.normal(0.0, 0.2, samples.shape[0])
        samples["v"] += rng.normal(0.0, 0.2, samples.shape[0])
        # events sharing a sample's timestamp must use the state before it
        ev["t"][::50] = samples["t"][rng.integers(0, samples.shape[0], ev["t"][::50].size)]
        ev.sort(order="t", kind="stable")
        su, sv = states_from_config(OscillatorConfig(
            amp_x_px=3.0, amp_y_px=2.0, omega=cfg.omega * 1.01, phi_y=-math.pi / 2.0))
        su.c, sv.c = 32.0, 32.0
        su.covariance = np.diag([1e-2, 1.0, 1e-2, 1e-2, 1e-2])
        sv.covariance = su.covariance.copy()
        return ev, samples, su, sv

    @pytest.mark.parametrize("lag_tau_s", [None, 0.005])
    def test_equals_one_filter_pass_and_gather(self, lag_tau_s):
        ev, samples, su, sv = self.noisy_run()
        noise = NoiseConfig(sigma_r=0.2)
        ref_x, ref_y = per_event_reference(ev, samples, su, sv, noise, lag_tau_s)
        comp = compensate_stream(ev, su, sv, GEOM, mode="tracking", samples=samples,
                                 noise=noise, lag_tau_s=lag_tau_s)
        np.testing.assert_array_equal(comp.x, ref_x)
        np.testing.assert_array_equal(comp.y, ref_y)

    def test_chunked_run_with_carried_states_equals_one_call(self):
        ev, samples, su, sv = self.noisy_run(seed=7)
        noise = NoiseConfig(sigma_r=0.2)
        whole = compensate_stream(ev, copy.deepcopy(su), copy.deepcopy(sv), GEOM,
                                  mode="tracking", samples=samples, noise=noise,
                                  lag_tau_s=0.005)
        # uneven edges, one chunk without samples and one without events
        edges = [0, 1, 7_000, 7_001, 250_000, 260_000, 261_000, 600_000, 2_000_000]
        eb = np.searchsorted(ev["t"], edges)
        sb = np.searchsorted(samples["t"], edges)
        parts = [compensate_stream(ev[eb[i]:eb[i + 1]], su, sv, GEOM, mode="tracking",
                                   samples=samples[sb[i]:sb[i + 1]], noise=noise,
                                   lag_tau_s=0.005)
                 for i in range(len(edges) - 1)]
        for field in ("t", "x", "y", "xi", "yi", "polarity", "out_of_bounds"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, field) for p in parts]), getattr(whole, field))

    def test_advances_caller_states_like_filter_samples(self):
        ev, samples, su, sv = self.noisy_run()
        noise = NoiseConfig(sigma_r=0.2)
        ref_u, _ = filter_samples(samples, copy.deepcopy(su), noise, axis="u")
        ref_v, _ = filter_samples(samples, copy.deepcopy(sv), noise, axis="v")
        compensate_stream(ev, su, sv, GEOM, mode="tracking", samples=samples, noise=noise)
        for got, ref in ((su, ref_u), (sv, ref_v)):
            for name in ("theta", "omega", "a", "b", "c", "t_us"):
                assert getattr(got, name) == getattr(ref, name)
            np.testing.assert_array_equal(got.covariance, ref.covariance)

    @pytest.mark.parametrize("lag_tau_s", [None, 0.005])
    def test_no_samples_gives_fixed_state_result(self, lag_tau_s):
        ev, samples, su, sv = self.noisy_run()
        fixed = compensate_stream(ev, su, sv, GEOM, lag_tau_s=lag_tau_s)
        tracked = compensate_stream(ev, su, sv, GEOM, mode="tracking", samples=samples[:0],
                                    noise=NoiseConfig(), lag_tau_s=lag_tau_s)
        for field in ("t", "x", "y", "xi", "yi", "polarity", "out_of_bounds"):
            np.testing.assert_array_equal(getattr(tracked, field), getattr(fixed, field))

    def test_empty_stream(self):
        cfg, _, samples, _, _ = self.make_noiseless_setup(n_events=10, n_samples=5)
        su, sv = states_from_config(cfg)
        ev = random_events(0)
        comp = compensate_stream(ev, su, sv, GEOM, mode="tracking",
                                 samples=samples, noise=NoiseConfig())
        assert len(comp) == 0


def block_case(t, x, y, sample_t, sample_noise, lag_tau_s):
    """(events, samples, lag_tau_s); timestamps in ms, events in the given order."""
    ev = make_events(np.asarray(t, dtype=np.uint64) * 1000, x, y,
                     np.where(np.arange(len(t)) % 3 == 0, -1, 1), validate=False)
    samples = np.zeros(len(sample_t), dtype=SAMPLE_DTYPE)
    samples["t"] = np.asarray(sample_t, dtype=np.uint64) * 1000
    ts = samples["t"] * 1e-6
    # the commanded motion of stale_states' oscillation, 2 % faster, plus noise
    noise = np.asarray(sample_noise, dtype=float).reshape(2, -1)
    samples["u"] = 32.0 + 3.0 * np.cos(102.0 * math.pi * ts + 0.3) + noise[0]
    samples["v"] = 32.0 + 2.0 * np.cos(102.0 * math.pi * ts - 1.2) + noise[1]
    return ev, samples, lag_tau_s


@st.composite
def block_cases(draw):
    n = draw(st.integers(0, 40))
    # few distinct timestamps, so runs of equal ones straddle the 7-event blocks
    t = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    if draw(st.booleans()):
        t = sorted(t)
    x = draw(st.lists(st.integers(0, GEOM.width - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, GEOM.height - 1), min_size=n, max_size=n))
    m = draw(st.integers(0, 6))
    # sample times drawn from the event times' range land inside runs
    sample_t = sorted(draw(st.lists(st.integers(0, 30), min_size=m, max_size=m)))
    sample_noise = draw(st.lists(st.floats(-0.5, 0.5), min_size=2 * m, max_size=2 * m))
    return block_case(t, x, y, sample_t, sample_noise,
                      draw(st.sampled_from([None, 0.005])))


def stale_states():
    su, sv = states_from_config(OscillatorConfig(amp_x_px=3.0, amp_y_px=2.0,
                                                 omega=100.0 * math.pi, phi_x=0.3,
                                                 phi_y=-1.2))
    for s in (su, sv):
        s.c = 32.0
        s.covariance = np.diag([1e-2, 1.0, 1e-2, 1e-2, 1e-2])
    return su, sv


@given(block_cases())
@example(block_case([], [], [], [], [], None))
@example(block_case([4], [63], [0], [], [], 0.005))
@example(block_case([4], [63], [0], [4], [0.1, -0.1], 0.005))
@example(block_case([0] * 9 + [5] * 9, list(range(18)), [3] * 18, [0, 5, 5], [0.0] * 6, None))
@settings(max_examples=60, deadline=None)
def test_blocks_and_runs_match_the_per_event_reference(case):
    """Evaluating once per run of equal timestamps, block by block, gives the
    per-event evaluation bit for bit in both modes, from the filter walk and
    from the traces' table, unsorted streams included, whether the blocks
    are walked on one thread or split into spans over two or three."""
    ev, samples, lag_tau_s = case
    noise = NoiseConfig(sigma_r=0.2)
    su, sv = stale_states()
    traces = [filter_samples(samples, copy.deepcopy(s), noise, axis=a)[1]
              for s, a in ((su, "u"), (sv, "v"))]
    fixed_ref = per_event_reference(ev, samples[:0], su, sv, noise, lag_tau_s)
    tracking_ref = per_event_reference(ev, samples, su, sv, noise, lag_tau_s)
    runs = []
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", 7)
            mp.setattr(core, "_cpus", lambda: cpus)
            runs += [
                (compensate_stream(ev, su, sv, GEOM, lag_tau_s=lag_tau_s), fixed_ref),
                (compensate_stream(ev, *stale_states(), GEOM, mode="tracking",
                                   samples=samples, noise=noise, lag_tau_s=lag_tau_s),
                 tracking_ref),
                (compensate_stream(ev, su, sv, GEOM, mode="tracking", samples=samples,
                                   phasors=trace_phasors(su, sv, *traces, lag_tau_s)),
                 tracking_ref),
            ]
    for comp, (ref_x, ref_y) in runs:
        np.testing.assert_array_equal(comp.x, ref_x)
        np.testing.assert_array_equal(comp.y, ref_y)
        xi, yi = np.rint(ref_x), np.rint(ref_y)
        np.testing.assert_array_equal(comp.xi, np.clip(xi, 0, GEOM.width - 1))
        np.testing.assert_array_equal(comp.yi, np.clip(yi, 0, GEOM.height - 1))
        np.testing.assert_array_equal(
            comp.out_of_bounds,
            (xi < 0) | (xi >= GEOM.width) | (yi < 0) | (yi >= GEOM.height))
        np.testing.assert_array_equal(comp.t, ev["t"])
        np.testing.assert_array_equal(comp.polarity, ev["p"])


def parent_rounding(comp):
    """(xi, yi, out_of_bounds) as compensate_stream stored them before they
    were derived: each whole column rounded with np.rint into int32
    (casting="unsafe"), flagged where the uint32 view is past the sensor, then
    clipped."""
    rounded, oob = [], np.zeros(len(comp), dtype=bool)
    for real, size in ((comp.x, comp.geometry.width), (comp.y, comp.geometry.height)):
        r = np.empty(real.shape[0], dtype=np.int32)
        with np.errstate(invalid="ignore"):
            np.rint(real, out=r, casting="unsafe")
        oob |= r.view(np.uint32) >= size
        np.clip(r, 0, size - 1, out=r)
        rounded.append(r)
    return rounded[0], rounded[1], oob


def compensated(t, x, y, p, geometry=GEOM):
    """A CompensatedEvents of records (t, 0, 0, p) and real coordinates x, y."""
    return CompensatedEvents(records=make_events(t, np.zeros(len(t)), np.zeros(len(t)), p,
                                                 validate=False),
                             x=np.asarray(x, dtype=np.float64),
                             y=np.asarray(y, dtype=np.float64), geometry=geometry)


@given(st.lists(st.booleans(), max_size=40))
@example([])
@example([True] * 15)
@settings(max_examples=60, deadline=None)
def test_packing_is_the_same_for_every_span_count(oob):
    """to_events, keeping or dropping the events out of bounds, packs the
    records block by block over one, two or three spans exactly as one masked
    copy of each column does; an empty stream and one whose events are all
    out of bounds included."""
    n = len(oob)
    rng = np.random.default_rng(n)
    oob = np.array(oob, dtype=bool)
    # in bounds: within 0.49 px of a pixel; out: past an edge of the 64 px sensor
    x = rng.integers(0, 64, n) + rng.uniform(-0.49, 0.49, n)
    x[oob] = rng.choice([-3.7, 64.6, 1e12], np.count_nonzero(oob))
    comp = compensated(np.sort(rng.integers(0, 2**40, n)).astype(np.uint64), x,
                       rng.integers(0, 64, n) + rng.uniform(-0.49, 0.49, n),
                       rng.choice([-1, 1], n).astype(np.int8))
    xi, yi, ref_oob = parent_rounding(comp)
    np.testing.assert_array_equal(ref_oob, oob)
    for drop in (False, True):
        keep = ~oob if drop else slice(None)
        ref = make_events(comp.t[keep], xi[keep], yi[keep], comp.polarity[keep],
                          validate=False)
        for cpus in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_BLOCK", 7)
                mp.setattr(core, "_cpus", lambda: cpus)
                got = comp.to_events(drop_out_of_bounds=drop)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


# rounding ties, signed zeros, the sensor's edges, int32's edges, values no
# int32 holds and NaN, on the 64 px sensor
AWKWARD = [np.nan, np.inf, -np.inf, 1e12, -1e12, 0.5, -0.5, -0.51, 0.0, -0.0, 62.5, 63.49,
           63.5, 2.0**31 - 1, 2.0**31, -2.0**31, -2.0**31 - 1, 31.0]


@pytest.mark.parametrize("x", [AWKWARD, [], [np.nan, -1.0, 64.0, -np.inf, 1e12]],
                         ids=["awkward", "empty", "all-out"])
def test_derived_columns_equal_the_stored_ones(x):
    """xi, yi, out_of_bounds and to_events (keeping and dropping), derived
    block by block over one, two or three spans, equal the columns the result
    stored before they were derived."""
    n = len(x)
    comp = compensated(np.arange(n), x, x[::-1], np.where(np.arange(n) % 2, 1, -1))
    xi, yi, oob = parent_rounding(comp)
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", 4)
            mp.setattr(core, "_cpus", lambda: cpus)
            for got, ref in ((comp.xi, xi), (comp.yi, yi), (comp.out_of_bounds, oob)):
                assert got.dtype == ref.dtype
                np.testing.assert_array_equal(got, ref)
            for drop in (False, True):
                keep = ~oob if drop else slice(None)
                ref = make_events(comp.t[keep], xi[keep], yi[keep], comp.polarity[keep],
                                  validate=False)
                assert comp.to_events(drop_out_of_bounds=drop).tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", ["fixed_state", "tracking"])
def test_result_reads_the_callers_records_in_place(mode):
    """compensate_stream neither copies nor changes its input: the result's t
    and polarity are views of the caller's records, and deriving or packing
    the rounded coordinates leaves them as they were."""
    ev = random_events(1000, seed=4)
    before = ev.tobytes()
    _, samples, _ = block_case([], [], [], [1, 2, 500], [0.0] * 6, None)
    kwargs = {"mode": "tracking", "samples": samples, "noise": NoiseConfig()} \
        if mode == "tracking" else {}
    comp = compensate_stream(ev, *stale_states(), GEOM, **kwargs)
    assert comp.records is ev
    assert np.shares_memory(comp.t, ev) and np.shares_memory(comp.polarity, ev)
    comp.xi, comp.yi, comp.out_of_bounds, comp.to_events(), comp.to_events(True)
    assert ev.tobytes() == before


@pytest.mark.parametrize("kwargs", [
    {"mode": "fixed_state"},
    {"mode": "tracking", "noise": NoiseConfig()},
    {"mode": "tracking", "lag_tau_s": 0.005},
])
def test_phasor_table_replaces_noise_and_lag_in_tracking_mode_only(kwargs):
    ev = random_events(10)
    su, sv = stale_states()
    _, samples, _ = block_case([], [], [], [1, 2], [0.0] * 4, None)
    with pytest.raises(ConfigError, match="phasor table"):
        compensate_stream(ev, su, sv, GEOM, samples=samples,
                          phasors=np.zeros((8, 3)), **kwargs)


def test_phasor_table_must_have_a_column_per_sample_and_one():
    ev = random_events(10)
    su, sv = stale_states()
    _, samples, _ = block_case([], [], [], [1, 2], [0.0] * 4, None)
    with pytest.raises(ConfigError, match="phasor table"):
        compensate_stream(ev, su, sv, GEOM, mode="tracking", samples=samples,
                          phasors=np.zeros((8, 2)))


def test_throughput_bench_reports_sane_numbers():
    ev = random_events(200_000, seed=5)
    su, sv = states_from_config(OscillatorConfig(amp_x_px=2.0, amp_y_px=2.0,
                                                 omega=100.0))
    out = throughput_bench(ev, su, sv, GEOM, repeats=3)
    assert out["events"] == 200_000
    assert out["repeats"] == 3
    assert out["ns_per_event_mean"] > 0
    assert out["events_per_second"] == pytest.approx(1e9 / out["ns_per_event_mean"])


def test_throughput_bench_rejects_bad_repeats():
    ev = random_events(10)
    su, sv = states_from_config(OscillatorConfig(amp_x_px=1.0, amp_y_px=1.0,
                                                 omega=10.0))
    with pytest.raises(ValueError):
        throughput_bench(ev, su, sv, GEOM, repeats=0)


def test_write_compensated_csv_format():
    comp = compensated([5, 10], [1.23456, 2.0], [3.5, 4.25], [1, -1])
    buf = io.BytesIO()
    write_compensated_csv(buf, comp)
    lines = buf.getvalue().decode().splitlines()
    assert lines == ["t_us,x,y,p", "5,1.235,3.500,1", "10,2.000,4.250,-1"]


def test_write_compensated_csv_matches_per_row_formatting(monkeypatch):
    """Formatting Python scalars gives the bytes the numpy-scalar f-string gave,
    on rounding ties, negative zero and wide values, across block boundaries."""
    monkeypatch.setattr(evio, "_CSV_BLOCK", 4)
    x = np.array([-0.0004, 0.0005, -3.2, 1e4, 12345.6785, -99999.9995, 2.5e7, 0.0, 1e-12])
    y = x[::-1].copy()
    comp = compensated(np.array([0, 1, 2**40, 2**63 + 7, 5, 6, 7, 8, 9], dtype=np.uint64),
                       x, y, [1, -1] * 4 + [1])
    buf = io.BytesIO()
    write_compensated_csv(buf, comp)
    rows = [f"{int(t)},{xv:.3f},{yv:.3f},{int(p)}"
            for t, xv, yv, p in zip(comp.t, comp.x, comp.y, comp.polarity)]
    assert buf.getvalue() == ("\n".join(["t_us,x,y,p", *rows]) + "\n").encode()
    assert buf.getvalue().splitlines()[1:3] == [b"0,-0.000,0.000,1", b"1,0.001,0.000,-1"]
