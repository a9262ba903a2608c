import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosc.ekf import (
    GATE_SIGMAS,
    TRACE_DTYPE,
    NoiseConfig,
    SinusoidState,
    StateSnapshot,
    amplitude_phase,
    filter_samples,
    init,
    phasor,
    predict,
    update,
    wrap_theta,
    write_trace_csv,
)
from evosc.errors import ConfigError, NumericalDegeneracyError, OrderingError
from evosc.freqest import SinusoidInit
from evosc.sim import phasor_offset

from oracles import jacobian_fd


def make_fit(omega=80.0, a=2.0, b=-1.5, c=33.0):
    return SinusoidInit(omega=omega, a=a, b=b, c=c, residual_rms=0.0)


def fit_value(fit, t_s):
    return fit.a * math.sin(fit.omega * t_s) + fit.b * math.cos(fit.omega * t_s) + fit.c


def h_of(state):
    return state.a * math.sin(state.theta) + state.b * math.cos(state.theta) + state.c


class TestNoiseConfig:
    def test_defaults(self):
        n = NoiseConfig()
        assert n.q.shape == (5, 5)
        assert n.sigma_r == 0.5

    def test_bad_q_shape(self):
        with pytest.raises(ConfigError):
            NoiseConfig(q=np.eye(4))

    def test_bad_sigma(self):
        with pytest.raises(ConfigError):
            NoiseConfig(sigma_r=0.0)


@given(st.floats(-100.0, 100.0))
def test_wrap_theta_range_and_equivalence(theta):
    w = wrap_theta(theta)
    assert -math.pi < w <= math.pi
    assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)
    assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)


class TestInit:
    @pytest.mark.parametrize("t_ref_us", [0, 250_000, 1_999_714])
    def test_rotation_preserves_fit_value_at_reference(self, t_ref_us):
        fit = make_fit()
        state = init(fit, t_ref_us)
        assert state.theta == 0.0
        assert state.t_us == t_ref_us
        assert h_of(state) == pytest.approx(fit_value(fit, t_ref_us * 1e-6), abs=1e-9)

    def test_rotation_preserves_amplitude(self):
        fit = make_fit()
        state = init(fit, 123_456)
        assert math.hypot(state.a, state.b) == pytest.approx(math.hypot(fit.a, fit.b))

    def test_mean_propagation_matches_fit_everywhere(self):
        # prediction is exact for the mean, so h(predict(t)) == fit(t)
        fit = make_fit()
        noise = NoiseConfig(q=np.zeros((5, 5)))
        state = init(fit, 40_000)
        for t_us in (40_000, 150_000, 600_000, 2_500_000):
            predict(state, t_us, noise)
            assert h_of(state) == pytest.approx(fit_value(fit, t_us * 1e-6), abs=1e-9)


class TestPredict:
    def test_theta_advances_and_wraps(self):
        state = init(make_fit(omega=100.0), 0)
        predict(state, 1_000_000, NoiseConfig())
        assert state.theta == pytest.approx(wrap_theta(100.0))
        assert state.t_us == 1_000_000

    def test_covariance_recursion(self):
        noise = NoiseConfig()
        state = init(make_fit(), 0)
        p0 = state.covariance.copy()
        dt = 0.25
        predict(state, 250_000, noise)
        f = np.eye(5)
        f[0, 1] = dt
        np.testing.assert_allclose(state.covariance, f @ p0 @ f.T + noise.q * dt,
                                   rtol=1e-12)

    def test_zero_dt_is_identity(self):
        state = init(make_fit(), 500)
        before = (state.theta, state.covariance.copy())
        predict(state, 500, NoiseConfig())
        assert state.theta == before[0]
        np.testing.assert_array_equal(state.covariance, before[1])

    def test_backwards_time_rejected(self):
        state = init(make_fit(), 1000)
        with pytest.raises(OrderingError):
            predict(state, 999, NoiseConfig())


class TestUpdate:
    def test_jacobian_matches_finite_difference(self):
        state = init(make_fit(), 0)
        state.theta = 0.7

        def h(x):
            theta, _, a, b, c = x
            return a * math.sin(theta) + b * math.cos(theta) + c

        x0 = np.array([state.theta, state.omega, state.a, state.b, state.c])
        expected = jacobian_fd(h, x0)
        # same linearization the filter applies internally
        st_, ct = math.sin(state.theta), math.cos(state.theta)
        h_jac = np.array([state.a * ct - state.b * st_, 0.0, st_, ct, 1.0])
        np.testing.assert_allclose(h_jac, expected, atol=1e-6)

    def test_update_pulls_prediction_toward_measurement(self):
        noise = NoiseConfig(sigma_r=0.3)
        state = init(make_fit(), 0)
        h_before = h_of(state)
        _, innov, ok = update(state, 35.0, noise)
        assert ok
        assert innov == pytest.approx(35.0 - h_before)
        assert abs(h_of(state) - 35.0) < abs(h_before - 35.0)

    def test_gate_rejects_outlier_without_touching_state(self):
        noise = NoiseConfig(sigma_r=0.1)
        state = init(make_fit(), 0)
        mean_before = (state.theta, state.omega, state.a, state.b, state.c)
        p_before = state.covariance.copy()
        s = float(np.array([0.0, 0.0, 0.0, 1.0, 1.0]) @ p_before @
                  np.array([0.0, 0.0, 0.0, 1.0, 1.0])) + noise.sigma_r**2
        z = h_of(state) + (GATE_SIGMAS + 1.0) * math.sqrt(s) * 2.0
        _, innov, ok = update(state, z, noise)
        assert not ok
        assert (state.theta, state.omega, state.a, state.b, state.c) == mean_before
        np.testing.assert_array_equal(state.covariance, p_before)

    def test_update_shrinks_variance(self):
        noise = NoiseConfig(sigma_r=0.5)
        state = init(make_fit(), 0)
        trace_before = np.trace(state.covariance)
        update(state, h_of(state) + 0.1, noise)
        assert np.trace(state.covariance) < trace_before

    def test_degenerate_covariance_detected(self):
        state = init(make_fit(), 0)
        state.covariance = -10.0 * np.eye(5)
        with pytest.raises(NumericalDegeneracyError):
            update(state, 0.0, NoiseConfig(sigma_r=0.01))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_covariance_stays_symmetric_psd(seed):
    """Joseph-form updates keep P symmetric PSD through random filtering."""
    rng = np.random.default_rng(seed)
    noise = NoiseConfig(sigma_r=0.4)
    state = init(make_fit(), 0)
    t = 0
    for _ in range(40):
        t += int(rng.integers(100, 5000))
        predict(state, t, noise)
        update(state, float(rng.normal(33.0, 2.0)), noise)
        p = state.covariance
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        assert np.linalg.eigvalsh(p).min() > -1e-10


class TestConvergence:
    def test_noiseless_samples_pull_in_perturbed_init(self, make_sine_samples):
        omega, a, b, c = 80.0, 2.0, -1.5, 33.0
        samples = make_sine_samples(omega=omega, a=a, b=b, c=c, n=2000, t_span_s=2.0,
                                    seed=0)
        fit = SinusoidInit(omega=omega * 1.003, a=a * 0.9, b=b * 1.1, c=c + 0.3,
                           residual_rms=0.0)
        state = init(fit, int(samples["t"][0]))
        state, trace = filter_samples(samples, state, NoiseConfig(sigma_r=0.1))
        assert state.omega == pytest.approx(omega, rel=1e-3)
        amp, _ = amplitude_phase(state)
        assert amp == pytest.approx(math.hypot(a, b), rel=1e-3)
        assert state.c == pytest.approx(c, abs=0.01)
        n4 = trace.shape[0] // 4
        early = np.sqrt(np.mean(trace["innovation"][:n4] ** 2))
        late = np.sqrt(np.mean(trace["innovation"][-n4:] ** 2))
        assert late < 0.1 * early

    def test_trace_layout_and_acceptance(self, make_sine_samples):
        samples = make_sine_samples(omega=90.0, a=1.0, b=0.0, c=10.0, n=200,
                                    noise=0.05, seed=2)
        fit = SinusoidInit(omega=90.0, a=1.0, b=0.0, c=10.0, residual_rms=0.05)
        state = init(fit, int(samples["t"][0]))
        _, trace = filter_samples(samples, state, NoiseConfig(sigma_r=0.1))
        assert trace.dtype == TRACE_DTYPE
        assert trace.shape[0] == samples.shape[0]
        np.testing.assert_array_equal(trace["t"], samples["t"])
        assert trace["accepted"].mean() > 0.95


def test_amplitude_phase_conventions():
    state = init(make_fit(a=3.0, b=4.0), 0)
    amp, phase = amplitude_phase(state)
    assert amp == pytest.approx(5.0)
    assert phase == pytest.approx(math.atan2(4.0, 3.0))
    zero = init(make_fit(a=0.0, b=0.0), 0)
    assert amplitude_phase(zero) == (0.0, 0.0)


def predict_offset(state_u, state_v, t_us):
    t = np.asarray(t_us, dtype=np.float64)
    return phasor_offset(*phasor(state_u), t), phasor_offset(*phasor(state_v), t)


class TestPredictOffset:
    """The offset a state predicts: phasor_offset of its phasor."""

    def make_states(self):
        su = init(make_fit(omega=100.0, a=1.0, b=0.5, c=30.0), 1000)
        sv = init(make_fit(omega=100.0, a=-0.3, b=2.0, c=31.0), 1000)
        return su, sv

    def test_vectorized_matches_scalar(self):
        su, sv = self.make_states()
        ts = np.array([1000, 5000, 250_000, 1_000_000], dtype=np.uint64)
        du, dv = predict_offset(su, sv, ts)
        for i, t in enumerate(ts):
            du1, dv1 = predict_offset(su, sv, float(t))
            assert du[i] == pytest.approx(du1)
            assert dv[i] == pytest.approx(dv1)

    def test_does_not_mutate_state(self):
        su, sv = self.make_states()
        predict_offset(su, sv, np.arange(0, 10_000, 100))
        assert su.t_us == 1000 and sv.t_us == 1000
        assert su.theta == 0.0

    def test_snapshot_equivalent_to_live_state(self):
        su, sv = self.make_states()

        def snap(s):
            return StateSnapshot(s.theta, s.omega, s.a, s.b, s.c, s.t_us)

        du_live, dv_live = predict_offset(su, sv, 77_000.0)
        du_snap, dv_snap = predict_offset(snap(su), snap(sv), 77_000.0)
        assert (du_live, dv_live) == (du_snap, dv_snap)

    def test_offset_is_mean_free_component(self):
        # c is deliberately excluded: compensation removes oscillation only
        su, sv = self.make_states()
        t = np.linspace(0.0, 2.0 * math.pi / 100.0, 1001)[:-1] * 1e6 + 1000.0
        du, dv = predict_offset(su, sv, t)
        assert abs(du.mean()) < 1e-3
        assert abs(dv.mean()) < 1e-3


def test_write_trace_csv_header_and_rows():
    trace = np.zeros(3, dtype=TRACE_DTYPE)
    trace["t"] = [10, 20, 30]
    trace["omega"] = 100.0
    buf = io.BytesIO()
    write_trace_csv(buf, trace)
    lines = buf.getvalue().decode().splitlines()
    assert lines[0] == "t_us,theta,omega,a,b,c,innovation"
    assert len(lines) == 4
    assert lines[1].startswith("10,0,100,")
