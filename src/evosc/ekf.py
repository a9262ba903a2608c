"""Per-axis extended Kalman filter over a sinusoidal image offset.

State x = [theta, omega, a, b, c]: the tracked coordinate is modelled as
h(x) = a*sin(theta) + b*cos(theta) + c with theta advancing at omega rad/s.
Prediction is linear (theta += omega*dt); the measurement is linearized at the
current state. Updates use the Joseph-form covariance so P stays symmetric
positive semidefinite, and innovations beyond 5 standard deviations are
rejected as outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalDegeneracyError, OrderingError
from .freqest import SinusoidInit
from .io import _write_csv
from .sim import wrap_angle as wrap_theta

GATE_SIGMAS = 5.0

STATE_THETA, STATE_OMEGA, STATE_A, STATE_B, STATE_C = range(5)
# read only: predict copies it, update subtracts from it
_EYE = np.eye(5)

TRACE_DTYPE = np.dtype(
    [
        ("t", "<u8"),
        ("theta", "<f8"),
        ("omega", "<f8"),
        ("a", "<f8"),
        ("b", "<f8"),
        ("c", "<f8"),
        ("innovation", "<f8"),
        ("accepted", "?"),
    ]
)


def _default_q() -> np.ndarray:
    return np.diag([1e-8, 1e-4, 1e-4, 1e-4, 1e-4])


@dataclass(frozen=True)
class NoiseConfig:
    """Process noise Q (per second of elapsed time) and measurement std (px)."""

    q: np.ndarray = field(default_factory=_default_q)
    sigma_r: float = 0.5

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (5, 5):
            raise ConfigError(f"Q must be 5x5, got {q.shape}")
        if not 0 < self.sigma_r < math.inf:
            raise ConfigError(f"sigma_r must be positive and finite, got {self.sigma_r}")
        object.__setattr__(self, "q", q)


class StateSnapshot(NamedTuple):
    """Immutable copy of the filter mean."""

    theta: float
    omega: float
    a: float
    b: float
    c: float
    t_us: int


@dataclass
class SinusoidState:
    theta: float
    omega: float
    a: float
    b: float
    c: float
    covariance: np.ndarray
    t_us: int


def init(fit: SinusoidInit, t_ref_us: int) -> SinusoidState:
    """Seed the filter from a least-squares fit, with theta = 0 at t_ref.

    The fit's (a, b) live on theta' = omega*t; rotating them by omega*t_ref
    moves them onto theta = omega*(t - t_ref), so h(x0) equals the fit
    evaluated at the reference time.
    """
    rot = fit.omega * t_ref_us * 1e-6
    ca, sa = math.cos(rot), math.sin(rot)
    a0 = fit.a * ca - fit.b * sa
    b0 = fit.a * sa + fit.b * ca
    var_ab = (0.1 * math.hypot(a0, b0) + 0.1) ** 2
    return SinusoidState(
        theta=0.0,
        omega=fit.omega,
        a=a0,
        b=b0,
        c=fit.c,
        covariance=np.diag([0.1**2, (0.05 * max(fit.omega, 1.0)) ** 2, var_ab, var_ab, 1.0]),
        t_us=int(t_ref_us),
    )


def predict(state: SinusoidState, t_us: int, noise: NoiseConfig) -> SinusoidState:
    """Advance the filter to t_us in place: theta += omega*dt, P <- F P F' + Q*dt."""
    t_us = int(t_us)
    if t_us < state.t_us:
        raise OrderingError(f"predict to t={t_us} before state time {state.t_us}")
    dt = (t_us - state.t_us) * 1e-6
    state.theta = wrap_theta(state.theta + state.omega * dt)
    f = _EYE.copy()
    f[STATE_THETA, STATE_OMEGA] = dt
    state.covariance = f @ state.covariance @ f.T + noise.q * dt
    state.t_us = t_us
    return state


def update(state: SinusoidState, z: float, noise: NoiseConfig) -> tuple[SinusoidState, float, bool]:
    """Fuse one coordinate measurement in place.

    Returns (state, innovation, accepted). Innovations beyond GATE_SIGMAS
    standard deviations leave the state untouched.
    """
    st, ct = math.sin(state.theta), math.cos(state.theta)
    h_jac = np.array([state.a * ct - state.b * st, 0.0, st, ct, 1.0])
    predicted = state.a * st + state.b * ct + state.c
    innovation = z - predicted
    p = state.covariance
    s = float(h_jac @ p @ h_jac) + noise.sigma_r**2
    if s <= 0:
        raise NumericalDegeneracyError(f"innovation variance {s} is not positive")
    if abs(innovation) > GATE_SIGMAS * math.sqrt(s):
        return state, innovation, False
    k = (p @ h_jac) / s
    # k[:, None] * v[None, :] is np.outer(k, v), and the mean moves by the
    # same float adds as an array sum would make
    ikh = _EYE - k[:, None] * h_jac[None, :]
    p_new = ikh @ p @ ikh.T + noise.sigma_r**2 * (k[:, None] * k[None, :])
    k_theta, k_omega, k_a, k_b, k_c = k.tolist()
    state.theta = wrap_theta(state.theta + k_theta * innovation)
    state.omega += k_omega * innovation
    state.a += k_a * innovation
    state.b += k_b * innovation
    state.c += k_c * innovation
    state.covariance = 0.5 * (p_new + p_new.T)
    return state, innovation, True


def amplitude_phase(state: SinusoidState | StateSnapshot) -> tuple[float, float]:
    """Report (A, phi) with A = hypot(a, b), phi = atan2(b, a); (0, 0) when A = 0."""
    amp = math.hypot(state.a, state.b)
    if amp == 0.0:
        return 0.0, 0.0
    return amp, math.atan2(state.b, state.a)


def phasor(state: SinusoidState | StateSnapshot) -> tuple[float, float, float, float]:
    """(amp, phase0, omega_per_us, t0_us) of the oscillatory part of h(x).

    a*sin(theta) + b*cos(theta) = amp*cos(theta - psi) with psi = atan2(a, b),
    so the offset at time t is sim.phasor_offset(amp, phase0, omega_per_us, t0_us, t).
    Scalar math, so a phasor is the same to the last bit however it is batched.
    """
    amp = math.hypot(state.a, state.b)
    psi = math.atan2(state.a, state.b) if amp > 0 else 0.0
    return amp, state.theta - psi, state.omega * 1e-6, float(state.t_us)


def filter_samples(
    samples: np.ndarray,
    state: SinusoidState,
    noise: NoiseConfig,
    axis: str = "u",
) -> tuple[SinusoidState, np.ndarray]:
    """Predict/update through a sample stream; returns the state and a trace."""
    trace = np.empty(samples.shape[0], dtype=TRACE_DTYPE)
    for i, s in enumerate(samples):
        predict(state, int(s["t"]), noise)
        _, innov, ok = update(state, float(s[axis]), noise)
        trace[i] = (s["t"], state.theta, state.omega, state.a, state.b, state.c, innov, ok)
    return state, trace


def write_trace_csv(dest, trace: np.ndarray) -> None:
    fields = ("t", "theta", "omega", "a", "b", "c", "innovation")
    _write_csv(dest, "t_us,theta,omega,a,b,c,innovation", "{}" + ",{:.9g}" * 6,
               [trace[f] for f in fields])
