import contextlib
import cProfile
import functools
import hashlib
import importlib
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from evosc import core, sim
from evosc.core import SensorGeometry, make_events, validate_events
from evosc.errors import ConfigError, ResonanceError
from evosc.sim import (
    DEFAULT_THRESHOLD,
    Bitmap,
    Checkerboard,
    DepthPlane,
    Disks,
    MotorParams,
    OscillatorConfig,
    PhysicalOscillator,
    SceneSpec,
    Stripes,
    Triangle,
    WorldMotion,
    _BLOCK_STEPS,
    _MAX_CROSSINGS,
    _active_pixels,
    _emit,
    _extract,
    _latent_sampler,
    _saturated,
    _search,
    _walk,
    _walk_arrays,
    camera_offset,
    motor_speed,
    moving_target,
    simulate,
    steady_state,
    wrap_angle,
)

from oracles import (
    MOTOR_OMEGA_2V,
    STEADY_AMP_REF,
    STEADY_PHASE_REF,
    crossing_events,
    steady_state_reference,
)

OSC = PhysicalOscillator(
    mass_kg=0.1, eccentric_mass_kg=0.01, eccentricity_m=0.005,
    damping=2.0, stiffness=4000.0, omega_drive=150.0,
)


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_equivalence(phi):
    w = wrap_angle(phi)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(phi), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(phi), abs_tol=1e-9)


def test_wrap_angle_boundary_maps_to_pi():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0


class TestMotor:
    def test_two_volt_reference_speed(self):
        assert motor_speed(2.0, MotorParams()) == pytest.approx(MOTOR_OMEGA_2V, rel=1e-9)

    def test_stall_clamps_to_zero(self):
        assert motor_speed(0.0, MotorParams()) == 0.0

    def test_speed_increases_with_voltage(self):
        m = MotorParams()
        assert motor_speed(3.0, m) > motor_speed(2.0, m)

    def test_bad_constant_rejected(self):
        with pytest.raises(ConfigError):
            motor_speed(2.0, MotorParams(k_phi=0.0))

    @pytest.mark.parametrize("make, message", [
        (lambda: motor_speed(math.nan, MotorParams()), "voltage must be finite, got nan"),
        (lambda: MotorParams(k_phi=math.nan), "k_phi must be positive and finite, got nan"),
        (lambda: MotorParams(resistance_ohm=math.nan),
         "resistance_ohm must be non-negative and finite, got nan"),
        (lambda: MotorParams(load_torque_nm=math.inf),
         "load_torque_nm must be non-negative and finite, got inf"),
        (lambda: MotorParams(load_torque_nm=-1e-3),
         "load_torque_nm must be non-negative and finite, got -0.001"),
    ], ids=["nan_voltage", "nan_k_phi", "nan_resistance", "inf_load", "negative_load"])
    def test_values_out_of_range_are_named(self, make, message):
        """Each of these used to run a stopped motor (0 rad/s) without a word."""
        with pytest.raises(ConfigError) as err:
            make()
        assert str(err.value) == message

    def test_negative_mass_is_named(self):
        with pytest.raises(ConfigError) as err:
            PhysicalOscillator(mass_kg=-1.0, eccentric_mass_kg=0.01, eccentricity_m=0.005,
                               damping=2.0, stiffness=4000.0, omega_drive=150.0)
        assert str(err.value) == "mass_kg must be positive and finite, got -1.0"


class TestSteadyState:
    def test_matches_high_precision_reference(self):
        amp, phase = steady_state(OSC)
        ref_amp, ref_phase = steady_state_reference(0.1, 0.01, 0.005, 2.0, 4000.0, 150.0)
        assert amp == pytest.approx(ref_amp, rel=1e-12)
        assert phase == pytest.approx(ref_phase, rel=1e-12)
        # frozen values guard against oracle drift
        assert amp == pytest.approx(STEADY_AMP_REF, rel=1e-9)
        assert phase == pytest.approx(STEADY_PHASE_REF, rel=1e-9)

    def test_matches_time_integration(self):
        """The closed form equals the long-run limit of the equation of motion."""
        m, c, k = OSC.mass_kg, OSC.damping, OSC.stiffness
        fe = OSC.eccentric_mass_kg * OSC.eccentricity_m * OSC.omega_drive**2
        w = OSC.omega_drive

        def rhs(t, s):
            x, v = s
            return [v, (fe * math.sin(w * t) - c * v - k * x) / m]

        tail = np.linspace(8.0, 10.0, 2000)
        sol = solve_ivp(rhs, (0.0, 10.0), [0.0, 0.0], t_eval=tail, rtol=1e-10, atol=1e-12)
        design = np.column_stack([np.sin(w * tail), np.cos(w * tail)])
        coef, *_ = np.linalg.lstsq(design, sol.y[0], rcond=None)
        amp, phase = steady_state(OSC)
        # displacement is amp*sin(w t - phase)
        assert math.hypot(*coef) == pytest.approx(amp, rel=1e-6)
        assert math.atan2(-coef[1], coef[0]) == pytest.approx(phase, abs=1e-6)

    def test_undamped_resonance_rejected(self):
        osc = PhysicalOscillator(
            mass_kg=1.0, eccentric_mass_kg=0.01, eccentricity_m=0.01,
            damping=0.0, stiffness=100.0, omega_drive=10.0,
        )
        with pytest.raises(ResonanceError):
            steady_state(osc)

    def test_high_drive_amplitude_approaches_me_over_m(self):
        # far above resonance the response tends to m*e/M
        osc = PhysicalOscillator(
            mass_kg=0.1, eccentric_mass_kg=0.01, eccentricity_m=0.005,
            damping=2.0, stiffness=4000.0, omega_drive=5000.0,
        )
        amp, _ = steady_state(osc)
        assert amp == pytest.approx(0.01 * 0.005 / 0.1, rel=1e-2)


@given(st.floats(0.0, 10.0), st.floats(-math.pi, math.pi))
@settings(max_examples=50)
def test_sin_to_cos_convention(t, phase):
    """amp*sin(w t - phase) written as a cosine offset gives the same values."""
    amp, w = 2.5, 150.0
    phi_y = wrap_angle(-phase - math.pi / 2.0)
    assert amp * math.sin(w * t - phase) == pytest.approx(
        amp * math.cos(w * t + phi_y), abs=1e-9
    )


def test_from_steady_state_circular_quarter_turn():
    motion = WorldMotion.from_steady_state(OSC, circular=True)
    assert motion.amp_x_m == motion.amp_y_m
    assert wrap_angle(motion.phi_x - motion.phi_y) == pytest.approx(math.pi / 2.0)


def test_from_steady_state_linear_keeps_one_axis():
    motion = WorldMotion.from_steady_state(OSC, circular=False)
    assert motion.amp_x_m == 0.0
    assert motion.amp_y_m > 0.0


class TestOscillatorConfig:
    def test_image_amplitude_scales_inverse_depth(self):
        motion = WorldMotion(amp_x_m=0.02, amp_y_m=0.02, omega=100.0)
        geom = SensorGeometry(width=64, height=64, focal_length_px=100.0)
        near = OscillatorConfig.from_world(motion, geom, depth_m=1.5)
        far = OscillatorConfig.from_world(motion, geom, depth_m=3.0)
        assert near.amp_x_px == pytest.approx(1.33333333333, rel=1e-9)
        assert near.amp_x_px / far.amp_x_px == pytest.approx(3.0 / 1.5, rel=1e-12)

    def test_scaled(self):
        cfg = OscillatorConfig(amp_x_px=2.0, amp_y_px=4.0, omega=10.0)
        s = cfg.scaled(0.5)
        assert (s.amp_x_px, s.amp_y_px, s.omega) == (1.0, 2.0, 10.0)

    def test_dict_round_trip(self):
        # to_dict writes truth.json's planes in the keys of a scene's oscillation block
        from evosc.apps import OscillationSection
        from evosc.core import from_section

        cfg = OscillatorConfig(amp_x_px=1.0, amp_y_px=2.0, omega=55.0, phi_x=0.4, phi_y=-2.2)
        section = from_section(OscillationSection, cfg.to_dict(), "scene.oscillation")
        assert section.oscillator() == cfg

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            OscillatorConfig(amp_x_px=-1.0, amp_y_px=0.0, omega=1.0)

    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
    def test_phase_that_is_not_finite_is_named(self, phase):
        # wrap_angle used to raise OverflowError on an infinite phase and a
        # ValueError naming no value on NaN
        with pytest.raises(ConfigError) as err:
            OscillatorConfig(amp_x_px=1.0, amp_y_px=1.0, omega=1.0, phi_y=phase)
        assert str(err.value) == f"phi_y must be finite, got {phase}"

    def test_bad_depth_rejected(self):
        motion = WorldMotion(amp_x_m=0.01, amp_y_m=0.01, omega=10.0)
        with pytest.raises(ConfigError):
            OscillatorConfig.from_world(motion, SensorGeometry(width=8, height=8), 0.0)


def test_camera_offset_matches_scalar_formula():
    cfg = OscillatorConfig(amp_x_px=2.0, amp_y_px=3.0, omega=70.0, phi_x=0.2, phi_y=1.1)
    t = np.array([0.0, 0.01, 0.5])
    du, dv = camera_offset(t, cfg)
    for i, ti in enumerate(t):
        assert du[i] == pytest.approx(2.0 * math.cos(70.0 * ti + 0.2))
        assert dv[i] == pytest.approx(3.0 * math.cos(70.0 * ti + 1.1))


@given(amp_x=st.floats(0.0, 50.0), amp_y=st.floats(0.0, 50.0), omega=st.floats(0.0, 1e4),
       phi_x=st.floats(-10.0, 10.0), phi_y=st.floats(-10.0, 10.0),
       first=st.integers(0, 10**6), step_us=st.integers(1, 500),
       extra=st.lists(st.floats(0.0, 100.0), max_size=8), n=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_camera_offset_array_call_equals_scalar_calls(amp_x, amp_y, omega, phi_x, phi_y,
                                                      first, step_us, extra, n):
    """The simulator samples a block's offsets with one call on the block's
    times; each must equal, bit for bit, a scalar call at that time."""
    cfg = OscillatorConfig(amp_x_px=amp_x, amp_y_px=amp_y, omega=omega, phi_x=phi_x, phi_y=phi_y)
    times = [i * step_us * 1e-6 for i in range(first, first + n)] + extra
    du, dv = camera_offset(times, cfg)
    scalar = [camera_offset(t, cfg) for t in times]
    assert du.tobytes() == np.array([s[0] for s in scalar]).tobytes()
    assert dv.tobytes() == np.array([s[1] for s in scalar]).tobytes()


coords = st.floats(-100.0, 200.0, allow_nan=False)


@pytest.mark.parametrize("pattern", [
    Checkerboard(), Stripes(angle_rad=0.4), Disks(),
    Triangle(center_x=10.0, center_y=10.0),
])
@given(x=coords, y=coords)
@settings(max_examples=30, deadline=None)
def test_patterns_bounded_unit_interval(pattern, x, y):
    v = pattern.sample(np.array([x]), np.array([y]))[0]
    assert 0.0 <= v <= 1.0


@given(x=coords, y=coords, k=st.integers(-3, 3))
@settings(max_examples=40)
def test_checkerboard_periodicity(x, y, k):
    p = Checkerboard(period_px=16.0)
    a = p.sample(np.array([x]), np.array([y]))[0]
    b = p.sample(np.array([x + 16.0 * k]), np.array([y]))[0]
    assert a == pytest.approx(b, abs=1e-9)


def test_disks_bright_at_centre_dark_between():
    p = Disks(radius_px=6.0, pitch_px=32.0, offset_px=16.0)
    assert p.sample(np.array([16.0]), np.array([16.0]))[0] == 1.0
    assert p.sample(np.array([0.0]), np.array([0.0]))[0] == 0.0


def test_bitmap_bilinear_interpolation():
    img = np.array([[0.0, 1.0], [0.0, 1.0]])
    p = Bitmap(image=img)
    assert p.sample(np.array([0.5]), np.array([0.0]))[0] == pytest.approx(0.5)
    assert p.sample(np.array([5.0]), np.array([0.0]))[0] == 1.0  # clamped


def test_triangle_bright_inside_dark_outside():
    p = Triangle(center_x=0.0, center_y=0.0, radius_px=12.0)
    assert p.sample(np.array([0.0]), np.array([0.0]))[0] == 1.0
    assert p.sample(np.array([0.0]), np.array([-20.0]))[0] == 0.0


# patterns that combine a term of x and a term of y
axis_values = st.lists(st.floats(-60.0, 120.0), min_size=1, max_size=12)
per_axis_patterns = st.one_of(
    st.builds(Checkerboard, period_px=st.floats(2.0, 40.0), edge_sharpness=st.floats(0.5, 8.0)),
    st.builds(Disks, radius_px=st.floats(0.2, 30.0), pitch_px=st.floats(2.0, 80.0),
              edge_width_px=st.floats(0.05, 8.0),
              offset_px=st.one_of(st.none(), st.floats(-100.0, 100.0))),
)


@given(pattern=per_axis_patterns, ux=axis_values, uy=axis_values,
       keep=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_gathered_combine_equals_sample_per_pixel(pattern, ux, uy, keep):
    """The simulator computes a per-axis plane's terms on its unique columns
    and rows, then combines them into a buffer, gathered at its pixels or as
    broadcast views of the whole grid: either equals sample at each pixel,
    bit for bit."""
    ux, uy = np.array(ux), np.array(uy)
    tx, ty = pattern.axis_term(ux), pattern.axis_term(uy)
    grid = np.full((uy.size, ux.size), np.nan)
    assert pattern.combine(tx[None, :], ty[:, None], out=grid) is grid
    # any subset of the grid, sampled per pixel, as the simulator's live set
    mask = np.random.default_rng(keep).random(grid.shape) < 0.7
    rows, cols = np.nonzero(mask)
    per_pixel = pattern.sample(ux[cols], uy[rows])
    gathered = np.full(rows.size, np.nan)
    assert pattern.combine(tx.take(cols), ty.take(rows), out=gathered) is gathered
    assert gathered.tobytes() == per_pixel.tobytes()
    assert grid[mask].tobytes() == per_pixel.tobytes()
    assert pattern.combine(tx.take(cols), ty.take(rows)).tobytes() == per_pixel.tobytes()


# rounding slack between a bound and a sample, well inside the simulator's
# 1e-9 relative culling margin
BOUND_TOL = 1e-12
unit = st.floats(-1.0, 1.0)
reach = st.floats(0.0, 12.0)
pixel = st.integers(-20, 120)


@given(pitch=st.floats(2.0, 80.0), offset=st.floats(-100.0, 100.0),
       radius=st.floats(0.2, 30.0), edge=st.floats(0.05, 8.0),
       x=pixel, y=pixel, rx=reach, ry=reach, fu=unit, fv=unit)
@settings(max_examples=300, deadline=None)
def test_disks_bounds_enclose_orbit_samples(pitch, offset, radius, edge, x, y, rx, ry, fu, fv):
    p = Disks(radius_px=radius, pitch_px=pitch, edge_width_px=edge, offset_px=offset)
    lo, hi = p.bounds(np.array([float(x)]), np.array([float(y)]), rx, ry)
    v = p.sample(np.array([x - fu * rx]), np.array([y - fv * ry]))[0]
    assert lo[0] - BOUND_TOL <= v <= hi[0] + BOUND_TOL


@given(cx=st.floats(-40.0, 40.0), cy=st.floats(-40.0, 40.0), radius=st.floats(1.0, 30.0),
       edge=st.floats(0.05, 8.0), x=pixel, y=pixel, rx=reach, ry=reach, fu=unit, fv=unit)
@settings(max_examples=300, deadline=None)
def test_triangle_bounds_enclose_orbit_samples(cx, cy, radius, edge, x, y, rx, ry, fu, fv):
    p = Triangle(center_x=cx, center_y=cy, radius_px=radius, edge_width_px=edge)
    lo, hi = p.bounds(np.array([float(x)]), np.array([float(y)]), rx, ry)
    v = p.sample(np.array([x - fu * rx]), np.array([y - fv * ry]))[0]
    assert lo[0] - BOUND_TOL <= v <= hi[0] + BOUND_TOL


def test_disks_bounds_are_attained_on_the_box():
    """The Disks range is exact: a dense grid over the offset box reaches it."""
    p = Disks(radius_px=3.0, pitch_px=12.0, edge_width_px=8.0, offset_px=1.5)
    rx, ry = 2.0, 1.0
    du, dv = np.meshgrid(np.linspace(-rx, rx, 401), np.linspace(-ry, ry, 201))
    for x, y in [(4.0, 2.0), (7.5, 7.5), (0.0, 9.0), (13.0, 1.0)]:
        lo, hi = p.bounds(np.array([x]), np.array([y]), rx, ry)
        v = p.sample(x - du, y - dv)
        assert v.min() == pytest.approx(lo[0], abs=1e-6)
        assert v.max() == pytest.approx(hi[0], abs=1e-6)


bounded_patterns = st.one_of(
    st.builds(Disks, radius_px=st.floats(0.2, 30.0), pitch_px=st.floats(2.0, 80.0),
              edge_width_px=st.floats(0.05, 8.0),
              offset_px=st.one_of(st.none(), st.floats(-100.0, 100.0))),
    st.builds(Triangle, center_x=st.floats(-10.0, 40.0), center_y=st.floats(-10.0, 40.0),
              radius_px=st.floats(1.0, 30.0), edge_width_px=st.floats(0.05, 8.0)),
)
amplitude = st.one_of(st.just(0.0), st.floats(0.0, 12.0))


@given(pattern=bounded_patterns, amp_x=amplitude, amp_y=amplitude, omega=st.floats(0.0, 5e3),
       phase=st.floats(-math.pi, math.pi), first=st.integers(0, 10**5),
       x0=st.integers(-20, 40), y0=st.integers(-20, 40))
@settings(max_examples=200, deadline=None)
def test_culled_pixels_hold_their_saturated_value(pattern, amp_x, amp_y, omega, phase, first,
                                                  x0, y0):
    """A pixel that the per-block cull drops samples exactly the value,
    0.0 or 1.0, that the cull gave it, at each of the block's times; also
    when the camera does not move."""
    cfg = OscillatorConfig(amp_x_px=amp_x, amp_y_px=amp_y, omega=omega,
                           phi_x=phase, phi_y=phase - math.pi / 2.0)
    du, dv = camera_offset([i * 50 * 1e-6 for i in range(first, first + _BLOCK_STEPS + 1)], cfg)
    ys, xs = (a.ravel().astype(float) for a in np.mgrid[y0:y0 + 24, x0:x0 + 24])
    dead, lo = _saturated(pattern, xs, ys, du, dv)
    held = lo[dead]
    assert np.all((held == 0.0) | (held == 1.0))
    for u, v in zip(du, dv):
        assert pattern.sample(xs[dead] - u, ys[dead] - v).tobytes() == held.tobytes()


@pytest.mark.parametrize("pattern", [Disks(radius_px=6.0, pitch_px=16.0, offset_px=8.0),
                                     Triangle(center_x=12.0, center_y=12.0, radius_px=14.0)])
def test_the_cull_drops_both_saturated_values_and_keeps_the_edges(pattern):
    du, dv = camera_offset([i * 50 * 1e-6 for i in range(_BLOCK_STEPS + 1)], _circular(1.5))
    ys, xs = (a.ravel().astype(float) for a in np.mgrid[0:24, 0:24])
    dead, lo = _saturated(pattern, xs, ys, du, dv)
    assert set(lo[dead].tolist()) == {0.0, 1.0}
    # every pixel whose value moves over the block is kept
    values = np.array([pattern.sample(xs - u, ys - v) for u, v in zip(du, dv)])
    moving = values.min(axis=0) < values.max(axis=0)
    assert moving.any() and not np.any(dead & moving)


@pytest.mark.parametrize("pattern, name", [
    (Checkerboard, "period_px"), (Stripes, "period_px"), (Disks, "radius_px"),
    (Disks, "pitch_px"), (Disks, "edge_width_px"), (Triangle, "radius_px"),
    (Triangle, "edge_width_px"),
])
@pytest.mark.parametrize("value", [0.0, -2.0, math.inf, math.nan])
def test_pattern_lengths_must_be_positive_and_finite(pattern, name, value):
    """A zero edge width used to divide by zero, a zero pitch to give no
    events and a zero checkerboard period a bare ZeroDivisionError."""
    where = {"center_x": 0.0, "center_y": 0.0} if pattern is Triangle else {}
    with pytest.raises(ConfigError, match=f"^{name} must be positive and finite, got {value}$"):
        pattern(**where, **{name: value})


@pytest.mark.parametrize("region", [(-4, 0, 16, 16), (0, -1, 16, 16), (8, 0, 4, 16),
                                    (0, 8, 16, 8), (3, 3, 3, 9)])
def test_a_plane_region_must_be_a_nonempty_box_of_the_frame(region):
    """A negative bound used to wrap round as a slice index, and an empty
    region to cover nothing without a word."""
    with pytest.raises(ConfigError, match="region must be"):
        DepthPlane(region=region)
    assert DepthPlane(region=(0, 0, 1, 1)).region == (0, 0, 1, 1)


# ---------------------------------------------------------------------------
# event generation


def small_sim(seed=0, **kwargs):
    geom = SensorGeometry(width=32, height=32)
    cfg = OscillatorConfig(amp_x_px=2.0, amp_y_px=2.0, omega=100.0 * math.pi,
                           phi_x=0.0, phi_y=-math.pi / 2.0)
    scene = SceneSpec(pattern=Disks(pitch_px=1000.0, offset_px=16.0), contrast=1.0)
    defaults = dict(duration_s=0.2, seed=seed)
    defaults.update(kwargs)
    return simulate(scene, cfg, geom, **defaults), geom


def test_stream_is_sorted_valid_and_in_bounds():
    out, geom = small_sim()
    assert out.events.shape[0] > 100
    validate_events(out.events, geom)


def test_same_seed_bit_identical():
    a, _ = small_sim(seed=3)
    b, _ = small_sim(seed=3)
    assert a.events.tobytes() == b.events.tobytes()


def test_noise_seed_changes_stream():
    a, _ = small_sim(seed=1, noise_rate_hz=50.0)
    b, _ = small_sim(seed=2, noise_rate_hz=50.0)
    assert a.events.tobytes() != b.events.tobytes()


def test_refractory_enforced_per_pixel():
    out, _ = small_sim(refractory_us=100)
    ev = out.events
    key = ev["y"].astype(np.int64) * 32 + ev["x"].astype(np.int64)
    order = np.lexsort((ev["t"], key))
    same_pixel = np.diff(key[order]) == 0
    gaps = np.diff(ev["t"][order].astype(np.int64))
    assert np.all(gaps[same_pixel] >= 100)


def test_contrast_raises_event_count():
    lo, _ = small_sim(duration_s=0.1)
    geom = SensorGeometry(width=32, height=32)
    cfg = OscillatorConfig(amp_x_px=2.0, amp_y_px=2.0, omega=100.0 * math.pi,
                           phi_x=0.0, phi_y=-math.pi / 2.0)
    scene = SceneSpec(pattern=Disks(pitch_px=1000.0, offset_px=16.0), contrast=2.0)
    hi = simulate(scene, cfg, geom, duration_s=0.1)
    assert hi.events.shape[0] > lo.events.shape[0]


def test_noise_rate_adds_roughly_poisson_count():
    quiet, _ = small_sim(duration_s=0.2)
    noisy, _ = small_sim(duration_s=0.2, noise_rate_hz=100.0)
    expected = 100.0 * 32 * 32 * 0.2
    extra = noisy.events.shape[0] - quiet.events.shape[0]
    assert abs(extra - expected) < 6.0 * math.sqrt(expected)


def test_zero_amplitude_noiseless_scene_is_silent():
    geom = SensorGeometry(width=32, height=32)
    cfg = OscillatorConfig(amp_x_px=0.0, amp_y_px=0.0, omega=10.0)
    out = simulate(SceneSpec(pattern=Disks(), contrast=1.0), cfg, geom, duration_s=0.1)
    assert out.events.shape[0] == 0


def test_step_edge_emits_alternating_bursts_on_edge_path():
    """A sweeping step edge toggles each path pixel once per direction."""
    img = np.zeros((32, 32))
    img[:, 16:] = 1.0
    geom = SensorGeometry(width=32, height=32)
    freq = 20.0
    cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=0.0, omega=2.0 * math.pi * freq)
    out = simulate(SceneSpec(pattern=Bitmap(image=img), contrast=1.0), cfg, geom,
                   duration_s=0.5)
    ev = out.events
    # all activity stays inside the swept band around the edge column
    assert np.all(np.abs(ev["x"].astype(float) - 15.5) <= 4.0)
    # a mid-path pixel sees one positive and one negative burst per cycle
    row = ev[(ev["x"] == 16) & (ev["y"] == 8)]
    flips = np.count_nonzero(np.diff(row["p"].astype(int)) != 0)
    assert flips == pytest.approx(2 * freq * 0.5, abs=2)


def test_step_edge_centroid_recovers_drive_frequency():
    img = np.zeros((32, 32))
    img[:, 16:] = 1.0
    geom = SensorGeometry(width=32, height=32)
    cfg = OscillatorConfig(amp_x_px=3.0, amp_y_px=0.0, omega=2.0 * math.pi * 20.0)
    out = simulate(SceneSpec(pattern=Bitmap(image=img), contrast=1.0), cfg, geom,
                   duration_s=0.5)
    from evosc.freqest import initialize
    from evosc.track import CentroidTracker, PatchSpec

    tracker = CentroidTracker(PatchSpec(cx=15.5, cy=15.5, half_size=15),
                              tau_s=0.005, warmup_s=0.015)
    samples = tracker.run(out.events)
    result = initialize(samples)
    assert result.omega == pytest.approx(2.0 * math.pi * 20.0, rel=0.01)


def test_depth_planes_scale_truth_amplitudes():
    geom = SensorGeometry(width=32, height=32)
    cfg = OscillatorConfig(amp_x_px=2.0, amp_y_px=2.0, omega=100.0)
    scene = SceneSpec(
        pattern=Disks(), contrast=1.0,
        depth_planes=(
            DepthPlane(depth_m=1.0, region=(0, 0, 16, 32)),
            DepthPlane(depth_m=2.0, region=(16, 0, 32, 32)),
        ),
    )
    out = simulate(scene, cfg, geom, duration_s=0.01)
    assert out.truth[0].amp_x_px == pytest.approx(2.0)
    assert out.truth[1].amp_x_px == pytest.approx(1.0)


def test_moving_target_truth_is_circular_path():
    geom = SensorGeometry(width=32, height=32)
    out = simulate(*moving_target(10.0, 3.0, geom), geom, duration_s=0.05)
    truth = out.truth[0]
    assert truth.amp_x_px == 3.0
    assert truth.omega == pytest.approx(2.0 * math.pi * 10.0)
    assert truth.phi_y == pytest.approx(-math.pi / 2.0)


def test_moving_target_rejects_bad_args():
    geom = SensorGeometry(width=32, height=32)
    with pytest.raises(ConfigError):
        moving_target(0.0, 3.0, geom)


def test_simulate_rejects_bad_duration_and_threshold():
    geom = SensorGeometry(width=16, height=16)
    cfg = OscillatorConfig(amp_x_px=1.0, amp_y_px=1.0, omega=10.0)
    with pytest.raises(ConfigError):
        simulate(SceneSpec(), cfg, geom, duration_s=0.0)
    with pytest.raises(ConfigError):
        simulate(SceneSpec(), cfg, geom, duration_s=0.1, threshold=0.0)
    # a zero step used to divide by zero; NaN and inf fail every comparison
    for bad in ({"step_us": 0}, {"duration_s": math.nan}, {"threshold": math.inf}):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            simulate(SceneSpec(), cfg, geom, **{"duration_s": 0.1, **bad})
    # a negative rate or period would silently act as none
    for bad in ({"noise_rate_hz": -1.0}, {"refractory_us": -5}, {"noise_rate_hz": math.nan}):
        with pytest.raises(ConfigError, match="must be non-negative and finite"):
            simulate(SceneSpec(), cfg, geom, **{"duration_s": 0.1, **bad})


# ---------------------------------------------------------------------------
# frozen streams: sha256 of simulate output as full-frame, per-pixel stepping
# produced it; stepping only the active pixels, culling each block to the
# pixels that can move in it, and combining per-axis terms gathered from the
# unique columns and rows, must reproduce every byte. Any change to event
# order, timing or noise draws changes a digest.


def _circular(amp, phase=0.4):
    return OscillatorConfig(amp_x_px=amp, amp_y_px=amp, omega=100.0 * math.pi,
                            phi_x=phase, phi_y=phase - math.pi / 2.0)


def _step_edge():
    img = np.zeros((32, 32))
    img[:, 16:] = 1.0
    return img


def _square():
    img = np.zeros((32, 32))
    img[8:24, 8:24] = 1.0
    return img


G32 = SensorGeometry(width=32, height=32)
SMALL_DISKS = Disks(radius_px=4.0, pitch_px=16.0, offset_px=8.0)
# a sharp square swept at 550 Hz: references lag the cap of 16 levels per
# step, so crossings clip to frac 0 and 1, and some pairs of them tie on the
# time between two blocks. Its digest also pins crossings at the step start
# in steps where the latent value does not move
TIE_SCENE = SceneSpec(pattern=Bitmap(image=_square()), contrast=10.0)
TIE_CFG = OscillatorConfig(amp_x_px=3.5, amp_y_px=1.75, omega=2.0 * math.pi * 550.0, phi_y=1.0)

FROZEN_SCENES = {
    "disk": lambda: simulate(
        SceneSpec(pattern=Disks(pitch_px=1000.0, offset_px=16.0), contrast=1.0),
        _circular(2.0), G32, duration_s=0.2, seed=0),
    "default_disks_noise": lambda: simulate(
        SceneSpec(pattern=Disks(), contrast=2.0), _circular(3.0, phase=-1.1), G32,
        duration_s=0.1, seed=4, noise_rate_hz=30.0),
    "two_planes": lambda: simulate(
        SceneSpec(pattern=Disks(radius_px=3.0, pitch_px=24.0, offset_px=12.0), contrast=2.0,
                  depth_planes=(DepthPlane(depth_m=1.0, region=(0, 0, 24, 48)),
                                DepthPlane(depth_m=0.5, region=(24, 0, 48, 48)))),
        _circular(1.2, phase=2.0), SensorGeometry(width=48, height=48), duration_s=0.1, seed=11),
    "overlapping_planes": lambda: simulate(
        SceneSpec(pattern=SMALL_DISKS, contrast=1.5,
                  depth_planes=(DepthPlane(depth_m=1.0, region=(0, 0, 20, 32)),
                                DepthPlane(depth_m=2.0, region=(12, 0, 32, 32),
                                           pattern=Triangle(center_x=22.0, center_y=16.0,
                                                            radius_px=10.0)))),
        _circular(2.5), G32, duration_s=0.1, seed=1),
    "uncovered_region": lambda: simulate(
        SceneSpec(pattern=SMALL_DISKS, contrast=1.0,
                  depth_planes=(DepthPlane(region=(3, 5, 27, 22)),)),
        _circular(2.0, phase=-0.3), G32, duration_s=0.1, seed=2, noise_rate_hz=20.0),
    "zero_amplitude": lambda: simulate(
        SceneSpec(pattern=Disks(), contrast=1.0),
        OscillatorConfig(amp_x_px=0.0, amp_y_px=0.0, omega=10.0), G32,
        duration_s=0.1, seed=5, noise_rate_hz=40.0),
    "checkerboard_noise": lambda: simulate(
        SceneSpec(pattern=Checkerboard(), contrast=2.0), _circular(3.0, phase=1.3), G32,
        duration_s=0.1, seed=6, noise_rate_hz=50.0),
    # pixels on the ramp swing 1.05 thresholds from an orbit extreme: culling
    # must keep them
    "near_threshold": lambda: simulate(
        SceneSpec(pattern=Disks(radius_px=8.0, pitch_px=1000.0, edge_width_px=8.0,
                                offset_px=16.0), contrast=0.84),
        OscillatorConfig(amp_x_px=1.0, amp_y_px=0.0, omega=100.0 * math.pi), G32,
        duration_s=0.1, seed=0),
    "moving_triangle": lambda: simulate(*moving_target(10.0, 3.0, G32), G32, duration_s=0.1,
                                        seed=0),
    "bitmap": lambda: simulate(
        SceneSpec(pattern=Bitmap(image=_step_edge()), contrast=1.0),
        OscillatorConfig(amp_x_px=3.0, amp_y_px=0.0, omega=2.0 * math.pi * 20.0), G32,
        duration_s=0.2, seed=0),
    # sampled per pixel: Stripes' costly term mixes both axes
    "stripes": lambda: simulate(
        SceneSpec(pattern=Stripes(period_px=12.0, angle_rad=0.6), contrast=2.0),
        _circular(2.5, phase=0.9), G32, duration_s=0.1, seed=7, noise_rate_hz=10.0),
    # rings round many disks on a non-square frame: 360 active pixels on 21
    # rows x 21 columns, with gaps, gathered from the grid
    "sparse_disks": lambda: simulate(
        SceneSpec(pattern=Disks(radius_px=2.5, pitch_px=13.0, offset_px=5.0), contrast=1.0),
        _circular(0.8, phase=-2.2), SensorGeometry(width=40, height=36),
        duration_s=0.1, seed=3),
    # a thin ring round one large disk: 164 active pixels gathered from a
    # 26 x 26 grid, four points per pixel
    "large_ring": lambda: simulate(
        SceneSpec(pattern=Disks(radius_px=12.0, pitch_px=1000.0, offset_px=15.5), contrast=1.0),
        _circular(0.6, phase=1.7), G32, duration_s=0.1, seed=9),
    "block_edge_ties": lambda: simulate(TIE_SCENE, TIE_CFG, G32, duration_s=0.05, seed=0),
    # 19 levels per step at the edge's fastest: n_cross reaches the cap of 16
    "capped_levels": lambda: simulate(
        SceneSpec(pattern=Bitmap(image=_step_edge()), contrast=10.0),
        OscillatorConfig(amp_x_px=3.0, amp_y_px=0.0, omega=2.0 * math.pi * 400.0), G32,
        duration_s=0.02, seed=0),
    # a refractory period of eight steps
    "refractory_heavy": lambda: simulate(
        SceneSpec(pattern=Disks(radius_px=5.0, pitch_px=16.0, offset_px=8.0), contrast=4.0),
        _circular(2.5, phase=-0.7), G32, duration_s=0.05, seed=0, refractory_us=400),
    # 549 steps of 37 us: the last block is short
    "ragged_last_block": lambda: simulate(
        SceneSpec(pattern=Triangle(center_x=15.0, center_y=17.0, radius_px=9.0), contrast=1.5),
        _circular(1.8, phase=2.4), G32, duration_s=0.0203, seed=8, step_us=37,
        noise_rate_hz=60.0),
    # 2304 active pixels, most of them firing
    "dense_checker": lambda: simulate(
        SceneSpec(pattern=Checkerboard(period_px=12.0), contrast=2.0),
        _circular(2.0, phase=-1.9), SensorGeometry(width=48, height=48),
        duration_s=0.02, seed=12, noise_rate_hz=40.0),
}

FROZEN_SHA256 = {
    "bitmap": "fc94d44723409b136180f12df5dadfbfdf175bf33f5d9dce25e75bcb2852c382",
    "block_edge_ties": "02b1b2f17c6f1aa275405d5ea8e1fe0520e274616dd20b392e4f5d25f87e20c5",
    "capped_levels": "ef0574fb1d4dcbbdfbd4174eae7112a1923b7947b389750b43cda65f0840d879",
    "checkerboard_noise": "54b7509b78993fe18340a32eff4c18fc78c8f465cd9b83a15d748d992efeb879",
    "default_disks_noise": "9a8cddc497b3ccccb517065cff05d47d400f67e91a46796d1a88c5957eb85f4e",
    "dense_checker": "4d12a5755b065df4646ef304687a39922184dac44bce1f38133b128388b1f94b",
    "disk": "2970d35e2de4de9523aec23113358351469371d0521b67e7472de12d509c6e5a",
    "large_ring": "c2fd38af70f64c40849f3892a4dd1cbac955f44fd2f8c20b3991aad93cd1a0cb",
    "moving_triangle": "419866e8aaa8c28e2950e604546c83a52f697aad710d507079eb3d14643c6450",
    "near_threshold": "8408d6ec5e05910c103a7a538a64ebb69917d516db2c2e7c3967d97a28c25eac",
    "overlapping_planes": "8c39bd6056d64cc6c44dc8b8d136870dc7dfa85262da6c09f47d2a7b930898a5",
    "ragged_last_block": "05d70b5d0285031c49ef9c2b4fd9ce5e292b41057985e731d99ff67079975937",
    "refractory_heavy": "359cb89df28c204c0cee078467a8c54e774166da57fc61838f25421a646bc2f8",
    "sparse_disks": "c0b33f5e2e72b59f015c30a4f0ef429e9a5146530327eb238d21876f4c669e35",
    "stripes": "a128ebf5682591bf0ec0a681c379375234f32f0f0481028904d93edc55da6800",
    "two_planes": "d98f89c1338b05dbdcfba9b2865960f4b829cbd6905aed10cc281a2f5fd9de11",
    "uncovered_region": "aae659aac47623a6ea16ecfa3efb0264633a21be1ff6dd29b45afd6b7f8335ec",
    "zero_amplitude": "cd963b4e036d02b4054039b4ddd349a453315e37b99c739f5a7f33839fa386dd",
}


# the block search's two schedules: each block emitted inline, or on a worker
# while the next block is walked, also with the walk cut into chunks of 100
# pixels, each chunk's extraction a task of its own: (_PIPELINE_PIXELS,
# _WALK_PIXELS or None to keep it)
SCHEDULES = {"inline": (sys.maxsize, None), "pipelined": (0, None),
             "pipelined_chunked": (0, 100)}


@contextlib.contextmanager
def _schedule(name):
    pipeline_pixels, walk_pixels = SCHEDULES[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_PIPELINE_PIXELS", pipeline_pixels)
        if walk_pixels is not None:
            mp.setattr(sim, "_WALK_PIXELS", walk_pixels)
        if pipeline_pixels == 0:
            # a worker also where one CPU is usable
            cpus = core._cpus
            mp.setattr(core, "_cpus", lambda: max(cpus(), 2))
        yield


@pytest.fixture(params=sorted(SCHEDULES))
def schedule(request):
    with _schedule(request.param):
        yield request.param


@pytest.mark.parametrize("name", sorted(FROZEN_SCENES))
def test_stream_matches_frozen_digest(name):
    events = FROZEN_SCENES[name]().events
    assert hashlib.sha256(events.tobytes()).hexdigest() == FROZEN_SHA256[name]


@pytest.mark.parametrize("name, step_us", [("default_disks_noise", 50), ("ragged_last_block", 37)])
def test_stream_grown_from_two_step_blocks_matches_frozen_digest(name, step_us, monkeypatch):
    """The stream is one array grown in place, a quarter at a time, as blocks
    arrive. With blocks of two steps it grows from the first block's few
    events through more than twenty resizes, with noise merged into many
    blocks and the rest appended at the end, and still gives the frozen
    bytes: the stream does not depend on where blocks are cut."""
    monkeypatch.setattr(sim, "_BLOCK_STEPS", 2)
    events = FROZEN_SCENES[name]().events
    assert hashlib.sha256(events.tobytes()).hexdigest() == FROZEN_SHA256[name]
    assert events.shape[0] > 1.25**20 * max(1, np.count_nonzero(events["t"] < 2 * step_us))


def _digest(events):
    return hashlib.sha256(events.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN_SCENES))
def test_each_schedule_gives_the_frozen_digest(name, schedule):
    """Emitting each block inline, or on the worker while the next block is
    walked (also in walked chunks of 100 pixels), gives the frozen bytes."""
    assert _digest(FROZEN_SCENES[name]().events) == FROZEN_SHA256[name]


@pytest.mark.parametrize("name", ["default_disks_noise", "ragged_last_block"])
def test_two_step_blocks_on_each_schedule_give_the_frozen_digest(name, schedule, monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_STEPS", 2)
    assert _digest(FROZEN_SCENES[name]().events) == FROZEN_SHA256[name]


@pytest.mark.parametrize("tracer", ["settrace", "cprofile"])
def test_a_tracer_leaves_the_stream_as_frozen(tracer):
    """A tracer or profiler holds a reference to the frame growing the stream,
    which a resize that counts references would refuse."""
    if tracer == "settrace":
        before = sys.gettrace()
        sys.settrace(lambda frame, event, arg: None)
        try:
            events = FROZEN_SCENES["disk"]().events
        finally:
            sys.settrace(before)
    else:
        profile = cProfile.Profile()
        profile.enable()
        try:
            events = FROZEN_SCENES["disk"]().events
        finally:
            profile.disable()
    assert _digest(events) == FROZEN_SHA256["disk"]


def _spy_emit(monkeypatch, fail_at=None, delay_s=0.0):
    """Wrap sim._emit: returns the list of (thread, running emissions at
    entry) of its calls; the call numbered fail_at raises, and each call
    sleeps delay_s first."""
    calls, running, emit = [], [], sim._emit

    def spy(*args):
        calls.append((threading.get_ident(), len(running)))
        running.append(1)
        try:
            time.sleep(delay_s)
            if len(calls) == fail_at:
                raise RuntimeError(f"emission {fail_at} failed")
            return emit(*args)
        finally:
            running.pop()

    monkeypatch.setattr(sim, "_emit", spy)
    return calls, running


def test_a_worker_error_reaches_the_caller(monkeypatch):
    with _schedule("pipelined"):
        calls, running = _spy_emit(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="emission 3 failed"):
            FROZEN_SCENES["dense_checker"]()
    assert len(calls) == 3 and not running
    assert all(ident != threading.get_ident() for ident, _ in calls)


def test_no_emission_runs_once_simulate_returns_or_raises(monkeypatch):
    """One emission at a time; and when the walk fails while the worker
    emits the block before, simulate waits for it before raising."""
    with _schedule("pipelined"):
        calls, running = _spy_emit(monkeypatch, delay_s=0.02)
        assert _digest(FROZEN_SCENES["dense_checker"]().events) == FROZEN_SHA256["dense_checker"]
        assert not running and all(busy == 0 for _, busy in calls)
        walks, walk = [], sim._walk

        def failing_walk(*args):
            walks.append(1)
            if len(walks) == 3:
                raise RuntimeError("walk 3 failed")
            return walk(*args)

        monkeypatch.setattr(sim, "_walk", failing_walk)
        calls.clear()
        with pytest.raises(RuntimeError, match="walk 3 failed"):
            FROZEN_SCENES["dense_checker"]()
        assert len(calls) == 2 and not running


def test_concurrent_pipelined_simulations_keep_their_bytes(monkeypatch):
    """Four threads simulate at once through a pool of three workers, with a
    thread switch forced every microsecond: each stream, handed back and
    forth between its caller and a worker, keeps its frozen bytes."""
    names = ["dense_checker", "checkerboard_noise", "default_disks_noise", "ragged_last_block"]
    monkeypatch.setattr(core, "_pool", None)
    monkeypatch.setattr(core, "_cpus", lambda: 4)
    monkeypatch.setattr(sim, "_PIPELINE_PIXELS", 0)
    digests, errors = {}, []

    def caller(name):
        try:
            digests[name] = _digest(FROZEN_SCENES[name]().events)
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(name,)) for name in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert digests == {name: FROZEN_SHA256[name] for name in names}

def test_one_cpu_makes_no_worker(monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    monkeypatch.setattr(core, "_pool", None)
    monkeypatch.setattr(sim, "_PIPELINE_PIXELS", 0)
    threads = set(threading.enumerate())
    calls, _ = _spy_emit(monkeypatch)
    assert _digest(FROZEN_SCENES["dense_checker"]().events) == FROZEN_SHA256["dense_checker"]
    assert core._pool is None and set(threading.enumerate()) <= threads
    assert calls and all(ident == threading.get_ident() for ident, _ in calls)


def test_the_worker_calls_nothing_traced_and_no_block_walker(monkeypatch):
    """A worker calling core.map_blocks would wait on itself, and the
    benchmark's tracer records spans on one thread."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    threads = []

    def spy(owner, attr):
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            threads.append((attr, threading.get_ident()))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, recorded)

    for owner, attr, _, _ in tracing.TARGETS:
        spy(owner, attr)
    spy(core, "map_blocks")
    with _schedule("pipelined"):
        calls, _ = _spy_emit(monkeypatch)
        # the dense_checker scene, through the name the tracer patches
        events = sim.simulate(SceneSpec(pattern=Checkerboard(period_px=12.0), contrast=2.0),
                              _circular(2.0, phase=-1.9), SensorGeometry(width=48, height=48),
                              duration_s=0.02, seed=12, noise_rate_hz=40.0).events
    assert _digest(events) == FROZEN_SHA256["dense_checker"]
    assert any(ident != threading.get_ident() for ident, _ in calls)
    assert threads == [("simulate", threading.get_ident())]


def test_active_set_covers_fired_pixels_and_culls_the_rest():
    scene = SceneSpec(pattern=Disks(pitch_px=1000.0, offset_px=16.0), contrast=1.0)
    cfg = _circular(2.0)
    planes = [(None, scene.pattern, cfg)]
    ys, xs, _ = _active_pixels(planes, scene.contrast, DEFAULT_THRESHOLD, G32)
    active = np.zeros((32, 32), dtype=bool)
    active[ys, xs] = True
    fired = np.zeros((32, 32), dtype=bool)
    ev = simulate(scene, cfg, G32, duration_s=0.05).events
    fired[ev["y"], ev["x"]] = True
    assert not np.any(fired & ~active)
    assert active.mean() < 0.25


# ---------------------------------------------------------------------------
# block sampling and the crossing search


def _planes(scene, cfg):
    z0 = scene.depth_planes[0].depth_m
    return [(p.region, p.pattern or scene.pattern, cfg.scaled(z0 / p.depth_m))
            for p in scene.depth_planes]


def _run_blocks(lat, l_ref, step_us, refractory_us, threshold=DEFAULT_THRESHOLD, oracle=False,
                levels=None, sample=None):
    """Drive the block search (or the scalar oracle) over the blocks of lat
    (one row per step, plus the row before the first); returns each block's
    (t, pixel, pol) and the final l_ref and last_emit. levels, when given,
    takes the most levels a pixel crosses in one step of each block. sample,
    when given, is the search's sampler in place of the blocks of lat."""
    l_ref = l_ref.copy()
    last_emit = np.full(lat.shape[1], -1e18)
    if oracle:
        blocks = [crossing_events(lat[b:b + _BLOCK_STEPS + 1], l_ref, last_emit, b, threshold,
                                  step_us, refractory_us, _MAX_CROSSINGS)
                  for b in range(0, lat.shape[0] - 1, _BLOCK_STEPS)]
        return blocks, l_ref, last_emit
    blocks = []

    def emit(b, n, block, found):
        if levels is not None:
            levels.append(max(np.abs(q).max(initial=0.0) for _, _, _, q, _ in found))
        blocks.append(_emit(found, block, last_emit, b, threshold, step_us, refractory_us))

    if sample is None:
        def sample(b, n, ref, out):
            return lat[b:b + n + 1], None
    _search(sample, lat.shape[0] - 1, l_ref, threshold, emit)
    return blocks, l_ref, last_emit


def _block_crossings(planes, contrast, geometry, n_steps, oracle=False, levels=None):
    """Run the search over a scene's simulator blocks of 50 us steps, each
    culled to the pixels that can move in it as simulate culls it, or the
    oracle over every pixel of every step; returns each block's (t, pixel,
    pol) and the final state."""
    ys, xs, plane_of = _active_pixels(planes, contrast, DEFAULT_THRESHOLD, geometry)
    latent = _latent_sampler(planes, contrast, DEFAULT_THRESHOLD, ys, xs, plane_of)
    lat = latent([i * 50 * 1e-6 for i in range(n_steps + 1)])[0]

    def sample(b, n, ref, out):
        return latent([i * 50 * 1e-6 for i in range(b, b + n + 1)], ref, out)

    return _run_blocks(lat, lat[0], 50, 100, oracle=oracle, levels=levels, sample=sample)


def _assert_same(a, b):
    blocks_a, ref_a, emit_a = a
    blocks_b, ref_b, emit_b = b
    assert len(blocks_a) == len(blocks_b)
    for block_a, block_b in zip(blocks_a, blocks_b):
        for field_a, field_b in zip(block_a, block_b):
            assert field_a.dtype == field_b.dtype
            assert field_a.tobytes() == field_b.tobytes()
    assert ref_a.tobytes() == ref_b.tobytes()
    assert emit_a.tobytes() == emit_b.tobytes()


CROSSING_SCENES = {
    # 316 active pixels round one disk
    "sparse_disk": (SceneSpec(pattern=Disks(pitch_px=1000.0, offset_px=32.0), contrast=2.0),
                    _circular(3.0), SensorGeometry(width=64, height=64), 700),
    # two planes, one sampled per pixel, with up to 16 levels per step
    "capped_two_planes": (
        SceneSpec(pattern=Bitmap(image=_square()), contrast=10.0,
                  depth_planes=(DepthPlane(depth_m=1.0, region=(0, 0, 20, 32)),
                                DepthPlane(depth_m=2.0, region=(12, 0, 32, 32),
                                           pattern=Triangle(center_x=22.0, center_y=16.0)))),
        OscillatorConfig(amp_x_px=3.5, amp_y_px=1.75, omega=2.0 * math.pi * 550.0), G32, 300),
    # 2304 active pixels, most of them firing
    "dense_checker": (SceneSpec(pattern=Checkerboard(period_px=12.0), contrast=2.0),
                      _circular(2.0, phase=-1.9), SensorGeometry(width=48, height=48), 300),
    # a sharp disk edge crosses 50 thresholds in a step, more than the cap,
    # then moves on: pixels end a block with their reference lagging and
    # saturate for the next, which must still take their pending crossings
    "capped_saturating_disk": (
        SceneSpec(pattern=Disks(radius_px=9.0, pitch_px=1000.0, offset_px=16.0,
                                edge_width_px=0.05), contrast=10.0),
        OscillatorConfig(amp_x_px=2.0, amp_y_px=2.0, omega=2.0 * math.pi * 50.0, phi_x=0.3,
                         phi_y=0.3 - math.pi / 2.0), G32, 600),
}


@pytest.mark.parametrize("name", sorted(CROSSING_SCENES))
def test_walk_in_column_chunks(monkeypatch, name):
    """Walking each block's pixels 100 at a time, the last chunk short,
    emits what one walk over all of them does, inline or with each chunk's
    extraction on the worker."""
    scene, cfg, geom, n_steps = CROSSING_SCENES[name]
    planes = _planes(scene, cfg)
    with _schedule("inline"):
        whole = _block_crossings(planes, scene.contrast, geom, n_steps)
    monkeypatch.setattr(sim, "_WALK_PIXELS", 100)
    widths, walk = [], sim._walk

    def spy(lat, *args):
        widths.append(lat.shape[1])
        return walk(lat, *args)

    monkeypatch.setattr(sim, "_walk", spy)
    for schedule in ("inline", "pipelined"):
        widths.clear()
        with _schedule(schedule):
            _assert_same(_block_crossings(planes, scene.contrast, geom, n_steps), whole)
        assert len(widths) > len(whole[0]) and any(0 < w < 100 for w in widths)


@pytest.mark.parametrize("name", sorted(CROSSING_SCENES))
def test_crossing_searches_agree(name):
    """The block search emits the scalar oracle's events, floats and order,
    block by block, and leaves the same references and emission times, on
    either schedule, each block culled as simulate culls it. The capped
    scenes have blocks with multi-level steps, expanded level by level; in
    the others every pixel crosses at most one level a step, so every block
    takes the one-level path."""
    scene, cfg, geom, n_steps = CROSSING_SCENES[name]
    planes = _planes(scene, cfg)
    oracle = _block_crossings(planes, scene.contrast, geom, n_steps, oracle=True)
    for schedule in ("inline", "pipelined"):
        levels = []
        with _schedule(schedule):
            search = _block_crossings(planes, scene.contrast, geom, n_steps, levels=levels)
        assert sum(t.size for t, _, _ in search[0]) > 1000
        _assert_same(search, oracle)
        if name.startswith("capped"):
            assert max(levels) == _MAX_CROSSINGS
        else:
            assert max(levels) == 1


# latent moves in quarter thresholds: zero rise, ties with a level, one
# level, several, and more than _MAX_CROSSINGS levels in one step
_QUARTER_MOVES = [0, 0, 0, 1, -1, 2, -3, 4, -4, 6, -9, 70, -75]


@settings(max_examples=150, deadline=None)
@given(n_pix=st.integers(1, 5), n_steps=st.integers(1, 3 * _BLOCK_STEPS),
       step_us=st.sampled_from([50, 37, 2.7]), refractory_us=st.sampled_from([0, 30, 50, 100, 400, 5000]),
       data=st.data())
def test_block_search_matches_the_oracle(n_pix, n_steps, step_us, refractory_us, data):
    """Random blocks on a quarter-threshold grid, so that levels tie with
    latent values exactly: capped and zero-rise steps, refractory periods
    from none to longer than a block, -0.0 references, a short last block
    and a step of a fraction of a microsecond."""
    threshold = 0.25
    moves = np.array(data.draw(st.lists(st.sampled_from(_QUARTER_MOVES), min_size=n_steps * n_pix,
                                        max_size=n_steps * n_pix))).reshape(n_steps, n_pix)
    start = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=n_pix, max_size=n_pix)))
    lat = np.vstack([start, start + np.cumsum(moves, axis=0)]) * (threshold / 4)
    # a pixel resting at zero holds a -0.0 reference
    l_ref = np.where(lat[0] == 0.0, -0.0, lat[0])
    oracle = _run_blocks(lat, l_ref, step_us, refractory_us, threshold, oracle=True)
    for schedule in ("inline", "pipelined"):
        with _schedule(schedule):
            _assert_same(_run_blocks(lat, l_ref, step_us, refractory_us, threshold), oracle)


@pytest.mark.parametrize("refractory_us, kept", [(0, [4, 2]), (20, [1, 1])])
def test_levels_of_a_lagging_step_that_fall_before_its_end(refractory_us, kept):
    """A reference far above a rising latent value crosses down to it (5 and
    3 levels); rounding puts the last level just below the latent value, so
    that level lands before the step end, where the others clip, and is
    dropped even with no refractory period."""
    l_ref = np.array([0.683589447880226, 0.5137349344542055])
    lat = np.array([[-0.06641055211977395, -0.036265065545794534],
                    [0.18358944788022605, 0.21373493445420547]])
    search = _run_blocks(lat, l_ref, 50, refractory_us, threshold=0.1)
    _assert_same(search, _run_blocks(lat, l_ref, 50, refractory_us, threshold=0.1, oracle=True))
    t, pixel, _ = search[0][0]
    assert np.bincount(pixel).tolist() == kept
    assert np.all(t == 50.0)


def test_block_edge_scene_ties_across_blocks():
    """The frozen block_edge_ties scene emits at a block's end time from both
    the block's last step (frac 1) and the next block's first (frac 0)."""
    blocks, _, _ = _block_crossings(_planes(TIE_SCENE, TIE_CFG), TIE_SCENE.contrast, G32, 1000)
    edge_us = _BLOCK_STEPS * 50
    ties = [j for j in range(len(blocks) - 1)
            if np.any(blocks[j][0] == (j + 1) * edge_us)
            and np.any(blocks[j + 1][0] == (j + 1) * edge_us)]
    assert ties


@pytest.mark.parametrize("name", ["two_planes", "overlapping_planes", "bitmap", "stripes"])
def test_block_sampling_equals_per_time_sampling(name):
    scenes = {
        "two_planes": (SceneSpec(pattern=Disks(radius_px=3.0, pitch_px=24.0, offset_px=12.0),
                                 contrast=2.0,
                                 depth_planes=(DepthPlane(depth_m=1.0, region=(0, 0, 24, 48)),
                                               DepthPlane(depth_m=0.5, region=(24, 0, 48, 48)))),
                       SensorGeometry(width=48, height=48)),
        "overlapping_planes": (
            SceneSpec(pattern=SMALL_DISKS, contrast=1.5,
                      depth_planes=(DepthPlane(depth_m=1.0, region=(0, 0, 20, 32)),
                                    DepthPlane(depth_m=2.0, region=(12, 0, 32, 32),
                                               pattern=Triangle(center_x=22.0, center_y=16.0,
                                                                radius_px=10.0)))), G32),
        "bitmap": (SceneSpec(pattern=Bitmap(image=_step_edge()), contrast=1.0), G32),
        "stripes": (SceneSpec(pattern=Stripes(period_px=12.0, angle_rad=0.6), contrast=2.0), G32),
    }
    scene, geom = scenes[name]
    planes = _planes(scene, _circular(2.5, phase=0.9))
    ys, xs, plane_of = _active_pixels(planes, scene.contrast, DEFAULT_THRESHOLD, geom)
    latent = _latent_sampler(planes, scene.contrast, DEFAULT_THRESHOLD, ys, xs, plane_of)
    times = [i * 50 * 1e-6 for i in range(37, 37 + _BLOCK_STEPS + 1)]
    block, live = latent(times)
    assert block.shape == (len(times), ys.size) and ys.size > 0 and live is None
    for row, t in zip(block, times):
        assert row.tobytes() == latent([t])[0][0].tobytes()
    # culled to the pixels that can move, into a buffer: the same columns,
    # and each pixel left out holds one value
    out = np.full(block.size, np.nan)
    culled, live = latent(times, block[0], out)
    assert np.shares_memory(culled, out)
    if live is None:
        assert name in ("bitmap", "stripes")
        assert culled.tobytes() == block.tobytes()
    else:
        assert 0 < live.size < ys.size
        assert culled.tobytes() == block[:, live].tobytes()
        dropped = np.delete(block, live, axis=1)
        assert np.all(dropped == dropped[0])


def test_zero_rise_crossings_land_at_step_start():
    """A pixel whose latent value does not move over a step, with its
    reference a level or more away, emits at the step start for either
    polarity, also when the level sits exactly on the latent value."""
    thr = 0.25
    lat = np.array([[0.5, -0.5, 0.25, 1.0], [0.5, -0.5, 0.25, 1.1]])
    l_ref = np.array([0.0, 0.0, 0.0, 0.0])
    last_emit = np.full(4, -1e18)
    work = _walk_arrays(4)
    q, ref = _walk(lat, l_ref, thr, work)
    t, pixel, pol = _emit([_extract(q, ref, work, l_ref, None, 0, 4)], lat, last_emit, 3, thr,
                          50, 0)
    # emission order: level 1 of every pixel, then level 2, ...
    assert pixel.tolist() == [0, 1, 2, 3, 0, 1, 3, 3, 3]
    assert pol.tolist() == [1, -1, 1, 1, 1, -1, 1, 1, 1]
    # the zero-rise pixels at the step start; pixel 3 rises 0.1 over the step
    # and its levels were all passed before it
    assert t.tolist() == [150.0] * 9
    assert l_ref.tolist() == [0.5, -0.5, 0.25, 1.0]


def test_noise_merge_matches_one_stable_sort(monkeypatch):
    """Noise at a simulated event's float time follows it, noise a fraction
    of a microsecond earlier precedes it though both round alike, and noise
    on block edges lands as one stable time sort of all events puts it."""
    import evosc.sim as sim_module

    n_steps = 1000
    planes = _planes(TIE_SCENE, TIE_CFG)
    ys, xs, _ = _active_pixels(planes, TIE_SCENE.contrast, DEFAULT_THRESHOLD, G32)
    blocks, _, _ = _block_crossings(planes, TIE_SCENE.contrast, G32, n_steps)
    t_sim, pixel, pol = (np.concatenate(f) for f in zip(*blocks))
    edges = np.arange(0, n_steps + 1, _BLOCK_STEPS) * 50.0
    noise_t = np.sort(np.concatenate([t_sim[::50], t_sim[::53] - 0.05, edges, [n_steps * 50.0 + 7]]))
    rng = np.random.default_rng(0)
    nx, ny = rng.integers(0, 32, noise_t.size), rng.integers(0, 32, noise_t.size)
    npol = rng.choice(np.array([-1.0, 1.0]), noise_t.size)
    noise = make_events(np.round(noise_t).astype(np.uint64), nx, ny, npol, validate=False)
    monkeypatch.setattr(sim_module, "_noise_events", lambda *args: (noise_t, noise))

    events = simulate(TIE_SCENE, TIE_CFG, G32, duration_s=n_steps * 50e-6).events
    t_all = np.concatenate([t_sim, noise_t])
    order = np.argsort(t_all, kind="stable")
    expected = make_events(np.round(t_all[order]).astype(np.uint64),
                           np.concatenate([xs[pixel], nx])[order],
                           np.concatenate([ys[pixel], ny])[order],
                           np.concatenate([pol, npol])[order], validate=False)
    assert events.tobytes() == expected.tobytes()
