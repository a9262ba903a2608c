"""Event-camera simulator for a sensor on a driven harmonic mount.

The camera translates in its image plane as A*cos(omega*t + phi) per axis, so
the latent log-intensity seen at pixel p is the scene pattern sampled at
p - offset(t). Events follow the usual threshold-crossing model: a pixel emits
when the latent value moves a full contrast threshold away from its stored
reference, the reference steps by the threshold, and the event time is the
linear-interpolated crossing instant inside the integration step.

Only pixels that can ever fire are stepped. Every pixel's state is
independent and its reference starts at its own latent value, so a pixel
whose latent value cannot move a full threshold over the whole orbit never
emits. A pattern may expose

    bounds(xs, ys, rx, ry) -> (lo, hi)

returning arrays that enclose sample(xs - du, ys - dv) for every offset with
|du| <= rx and |dv| <= ry. Before the time loop, a pixel is culled when
contrast * (hi - lo) < threshold * (1 - 1e-9), the margin absorbing rounding
in the bound. Patterns without bounds keep every pixel they cover. The
surviving pixels are stepped as one vector in raster order, so the stream is
byte-identical to stepping the whole frame.

A block of steps covers only part of the orbit, and most active pixels keep
one value through it, because no edge reaches them. For each
plane whose pattern has bounds, every block asks bounds about the box of
the block's camera offsets, widened by _BOX_SLACK_PX either way to cover
rounding. A pixel with lo == hi, both exactly 0.0 or exactly 1.0, samples
that value at every step of the block (bounds must be exact where it
saturates, as the ramps of Disks and Triangle are), so its latent value is
the constant contrast * lo and it is not sampled, walked or emitted in that
block. One exception: a pixel whose reference lags a threshold or more
behind that constant, as after a step capped at _MAX_CROSSINGS, still
crosses in the block's first step, and is kept. The kept pixels are walked
in ascending order, so the stream keeps its order; patterns without bounds
keep every pixel in every block.

A pattern may, in place of sample, define

    axis_term(c) -> array
    combine(tx, ty, out=None) -> array

when its value is a term of x and a term of y combined elementwise; sample
(xs, ys) is then combine(axis_term(xs), axis_term(ys)), so the three cannot
drift apart. Each block computes such a plane's terms on its pixels' unique
columns and rows, the costly part (np.sin for Checkerboard, np.mod for
Disks) on nx + ny values instead of two per pixel, gathers them at its kept
pixels and combines them into the block's buffer; when the kept pixels are
the plane's whole row x column grid it combines broadcast views of the
terms, with no gather. Other patterns are sampled per kept pixel: Triangle
and Stripes, whose costly terms mix both axes, Bitmap, and user patterns.
sample must accept arrays of any broadcast shape and return a new float
array. The latent image is sampled for a block of 64 steps at once, one row
per step (a leading time axis on the offsets), with one camera_offset call
per plane on the block's array of times, into a (65 x pixels) buffer
reused from block to block (two, taken in turn, when blocks are emitted on a
worker), and scaled by the contrast in place.

Within a block, crossings are found by one search. Its only sequential part
is the reference walk, a step at a time over the kept pixels (at most
_WALK_PIXELS of them at once, which bounds its buffers): a pixel crosses
trunc((L - l_ref) / threshold) levels in a step, at most _MAX_CROSSINGS
either way, and its reference moves by that many thresholds.
The block's crossings are then emitted together, each at the
linear-interpolated instant inside its step, clipped to the step (at the
step start when the latent value does not move), less those that come within
the refractory period of the pixel's last emission, in per-step order:
step, level, pixel. A block in which no pixel crosses more than one level in
a step, as in every block of the perfbench scenes, skips the level
expansion (np.repeat).

Each block's events are sorted by float time (stably, so equal times keep
per-step order) and packed as they are produced; the noise events, sorted
once, are written into the block whose end follows them, after every event
at an equal or earlier float time. The stream is the one a single stable
time sort of all events gives. Blocks are written into one output array,
grown in place with ndarray.resize, so the stream is never held twice.

The emission, with the packing and the noise, runs on a worker thread of
core._executor() while the calling thread samples and walks the next block:
one task at a time, so blocks are emitted in order and one thread at a time
touches the emission state and the stream, and the walk alternates between
two buffer sets. The stream is the same byte for byte either way. Two
threads gain only where the worker runs while the caller has let go of the
interpreter lock: numpy releases it inside ufunc loops over more than 500
elements, and the walk is 7 ufunc calls per step on rows as wide as the
walk. So the emission makes no call that holds the lock for long (no
np.diff, np.roll or np.insert, and np.repeat only for multi-level blocks),
and it runs inline, on the calling thread, when one CPU is usable or the
run has fewer active pixels than _PIPELINE_PIXELS, whatever each block
keeps, so that a run never switches schedule. That break-even comes from a
sweep of 1 s checkerboard scenes on a 2-CPU machine, inline -> pipelined
(median of 5 runs, each the best of 3): 256 px 0.160 -> 0.171 s, 576 px
0.240 -> 0.267 s, 1024 px 0.362 -> 0.369 s, 1600 px 0.549 -> 0.535 s,
2304 px 0.662 -> 0.661 s, 2704 px 0.757 -> 0.673 s, 3136 px 0.836 -> 0.684
s, 4096 px 1.068 -> 0.831 s and 9216 px 2.539 -> 1.840 s. A narrower walk's
loops are too short to give the worker the time it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import core
from .core import (EVENT_DTYPE, SensorGeometry, check_finite, check_non_negative, check_positive,
                   empty_events, from_section, make_events)
from .errors import ConfigError, ResonanceError

TWO_PI = 2.0 * math.pi

DEFAULT_STEP_US = 50
DEFAULT_REFRACTORY_US = 100
DEFAULT_THRESHOLD = 0.2
# relative slack on the threshold when culling pixels from pattern bounds
_CULL_MARGIN = 1e-9
# slack in pixels either way on a block's box of camera offsets when asking
# pattern bounds whether a pixel saturates over the block
_BOX_SLACK_PX = 1e-6
# steps whose latent values are sampled in one pattern evaluation
_BLOCK_STEPS = 64
# most threshold levels one pixel crosses in one step
_MAX_CROSSINGS = 16
# most active pixels walked at once: the walk's buffers stay under 17 MB
_WALK_PIXELS = 16384
# narrowest walk whose blocks are emitted on a worker thread: the break-even
# of the sweep in the module docstring
_PIPELINE_PIXELS = 2500


def wrap_angle(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return phi - TWO_PI * math.ceil((phi - math.pi) / TWO_PI)


# ---------------------------------------------------------------------------
# drive physics


@dataclass(frozen=True)
class MotorParams:
    """DC motor constants: back-EMF constant (V*s/rad), winding resistance
    (ohm) and load torque (N*m)."""

    k_phi: float = 0.00374
    resistance_ohm: float = 3.75
    load_torque_nm: float = 0.216e-3

    def __post_init__(self):
        check_positive(k_phi=self.k_phi)
        check_non_negative(resistance_ohm=self.resistance_ohm, load_torque_nm=self.load_torque_nm)


def motor_speed(voltage: float, motor: MotorParams) -> float:
    """Steady motor speed in rad/s under a resistive-drop load model.

    omega = V/k_phi - (R/k_phi^2) * T_load, floored at zero (the rotor does
    not run backwards under load). A voltage that is not finite is a
    ConfigError.
    """
    check_finite(voltage=voltage)
    omega = voltage / motor.k_phi - (motor.resistance_ohm / motor.k_phi**2) * motor.load_torque_nm
    return max(0.0, omega)


@dataclass(frozen=True)
class Mount:
    """The camera's spring mount, shaken by a rotating eccentric mass: the
    `scene.physical` block.

    mass_kg: oscillating mass entering the resonance denominator
    eccentric_mass_kg, eccentricity_m: the rotating imbalance (force m*e*w^2)
    damping, stiffness: viscous damping c (N*s/m) and spring constant k (N/m)
    omega_rad_s, voltage: the drive, one of them: the rotation rate, or the
        motor's supply voltage, which turns at motor_speed(voltage, motor)
    circular: the imbalance shakes both in-plane axes with equal amplitudes,
        x a quarter turn ahead; otherwise y alone

    The drive speed must be positive (a stalled motor leaves the mount
    still), and an undamped drive at resonance, which has no steady state,
    is a ResonanceError.
    """

    mass_kg: float
    eccentric_mass_kg: float
    eccentricity_m: float
    damping: float
    stiffness: float
    omega_rad_s: float | None = None
    voltage: float | None = None
    motor: MotorParams = MotorParams()
    circular: bool = True

    def __post_init__(self):
        if self.omega_rad_s is None and self.voltage is None:
            raise ConfigError("physical config needs omega_rad_s or voltage")
        if self.omega_rad_s is not None and self.voltage is not None:
            raise ConfigError("physical config takes one of omega_rad_s and voltage, not both")
        check_positive(mass_kg=self.mass_kg, eccentric_mass_kg=self.eccentric_mass_kg,
                       eccentricity_m=self.eccentricity_m, stiffness=self.stiffness)
        check_non_negative(damping=self.damping)
        if self.omega_rad_s is not None:
            check_positive(omega_rad_s=self.omega_rad_s)
        elif not (omega := self.omega) > 0:
            raise ConfigError(f"voltage {self.voltage} drives the motor at {omega} rad/s; "
                              f"the drive speed must be positive")
        self.steady_state()

    @property
    def omega(self) -> float:
        """The drive speed in rad/s."""
        if self.omega_rad_s is not None:
            return self.omega_rad_s
        return motor_speed(self.voltage, self.motor)

    def steady_state(self) -> tuple[float, float]:
        """Steady-state response (amplitude_m, phase_rad) of the driven mount.

        amplitude = m e w^2 / sqrt((k - m w^2)^2 + (c w)^2)
        phase     = atan2(c w, k - m w^2)

        so the displacement is amplitude * sin(w t - phase).
        """
        m, w = self.mass_kg, self.omega
        force = self.eccentric_mass_kg * self.eccentricity_m * w * w
        elastic = self.stiffness - m * w * w
        dissip = self.damping * w
        denom_sq = elastic * elastic + dissip * dissip
        if denom_sq == 0.0:
            raise ResonanceError(
                f"undamped drive at resonance (k = m*w^2 = {self.stiffness}) has no steady state"
            )
        return force / math.sqrt(denom_sq), math.atan2(dissip, elastic)

    def oscillator(self, geometry: SensorGeometry, depth_m: float) -> OscillatorConfig:
        """The image motion of a plane at depth_m: the steady state
        amp*sin(w t - phase) as cosines, seen at A = f*amp/Z px."""
        check_positive(depth_m=depth_m)
        amp, phase = self.steady_state()
        phi_y = wrap_angle(-phase - math.pi / 2.0)
        phi_x = wrap_angle(phi_y + math.pi / 2.0) if self.circular else phi_y
        amp_px = geometry.focal_length_px * amp / depth_m
        return OscillatorConfig(amp_x_px=amp_px if self.circular else 0.0, amp_y_px=amp_px,
                                omega=self.omega, phi_x=phi_x, phi_y=phi_y)


# ---------------------------------------------------------------------------
# image-plane oscillation


@dataclass(frozen=True)
class OscillatorConfig:
    """Image-plane oscillation: pixel offset A_i*cos(omega*t + phi_i) per axis."""

    amp_x_px: float
    amp_y_px: float
    omega: float
    phi_x: float = 0.0
    phi_y: float = 0.0

    def __post_init__(self):
        check_non_negative(amp_x_px=self.amp_x_px, amp_y_px=self.amp_y_px, omega=self.omega)
        check_finite(phi_x=self.phi_x, phi_y=self.phi_y)
        object.__setattr__(self, "phi_x", wrap_angle(self.phi_x))
        object.__setattr__(self, "phi_y", wrap_angle(self.phi_y))

    def scaled(self, s: float) -> "OscillatorConfig":
        return replace(self, amp_x_px=self.amp_x_px * s, amp_y_px=self.amp_y_px * s)

    def to_dict(self) -> dict:
        return {
            "amp_x_px": self.amp_x_px,
            "amp_y_px": self.amp_y_px,
            "omega_rad_s": self.omega,
            "phi_x": self.phi_x,
            "phi_y": self.phi_y,
        }


def phasor_offset(amp, phase0, omega, t0, t, out=None, at=None):
    """amp*cos(phase0 + omega*(t - t0)), omega in radians per unit of t: the
    package's one sinusoid evaluator. Arguments broadcast elementwise; out,
    when given, is an array of the result's shape that every step is
    computed in, and is returned. at, when given, is an index array: each
    parameter p is then read as p[at], gathered as its step comes into one
    scratch array, so the four are never gathered at once."""
    scratch = None if at is None else np.empty(np.shape(at))

    def param(p):
        return p if at is None else np.take(p, at, out=scratch)

    x = np.subtract(t, param(t0), out=out)
    x = np.multiply(param(omega), x, out=out)
    x = np.add(param(phase0), x, out=out)
    return np.multiply(param(amp), np.cos(x, out=out), out=out)


def camera_offset(t, cfg: OscillatorConfig):
    """Image-plane camera offset (du, dv) in pixels; vectorized over t (seconds)."""
    t = np.asarray(t, dtype=float)
    return (phasor_offset(cfg.amp_x_px, cfg.phi_x, cfg.omega, 0.0, t),
            phasor_offset(cfg.amp_y_px, cfg.phi_y, cfg.omega, 0.0, t))


# ---------------------------------------------------------------------------
# scene patterns (log intensity in [0, 1] before the contrast scale)


def _edge_ramp(signed_dist, width):
    """Unit ramp of width `width` centred on a shape boundary, computed in
    place in signed_dist (every caller passes an array it made)."""
    signed_dist /= width
    signed_dist += 0.5
    return np.clip(signed_dist, 0.0, 1.0, out=signed_dist)


class _PerAxis:
    """A pattern whose value combines a term of x and a term of y
    elementwise: sample is combine(axis_term(xs), axis_term(ys))."""

    def sample(self, xs, ys):
        return self.combine(self.axis_term(xs), self.axis_term(ys))


@dataclass(frozen=True)
class Checkerboard(_PerAxis):
    period_px: float = 16.0
    edge_sharpness: float = 4.0

    def __post_init__(self):
        check_positive(period_px=self.period_px)

    def axis_term(self, c):
        k = TWO_PI / self.period_px
        return np.tanh(self.edge_sharpness * np.sin(k * c))

    def combine(self, tx, ty, out=None):
        v = np.multiply(tx, ty, out=out)
        v += 1.0
        v *= 0.5
        return v


@dataclass(frozen=True)
class Stripes:
    period_px: float = 16.0
    angle_rad: float = 0.0
    edge_sharpness: float = 4.0

    def __post_init__(self):
        check_positive(period_px=self.period_px)

    def sample(self, xs, ys):
        k = TWO_PI / self.period_px
        s = xs * math.cos(self.angle_rad) + ys * math.sin(self.angle_rad)
        return 0.5 * (np.tanh(self.edge_sharpness * np.sin(k * s)) + 1.0)


@dataclass(frozen=True)
class Disks(_PerAxis):
    """Bright disks on a dark background, centred at offset + k*pitch."""

    radius_px: float = 6.0
    pitch_px: float = 32.0
    edge_width_px: float = 1.0
    offset_px: float | None = None

    def __post_init__(self):
        check_positive(radius_px=self.radius_px, pitch_px=self.pitch_px,
                       edge_width_px=self.edge_width_px)

    def axis_term(self, c):
        """Signed per-axis offset of c from the nearest disk centre."""
        p = self.pitch_px
        off = 0.5 * p if self.offset_px is None else self.offset_px
        return np.mod(c - off + 0.5 * p, p) - 0.5 * p

    def combine(self, tx, ty, out=None):
        r = np.hypot(tx, ty, out=out)
        return _edge_ramp(np.subtract(self.radius_px, r, out=r), self.edge_width_px)

    def bounds(self, xs, ys, rx, ry):
        # Over [c - r, c + r] the wrapped distance |d| to the nearest centre
        # spans [max(|d| - r, 0), min(|d| + r, pitch/2)]; the radius is
        # monotone in each axis distance, so the box extremes are the corners.
        half = 0.5 * self.pitch_px
        dx, dy = np.abs(self.axis_term(xs)), np.abs(self.axis_term(ys))
        near = np.hypot(np.maximum(dx - rx, 0.0), np.maximum(dy - ry, 0.0))
        far = np.hypot(np.minimum(dx + rx, half), np.minimum(dy + ry, half))
        return (_edge_ramp(self.radius_px - far, self.edge_width_px),
                _edge_ramp(self.radius_px - near, self.edge_width_px))


@dataclass(frozen=True)
class Triangle:
    """A single filled equilateral triangle (vertex up) on a dark background."""

    center_x: float
    center_y: float
    radius_px: float = 12.0
    edge_width_px: float = 1.0

    def __post_init__(self):
        check_positive(radius_px=self.radius_px, edge_width_px=self.edge_width_px)

    def _inner(self, xs, ys):
        x = xs - self.center_x
        y = ys - self.center_y
        inner = np.full(np.broadcast(x, y).shape, np.inf)
        for i in range(3):
            ang = -math.pi / 2.0 + i * TWO_PI / 3.0
            nx, ny = math.cos(ang), math.sin(ang)
            # distance inward from each edge line of the inscribed-circle triangle
            inner = np.minimum(inner, 0.5 * self.radius_px - (x * nx + y * ny))
        return inner

    def sample(self, xs, ys):
        return _edge_ramp(self._inner(xs, ys), self.edge_width_px)

    def bounds(self, xs, ys, rx, ry):
        # a minimum of unit-normal distances is 1-Lipschitz
        inner = self._inner(xs, ys)
        reach = math.hypot(rx, ry)
        return (_edge_ramp(inner - reach, self.edge_width_px),
                _edge_ramp(inner + reach, self.edge_width_px))


@dataclass(frozen=True)
class Bitmap:
    """Arbitrary log-intensity image sampled with bilinear interpolation."""

    image: np.ndarray

    def sample(self, xs, ys):
        img = self.image
        h, w = img.shape
        x = np.clip(xs, 0.0, w - 1.0)
        y = np.clip(ys, 0.0, h - 1.0)
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        fx = x - x0
        fy = y - y0
        top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
        bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
        return top * (1.0 - fy) + bot * fy


PATTERNS = {
    "checkerboard": Checkerboard,
    "stripes": Stripes,
    "disks": Disks,
    "triangle": Triangle,
}


def read_pattern(d: dict, section: str):
    """A pattern block: its `type` (default checkerboard) names the PATTERNS
    class, and its other keys are that class's fields."""
    kind = d.get("type", "checkerboard") if isinstance(d, dict) else None
    if kind not in PATTERNS:
        raise ConfigError(f"{section}: unknown pattern type {kind!r}")
    return from_section(PATTERNS[kind], {k: v for k, v in d.items() if k != "type"}, section)


@dataclass(frozen=True)
class DepthPlane:
    """Axis-aligned region (x0, y0, x1, y1) of the frame lying at one depth.

    region=None covers the whole frame. An optional per-plane pattern
    overrides the scene default.
    """

    depth_m: float = 1.0
    region: tuple[int, int, int, int] | None = None
    pattern: object | None = field(default=None, metadata={"read": read_pattern})

    def __post_init__(self):
        check_positive(depth_m=self.depth_m)
        if self.region is not None:
            x0, y0, x1, y1 = self.region
            # a negative bound would wrap round as a slice index
            if min(x0, y0) < 0 or x1 <= x0 or y1 <= y0:
                raise ConfigError("region must be (x0, y0, x1, y1) with 0 <= x0 < x1 and "
                                  f"0 <= y0 < y1, got {self.region}")


@dataclass(frozen=True)
class SceneSpec:
    """Scene content: a pattern, its log-intensity contrast, and depth planes.

    Planes partition the frame; the image-plane amplitude of plane i scales by
    depth_0 / depth_i relative to the configured amplitude (nearer planes move
    further on the sensor).
    """

    pattern: object = field(default_factory=Checkerboard)
    contrast: float = 0.5
    depth_planes: tuple[DepthPlane, ...] = (DepthPlane(),)

    def __post_init__(self):
        check_positive(contrast=self.contrast)
        if not self.depth_planes:
            raise ConfigError("at least one depth plane is required")


@dataclass
class SimOutput:
    """Simulated stream plus the generating ground truth, one config per plane."""

    events: np.ndarray
    truth: list[OscillatorConfig]


# ---------------------------------------------------------------------------
# event generation


def _plane_mask(region, geometry: SensorGeometry) -> np.ndarray:
    mask = np.zeros((geometry.height, geometry.width), dtype=bool)
    if region is None:
        mask[:] = True
    else:
        x0, y0, x1, y1 = region
        mask[y0:y1, x0:x1] = True
    return mask


def _active_pixels(planes, contrast: float, threshold: float, geometry: SensorGeometry):
    """Raster-order (ys, xs, plane index) of the pixels that can ever fire.

    A later plane owns the pixels it shares with an earlier one; pixels no
    plane covers stay dark and never fire.
    """
    owner = np.full((geometry.height, geometry.width), -1)
    for i, (region, _, _) in enumerate(planes):
        owner[_plane_mask(region, geometry)] = i
    ys, xs = np.nonzero(owner >= 0)
    plane_of = owner[ys, xs]
    active = np.ones(ys.shape[0], dtype=bool)
    for i, (_, pattern, cfg) in enumerate(planes):
        if hasattr(pattern, "bounds"):
            own = np.flatnonzero(plane_of == i)
            lo, hi = pattern.bounds(xs[own].astype(float), ys[own].astype(float),
                                    cfg.amp_x_px, cfg.amp_y_px)
            active[own] = contrast * (hi - lo) >= threshold * (1.0 - _CULL_MARGIN)
    return ys[active], xs[active], plane_of[active]


def _saturated(pattern, xs, ys, du, dv):
    """(mask, lo): the pixels at (xs, ys) whose sample is one value, exactly
    0.0 or 1.0, at every camera offset (du[r], dv[r]), and pattern.bounds's
    lo of each pixel. bounds is asked about the box of the offsets, widened by
    _BOX_SLACK_PX either way to cover rounding in the box and in the samples.
    """
    cu, cv = 0.5 * (du.max() + du.min()), 0.5 * (dv.max() + dv.min())
    ru = 0.5 * (du.max() - du.min()) + _BOX_SLACK_PX
    rv = 0.5 * (dv.max() - dv.min()) + _BOX_SLACK_PX
    lo, hi = pattern.bounds(xs - cu, ys - cv, ru, rv)
    return (lo == hi) & ((lo == 0.0) | (lo == 1.0)), lo


def _latent_sampler(planes, contrast: float, threshold: float, ys: np.ndarray,
                    xs: np.ndarray, plane_of):
    """sample(times, ref=None, out=None) -> (lat, live): the latent log
    intensity of the active pixels, one row per time in seconds.

    With ref None, every pixel is sampled and live is None. Otherwise a
    pixel of a plane with bounds is dropped when its sample is one saturated
    value over the times and that value is less than a threshold from ref,
    the pixel's walk reference: no step of the times moves it. live is then
    the ascending indices of the pixels kept, or None when every pixel is
    kept. lat holds the kept pixels' columns; out, when given, is a flat
    buffer with room for it that lat is written into.

    A per-axis plane computes its terms on its unique columns and rows and
    combines them gathered at its kept pixels, or, when those are its whole
    row x column grid, as broadcast views of the terms.
    """
    n_pix = ys.shape[0]
    xs, ys = xs.astype(float), ys.astype(float)
    # each pixel of a per-axis plane: its index in the plane's unique columns and rows
    xcol, yrow = np.zeros(n_pix, dtype=np.intp), np.zeros(n_pix, dtype=np.intp)
    members = []
    for i, (_, pattern, cfg) in enumerate(planes):
        own = np.flatnonzero(plane_of == i)
        if not own.size:
            continue
        ux = uy = None
        if hasattr(pattern, "axis_term"):
            ux, xcol[own] = np.unique(xs[own], return_inverse=True)
            uy, yrow[own] = np.unique(ys[own], return_inverse=True)
        members.append((i, own, pattern, cfg, ux, uy))
    th = np.float64(threshold)

    def sample(times, ref=None, out=None):
        offsets = [camera_offset(times, cfg) for _, _, _, cfg, _, _ in members]
        live = None
        if ref is not None:
            keep = np.ones(n_pix, dtype=bool)
            for (_, own, pattern, _, _, _), (du, dv) in zip(members, offsets):
                if hasattr(pattern, "bounds"):
                    dead, lo = _saturated(pattern, xs[own], ys[own], du, dv)
                    # the walk's first step, as _walk takes it: a reference a
                    # threshold or more from the constant still crosses
                    keep[own] = ~dead | (np.trunc((contrast * lo - ref[own]) / th) != 0.0)
            if not keep.all():
                live = np.flatnonzero(keep)
        rows, n = len(times), n_pix if live is None else live.size
        lat = np.empty((rows, n)) if out is None else out[:rows * n].reshape(rows, n)
        plane_live = None if live is None else plane_of.take(live)
        for (i, own, pattern, _, ux, uy), (du, dv) in zip(members, offsets):
            pos = own if live is None else np.flatnonzero(plane_live == i)
            if not pos.size:
                continue
            at = pos if live is None else live.take(pos)
            # a plane whose pixels are one run of columns is written in place
            dst = lat[:, pos[0]:pos[-1] + 1] if pos[-1] - pos[0] + 1 == pos.size else None
            if ux is None:
                values = pattern.sample(xs.take(at) - du[:, None], ys.take(at) - dv[:, None])
            else:
                tx = pattern.axis_term(ux - du[:, None])
                ty = pattern.axis_term(uy - dv[:, None])
                if pos.size == ux.size * uy.size:
                    # splitting dst's contiguous last axis is always a view
                    grid = None if dst is None else dst.reshape(rows, uy.size, ux.size)
                    values = pattern.combine(tx[:, None, :], ty[:, :, None], out=grid)
                else:
                    values = pattern.combine(tx.take(xcol.take(at), axis=1),
                                             ty.take(yrow.take(at), axis=1), out=dst)
            if dst is None:
                lat[:, pos] = values.reshape(rows, -1)
            elif ux is None:
                dst[...] = values
        lat *= contrast
        return lat, live

    return sample


def _walk_arrays(width: int):
    """One set of the reference walk's buffers, level counts, references and
    the crossing mask: room for _BLOCK_STEPS and _BLOCK_STEPS + 1 rows of
    width columns."""
    return (np.empty(_BLOCK_STEPS * width), np.empty((_BLOCK_STEPS + 1) * width),
            np.empty(_BLOCK_STEPS * width, dtype=bool))


def _walk(lat, ref0, threshold, work):
    """The reference walk of one block over a chunk of pixel columns: (q, ref),
    views of the buffer set work.

    lat[r] is the latent value before step r of the block. q[r] is each
    pixel's signed level count in step r, trunc((lat - ref) / threshold)
    capped at _MAX_CROSSINGS either way, and ref[r] its reference before it;
    ref[0] is ref0.
    """
    n_rows, w = lat.shape[0] - 1, lat.shape[1]
    q = work[0][:n_rows * w].reshape(n_rows, w)
    ref = work[1][:(n_rows + 1) * w].reshape(n_rows + 1, w)
    ref[0] = ref0
    # numpy scalars: a ufunc converts a Python number on every call
    th, cap = np.float64(threshold), np.float64(_MAX_CROSSINGS)
    for now, qr, before, after in zip(lat[1:], q, ref, ref[1:]):
        np.subtract(now, before, out=qr)
        np.divide(qr, th, out=qr)
        np.trunc(qr, out=qr)
        np.minimum(qr, cap, out=qr)
        np.maximum(qr, -cap, out=qr)
        np.multiply(qr, th, out=after)
        np.add(before, after, out=after)
    return q, ref


def _extract(q, ref, work, l_ref, live, c, n_cols):
    """Crossings of a chunk walked in the buffer set work, whose first
    column is c of the block's n_cols: (step, pixel, index in the block's
    latent rows, level count, reference before the step) of each, by step
    then pixel. Column j of the block is pixel live[j], or j when live is
    None. The pixels that cross take their final reference in l_ref."""
    n_rows, w = q.shape
    hit = np.not_equal(q, 0.0, out=work[2][:q.size].reshape(q.shape))
    at = np.flatnonzero(hit)
    row, col = np.divmod(at, w)
    column = col + c if c else col
    pixel = column if live is None else live.take(column)
    # only pixels that cross move: a -0.0 reference plus a zero step is +0.0
    l_ref[pixel] = ref[n_rows].take(col)
    cell = at if w == n_cols else row * n_cols + column
    return row, pixel, cell, q.take(at), ref.take(at)


def _emit(found, lat, last_emit, first_step, threshold, step_us, refractory_us):
    """Events of one block's crossings, (t_us, pixel, polarity) by step, level,
    pixel; last_emit is updated in place.

    found holds each walked chunk's _extract, in pixel order, and lat is the
    block's latent values of the pixels it kept, lat[r] the one before step
    first_step + r. The
    level expansion, whose np.repeat holds the interpreter lock for its whole
    copy, runs only for a block where some pixel crosses several levels in a
    step; the rest make no call that was seen to stall a walk on another
    thread (np.diff, np.roll, np.insert).
    """
    n_rows, n_pix = lat.shape[0] - 1, last_emit.size
    row, pixel, cell, q, ref = (found[0] if len(found) == 1
                                else (np.concatenate(f) for f in zip(*found)))
    level = 1
    multi = q.size and (q.max() > 1.0 or q.min() < -1.0)
    if multi:
        # one event per crossed level
        count = np.abs(q).astype(np.intp)
        level = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1
        row, pixel, cell, q, ref = (np.repeat(a, count) for a in (row, pixel, cell, q, ref))
    l_prev, rise = lat.take(cell), lat[1:].take(cell)
    rise -= l_prev
    if not rise.all():
        # a latent value that does not move puts every crossing at the step start
        rise[rise == 0.0] = np.inf
    pol = np.sign(q)
    t = pol * (level * threshold)
    t += ref
    t -= l_prev
    t /= rise
    np.clip(t, 0.0, 1.0, out=t)
    t *= step_us
    t += ((first_step + np.arange(n_rows)) * step_us).take(row)
    key = None
    if multi or len(found) > 1:
        key = row * (_MAX_CROSSINGS + 1) + level
        order = np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")
        t, pixel, pol, key = t[order], pixel[order], pol[order], key[order]

    # An event refractory_us or more after its pixel's event before it (or
    # last_emit) is kept whatever came before. Pixel by pixel, each pixel's
    # events are in time order, so when every event is that far from the one
    # before it, each is that far from last_emit if the first is.
    by_pixel = np.argsort(pixel.astype(np.min_scalar_type(n_pix)), kind="stable")
    tp, pp = t.take(by_pixel), pixel.take(by_pixel)
    free = tp[1:] >= tp[:-1] + refractory_us
    free |= pp[1:] != pp[:-1]
    if free.all() and (t >= last_emit.take(pixel) + refractory_us).all():
        # each pixel's last event is its last emission
        np.maximum.at(last_emit, pixel, t)
        return t, pixel, pol
    if key is None:
        key = row * (_MAX_CROSSINGS + 1) + level
    keep = _refractory(t, pixel, key, last_emit, refractory_us)
    return t[keep], pixel[keep], pol[keep]


def _refractory(t, pixel, key, last_emit, refractory_us):
    """Mask of the events, in (step, level, pixel) order, that come
    refractory_us or more after their pixel's last kept one; last_emit
    follows the kept ones. A pixel has at most one event per (step, level)
    key, so the events of one key are checked together, key by key.
    """
    keep = np.empty(t.size, dtype=bool)
    cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
    for a, b in zip(np.append(0, cuts), np.append(cuts, t.size)):
        p, ta = pixel[a:b], t[a:b]
        ok = keep[a:b] = ta >= last_emit[p] + refractory_us
        last_emit[p[ok]] = ta[ok]
    return keep


def check_sim_params(duration_s: float, threshold: float, step_us: int,
                     noise_rate_hz: float, refractory_us: int) -> None:
    """ConfigError unless duration_s, threshold and step_us are positive and
    finite, and noise_rate_hz and refractory_us non-negative and finite."""
    check_positive(duration_s=duration_s, threshold=threshold, step_us=step_us)
    check_non_negative(noise_rate_hz=noise_rate_hz, refractory_us=refractory_us)


def _search(sample, n_steps, l_ref, threshold, emit):
    """Walk the blocks of n_steps steps and call emit(b, n, lat, found) for
    each, in block order: the block of the n steps from step b, its latent
    values (lat, live) = sample(b, n, ref, out) (lat[r] the one before step
    b + r, of the pixels live or of every pixel when live is None; ref the
    walk's references, out a flat buffer with room for the block), and
    found, the crossings _extract takes from each walked chunk, in pixel
    order. Pixels left out of a block must not cross in it.

    l_ref holds each pixel's reference before step 0 and is updated as the
    crossings are extracted. When there are at least _PIPELINE_PIXELS pixels
    and another CPU is usable, the extraction and emit run on a worker while
    this thread samples and walks the next chunk. One task is in flight at a
    time, so blocks are emitted in order and by one thread at a time, and the
    walk and the blocks' latent values alternate between two buffer sets. An
    exception from the worker reaches the caller, and no task runs once this
    returns or raises.
    """
    n_pix = l_ref.size
    width = min(n_pix, _WALK_PIXELS)
    pool = core._executor() if width >= _PIPELINE_PIXELS and core._cpus() > 1 else None
    works = [_walk_arrays(width) for _ in range(1 if pool is None else 2)]
    lats = [np.empty((_BLOCK_STEPS + 1) * n_pix) for _ in works]
    # the walk's own references, so that it never waits on l_ref; they differ
    # from l_ref at most in the sign of a zero, which no crossing depends on
    walk_ref = l_ref.copy()

    def task(c, last, q, ref, work, found, b, n, lat, live):
        found.append(_extract(q, ref, work, l_ref, live, c, lat.shape[1]))
        if last:
            emit(b, n, lat, found)

    pending, walked = None, 0
    try:
        for k, b in enumerate(range(0, n_steps, _BLOCK_STEPS)):
            n = min(_BLOCK_STEPS, n_steps - b)
            lat, live = sample(b, n, walk_ref, lats[k % len(lats)])
            found, n_cols = [], lat.shape[1]
            chunks = range(0, max(n_cols, 1), max(width, 1))
            for c in chunks:
                cols = slice(c, c + width)
                at = cols if live is None else live[cols]
                work = works[walked % len(works)]
                q, ref = _walk(lat[:, cols], walk_ref[at], threshold, work)
                walk_ref[at] = ref[-1]
                walked += 1
                args = (c, c == chunks[-1], q, ref, work, found, b, n, lat, live)
                if pool is None:
                    task(*args)
                    continue
                if pending is not None:
                    pending.result()
                pending = pool.submit(task, *args)
    finally:
        if pending is not None:
            pending.exception()  # waits; the error itself is raised below
    if pending is not None:
        pending.result()


def _generate(
    planes,
    contrast: float,
    geometry: SensorGeometry,
    duration_s: float,
    threshold: float,
    step_us: int,
    refractory_us: int,
    rng: np.random.Generator,
    noise_rate_hz: float,
) -> np.ndarray:
    """Run the threshold-crossing model.

    planes: list of (region, pattern, cfg); the latent log intensity of a
    plane's pixel is contrast * pattern.sample(p - camera_offset(t, cfg)).
    """
    check_sim_params(duration_s, threshold, step_us, noise_rate_hz, refractory_us)
    ys, xs, plane_of = _active_pixels(planes, contrast, threshold, geometry)
    latent = _latent_sampler(planes, contrast, threshold, ys, xs, plane_of)
    xs, ys = xs.astype(EVENT_DTYPE["x"]), ys.astype(EVENT_DTYPE["y"])

    # noise is drawn from rng alone, so drawing it before the simulated
    # events changes no value
    noise_t, noise = _noise_events(rng, noise_rate_hz, geometry, duration_s)
    l_ref = latent([0.0])[0][0]
    last_emit = np.full(ys.shape[0], -1e18)
    # the stream, grown in place as blocks arrive: a quarter more room at a
    # time, and cut to length at the end
    stream, filled, merged = empty_events(), 0, 0

    def emit(b, n, lat, found):
        nonlocal stream, filled, merged
        t, pixel, pol = _emit(found, lat, last_emit, b, threshold, step_us, refractory_us)
        # Later blocks' events come at or after this block's end, so the noise
        # before it is placed here, after every event at an equal or earlier
        # float time: one stable time sort of the block's events followed by
        # its noise puts it where a stable sort of the whole stream does.
        end = np.searchsorted(noise_t, (b + n) * step_us)
        columns = [t, xs.take(pixel), ys.take(pixel), pol]
        if end > merged:
            noise_columns = [noise_t[merged:end]] + [noise[f][merged:end] for f in "xyp"]
            columns = [np.concatenate(pair) for pair in zip(columns, noise_columns)]
            merged = end
        order = np.argsort(columns[0], kind="stable")
        size = filled + order.size
        if size > stream.shape[0]:
            # no view of the stream is held here, so the resize need not count
            # references (a tracer's frame would hold one)
            stream.resize(max(size, stream.shape[0] * 5 // 4), refcheck=False)
        block = stream[filled:size]
        np.rint(columns[0].take(order), out=block["t"], casting="unsafe")
        for name, values in zip("xyp", columns[1:]):
            # mode="clip" writes straight into the strided field; every index is valid
            values.take(order, out=block[name], mode="clip")
        filled = size

    n_steps = int(round(duration_s * 1e6 / step_us))
    _search(lambda b, n, ref, out: latent([i * step_us * 1e-6 for i in range(b, b + n + 1)],
                                          ref, out),
            n_steps, l_ref, threshold, emit)
    stream.resize(filled + noise.shape[0] - merged, refcheck=False)
    stream[filled:] = noise[merged:]
    return stream


def _noise_events(rng: np.random.Generator, noise_rate_hz: float, geometry: SensorGeometry,
                  duration_s: float):
    """Uniform background events sorted by time: (float times in us, events)."""
    n = rng.poisson(noise_rate_hz * geometry.width * geometry.height * duration_s) \
        if noise_rate_hz > 0 else 0
    if not n:
        return np.empty(0), empty_events()
    t = rng.uniform(0.0, duration_s * 1e6, n)
    x = rng.integers(0, geometry.width, n)
    y = rng.integers(0, geometry.height, n)
    pol = rng.choice(np.array([-1.0, 1.0]), n)
    order = np.argsort(t, kind="stable")
    t = t[order]
    return t, make_events(np.round(t).astype(np.uint64), x[order], y[order], pol[order],
                          validate=False)


def simulate(
    scene: SceneSpec,
    cfg: OscillatorConfig,
    geometry: SensorGeometry,
    duration_s: float,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    step_us: int = DEFAULT_STEP_US,
    refractory_us: int = DEFAULT_REFRACTORY_US,
    noise_rate_hz: float = 0.0,
) -> SimOutput:
    """Simulate the oscillating camera watching a static scene.

    cfg gives the image-plane amplitude of the nearest-listed plane (plane 0);
    other planes scale by depth_0/depth_i. Identical inputs and seed produce a
    byte-identical stream.
    """
    z0 = scene.depth_planes[0].depth_m
    planes = []
    truth = []
    for plane in scene.depth_planes:
        plane_cfg = cfg.scaled(z0 / plane.depth_m)
        pattern = plane.pattern if plane.pattern is not None else scene.pattern
        planes.append((plane.region, pattern, plane_cfg))
        truth.append(plane_cfg)

    events = _generate(
        planes, scene.contrast, geometry, duration_s, threshold, step_us, refractory_us,
        np.random.default_rng(seed), noise_rate_hz,
    )
    return SimOutput(events=events, truth=truth)


@dataclass(frozen=True)
class MovingTarget:
    """A static camera watching an object move on a circular path of
    radius_px at freq_hz: the `scene.moving_target` block."""

    freq_hz: float
    radius_px: float

    def __post_init__(self):
        check_positive(freq_hz=self.freq_hz, radius_px=self.radius_px)

    def preset(self, geometry: SensorGeometry, pattern: object | None = None,
               contrast: float = SceneSpec.contrast) -> tuple[SceneSpec, OscillatorConfig]:
        """simulate's (scene, cfg): the default object is a triangle at frame
        centre, and the path is a per-axis cosine with the y axis a quarter
        turn behind."""
        if pattern is None:
            pattern = Triangle(center_x=(geometry.width - 1) / 2.0,
                               center_y=(geometry.height - 1) / 2.0)
        return SceneSpec(pattern=pattern, contrast=contrast), OscillatorConfig(
            amp_x_px=self.radius_px, amp_y_px=self.radius_px,
            omega=TWO_PI * self.freq_hz, phi_x=0.0, phi_y=-math.pi / 2.0)
