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

A pattern may also set the class attribute

    per_axis = True

when sample(xs, ys) evaluates a term of xs and a term of ys separately and
only then combines them elementwise, so that sample(ux[None, :], uy[:, None])
equals, bit for bit, sample at each (x, y) of the row x column grid. Such a
plane is then sampled on the grid of its active pixels' unique columns ux and
rows uy, and its pixels are gathered from it: the per-axis terms, the costly
part (np.sin for Checkerboard, np.mod for Disks), run on nx + ny values
instead of two per pixel. Patterns without the attribute are sampled
per pixel: Triangle and Stripes, whose costly terms mix both axes, Bitmap,
and user patterns. sample must accept arrays of any broadcast shape: the
latent image is sampled for a block of 64 steps at once, one row per step (a
leading time axis on the offsets), with one camera_offset call per plane on
the block's array of times.

Within a block, crossings are found by one of two searches that emit the same
events with the same floats:

- by step: each step tests every active pixel, as a per-step loop does;
- by pixel: a pixel's first crossing row is the first row where
  |L - l_ref| / threshold >= 1, the float expression behind n_cross >= 1.
  Only those (pixel, row) pairs run the per-step arithmetic (levels, the
  cap of _MAX_CROSSINGS levels per step, the refractory check); their
  references advance and the search repeats past each one's row until no
  pixel crosses again in the block. The events are then put in per-step
  order: step, level, pixel.

A crossing lands at the linear-interpolated instant inside its step, clipped
to the step; when the latent value does not move over the step, every
crossing lands at the step start.

The by-pixel search costs a few array passes per crossing wave, the by-step
search a few per step, so the by-pixel search wins while few pixels fire per
step. It runs up to 1024 active pixels, a count fixed by the scene: the
measured break-even lies near 800 active pixels for a densely firing
checkerboard and near 1800 for a disk grid. Each block's events are sorted by
float time (stably, so equal times keep per-step order) and packed as they are
produced; the noise events, sorted once, are merged into the block whose end
follows them, after every event at an equal or earlier float time. The
stream is the one a single stable time sort of all events gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SensorGeometry, empty_events, from_section, make_events
from .errors import BehindCameraError, ConfigError, ResonanceError

TWO_PI = 2.0 * math.pi

DEFAULT_STEP_US = 50
DEFAULT_REFRACTORY_US = 100
DEFAULT_THRESHOLD = 0.2
# relative slack on the threshold when culling pixels from pattern bounds
_CULL_MARGIN = 1e-9
# steps whose latent values are sampled in one pattern evaluation
_BLOCK_STEPS = 64
# most threshold levels one pixel crosses in one step
_MAX_CROSSINGS = 16
# largest active set whose crossings are found pixel by pixel (break-even)
_SPARSE_MAX_PIXELS = 1024


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


def motor_speed(voltage: float, motor: MotorParams) -> float:
    """Steady motor speed in rad/s under a resistive-drop load model.

    omega = V/k_phi - (R/k_phi^2) * T_load, floored at zero (the rotor does
    not run backwards under load).
    """
    if motor.k_phi <= 0:
        raise ConfigError(f"k_phi must be positive, got {motor.k_phi}")
    omega = voltage / motor.k_phi - (motor.resistance_ohm / motor.k_phi**2) * motor.load_torque_nm
    return max(0.0, omega)


@dataclass(frozen=True)
class PhysicalOscillator:
    """Mass-spring-damper driven by a rotating eccentric mass.

    mass_kg: oscillating mass entering the resonance denominator
    eccentric_mass_kg, eccentricity_m: the rotating imbalance (force m*e*w^2)
    damping, stiffness: viscous damping c (N*s/m) and spring constant k (N/m)
    omega_drive: rotation rate in rad/s
    """

    mass_kg: float
    eccentric_mass_kg: float
    eccentricity_m: float
    damping: float
    stiffness: float
    omega_drive: float

    def __post_init__(self):
        for name in ("mass_kg", "eccentric_mass_kg", "eccentricity_m", "stiffness"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.damping < 0 or self.omega_drive < 0:
            raise ConfigError("damping and omega_drive must be non-negative")


def steady_state(osc: PhysicalOscillator) -> tuple[float, float]:
    """Steady-state response (amplitude_m, phase_rad) of the driven mount.

    amplitude = m e w^2 / sqrt((k - m w^2)^2 + (c w)^2)
    phase     = atan2(c w, k - m w^2)

    so the displacement is amplitude * sin(w t - phase). At resonance with no
    damping the response is unbounded and ResonanceError is raised.
    """
    m, w = osc.mass_kg, osc.omega_drive
    force = osc.eccentric_mass_kg * osc.eccentricity_m * w * w
    elastic = osc.stiffness - m * w * w
    dissip = osc.damping * w
    denom_sq = elastic * elastic + dissip * dissip
    if denom_sq == 0.0:
        raise ResonanceError(
            f"undamped drive at resonance (k = m*w^2 = {osc.stiffness}) has no steady state"
        )
    return force / math.sqrt(denom_sq), math.atan2(dissip, elastic)


@dataclass(frozen=True)
class WorldMotion:
    """Camera translation in metres: axis i moves as amp_i*cos(omega*t + phi_i)."""

    amp_x_m: float
    amp_y_m: float
    omega: float
    phi_x: float = 0.0
    phi_y: float = 0.0

    @classmethod
    def from_steady_state(cls, osc: PhysicalOscillator, circular: bool = True) -> "WorldMotion":
        """Map the sin(w t - phase) steady state onto the cos convention.

        A rotating imbalance shakes both in-plane axes; circular mode uses
        equal amplitudes with the x axis a quarter turn ahead.
        """
        amp, phase = steady_state(osc)
        phi_y = wrap_angle(-phase - math.pi / 2.0)
        phi_x = wrap_angle(phi_y + math.pi / 2.0) if circular else phi_y
        amp_x = amp if circular else 0.0
        return cls(amp_x_m=amp_x, amp_y_m=amp, omega=osc.omega_drive, phi_x=phi_x, phi_y=phi_y)


def project(
    point_w: np.ndarray,
    extrinsics: np.ndarray,
    geometry: SensorGeometry,
    t_s: float,
    motion: WorldMotion,
) -> tuple[float, float]:
    """Project a world point through the oscillating pinhole camera at time t.

    extrinsics is the 4x4 world-to-camera transform at rest; the mount adds an
    in-plane camera translation, which shifts the camera-frame point by the
    same amount before the pinhole division.
    """
    pw = np.asarray(point_w, dtype=float)
    pc = extrinsics @ np.array([pw[0], pw[1], pw[2], 1.0])
    x = pc[0] + motion.amp_x_m * math.cos(motion.omega * t_s + motion.phi_x)
    y = pc[1] + motion.amp_y_m * math.cos(motion.omega * t_s + motion.phi_y)
    z = pc[2]
    if z <= 0:
        raise BehindCameraError(f"point projects behind the camera (z = {z:.6g})")
    f = geometry.focal_length_px
    return f * x / z + geometry.cx, f * y / z + geometry.cy


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
        if self.amp_x_px < 0 or self.amp_y_px < 0:
            raise ConfigError("amplitudes must be non-negative")
        if self.omega < 0:
            raise ConfigError("omega must be non-negative")
        object.__setattr__(self, "phi_x", wrap_angle(self.phi_x))
        object.__setattr__(self, "phi_y", wrap_angle(self.phi_y))

    def scaled(self, s: float) -> "OscillatorConfig":
        return replace(self, amp_x_px=self.amp_x_px * s, amp_y_px=self.amp_y_px * s)

    @classmethod
    def from_world(
        cls, motion: WorldMotion, geometry: SensorGeometry, depth_m: float
    ) -> "OscillatorConfig":
        """Image amplitude of a world oscillation seen at depth Z: A = f*amp/Z."""
        if depth_m <= 0:
            raise ConfigError(f"depth must be positive, got {depth_m}")
        f = geometry.focal_length_px
        return cls(
            amp_x_px=f * motion.amp_x_m / depth_m,
            amp_y_px=f * motion.amp_y_m / depth_m,
            omega=motion.omega,
            phi_x=motion.phi_x,
            phi_y=motion.phi_y,
        )

    def to_dict(self) -> dict:
        return {
            "amp_x_px": self.amp_x_px,
            "amp_y_px": self.amp_y_px,
            "omega_rad_s": self.omega,
            "phi_x": self.phi_x,
            "phi_y": self.phi_y,
        }


def camera_offset(t, cfg: OscillatorConfig):
    """Image-plane camera offset (du, dv) in pixels; vectorized over t (seconds)."""
    t = np.asarray(t, dtype=float)
    du = cfg.amp_x_px * np.cos(cfg.omega * t + cfg.phi_x)
    dv = cfg.amp_y_px * np.cos(cfg.omega * t + cfg.phi_y)
    return du, dv


# ---------------------------------------------------------------------------
# scene patterns (log intensity in [0, 1] before the contrast scale)


def _edge_ramp(signed_dist, width):
    """Unit ramp of width `width` centred on a shape boundary."""
    return np.clip(signed_dist / width + 0.5, 0.0, 1.0)


@dataclass(frozen=True)
class Checkerboard:
    period_px: float = 16.0
    edge_sharpness: float = 4.0
    per_axis = True

    def sample(self, xs, ys):
        k = TWO_PI / self.period_px
        gx = np.tanh(self.edge_sharpness * np.sin(k * xs))
        gy = np.tanh(self.edge_sharpness * np.sin(k * ys))
        return 0.5 * (gx * gy + 1.0)


@dataclass(frozen=True)
class Stripes:
    period_px: float = 16.0
    angle_rad: float = 0.0
    edge_sharpness: float = 4.0

    def sample(self, xs, ys):
        k = TWO_PI / self.period_px
        s = xs * math.cos(self.angle_rad) + ys * math.sin(self.angle_rad)
        return 0.5 * (np.tanh(self.edge_sharpness * np.sin(k * s)) + 1.0)


@dataclass(frozen=True)
class Disks:
    """Bright disks on a dark background, centred at offset + k*pitch."""

    radius_px: float = 6.0
    pitch_px: float = 32.0
    edge_width_px: float = 1.0
    offset_px: float | None = None
    per_axis = True

    def _wrapped(self, c):
        """Signed per-axis offset of c from the nearest disk centre."""
        p = self.pitch_px
        off = 0.5 * p if self.offset_px is None else self.offset_px
        return np.mod(c - off + 0.5 * p, p) - 0.5 * p

    def sample(self, xs, ys):
        r = np.hypot(self._wrapped(xs), self._wrapped(ys))
        return _edge_ramp(self.radius_px - r, self.edge_width_px)

    def bounds(self, xs, ys, rx, ry):
        # Over [c - r, c + r] the wrapped distance |d| to the nearest centre
        # spans [max(|d| - r, 0), min(|d| + r, pitch/2)]; the radius is
        # monotone in each axis distance, so the box extremes are the corners.
        half = 0.5 * self.pitch_px
        dx, dy = np.abs(self._wrapped(xs)), np.abs(self._wrapped(ys))
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
        if self.depth_m <= 0:
            raise ConfigError(f"plane depth must be positive, got {self.depth_m}")


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
        if self.contrast <= 0:
            raise ConfigError(f"contrast must be positive, got {self.contrast}")
        if not self.depth_planes:
            raise ConfigError("at least one depth plane is required")


@dataclass
class SimOutput:
    """Simulated stream plus the generating ground truth, one config per plane."""

    events: np.ndarray
    truth: list[OscillatorConfig]
    geometry: SensorGeometry
    scene: SceneSpec | None = None


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


def _latent_sampler(planes, contrast: float, ys: np.ndarray, xs: np.ndarray, plane_of):
    """latent(times) -> (len(times), pixels) latent log intensity of the
    active pixels, one row per time in seconds.

    Each plane samples its pixels, or its row x column grid, for all times at
    once; one column gather then puts the planes' samples in pixel order.
    """
    members = []
    # column of each active pixel in the planes' concatenated samples
    column = np.empty(ys.shape[0], dtype=np.intp)
    width = 0
    for i, (_, pattern, cfg) in enumerate(planes):
        idx = np.flatnonzero(plane_of == i)
        if not idx.size:
            continue
        px, py, grid = xs[idx], ys[idx], getattr(pattern, "per_axis", False)
        if grid:
            ux, col = np.unique(px, return_inverse=True)
            uy, row = np.unique(py, return_inverse=True)
            px, py = ux[None, :], uy[:, None]
            column[idx] = width + row * ux.size + col
            width += ux.size * uy.size
        else:
            column[idx] = width + np.arange(idx.size)
            width += idx.size
        members.append((px.astype(float), py.astype(float), grid, pattern, cfg))
    if width == column.size and np.array_equal(column, np.arange(width)):
        column = None

    def latent(times) -> np.ndarray:
        if not members:
            return np.empty((len(times), 0))
        parts = []
        for px, py, grid, pattern, cfg in members:
            du, dv = camera_offset(times, cfg)
            if grid:
                du, dv = du[:, None], dv[:, None]
            values = pattern.sample(px - du[:, None], py - dv[:, None])
            parts.append(values.reshape(len(times), -1))
        values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if column is not None:
            values = values.take(column, axis=1)
        return contrast * values

    return latent


def _fire(p, r, lat, l_ref, last_emit, first_step, threshold, step_us, refractory_us, out):
    """Emit the crossings of pixels p at block rows r, one row per pixel, and
    advance their references: the per-step threshold-crossing arithmetic.

    lat[r] is the latent value before step first_step + r and lat[r + 1] the
    one after it. Appends (t_us, pixel, polarity, row, level) per level to out.
    """
    l_prev, l_now = lat[r, p], lat[r + 1, p]
    t0 = (first_step + r) * step_us
    delta = l_now - l_ref[p]
    n_cross = np.floor(np.abs(delta) / threshold).astype(np.int64)
    np.minimum(n_cross, _MAX_CROSSINGS, out=n_cross)
    pol = np.sign(delta)
    rise = l_now - l_prev
    # a latent value that does not move puts every crossing at the step start
    rise[rise == 0.0] = np.inf
    for k in range(1, int(n_cross.max()) + 1):
        j = np.flatnonzero(n_cross >= k)
        q = p[j]
        level = l_ref[q] + pol[j] * (k * threshold)
        frac = (level - l_prev[j]) / rise[j]
        t_ev = t0[j] + np.clip(frac, 0.0, 1.0) * step_us
        ok = t_ev >= last_emit[q] + refractory_us
        if ok.any():
            j, q, t_ev = j[ok], q[ok], t_ev[ok]
            out.append((t_ev, q, pol[j], r[j], np.full(j.size, k)))
            last_emit[q] = t_ev
    l_ref[p] += pol * n_cross * threshold


def _crossings_by_step(lat, l_ref, last_emit, first_step, threshold, step_us, refractory_us):
    """Crossings of one block, testing every pixel at every step.

    lat has one row more than the block has steps: row 0 is the latent value
    before step first_step. l_ref and last_emit are updated in place. Returns
    (t_us, pixel, polarity) in emission order: by step, then level, then
    pixel.
    """
    out = []
    for r in range(lat.shape[0] - 1):
        p = np.flatnonzero(np.abs(lat[r + 1] - l_ref) / threshold >= 1.0)
        if p.size:
            _fire(p, np.full(p.size, r), lat, l_ref, last_emit, first_step, threshold, step_us,
                  refractory_us, out)
    if not out:
        return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0)
    t, pixel, pol, _, _ = (np.concatenate(f) for f in zip(*out))
    return t, pixel, pol


def _crossings_by_pixel(lat, l_ref, last_emit, first_step, threshold, step_us, refractory_us):
    """_crossings_by_step's events, visiting each pixel only at the steps
    where it crosses.

    Each wave fires every pixel's next crossing row; the pixels that fired
    then search the rows after their own again.
    """
    after = np.ascontiguousarray(lat[1:].T)
    n_rows = after.shape[1]
    crossed = np.abs(after - l_ref[:, None]) / threshold >= 1.0
    p = np.flatnonzero(crossed.any(axis=1))
    r = crossed[p].argmax(axis=1)
    out = []
    while p.size:
        _fire(p, r, lat, l_ref, last_emit, first_step, threshold, step_us, refractory_us, out)
        later = np.abs(after[p] - l_ref[p, None]) / threshold >= 1.0
        later &= np.arange(n_rows) > r[:, None]
        more = later.any(axis=1)
        p, r = p[more], later[more].argmax(axis=1)
    if not out:
        return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0)
    t, pixel, pol, row, level = (np.concatenate(f) for f in zip(*out))
    order = np.lexsort((pixel, level, row))
    return t[order], pixel[order], pol[order]


def check_sim_params(duration_s: float, threshold: float, step_us: int,
                     noise_rate_hz: float, refractory_us: int) -> None:
    """ConfigError unless duration_s, threshold and step_us are positive and
    finite, and noise_rate_hz and refractory_us non-negative and finite; NaN
    fails every comparison."""
    for name, value in (("duration_s", duration_s), ("threshold", threshold),
                        ("step_us", step_us)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    for name, value in (("noise_rate_hz", noise_rate_hz), ("refractory_us", refractory_us)):
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be non-negative and finite, got {value}")


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
    latent = _latent_sampler(planes, contrast, ys, xs, plane_of)
    crossings = _crossings_by_pixel if ys.shape[0] <= _SPARSE_MAX_PIXELS else _crossings_by_step

    # noise is drawn from rng alone, so drawing it before the simulated
    # events changes no value
    noise_t, noise = _noise_events(rng, noise_rate_hz, geometry, duration_s)
    merged = 0
    n_steps = int(round(duration_s * 1e6 / step_us))
    l_ref = latent([0.0])[0]
    last_emit = np.full(ys.shape[0], -1e18)
    blocks = []
    for b in range(0, n_steps, _BLOCK_STEPS):
        n = min(_BLOCK_STEPS, n_steps - b)
        # row r: the latent value after step b + r - 1, row 0 the one before step b
        lat = latent([i * step_us * 1e-6 for i in range(b, b + n + 1)])
        t, pixel, pol = crossings(lat, l_ref, last_emit, b, threshold, step_us, refractory_us)
        order = np.argsort(t, kind="stable")
        t, pixel = t[order], pixel[order]
        events = make_events(np.round(t).astype(np.uint64), xs[pixel], ys[pixel], pol[order],
                             validate=False)
        # Later blocks' events come at or after this block's end, so the noise
        # before it is placed here: after every event at an equal or earlier
        # float time, where one stable time sort of the whole stream puts it.
        end = np.searchsorted(noise_t, (b + n) * step_us)
        if end > merged:
            events = np.insert(events, np.searchsorted(t, noise_t[merged:end], side="right"),
                               noise[merged:end])
            merged = end
        blocks.append(events)
    blocks.append(noise[merged:])
    return np.concatenate(blocks)


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
    return SimOutput(events=events, truth=truth, geometry=geometry, scene=scene)


def simulate_moving_target(
    freq_hz: float,
    path_radius_px: float,
    geometry: SensorGeometry,
    duration_s: float,
    pattern: object | None = None,
    contrast: float = 0.5,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    step_us: int = DEFAULT_STEP_US,
    refractory_us: int = DEFAULT_REFRACTORY_US,
    noise_rate_hz: float = 0.0,
) -> SimOutput:
    """Static camera watching an object translating on a circular path.

    A preset over simulate: the default object is a triangle at frame centre,
    and the circular path is a per-axis cosine with the y axis a quarter turn
    behind, which truth records.
    """
    if freq_hz <= 0 or path_radius_px <= 0:
        raise ConfigError("freq_hz and path_radius_px must be positive")
    if pattern is None:
        pattern = Triangle(center_x=(geometry.width - 1) / 2.0,
                           center_y=(geometry.height - 1) / 2.0)
    cfg = OscillatorConfig(
        amp_x_px=path_radius_px, amp_y_px=path_radius_px,
        omega=TWO_PI * freq_hz, phi_x=0.0, phi_y=-math.pi / 2.0,
    )
    return simulate(
        SceneSpec(pattern=pattern, contrast=contrast), cfg, geometry, duration_s,
        threshold=threshold, seed=seed, step_us=step_us, refractory_us=refractory_us,
        noise_rate_hz=noise_rate_hz,
    )
