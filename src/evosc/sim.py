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
and user patterns. sample must accept arrays of any broadcast shape and
return a new float array, which the sampler scales by the contrast in place:
the latent image is sampled for a block of 64 steps at once, one row per
step (a leading time axis on the offsets), with one camera_offset call per
plane on the block's array of times. Checkerboard and Disks compute in
place in the arrays they make, so a block allocates one (65 x grid) array
per plane, not one per operation.

Within a block, crossings are found by one search. Its only sequential part
is the reference walk, a step at a time over the active pixels (at most
_WALK_PIXELS of them at once, which bounds its buffers): a pixel crosses
trunc((L - l_ref) / threshold) levels in a step, at most _MAX_CROSSINGS
either way, and its reference moves by that many thresholds.
The block's crossings are then emitted together, each at the
linear-interpolated instant inside its step, clipped to the step (at the
step start when the latent value does not move), less those that come within
the refractory period of the pixel's last emission, in per-step order:
step, level, pixel.

Each block's events are sorted by float time (stably, so equal times keep
per-step order) and packed as they are produced; the noise events, sorted
once, are merged into the block whose end follows them, after every event at
an equal or earlier float time. The stream is the one a single stable time
sort of all events gives. Blocks are written into one output array, grown in
place with ndarray.resize, so the stream is never held twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SensorGeometry, empty_events, from_section, make_events
from .errors import ConfigError, ResonanceError

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
# most active pixels walked at once: the walk's buffers stay under 17 MB
_WALK_PIXELS = 16384


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
        # NaN fails every comparison, so each rule is written as what must hold
        if not (0 <= self.amp_x_px < math.inf and 0 <= self.amp_y_px < math.inf):
            raise ConfigError("amplitudes must be non-negative and finite, got "
                              f"({self.amp_x_px}, {self.amp_y_px})")
        if not 0 <= self.omega < math.inf:
            raise ConfigError(f"omega must be non-negative and finite, got {self.omega}")
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


@dataclass(frozen=True)
class Checkerboard:
    period_px: float = 16.0
    edge_sharpness: float = 4.0
    per_axis = True

    def sample(self, xs, ys):
        k = TWO_PI / self.period_px
        gx = np.tanh(self.edge_sharpness * np.sin(k * xs))
        gy = np.tanh(self.edge_sharpness * np.sin(k * ys))
        v = gx * gy
        v += 1.0
        v *= 0.5
        return v


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
        return _edge_ramp(np.subtract(self.radius_px, r, out=r), self.edge_width_px)

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
        if not 0 < self.contrast < math.inf:
            raise ConfigError(f"contrast must be positive and finite, got {self.contrast}")
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
        values *= contrast
        return values

    return latent


def _walk_arrays(n_pix: int):
    """The reference walk's level counts and references, reused by every
    block: room for _BLOCK_STEPS and _BLOCK_STEPS + 1 rows of at most
    _WALK_PIXELS columns."""
    width = min(n_pix, _WALK_PIXELS)
    return np.empty(_BLOCK_STEPS * width), np.empty((_BLOCK_STEPS + 1) * width)


def _crossings(lat, l_ref, last_emit, first_step, threshold, step_us, refractory_us, work):
    """Crossings of one block, (t_us, pixel, polarity) by step, level, pixel.

    lat[r] is the latent value before step first_step + r, one row more than
    the block has steps. l_ref and last_emit are updated in place. work is
    _walk_arrays(lat.shape[1]); the pixels are walked in chunks as wide as it
    has room for.
    """
    n_rows, n_pix = lat.shape[0] - 1, lat.shape[1]
    span = max(work[0].size // _BLOCK_STEPS, 1)
    # numpy scalars: a ufunc converts a Python number on every call
    th, cap = np.float64(threshold), np.float64(_MAX_CROSSINGS)
    # (step, pixel, level count, reference before the step) of each
    # crossing, each pixel's in step order
    found = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),) * 2]
    for c in range(0, n_pix, span):
        w = min(span, n_pix - c)
        # the reference walk: q[r] is each pixel's signed level count in step
        # r and ref[r] its reference before it
        q = work[0][:n_rows * w].reshape(n_rows, w)
        ref = work[1][:(n_rows + 1) * w].reshape(n_rows + 1, w)
        ref[0] = l_ref[c:c + w]
        for now, qr, before, after in zip(lat[1:, c:c + w], q, ref, ref[1:]):
            np.subtract(now, before, out=qr)
            np.divide(qr, th, out=qr)
            np.trunc(qr, out=qr)
            np.minimum(qr, cap, out=qr)
            np.maximum(qr, -cap, out=qr)
            np.multiply(qr, th, out=after)
            np.add(before, after, out=after)
        at = np.flatnonzero(q != 0)
        at = at[np.argsort((at % w).astype(np.min_scalar_type(w)), kind="stable")]
        row, col = np.divmod(at, w)
        # only pixels that cross move: a -0.0 reference plus a zero step is +0.0
        l_ref[c + col] = ref[n_rows, col]
        found.append((row, c + col, q.ravel()[at], ref.ravel()[at]))
    row, pixel, q, ref = (np.concatenate(f) for f in zip(*found))

    # one event per crossed level
    count = np.abs(q).astype(np.intp)
    level = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1
    row, pixel, q, ref = (np.repeat(a, count) for a in (row, pixel, q, ref))
    at = row * n_pix + pixel
    l_prev, l_now = lat.ravel()[at], lat.ravel()[at + n_pix]
    pol = np.sign(q)
    rise = l_now - l_prev
    # a latent value that does not move puts every crossing at the step start
    rise[rise == 0.0] = np.inf
    frac = (ref + pol * (level * threshold) - l_prev) / rise
    t = (first_step + row) * step_us + np.clip(frac, 0.0, 1.0) * step_us

    # an event refractory_us or more after its pixel's event before it (or
    # last_emit) is kept whatever came before; when every event is, each
    # pixel's last one is its last emission
    head, tail = np.diff(pixel, prepend=-1) != 0, np.diff(pixel, append=-1) != 0
    free = np.all(t >= np.where(head, last_emit[pixel], np.roll(t, 1)) + refractory_us)
    if free:
        last_emit[pixel[tail]] = t[tail]
    key = row * (_MAX_CROSSINGS + 1) + level
    order = np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")
    t, pixel, pol = t[order], pixel[order], pol[order]
    if not free:
        keep = _refractory(t, pixel, key[order], last_emit, refractory_us)
        t, pixel, pol = t[keep], pixel[keep], pol[keep]
    return t, pixel, pol


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

    # noise is drawn from rng alone, so drawing it before the simulated
    # events changes no value
    noise_t, noise = _noise_events(rng, noise_rate_hz, geometry, duration_s)
    merged = 0
    n_steps = int(round(duration_s * 1e6 / step_us))
    l_ref = latent([0.0])[0]
    last_emit = np.full(ys.shape[0], -1e18)
    work = _walk_arrays(ys.shape[0])
    # the stream, grown in place as blocks arrive: a quarter more room at a
    # time, and cut to length at the end
    stream, filled = empty_events(), 0
    for b in range(0, n_steps, _BLOCK_STEPS):
        n = min(_BLOCK_STEPS, n_steps - b)
        # row r: the latent value after step b + r - 1, row 0 the one before step b
        lat = latent([i * step_us * 1e-6 for i in range(b, b + n + 1)])
        t, pixel, pol = _crossings(lat, l_ref, last_emit, b, threshold, step_us,
                                   refractory_us, work)
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
        if filled + events.shape[0] > stream.shape[0]:
            stream.resize(max(filled + events.shape[0], stream.shape[0] * 5 // 4))
        stream[filled:filled + events.shape[0]] = events
        filled += events.shape[0]
    stream.resize(filled + noise.shape[0] - merged)
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


def check_moving_target(freq_hz: float, path_radius_px: float) -> None:
    """ConfigError unless a moving target's path frequency and radius are
    positive and finite."""
    if not (0 < freq_hz < math.inf and 0 < path_radius_px < math.inf):
        raise ConfigError("freq_hz and path_radius_px must be positive and finite, "
                          f"got ({freq_hz}, {path_radius_px})")


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
    check_moving_target(freq_hz, path_radius_px)
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
