"""Core event-stream types: events, sensor geometry, per-window counts.

An event stream is a packed numpy structured array (one record per event)
sorted by timestamp. Timestamps are integer microseconds, coordinates are
pixel indices, polarity is +1 (brightness increase) or -1 (decrease).
"""

from __future__ import annotations

import bisect
import numbers
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import BoundsError, ConfigError, OrderingError

# Packed little-endian record layout, 13 bytes per event. This dtype is also
# the on-disk binary record format, so streams round-trip via tobytes().
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])
# records per block of validate_events
_VALIDATE_BLOCK = 1 << 16


@dataclass(frozen=True)
class SensorGeometry:
    """Pinhole sensor description. Focal length and principal point in pixels."""

    width: int
    height: int
    focal_length_px: float = 100.0
    cx: float | None = None
    cy: float | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"sensor dimensions must be positive, got {self.width}x{self.height}")
        if self.focal_length_px <= 0:
            raise ConfigError(f"focal length must be positive, got {self.focal_length_px}")
        if self.cx is None:
            object.__setattr__(self, "cx", (self.width - 1) / 2.0)
        if self.cy is None:
            object.__setattr__(self, "cy", (self.height - 1) / 2.0)

    def to_dict(self) -> dict:
        return asdict(self)


def from_section(cls, d, section: str = ""):
    """Read config block d into the dataclass cls, whose fields are the block's
    keys, types and defaults.

    section is the block's path ("" at the top level): errors name it, and
    sub-blocks extend it (`tracker.patches[0]`). An unknown or missing key, a
    value that is not of its field's type (see _read_value), or a ConfigError from
    cls's own checks is a ConfigError naming the block. A field whose metadata
    holds "read" is read by read(value, path) instead.
    """
    where = section or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a block of keys, got {d!r}")
    known = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for name, f in known.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing key {name!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in d.items():
        path = f"{section}.{key}" if section else key
        read = known[key].metadata.get("read")
        values[key] = read(value, path) if read else _read_value(hints[key], value, path)
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_value(tp, value, path: str):
    """value as type tp: a float cast, a bool only from a boolean, an int from
    an integer or an integral float (never a boolean), a dataclass read as a
    sub-block, a tuple element by element from a list, None kept for X | None."""
    args = typing.get_args(tp)
    if type(None) in args:
        return None if value is None else _read_value(args[0], value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)) or (
                args[-1] is not Ellipsis and len(value) != len(args)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return tuple(_read_value(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    if is_dataclass(tp):
        return from_section(tp, value, path)
    if tp is bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
    elif tp is int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return int(value)
        if isinstance(value, (float, np.floating)) and value.is_integer():
            return int(value)
    elif tp is float:
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    else:
        return value
    raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")


def make_events(t, x, y, p, validate: bool = True) -> np.ndarray:
    """Assemble an event stream from per-field sequences."""
    t = np.asarray(t, dtype=np.uint64)
    out = np.empty(t.shape[0], dtype=EVENT_DTYPE)
    out["t"] = t
    out["x"] = np.asarray(x, dtype=np.uint16)
    out["y"] = np.asarray(y, dtype=np.uint16)
    out["p"] = np.asarray(p, dtype=np.int8)
    if validate:
        validate_events(out)
    return out


def empty_events() -> np.ndarray:
    return np.empty(0, dtype=EVENT_DTYPE)


def validate_events(events: np.ndarray, geometry: SensorGeometry | None = None) -> None:
    """Check ordering, polarity domain and (optionally) pixel bounds.

    Raises OrderingError / BoundsError on the first violation found: the
    first decreasing timestamp, else the first bad polarity, else the first
    record out of bounds. The stream is checked _VALIDATE_BLOCK records at a
    time, so the checks' temporaries stay cache-sized.
    """
    if events.dtype != EVENT_DTYPE:
        raise ConfigError(f"expected event dtype {EVENT_DTYPE}, got {events.dtype}")
    t, pol, x, y = events["t"], events["p"], events["x"], events["y"]
    bad_pol = bad_xy = None
    for lo in range(0, events.shape[0], _VALIDATE_BLOCK):
        hi = min(lo + _VALIDATE_BLOCK, events.shape[0])
        # one record of overlap orders each block after the one before it
        first = max(lo - 1, 0)
        decreasing = t[first + 1:hi] < t[first:hi - 1]
        if decreasing.any():
            i = first + 1 + int(decreasing.argmax())
            raise OrderingError(
                f"timestamp decreases at record {i}: {int(t[i])} < {int(t[i - 1])}"
            )
        if bad_pol is None:
            pb = pol[lo:hi]
            wrong = (pb != 1) & (pb != -1)
            if wrong.any():
                bad_pol = lo + int(wrong.argmax())
        if geometry is not None and bad_xy is None:
            outside = (x[lo:hi] >= geometry.width) | (y[lo:hi] >= geometry.height)
            if outside.any():
                bad_xy = lo + int(outside.argmax())
    if bad_pol is not None:
        raise BoundsError(f"polarity must be +1 or -1, record {bad_pol} has {int(pol[bad_pol])}")
    if bad_xy is not None:
        raise BoundsError(
            f"record {bad_xy} at ({int(x[bad_xy])}, {int(y[bad_xy])}) outside "
            f"{geometry.width}x{geometry.height} sensor"
        )


def window_counts(events: np.ndarray, geometry: SensorGeometry, t_begin: int, t_end: int,
                  window_us: int) -> np.ndarray:
    """Per-pixel event counts of the disjoint windows [t, t + window_us)
    tiling [t_begin, t_end), as an (n, H, W) stack; the last window may end
    past t_end. Each window is one bincount into the stack."""
    if window_us <= 0:
        raise ConfigError(f"window length must be positive, got {window_us}")
    if t_end <= t_begin:
        raise ConfigError(f"window range must satisfy t_end > t_begin, got [{t_begin}, {t_end})")
    n = len(range(t_begin, t_end, window_us))
    # bisect the records' strided time field in place: np.searchsorted would
    # first copy all of it
    t = events["t"]
    bounds = [bisect.bisect_left(t, t_begin + i * window_us) for i in range(n + 1)]
    px = geometry.width * geometry.height
    stack = np.empty((n, px), dtype=np.intp)
    for i in range(n):
        sel = events[bounds[i]:bounds[i + 1]]
        stack[i] = np.bincount(sel["y"].astype(np.int64) * geometry.width + sel["x"],
                               minlength=px)
    return stack.reshape(n, geometry.height, geometry.width)
