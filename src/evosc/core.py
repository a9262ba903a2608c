"""Core event-stream types: events, sensor geometry, per-window counts, and
the block walker.

An event stream is a packed numpy structured array (one record per event)
sorted by timestamp. Timestamps are integer microseconds, coordinates are
pixel indices, polarity is +1 (brightness increase) or -1 (decrease).

map_blocks walks a stream in cache-sized blocks of _BLOCK records, split
into one contiguous span per usable CPU: the calling thread walks the first
and a worker thread each other one. These calls walk their streams through
it: first_violations, so validate_events, read_events, write_events and each
piece of read_event_pieces; compensate_stream; and CompensatedEvents'
to_events, xi, yi and out_of_bounds. A block writes only its own records
and the results come back in stream order, so the output is the same bit for
bit whatever the CPU count; no block calls a function the benchmark traces.
Importing evosc starts no thread: the workers are made at the first call
that splits (again in a child made by fork).
"""

from __future__ import annotations

import bisect
import math
import numbers
import os
import threading
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import BoundsError, ConfigError, OrderingError, ResonanceError

# Packed little-endian record layout, 13 bytes per event. This dtype is also
# the on-disk binary record format, so streams round-trip via tobytes().
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])
# records per block of map_blocks
_BLOCK = 1 << 16
# (pid, executor) of the worker threads of map_blocks, made at the first call
# that splits; a pid other than this process's is a parent's, whose threads a
# forked child does not have
_pool: tuple | None = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class SensorGeometry:
    """Pinhole sensor description. Focal length and principal point in pixels."""

    width: int
    height: int
    focal_length_px: float = 100.0
    cx: float | None = None
    cy: float | None = None

    def __post_init__(self):
        check_positive(width=self.width, height=self.height, focal_length_px=self.focal_length_px)
        if self.cx is None:
            object.__setattr__(self, "cx", (self.width - 1) / 2.0)
        if self.cy is None:
            object.__setattr__(self, "cy", (self.height - 1) / 2.0)
        check_finite(cx=self.cx, cy=self.cy)

    def to_dict(self) -> dict:
        return asdict(self)


# The range rules, each a ConfigError naming the first of values that breaks
# it. NaN fails every comparison, so each rule is written as what must hold.


def check_positive(**values) -> None:
    """ConfigError unless each of values is positive and finite."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")


def check_non_negative(**values) -> None:
    """ConfigError unless each of values is non-negative and finite."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be non-negative and finite, got {value}")


def check_finite(**values) -> None:
    """ConfigError unless each of values is finite."""
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise ConfigError(f"{name} must be finite, got {value}")


def from_section(cls, d, section: str = ""):
    """Read config block d into the dataclass cls, whose fields are the block's
    keys, types and defaults.

    section is the block's path ("" at the top level): errors name it, and
    sub-blocks extend it (`tracker.patches[0]`). An unknown or missing key, or a
    value that is not of its field's type (see _read_value), is a ConfigError
    naming the block, and a ConfigError or ResonanceError from cls's own checks
    is raised again naming it. A field whose metadata holds "read" is read by
    read(value, path) instead.
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
    except (ConfigError, ResonanceError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _read_value(tp, value, path: str):
    """value as type tp: a finite float, a bool only from a boolean, an int from
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
            value = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if -math.inf < value < math.inf:
                return value
            raise ConfigError(f"{path}: expected a finite number, got {value}")
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


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _executor():
    """This process's worker threads, one per usable CPU but the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(_cpus() - 1, "evosc-block"))
        return _pool[1]


def map_blocks(fn, n: int) -> list:
    """[fn(lo, hi) for each block [lo, hi) of _BLOCK records tiling range(n)],
    in block order.

    With more than one block and more than one usable CPU, the blocks are cut
    into one contiguous span per CPU (fewer when there are fewer blocks): the
    calling thread walks the first span and a worker thread each other one.
    So fn(lo, hi) writes only records [lo, hi) of the arrays it fills, and
    calls neither map_blocks (a worker would wait on itself) nor anything the
    benchmark traces. An exception from fn reaches the caller, the earliest
    span's first, once every span has stopped.
    """
    blocks = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    spans = min(len(blocks), _cpus())
    if spans <= 1:
        return [fn(lo, hi) for lo, hi in blocks]
    cuts = [len(blocks) * i // spans for i in range(spans + 1)]

    def walk(span):
        return [fn(lo, hi) for lo, hi in blocks[cuts[span]:cuts[span + 1]]]

    pool = _executor()
    futures = [pool.submit(walk, span) for span in range(1, spans)]
    try:
        out = walk(0)
    finally:
        for f in futures:
            f.exception()  # waits; the error itself is raised below
    for f in futures:
        out += f.result()
    return out


def validate_events(events: np.ndarray, geometry: SensorGeometry | None = None) -> None:
    """Check ordering, polarity domain and (optionally) pixel bounds.

    Raises OrderingError / BoundsError on the first violation: the first
    decreasing timestamp, else the first bad polarity, else the first record
    out of bounds.
    """
    for error in first_violations(events, geometry):
        if error is not None:
            raise error


def first_violations(events: np.ndarray, geometry: SensorGeometry | None = None,
                     start: int = 0, t_before: int = 0) -> list:
    """[the first decreasing timestamp, the first bad polarity, the first
    record out of bounds] of events, each as the error validate_events raises
    for it, or None when there is none.

    Records are numbered from start, and t_before is the timestamp of the
    record before the first, so a stream checked piece by piece gives the
    errors of one check over the whole. Each block of map_blocks finds its
    own first violations, and they are taken in stream order.
    """
    if events.dtype != EVENT_DTYPE:
        raise ConfigError(f"expected event dtype {EVENT_DTYPE}, got {events.dtype}")
    t, pol, x, y = events["t"], events["p"], events["x"], events["y"]

    def first_in_block(lo, hi):
        # one record of overlap orders each block after the one before it
        first = max(lo - 1, 0)
        pb = pol[lo:hi]
        masks = [(first + 1, t[first + 1:hi] < t[first:hi - 1]), (lo, (pb != 1) & (pb != -1)),
                 (lo, (x[lo:hi] >= geometry.width) | (y[lo:hi] >= geometry.height)
                  if geometry is not None else np.zeros(0, dtype=bool))]
        return [i + int(m.argmax()) if m.any() else None for i, m in masks]

    found = map_blocks(first_in_block, events.shape[0])
    bad_t, bad_pol, bad_xy = (min((f[k] for f in found if f[k] is not None), default=None)
                              for k in range(3))
    if events.shape[0] and t[0] < t_before:
        bad_t = 0
    errors = [None, None, None]
    if bad_t is not None:
        before = int(t[bad_t - 1]) if bad_t else t_before
        errors[0] = OrderingError(
            f"timestamp decreases at record {start + bad_t}: {int(t[bad_t])} < {before}")
    if bad_pol is not None:
        errors[1] = BoundsError(
            f"polarity must be +1 or -1, record {start + bad_pol} has {int(pol[bad_pol])}")
    if bad_xy is not None:
        errors[2] = BoundsError(
            f"record {start + bad_xy} at ({int(x[bad_xy])}, {int(y[bad_xy])}) outside "
            f"{geometry.width}x{geometry.height} sensor"
        )
    return errors


def window_counts(events: np.ndarray, geometry: SensorGeometry, t_begin: int, t_end: int,
                  window_us: int) -> np.ndarray:
    """Per-pixel event counts of the disjoint windows [t, t + window_us)
    tiling [t_begin, t_end), as an (n, H, W) stack; the last window may end
    past t_end. Each window is one bincount into the stack."""
    check_positive(window_us=window_us)
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
