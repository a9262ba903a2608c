"""Event-stream serialization.

Binary container: 24-byte little-endian header followed by packed 13-byte
records (u64 t_us, u16 x, u16 y, i8 polarity).

    magic    4 bytes  b"EVST"
    version  u16      1
    width    u16
    height   u16
    count    u64
    reserved 6 bytes  zero

The records are the event array's own memory: writing streams it after the
header, and reading a regular file checks the file's size against the header
count, then reads straight into the array, so neither direction builds a
copy of the whole stream.

CSV container: header line ``t_us,x,y,p`` then one decimal-integer row per
event, polarity written as 1 or -1.

JSON artifacts (truth, estimate, report, manifest) all go through write_json.
"""

from __future__ import annotations

import io as _io
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .core import EVENT_DTYPE, SensorGeometry, validate_events
from .errors import ConfigError, FormatError

MAGIC = b"EVST"
VERSION = 1
HEADER_FMT = "<4sHHHQ6s"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
CSV_HEADER = "t_us,x,y,p"
# rows per block when formatting CSV columns
_CSV_BLOCK = 1 << 14

assert HEADER_SIZE == 24


def write_events(
    dest,
    events: np.ndarray,
    geometry: SensorGeometry,
    fmt: str = "binary",
) -> None:
    """Serialize an event stream to a path or writable file object."""
    validate_events(events, geometry)
    if fmt == "binary":
        header = struct.pack(
            HEADER_FMT, MAGIC, VERSION, geometry.width, geometry.height,
            events.shape[0], b"\x00" * 6,
        )
        _write_bytes(dest, header, memoryview(np.ascontiguousarray(events).view(np.uint8)))
    elif fmt == "csv":
        _write_csv(dest, CSV_HEADER, "{},{},{},{}",
                   [events["t"], events["x"], events["y"], events["p"]])
    else:
        raise ConfigError(f"unknown event format {fmt!r}")


def read_events(
    source,
    fmt: str = "binary",
    geometry: SensorGeometry | None = None,
) -> tuple[np.ndarray, SensorGeometry | None]:
    """Parse an event stream from a path, bytes, or readable file object.

    Returns (events, geometry). For the binary format the geometry comes from
    the header; for CSV it echoes the argument. Ordering and bounds are
    validated against whichever geometry is available.
    """
    if fmt == "binary":
        if isinstance(source, (str, os.PathLike)):
            events, file_geom = _read_binary_file(source)
        else:
            events, file_geom = _parse_binary(_read_bytes(source))
        if geometry is not None and (
            file_geom.width != geometry.width or file_geom.height != geometry.height
        ):
            raise FormatError(
                f"header geometry {file_geom.width}x{file_geom.height} does not match "
                f"expected {geometry.width}x{geometry.height}"
            )
        geometry = geometry or file_geom
    elif fmt == "csv":
        events = _parse_csv(_read_bytes(source))
    else:
        raise ConfigError(f"unknown event format {fmt!r}")
    validate_events(events, geometry)
    return events, geometry


def _read_header(head: bytes) -> tuple[int, int, int]:
    """(width, height, count) from the first bytes of a binary stream."""
    if len(head) < HEADER_SIZE:
        raise FormatError(f"truncated header: {len(head)} bytes", offset=len(head))
    magic, version, width, height, count, _ = struct.unpack_from(HEADER_FMT, head)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    return width, height, count


def _check_body(body: int, count: int) -> None:
    """The record section must be body bytes long for count records."""
    expected = count * EVENT_DTYPE.itemsize
    if body != expected:
        # offset of the first byte that is missing or surplus
        bad = HEADER_SIZE + min(body, expected)
        raise FormatError(
            f"record section is {body} bytes, header count {count} requires {expected}",
            offset=bad,
        )


def _header_geometry(width: int, height: int) -> SensorGeometry:
    try:
        return SensorGeometry(width=width, height=height)
    except ConfigError as exc:
        raise FormatError(f"bad header geometry: {exc}", offset=6) from exc


def _parse_binary(data: bytes) -> tuple[np.ndarray, SensorGeometry]:
    width, height, count = _read_header(data)
    _check_body(len(data) - HEADER_SIZE, count)
    events = np.frombuffer(data, dtype=EVENT_DTYPE, count=count, offset=HEADER_SIZE).copy()
    return events, _header_geometry(width, height)


def _read_binary_file(path) -> tuple[np.ndarray, SensorGeometry]:
    """_parse_binary of a file, with the size checked before the records are
    allocated and the records read straight into their array."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            # a pipe or device has no size to check in advance
            return _parse_binary(head + fh.read())
        width, height, count = _read_header(head)
        _check_body(st.st_size - HEADER_SIZE, count)
        events = np.empty(count, dtype=EVENT_DTYPE)
        got = fh.readinto(events.view(np.uint8))
    # short only if the file shrank after its size was checked
    _check_body(got, count)
    return events, _header_geometry(width, height)


def _parse_csv(data: bytes) -> np.ndarray:
    text = data.decode("utf-8", errors="replace")
    try:
        first_nl = text.index("\n")
    except ValueError:
        raise FormatError("missing CSV header line", offset=0) from None
    if text[:first_nl].strip("\r") != CSV_HEADER:
        raise FormatError(f"bad CSV header {text[:first_nl]!r}", offset=0)
    body = text[first_nl + 1 :]
    if not body.strip():
        return np.empty(0, dtype=EVENT_DTYPE)
    try:
        cols = np.loadtxt(
            _io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2,
        )
    except ValueError:
        _locate_csv_error(text, first_nl + 1)
        raise  # unreachable: _locate_csv_error always raises
    if cols.size == 0:
        return np.empty(0, dtype=EVENT_DTYPE)
    if cols.shape[1] != 4:
        _locate_csv_error(text, first_nl + 1)
    if (cols[:, :3] < 0).any():
        bad = int(np.nonzero((cols[:, :3] < 0).any(axis=1))[0][0])
        _locate_csv_error(text, first_nl + 1, bad_line=bad)
    out = np.empty(cols.shape[0], dtype=EVENT_DTYPE)
    out["t"] = cols[:, 0]
    out["x"] = cols[:, 1]
    out["y"] = cols[:, 2]
    out["p"] = cols[:, 3]
    return out


def _locate_csv_error(text: str, body_start: int, bad_line: int | None = None):
    """Re-scan the CSV body to report a byte offset for the offending row."""
    offset = body_start
    for lineno, line in enumerate(text[body_start:].splitlines()):
        stripped = line.strip()
        fields = stripped.split(",") if stripped else []
        broken = bad_line is not None and lineno == bad_line
        if not broken and stripped:
            if len(fields) != 4:
                broken = True
            else:
                try:
                    vals = [int(f) for f in fields]
                    broken = any(v < 0 for v in vals[:3])
                except ValueError:
                    broken = True
        if broken:
            raise FormatError(f"malformed CSV record {stripped!r}", offset=offset)
        offset += len(line.encode()) + 1
    raise FormatError("malformed CSV body", offset=body_start)


def write_json(dest, payload: dict) -> None:
    """The package's JSON writer: indent 2, sorted keys, trailing newline.

    dest is a path or a text stream (the CLI passes stdout).
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if isinstance(dest, (str, os.PathLike)):
        Path(dest).write_text(text)
    else:
        dest.write(text)


def _write_csv(dest, header: str, row_format: str, columns) -> None:
    """The package's text writer: a header, then row i as row_format.format
    of element i of each column (equal-length arrays), each line ending in a
    newline."""
    rows = _csv_rows(row_format, columns)
    _write_bytes(dest, ("\n".join([header, *rows]) + "\n").encode())


def _csv_rows(row_format: str, columns):
    # Python scalars from tolist() format several times faster than numpy
    # scalars; converting a block at a time keeps few of them alive at once.
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        yield from map(row_format.format, *(c[lo:lo + _CSV_BLOCK].tolist() for c in columns))


def _write_bytes(dest, *chunks) -> None:
    """Write the bytes-like chunks, in order, to a path or a binary stream."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    else:
        for chunk in chunks:
            dest.write(chunk)


def _read_bytes(source) -> bytes:
    """Bytes of a path, a bytes object, or a binary or text stream."""
    if isinstance(source, (str, os.PathLike)):
        return Path(source).read_bytes()
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    data = source.read()
    return data.encode() if isinstance(data, str) else data
