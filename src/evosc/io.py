"""Event-stream serialization.

Events are read and written as ``.evt`` only: a 24-byte little-endian
header followed by packed 13-byte records (u64 t_us, u16 x, u16 y,
i8 polarity).

    magic    4 bytes  b"EVST"
    version  u16      1
    width    u16
    height   u16
    count    u64
    reserved 6 bytes  zero

The records are the event array's own memory: writing streams it after the
header, and reading parses the header, checks a regular file's size against
its count, then reads straight into the array; a pipe, whose size is not
known in advance, is read the same way and its size checked at its end. So
neither direction builds a copy of the whole stream. read_event_pieces reads
a file the same way a piece at a time, in bounded memory. Both directions
check the records with core.first_violations, whose blocks are split across
threads (see core) with the same result whatever the CPU count; the file is
read and written on the calling thread, and no worker calls a function the
benchmark traces.

JSON artifacts (truth, estimate, report, manifest) all go through write_json.
"""

from __future__ import annotations

import json
import os
import stat
import string
import struct
from io import BytesIO
from pathlib import Path

import numpy as np

from .core import EVENT_DTYPE, SensorGeometry, first_violations, validate_events
from .errors import ConfigError, FormatError

MAGIC = b"EVST"
VERSION = 1
HEADER_FMT = "<4sHHHQ6s"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
# rows per block when formatting CSV columns
_CSV_BLOCK = 1 << 14
# bytes per read when counting what is left of a stream
_DRAIN = 1 << 16

assert HEADER_SIZE == 24


def write_events(dest, events: np.ndarray, geometry: SensorGeometry) -> None:
    """Serialize an event stream as .evt to a path or writable file object."""
    validate_events(events, geometry)
    _write_bytes(dest, (_evt_header(geometry, events.shape[0]),
                        memoryview(np.ascontiguousarray(events).view(np.uint8))))


def _evt_header(geometry: SensorGeometry, count: int) -> bytes:
    """The .evt header of a stream of count records; the records follow it."""
    return struct.pack(HEADER_FMT, MAGIC, VERSION, geometry.width, geometry.height, count,
                       b"\x00" * 6)


def read_events(
    source, *, geometry: SensorGeometry | None = None,
) -> tuple[np.ndarray, SensorGeometry]:
    """Parse an .evt stream from a path, bytes, or readable file object.

    Returns (events, geometry). The geometry comes from the header, or is the
    given one, whose size the header must match. Ordering and bounds are
    validated against it.
    """
    if isinstance(source, (str, os.PathLike)):
        fh = open(source, "rb")
        size = _regular_size(fh)
    else:
        data = _read_bytes(source)
        fh, size = BytesIO(data), len(data)
    with fh:
        reader = _RecordReader(fh, size)
        events = reader.read(reader.count)
    file_geom = reader.geometry
    if geometry is not None and (
        file_geom.width != geometry.width or file_geom.height != geometry.height
    ):
        raise FormatError(
            f"header geometry {file_geom.width}x{file_geom.height} does not match "
            f"expected {geometry.width}x{geometry.height}"
        )
    geometry = geometry or file_geom
    validate_events(events, geometry)
    return events, geometry


def read_event_pieces(path, records: int):
    """read_events of an .evt path in bounded memory, records records at a time.

    Yields (geometry, count) from the header, then the stream's records in
    order, in arrays of up to records each (one empty array for an empty
    stream). A piece is yielded before it is validated: the error read_events
    raises for the file is raised after the last piece, or at the piece that
    a short record section cuts short, so a caller keeps nothing it made of
    the pieces until the generator is done.
    """
    with open(path, "rb") as fh:
        reader = _RecordReader(fh, _regular_size(fh))
        yield reader.geometry, reader.count
        found, start, t_before = [None, None, None], 0, 0
        while True:
            piece = reader.read(records)
            found = [f or g for f, g in zip(found, first_violations(
                piece, reader.geometry, start, t_before))]
            yield piece
            if not reader.left:
                break
            start += piece.shape[0]
            t_before = int(piece["t"][-1])
    for error in found:
        if error is not None:
            raise error


class _RecordReader:
    """The records of an .evt stream, read in order after its header.

    The header is parsed, and when the stream's size is given the record
    section's size is checked, before any record is read; otherwise it is
    checked when the records run out. Either way a bad stream raises the
    same FormatError, header first, then size, then geometry.
    """

    def __init__(self, fh, size: int | None):
        width, height, self.count = _read_header(fh.read(HEADER_SIZE))
        self.fh, self.left, self.got = fh, self.count, 0
        if size is not None:
            _check_body(size - HEADER_SIZE, self.count)
        try:
            self.geometry = _header_geometry(width, height)
        except FormatError:
            if size is None:
                self._check_end()
            raise

    def read(self, n: int) -> np.ndarray:
        """The next min(n, left) records, read straight into their array."""
        try:
            out = np.empty(min(n, self.left), dtype=EVENT_DTYPE)
        except (MemoryError, ValueError):
            # no array holds that many records, so neither can the stream
            self._check_end()
            raise
        got = self.fh.readinto(out.view(np.uint8))
        self.got += got
        self.left -= out.shape[0]
        # a short read is the end of a short stream, or of a file that shrank
        # after its size was checked
        if got < out.nbytes or not self.left:
            self._check_end()
        return out

    def _check_end(self) -> None:
        # the rest of the stream is counted, not kept
        while chunk := self.fh.read(_DRAIN):
            self.got += len(chunk)
        _check_body(self.got, self.count)


def _regular_size(fh) -> int | None:
    """The size of a regular file; a pipe or device has none to check in advance."""
    st = os.fstat(fh.fileno())
    return st.st_size if stat.S_ISREG(st.st_mode) else None


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


def write_json(dest, payload: dict) -> None:
    """The package's JSON writer: indent 2, sorted keys, trailing newline.

    dest is a path or a text stream (the CLI passes stdout).
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if isinstance(dest, (str, os.PathLike)):
        Path(dest).write_text(text)
    else:
        dest.write(text)


def _write_csv(dest, header: str | None, row_format: str, columns) -> None:
    """The package's text writer: a header (none when it is None), then row i
    as row_format.format of element i of each column (equal-length arrays),
    each line ending in a newline. Rows are rendered and written _CSV_BLOCK at
    a time.

    When every field is "{}" of an integer column or "{:.3f}" of a float
    column (compensated.csv), a block's rows are built as digits in a uint8
    matrix instead: each field is a sign byte then its digits right-aligned,
    and the pad bytes are dropped. A .3f value's digits are those of
    q = rint(|x|*1000), with the sign from signbit, so -0.0004 gives "-0.000"
    as format does. Below 2**52 every half-integer is a double, so the
    rounded product lies on the same side of each half as the exact one and
    q is format's rounding, unless the product is a half itself. So a value
    whose |x|*1000 lies within 1e-6 of a half, is 2**52 or more, or is not
    finite is formatted by format instead. Every other row format uses
    format for all rows."""
    fields = list(string.Formatter().parse(row_format))
    fixed = len(fields) == len(columns) and all(
        name == "" and conversion is None and (
            (spec == "" and np.issubdtype(c.dtype, np.integer))
            or (spec == ".3f" and np.issubdtype(c.dtype, np.floating)))
        for (_, name, spec, conversion), c in zip(fields, columns)
    )

    def chunks():
        if header is not None:
            yield (header + "\n").encode()
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = [c[lo:lo + _CSV_BLOCK] for c in columns]
            yield _fixed_point_rows(fields, block) if fixed else _formatted_rows(row_format, block)

    _write_bytes(dest, chunks())


def _formatted_rows(row_format: str, columns) -> bytes:
    # Python scalars from tolist() format several times faster than numpy
    # scalars.
    rows = map(row_format.format, *(c.tolist() for c in columns))
    return "".join(row + "\n" for row in rows).encode()


_PAD = 0


def _digits(mag: np.ndarray, width: int | None = None) -> np.ndarray:
    """(n, width) ASCII digits of uint64 magnitudes, right-aligned. Without a
    width, it fits the largest, and leading zeros before the last digit are
    pad bytes."""
    strip = width is None
    if strip:
        width = len(str(int(mag.max()))) if mag.size else 1
    out = np.empty((mag.shape[0], width), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        mag, out[:, k] = np.divmod(mag, np.uint64(10))
    lead = np.logical_and.accumulate(out[:, :-1] == 0, axis=1) if strip else None
    out += ord("0")
    if strip:
        out[:, :-1][lead] = _PAD
    return out


def _fixed_point_rows(fields, columns) -> np.ndarray:
    """One block of rows as a uint8 array of text, see _write_csv."""
    n = columns[0].shape[0]
    parts = []
    for (literal, _, spec, _), c in zip(fields, columns):
        parts.append(np.broadcast_to(np.frombuffer(literal.encode(), np.uint8),
                                     (n, len(literal))))
        if spec == "":
            neg = c < 0
            mag = c.astype(np.uint64)
            # a negative value cast to uint64 wraps, and negating it wraps back to |c|
            np.negative(mag, out=mag, where=neg)
            parts += [_sign(neg), _digits(mag)]
        else:
            parts.append(_fixed_3f(c))
    parts.append(np.full((n, 1), ord("\n"), dtype=np.uint8))
    text = np.hstack(parts)
    return text[text != _PAD]


def _sign(neg: np.ndarray) -> np.ndarray:
    return np.where(neg, np.uint8(ord("-")), np.uint8(_PAD))[:, None]


def _fixed_3f(c: np.ndarray) -> np.ndarray:
    """(n, width) bytes of format(v, ".3f") for each value of c, padded."""
    c = c.astype(np.float64, copy=False)
    scaled = np.abs(c) * 1000.0
    exact = scaled < 2.0**52
    scaled[~exact] = 0.0
    exact &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6
    whole, frac = np.divmod(np.rint(scaled).astype(np.uint64), np.uint64(1000))
    point = np.full((c.shape[0], 1), ord("."), dtype=np.uint8)
    out = np.hstack([_sign(np.signbit(c)), _digits(whole), point, _digits(frac, 3)])
    if not exact.all():
        # near a tie, huge or not finite: format's own text, left-aligned,
        # the rest pad
        slow = np.array([format(v, ".3f") for v in c[~exact].tolist()], dtype=bytes)
        width = slow.dtype.itemsize
        if width > out.shape[1]:
            out = np.hstack([out, np.zeros((c.shape[0], width - out.shape[1]), np.uint8)])
        out[~exact] = _PAD
        out[~exact, :width] = slow.view(np.uint8).reshape(-1, width)
    return out


def _write_bytes(dest, chunks) -> None:
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
