import io
import os
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosc import io as evio
from evosc.compensate import CompensatedEvents, write_compensated_csv
from evosc.core import SensorGeometry, empty_events, make_events
from evosc.errors import FormatError
from evosc.io import HEADER_SIZE, MAGIC, _write_csv, read_events, write_events

GEOM = SensorGeometry(width=32, height=24)


def stream(n=5):
    ts = np.arange(n) * 100
    return make_events(ts, np.arange(n) % 32, np.arange(n) % 24,
                       np.where(np.arange(n) % 2 == 0, 1, -1))


def header(count, width=GEOM.width, height=GEOM.height):
    return struct.pack("<4sHHHQ6s", MAGIC, 1, width, height, count, b"\x00" * 6)


def read_all_sources(payload, tmp):
    """read_events of payload from a path, from bytes and from a BytesIO."""
    path = Path(tmp) / "payload.evt"
    path.write_bytes(payload)
    return [read_events(src) for src in (path, payload, io.BytesIO(payload))]


@st.composite
def event_streams(draw, max_n=100):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ts = sorted(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
    xs = draw(st.lists(st.integers(0, GEOM.width - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, GEOM.height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return make_events(ts, xs, ys, ps)


@given(event_streams())
@settings(max_examples=40, deadline=None)
def test_binary_round_trip(ev):
    buf = io.BytesIO()
    write_events(buf, ev, GEOM)
    back, geom = read_events(buf.getvalue())
    assert np.array_equal(back, ev)
    assert (geom.width, geom.height) == (GEOM.width, GEOM.height)


@given(event_streams())
@settings(max_examples=25, deadline=None)
def test_path_bytes_and_stream_agree(ev):
    """write_events writes header + records to a path and to a stream alike,
    and a path, bytes and a stream read back the same events."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ev.evt"
        write_events(path, ev, GEOM)
        buf = io.BytesIO()
        write_events(buf, ev, GEOM)
        assert path.read_bytes() == buf.getvalue() == header(ev.shape[0]) + ev.tobytes()
        for back, geom in read_all_sources(buf.getvalue(), tmp):
            assert back.tobytes() == ev.tobytes()
            assert (geom.width, geom.height) == (GEOM.width, GEOM.height)


def test_named_pipe_read_as_a_stream(tmp_path):
    """A path without a size to check in advance is read to its end."""
    ev = stream(6)
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=write_events, args=(fifo, ev, GEOM), daemon=True)
    writer.start()
    back, _ = read_events(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.tobytes() == ev.tobytes()


def test_strided_stream_written_as_its_records():
    ev = stream(9)[::2]
    buf = io.BytesIO()
    write_events(buf, ev, GEOM)
    assert buf.getvalue() == header(5) + ev.tobytes()


def test_file_path_round_trip(tmp_path):
    ev = stream(17)
    path = tmp_path / "events.evt"
    write_events(path, ev, GEOM)
    back, geom = read_events(path)
    assert np.array_equal(back, ev)
    assert geom.width == 32


def test_binary_size_is_header_plus_13_per_record():
    buf = io.BytesIO()
    write_events(buf, stream(7), GEOM)
    assert len(buf.getvalue()) == HEADER_SIZE + 7 * 13


def test_bad_magic_offset_zero():
    buf = io.BytesIO()
    write_events(buf, stream(), GEOM)
    data = b"XXXX" + buf.getvalue()[4:]
    with pytest.raises(FormatError) as err:
        read_events(data)
    assert err.value.offset == 0


def test_bad_version_offset_four():
    buf = io.BytesIO()
    write_events(buf, stream(), GEOM)
    data = bytearray(buf.getvalue())
    struct.pack_into("<H", data, 4, 99)
    with pytest.raises(FormatError, match="version") as err:
        read_events(bytes(data))
    assert err.value.offset == 4


def test_truncated_header_reports_length():
    with pytest.raises(FormatError, match="truncated"):
        read_events(MAGIC + b"\x00" * 5)


def test_truncated_body_offset_points_at_missing_byte():
    buf = io.BytesIO()
    write_events(buf, stream(3), GEOM)
    data = buf.getvalue()[:-5]
    with pytest.raises(FormatError) as err:
        read_events(data)
    assert err.value.offset == len(data)


@pytest.mark.parametrize("payload, offset", [
    (MAGIC + b"\x00" * 5, 9),
    (b"XXXX" + header(3)[4:] + stream(3).tobytes(), 0),
    (header(3)[:4] + struct.pack("<H", 99) + header(3)[6:] + stream(3).tobytes(), 4),
    (header(3) + stream(3).tobytes()[:-5], HEADER_SIZE + 34),
    (header(3) + stream(3).tobytes() + b"\x00" * 4, HEADER_SIZE + 39),
    # a count no file holds: the size check must come before any allocation
    (header(2**60) + stream(5).tobytes(), HEADER_SIZE + 65),
    (header(3, width=0) + stream(3).tobytes(), 6),
])
def test_malformed_binary_fails_alike_from_every_source(payload, offset, tmp_path):
    (tmp_path / "bad.evt").write_bytes(payload)
    errors = []
    for src in (tmp_path / "bad.evt", payload, io.BytesIO(payload)):
        with pytest.raises(FormatError) as err:
            read_events(src)
        errors.append((str(err.value), err.value.offset))
    assert errors[0][1] == offset
    assert errors.count(errors[0]) == 3


def read_through_fifo(tmp_path, payload):
    """read_events of a named pipe a thread writes payload into."""
    fifo = tmp_path / "events.fifo"
    if not fifo.exists():
        os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(payload)
        except BrokenPipeError:  # the reader stopped at a bad header
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_events(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("payload", [
    header(3) + stream(3).tobytes(),
    header(0),
    header(3) + stream(3).tobytes()[:-5],
    header(3) + stream(3).tobytes() + b"\x00" * 4,
    header(1) + stream(3).tobytes(),
    header(3),
    header(2**60) + stream(5).tobytes(),
    header(3, width=0) + stream(3).tobytes(),
    header(3, width=0) + stream(3).tobytes()[:-1],
])
def test_pipe_reads_like_a_regular_file(payload, tmp_path):
    """A pipe has no size to check before the records are read into their
    array, yet an exact, short or long record section (or a bad header
    geometry) gives the regular file's events, or its FormatError and
    offset."""
    (tmp_path / "file.evt").write_bytes(payload)
    results = []
    for read in (lambda: read_events(tmp_path / "file.evt"),
                 lambda: read_through_fifo(tmp_path, payload)):
        try:
            events, geom = read()
            results.append((events.tobytes(), geom))
        except FormatError as err:
            results.append((str(err), err.offset))
    assert results[0] == results[1]


def test_pipe_read_holds_the_stream_once(tmp_path):
    """The records of a pipe are read straight into their array: the read
    allocates little more than the stream itself."""
    ev = stream(1)[np.zeros(200_000, dtype=int)]
    payload = header(ev.shape[0]) + ev.tobytes()
    tracemalloc.start()
    try:
        back, _ = read_through_fifo(tmp_path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == ev.tobytes()
    # the array and small change; reading the whole body as bytes first
    # would hold it two or three times
    assert peak < ev.nbytes + (1 << 20)


def test_count_mismatch_surplus_bytes():
    buf = io.BytesIO()
    write_events(buf, stream(3), GEOM)
    with pytest.raises(FormatError, match="record section"):
        read_events(buf.getvalue() + b"\x00" * 4)


def test_geometry_mismatch_rejected():
    buf = io.BytesIO()
    write_events(buf, stream(), GEOM)
    with pytest.raises(FormatError, match="does not match"):
        read_events(buf.getvalue(), geometry=SensorGeometry(width=8, height=8))


def test_unsorted_binary_payload_rejected_on_read():
    ev = make_events([100, 50], [0, 0], [0, 0], [1, 1], validate=False)
    payload = struct.pack("<4sHHHQ6s", MAGIC, 1, 32, 24, 2, b"\x00" * 6) + ev.tobytes()
    with pytest.raises(Exception, match="decreases"):
        read_events(payload)


def test_empty_stream_binary_round_trip():
    buf = io.BytesIO()
    write_events(buf, empty_events(), GEOM)
    back, _ = read_events(buf.getvalue())
    assert back.shape == (0,)


def test_any_path_like_is_read_as_a_path(tmp_path):
    class Where:
        def __fspath__(self):
            return str(tmp_path / "ev.evt")

    g = SensorGeometry(width=8, height=8)
    ev = make_events([1, 2], [3, 4], [5, 6], [1, -1])
    write_events(Where(), ev, g)
    back, _ = read_events(Where())
    assert back.tobytes() == ev.tobytes()


def _per_row_csv(header, row_format, columns):
    rows = map(row_format.format, *(c.tolist() for c in columns))
    return ("\n".join([header, *rows]) + "\n").encode()


def _awkward_values(rng, n):
    """n floats mixing every case the fixed-point .3f path must get right."""
    cases = [
        rng.uniform(-100.0, 100.0, n),
        np.exp(rng.uniform(np.log(1e-12), np.log(1e12), n)) * rng.choice([-1.0, 1.0], n),
        # decimal ties k + 0.0005, not exact in binary, and their neighbours
        (np.floor(rng.uniform(-1e4, 1e4, n) * 1000.0) + 0.5) / 1000.0,
        # exact binary ties at three decimals (m / 16 with m odd: x*1000 ends in .5)
        (2.0 * rng.integers(-2**20, 2**20, n) + 1.0) / 16.0,
        # values above 1e7, where the product's rounding error grows
        rng.uniform(1e7, 1e10, n) * rng.choice([-1.0, 1.0], n),
        # decimal ties there, and past 2**52 / 1000, where halves are not doubles
        (np.floor(rng.uniform(1e9, 1e12, n)) + 0.5) / 1000.0,
        rng.uniform(1e12, 1e16, n),
    ]
    ties = cases[2]
    cases += [np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
              np.nextafter(cases[3], 0.0)]
    values = np.concatenate(cases)
    special = np.array([0.0, -0.0, 1e-9, -1e-9, 0.0005, -0.0005, 0.0004999, 8.5e6 + 0.0005,
                        2.0**52 / 1000.0, -2.0**52 / 1000.0, np.inf, -np.inf, np.nan, 1e300,
                        5e-324, -5e-324])
    return np.concatenate([special, rng.permutation(values)])[:n]


def test_fixed_point_csv_matches_format_on_a_million_values():
    """write_compensated_csv's digits equal format(v, ".3f") on ties, near
    ties, signed zeros, tiny and huge values, and 20-digit timestamps: 500k
    rows of two .3f values."""
    rng = np.random.default_rng(12)
    n = 500_000
    x = _awkward_values(rng, n)
    y = -x[::-1]
    t = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    t[:4] = [0, 9, 2**64 - 1, 2**63]
    records = make_events(t, np.zeros(n), np.zeros(n),
                          rng.choice(np.array([-1, 1], dtype=np.int8), n), validate=False)
    comp = CompensatedEvents(records=records, x=x, y=y, geometry=GEOM)
    assert n % evio._CSV_BLOCK != 0
    buf = io.BytesIO()
    write_compensated_csv(buf, comp)
    want = _per_row_csv("t_us,x,y,p", "{},{:.3f},{:.3f},{}", [t, x, y, comp.polarity])
    assert buf.getvalue() == want
    lines = buf.getvalue().splitlines()
    assert lines[1].startswith(b"0,0.000,") and lines[2].startswith(b"9,-0.000,")


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fixed_point_csv_rows_across_block_edges(offset):
    rng = np.random.default_rng(offset + 5)
    n = evio._CSV_BLOCK + offset
    columns = [rng.integers(0, 2**40, n, dtype=np.uint64), _awkward_values(rng, n),
               rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True)]
    columns[2][:3] = [-2**63, 2**63 - 1, 0]
    buf = io.BytesIO()
    _write_csv(buf, "a,b,c", "{},{:.3f},{}", columns)
    assert buf.getvalue() == _per_row_csv("a,b,c", "{},{:.3f},{}", columns)


def test_fixed_point_csv_keeps_float32_and_empty_columns():
    x = np.array([0.0625, -1.0005, 3.14159, 1e-7], dtype=np.float32)
    t = np.arange(4, dtype=np.int32) - 2
    buf = io.BytesIO()
    _write_csv(buf, "t,x", "{},{:.3f}", [t, x])
    assert buf.getvalue() == _per_row_csv("t,x", "{},{:.3f}", [t, x])
    empty = io.BytesIO()
    _write_csv(empty, "t,x", "{},{:.3f}", [t[:0], x[:0]])
    assert empty.getvalue() == b"t,x\n"
