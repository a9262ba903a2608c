import json
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosc import core
from evosc.core import (
    EVENT_DTYPE,
    SensorGeometry,
    check_finite,
    check_non_negative,
    check_positive,
    empty_events,
    from_section,
    make_events,
    map_blocks,
    validate_events,
    window_counts,
)
from evosc.errors import BoundsError, ConfigError, OrderingError


def test_event_record_is_13_packed_bytes():
    assert EVENT_DTYPE.itemsize == 13
    assert EVENT_DTYPE.fields["t"][1] == 0
    assert EVENT_DTYPE.fields["x"][1] == 8
    assert EVENT_DTYPE.fields["y"][1] == 10
    assert EVENT_DTYPE.fields["p"][1] == 12


def test_make_events_roundtrips_fields():
    ev = make_events([0, 5, 5, 9], [1, 2, 3, 4], [9, 8, 7, 6], [1, -1, 1, -1])
    assert ev.shape == (4,)
    assert list(ev["t"]) == [0, 5, 5, 9]
    assert list(ev["p"]) == [1, -1, 1, -1]


def test_empty_events_validate():
    ev = empty_events()
    validate_events(ev)
    assert ev.shape == (0,)


def test_ordering_violation_reports_first_bad_record():
    ev = make_events([0, 10, 5], [0, 0, 0], [0, 0, 0], [1, 1, 1], validate=False)
    with pytest.raises(OrderingError, match="record 2"):
        validate_events(ev)


def test_zero_polarity_rejected():
    ev = make_events([0, 1], [0, 0], [0, 0], [1, 0], validate=False)
    with pytest.raises(BoundsError, match="record 1"):
        validate_events(ev)


def test_bounds_checked_against_geometry():
    geom = SensorGeometry(width=4, height=4)
    ev = make_events([0, 1], [1, 4], [0, 0], [1, 1])
    with pytest.raises(BoundsError, match=r"\(4, 0\)"):
        validate_events(ev, geom)


@given(n=st.integers(2, 30), faults=st.lists(
    st.tuples(st.sampled_from(["order", "polarity", "x", "y"]), st.integers(0, 29)),
    max_size=3))
@settings(max_examples=80, deadline=None)
def test_blocks_report_the_whole_stream_first_violation(n, faults):
    """Checked 7 records at a time, on one thread or split into spans over
    two or three, a stream fails with the error a single pass over it gives:
    the first decreasing timestamp, else the first bad polarity, else the
    first record out of bounds, wherever blocks and spans begin."""
    geom = SensorGeometry(width=8, height=6)
    ev = make_events((np.arange(n) + 1) * 1000, np.arange(n) % 8, np.arange(n) % 6,
                     np.ones(n, int))
    for kind, i in faults:
        if kind == "order":
            i = i % (n - 1) + 1
            ev["t"][i] = ev["t"][i - 1] - 1
        elif kind == "polarity":
            ev["p"][i % n] = 0
        else:
            ev[kind][i % n] = 8
    outcomes = []
    for block, cpus in ((7, 1), (7, 2), (7, 3), (1 << 30, 1)):
        with pytest.MonkeyPatch.context() as mp:
            split(mp, block, cpus)
            try:
                validate_events(ev, geom)
                outcomes.append(None)
            except (OrderingError, BoundsError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes == outcomes[:1] * 4
    assert (outcomes[0] is None) == (not faults)


def split(mp, block, cpus):
    """Walk blocks of `block` records as if `cpus` CPUs were usable."""
    mp.setattr(core, "_BLOCK", block)
    mp.setattr(core, "_cpus", lambda: cpus)


def valid_stream(n):
    return make_events(np.arange(n) * 10, np.arange(n) % 8, np.arange(n) % 6, np.ones(n, int))


def test_a_later_spans_ordering_error_beats_an_earlier_polarity_error(monkeypatch):
    # 10 blocks over two spans: records 0-34 on the caller, 35-69 on a worker
    split(monkeypatch, 7, 2)
    ev = valid_stream(70)
    ev["p"][3] = 0
    ev["t"][50] = 0
    with pytest.raises(OrderingError, match="record 50"):
        validate_events(ev)


@pytest.mark.parametrize("kind", ["order", "polarity", "x"])
@pytest.mark.parametrize("at", [7, 35, 69])
def test_first_bad_record_on_a_block_boundary_is_reported(monkeypatch, kind, at):
    """A block's first record (35 also starts the second span) and the last
    record are checked like any other."""
    split(monkeypatch, 7, 2)
    ev = valid_stream(70)
    if kind == "order":
        ev["t"][at] = ev["t"][at - 1] - 1
    elif kind == "polarity":
        ev["p"][at] = 2
    else:
        ev["x"][at] = 8
    with pytest.raises(OrderingError if kind == "order" else BoundsError,
                       match=f"record {at}\\b"):
        validate_events(ev, SensorGeometry(width=8, height=6))


@pytest.mark.parametrize("n, cpus", [(0, 3), (7, 3), (70, 1), (14, 3), (70, 2), (70, 3)])
def test_map_blocks_walks_contiguous_spans_in_block_order(monkeypatch, n, cpus):
    """One span per CPU, at most one per block: the caller walks the first,
    each span is walked on one thread, and the results come back in block
    order. With one block or one CPU every block runs on the caller."""
    split(monkeypatch, 7, cpus)
    got = map_blocks(lambda lo, hi: (lo, hi, threading.get_ident()), n)
    assert [(lo, hi) for lo, hi, _ in got] == [(lo, min(lo + 7, n)) for lo in range(0, n, 7)]
    threads = [ident for _, _, ident in got]
    spans = min(len(got), cpus)
    if spans <= 1:
        assert set(threads) <= {threading.get_ident()}
        return
    assert threads[:len(got) // spans] == [threading.get_ident()] * (len(got) // spans)
    assert threading.get_ident() not in threads[len(got) // spans:]
    # a thread never comes back to a block after another thread's
    assert threads == sorted(threads, key=threads.index)


@pytest.mark.parametrize("bad, message", [({49}, "block 49"), ({14}, "block 14"),
                                          ({14, 49}, "block 14")])
def test_an_error_reaches_the_caller_once_every_span_has_stopped(monkeypatch, bad, message):
    split(monkeypatch, 7, 2)
    done, raised_on = [], []

    def fn(lo, hi):
        if lo in bad:
            raised_on.append(threading.get_ident())
            raise ValueError(f"block {lo}")
        done.append(lo)

    with pytest.raises(ValueError, match=message):
        map_blocks(fn, 70)
    if 49 in bad:
        assert threading.get_ident() not in raised_on[-1:]
        assert {35, 42} <= set(done) and not {56, 63} & set(done)
    else:
        # the worker's span was walked to its end before the caller's error was raised
        assert {35, 42, 49, 56, 63} <= set(done)


def test_concurrent_callers_share_one_set_of_workers(monkeypatch):
    """Four callers at once, each splitting into more spans than this box
    has cores, with a short switch interval: every call gets each of its
    blocks once and in order, and the worker threads are made once."""
    import concurrent.futures

    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    split(monkeypatch, 7, 4)
    monkeypatch.setattr(core, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    errors = []
    start = threading.Barrier(4)

    def caller(k):
        n = 140 + k
        try:
            start.wait(timeout=60.0)
            for _ in range(50):
                got = map_blocks(lambda lo, hi: (k, lo, hi), n)
                assert got == [(k, lo, min(lo + 7, n)) for lo in range(0, n, 7)]
        except (AssertionError, threading.BrokenBarrierError) as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(made) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_blocks_again(monkeypatch):
    """The parent's worker threads do not exist in a child made by fork: the
    child makes its own at its first call that splits, and exits."""
    split(monkeypatch, 7, 2)
    assert len(set(map_blocks(lambda lo, hi: threading.get_ident(), 70))) == 2
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            threads = map_blocks(lambda lo, hi: threading.get_ident(), 70)
            code = 0 if len(set(threads)) == 2 and threads[0] == threading.get_ident() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its call within 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_wrong_dtype_rejected():
    with pytest.raises(ConfigError):
        validate_events(np.zeros(3, dtype=np.float64))


class TestGeometry:
    def test_principal_point_defaults_to_centre(self):
        g = SensorGeometry(width=64, height=48)
        assert g.cx == 31.5
        assert g.cy == 23.5

    def test_dict_round_trip(self):
        # the path of the config reader and of truth.json's geometry block
        g = SensorGeometry(width=10, height=20, focal_length_px=42.0, cx=1.0, cy=2.0)
        assert from_section(SensorGeometry, g.to_dict(), "geometry") == g

    def test_integral_float_reads_as_int(self):
        g = from_section(SensorGeometry, {"width": 32.0, "height": 16}, "geometry")
        assert type(g.width) is int and g.width == 32

    @pytest.mark.parametrize("kwargs", [
        {"width": 0, "height": 4},
        {"width": 4, "height": -1},
        {"width": 4, "height": 4, "focal_length_px": 0.0},
        {"width": 4, "height": 4, "focal_length_px": math.nan},
        {"width": 4, "height": 4, "cx": math.inf},
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ConfigError):
            SensorGeometry(**kwargs)

    def test_largest_sensor_is_the_largest_an_evt_file_holds(self):
        # only constructed: the .evt header and coordinates are u16
        g = SensorGeometry(width=65535, height=65535)
        assert (g.width, g.height, g.cx) == (65535, 65535, 32767.0)
        for name in ("width", "height"):
            with pytest.raises(ConfigError) as err:
                SensorGeometry(**{"width": 4, "height": 4, name: 65536})
            assert str(err.value) == (f"{name} must be at most 65535, the largest an .evt "
                                      f"file holds, got 65536")


@pytest.mark.parametrize("check, rule, good, bad", [
    (check_positive, "positive and finite", [5e-324, 1, 1e308],
     [0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
    (check_non_negative, "non-negative and finite", [0, -0.0, 1e308],
     [-5e-324, math.nan, math.inf, -math.inf]),
    (check_finite, "finite", [-1e308, 0, 1e308], [math.nan, math.inf, -math.inf]),
])
def test_range_rules_name_the_first_value_that_breaks_them(check, rule, good, bad):
    for value in good:
        check(a=value, b=value)
    for value in bad:
        with pytest.raises(ConfigError) as err:
            check(a=good[-1], b=value, c=math.nan)
        assert str(err.value) == f"b must be {rule}, got {value}"


@pytest.mark.parametrize("text, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e999", "inf"),
    ('"nan"', "nan"), ('"-inf"', "-inf"),
])
def test_reader_refuses_a_float_key_that_is_not_finite(text, shown):
    """Python's JSON reader takes NaN, Infinity and an overflowing literal,
    and float() takes their spellings as strings."""
    block = json.loads(f'{{"width": 4, "height": 4, "focal_length_px": {text}}}')
    with pytest.raises(ConfigError) as err:
        from_section(SensorGeometry, block, "geometry")
    assert str(err.value) == f"geometry.focal_length_px: expected a finite number, got {shown}"


@st.composite
def event_streams(draw, max_n=200, width=32, height=24):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ts = sorted(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)))
    xs = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return make_events(ts, xs, ys, ps)


@given(event_streams(), st.integers(0, 10_000), st.integers(1, 10_000))
@settings(max_examples=50, deadline=None)
def test_accumulate_conserves_in_window_events(ev, t0, span):
    geom = SensorGeometry(width=32, height=24)
    counts = window_counts(ev, geom, t0, t0 + span, span)
    in_window = int(np.count_nonzero((ev["t"] >= t0) & (ev["t"] < t0 + span)))
    assert counts.shape == (1, 24, 32)
    assert int(counts.sum()) == in_window


def test_accumulate_window_is_half_open():
    geom = SensorGeometry(width=4, height=4)
    ev = make_events([10, 20], [1, 2], [1, 2], [1, 1])
    (counts,) = window_counts(ev, geom, 10, 20, 10)
    assert counts[1, 1] == 1
    assert counts[2, 2] == 0


def test_accumulate_rejects_empty_window():
    geom = SensorGeometry(width=4, height=4)
    with pytest.raises(ConfigError):
        window_counts(empty_events(), geom, 5, 5, 10)


@given(event_streams(), st.integers(0, 1000), st.integers(1, 12_000), st.integers(1, 3000))
@settings(max_examples=50, deadline=None)
def test_window_counts_tile_the_range(ev, t0, extra, w):
    # ceil(extra / w) windows from t0, the last one possibly running past t0 + extra
    geom = SensorGeometry(width=32, height=24)
    counts = window_counts(ev, geom, t0, t0 + extra, w)
    n = -(-extra // w)
    assert counts.shape == (n, 24, 32)
    t = ev["t"].astype(np.int64)
    assert counts.sum(axis=(1, 2)).tolist() == [
        int(np.count_nonzero((t >= t0 + i * w) & (t < t0 + (i + 1) * w))) for i in range(n)]


def test_window_counts_rejects_bad_width():
    geom = SensorGeometry(width=4, height=4)
    with pytest.raises(ConfigError):
        window_counts(empty_events(), geom, 0, 10, 0)
