import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosc import core
from evosc.core import (
    EVENT_DTYPE,
    SensorGeometry,
    empty_events,
    from_section,
    make_events,
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
    """Checked 7 records at a time, a stream fails with the error a single
    pass over it gives: the first decreasing timestamp, else the first bad
    polarity, else the first record out of bounds, wherever blocks begin."""
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
    for block in (7, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_VALIDATE_BLOCK", block)
            try:
                validate_events(ev, geom)
                outcomes.append(None)
            except (OrderingError, BoundsError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (not faults)


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
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ConfigError):
            SensorGeometry(**kwargs)


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
