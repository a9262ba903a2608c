import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosc.core import make_events
from evosc.errors import ConfigError, OrderingError
from evosc.track import (
    _CHUNK_TAUS,
    SAMPLE_DTYPE,
    CentroidTracker,
    PatchSpec,
    delag_coefficients,
    lowpass_gain,
    read_samples_csv,
    samples_array,
    track_events,
    write_samples_csv,
)

from oracles import WholeCallTracker, exponential_centroid, tracker_event_loop
from timing import tracker_bench


def test_sample_dtype_layout():
    assert SAMPLE_DTYPE.itemsize == 4 + 8 + 8 + 8
    assert [SAMPLE_DTYPE.fields[n][0].str for n in ("id", "t", "u", "v")] == [
        "<u4", "<u8", "<f8", "<f8",
    ]


class TestPatchSpec:
    def test_boundary_is_inclusive(self):
        p = PatchSpec(cx=10.0, cy=10.0, half_size=4)
        assert p.contains(14.0, 6.0)
        assert not p.contains(14.1, 10.0)

    def test_unsigned_coords_left_of_centre(self):
        # uint16 minus scalar must not wrap around
        p = PatchSpec(cx=30, cy=30, half_size=12)
        x = np.array([20], dtype=np.uint16)
        y = np.array([25], dtype=np.uint16)
        assert p.contains(x, y)[0]
        far = np.array([2], dtype=np.uint16)
        assert not p.contains(far, y)[0]

    def test_vectorized_matches_scalar(self):
        p = PatchSpec(cx=31.5, cy=15.0, half_size=3)
        xs = np.arange(64, dtype=np.uint16)
        ys = np.full(64, 15, dtype=np.uint16)
        mask = p.contains(xs, ys)
        for i in range(64):
            assert mask[i] == p.contains(float(i), 15.0)

    @settings(max_examples=300, deadline=None)
    @given(cx=st.one_of(st.floats(-200.0, 65800.0), st.integers(-100, 65700).map(lambda i: i / 10),
                        st.integers(-100, 65700).map(float),
                        st.sampled_from([0.1, 65535.3, -0.5, 65535.5, 1e300, -1e300, 2.0**60,
                                         -59767.00000000001, 23857.999999999996])),
           half=st.integers(1, 70000), offsets=st.lists(st.integers(-3, 3), max_size=8),
           more=st.lists(st.integers(0, 65535), max_size=8))
    def test_integer_coordinates_match_the_float_test(self, cx, half, offsets, more):
        """uint16 coordinates give the mask of the float64 test, also at 0,
        at 65535, exactly on the bounds and beside them, and for centres
        that are fractional, not representable or off the sensor (the last
        two listed round cx + half_size to the wrong side of a bound)."""
        edges = [math.floor(c) + o for c in (cx - half, cx + half) if abs(c) < 1e6
                 for o in offsets]
        xs = np.array([0, 65535] + [e for e in edges if 0 <= e <= 65535] + more, dtype=np.uint16)
        p = PatchSpec(cx=cx, cy=cx, half_size=half)
        ref = np.abs(xs.astype(np.float64) - cx) <= half
        assert p.contains(xs, xs).tolist() == ref.tolist()
        ys = np.full(xs.size, 0, dtype=np.uint16)
        assert p.contains(xs, ys).tolist() == (ref & (abs(0.0 - cx) <= half)).tolist()

    def test_bad_half_size(self):
        with pytest.raises(ConfigError):
            PatchSpec(cx=0.0, cy=0.0, half_size=0)


def _events(ts, xs, ys):
    """Events with float coordinates: the tracker reads only t, x and y."""
    ev = np.zeros(len(ts), dtype=[("t", "<u8"), ("x", "<f8"), ("y", "<f8")])
    ev["t"], ev["x"], ev["y"] = ts, xs, ys
    return ev


def _pixel_events(ts, rng, size=32):
    return make_events(ts, rng.integers(0, size, len(ts)), rng.integers(0, size, len(ts)),
                       np.ones(len(ts)))


class TestCentroidTracker:
    def make(self, **kw):
        defaults = dict(patch=PatchSpec(cx=16.0, cy=16.0, half_size=15),
                        tau_s=0.01, emit_period_s=1e-9, min_weight=1.0)
        defaults.update(kw)
        return CentroidTracker(**defaults)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(0)
        n = 300
        ts = np.cumsum(rng.integers(1, 400, size=n)).tolist()
        xs = rng.uniform(2.0, 30.0, size=n).tolist()
        ys = rng.uniform(2.0, 30.0, size=n).tolist()
        got = self.make().run(_events(ts, xs, ys))
        ref = exponential_centroid(ts, xs, ys, tau_s=0.01)
        assert got.shape[0] == n
        for (_, t, u, v), (rt, ru, rv, _) in zip(got.tolist(), ref):
            assert t == rt
            assert u == pytest.approx(ru, abs=1e-12)
            assert v == pytest.approx(rv, abs=1e-12)

    def test_first_event_snaps_centroid(self):
        (_, _, u, v), = self.make().run(_events([10], [3.0], [27.0])).tolist()
        assert (u, v) == (3.0, 27.0)

    def test_out_of_patch_events_ignored(self):
        tracker = self.make()
        assert tracker.run(_events([1], [200.0], [200.0])).shape == (0,)
        assert tracker.weight == 0.0

    def test_backwards_time_rejected(self):
        # only in-patch events are ordered: an earlier one outside the patch is ignored
        tracker = self.make()
        tracker.run(_events([100], [16.0], [16.0]))
        assert tracker.run(_events([50], [200.0], [16.0])).shape == (0,)
        with pytest.raises(OrderingError):
            tracker.run(_events([99], [16.0], [16.0]))

    @pytest.mark.parametrize("first, second", [([100, 99], []), ([100], [99])])
    def test_run_rejects_backwards_in_patch_time(self, first, second):
        def events(ts):
            ev = np.zeros(len(ts), dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
            ev["t"], ev["x"], ev["y"] = ts, 16, 16
            return ev

        tracker = self.make()
        with pytest.raises(OrderingError):
            tracker.run(events(first))
            tracker.run(events(second))

    def test_min_weight_gates_emission(self):
        # events 10 tau apart: weight never accumulates past ~1
        tracker = self.make(min_weight=5.0, tau_s=0.001)
        ts = range(0, 100_000, 10_000)
        assert tracker.run(_events(ts, 16.0, 16.0)).shape == (0,)

    def test_dense_events_pass_min_weight(self):
        tracker = self.make(min_weight=5.0, tau_s=0.01)
        out = tracker.run(_events(range(0, 1000, 100), 16.0, 16.0))
        assert out["t"].tolist()[-1:] == [900]

    def test_emit_period_thins_samples(self):
        tracker = self.make(emit_period_s=0.001)
        kept = tracker.run(_events(range(0, 20_000, 100), 16.0, 16.0))
        assert np.all(np.diff(kept["t"]) >= 1000)
        assert kept.shape[0] == pytest.approx(20, abs=2)

    def test_warmup_suppresses_early_samples(self):
        tracker = self.make(warmup_s=0.005)
        emitted_t = tracker.run(_events(range(0, 10_000, 100), 16.0, 16.0))["t"]
        assert emitted_t.size and emitted_t[0] >= 5000

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cuts=st.integers(1, 6))
    def test_run_is_invariant_to_where_the_stream_is_cut(self, seed, cuts):
        """One run over a stream equals runs over its pieces: the scan's state
        carries over. The stream spans several chunks, repeats timestamps and
        has a gap longer than a chunk with a cut inside it."""
        rng = np.random.default_rng(seed)
        tau = 0.002
        span_us = int(_CHUNK_TAUS * tau * 1e6)
        dt = rng.integers(0, 60, size=6000)  # 0: equal timestamps
        dt[3000] = 3 * span_us
        ev = _pixel_events(np.cumsum(dt), rng)
        kw = dict(tau_s=tau, emit_period_s=2e-4, min_weight=3.0, warmup_s=3 * tau)
        whole = self.make(**kw).run(ev)
        # 3000 cuts inside the gap
        bounds = np.unique(np.concatenate([[0, 3000, ev.shape[0]],
                                           rng.integers(0, ev.shape[0], size=cuts)]))
        tracker = self.make(**kw)
        pieces = np.concatenate([tracker.run(ev[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
        assert whole.shape[0] > 100
        assert pieces["t"].tolist() == whole["t"].tolist()
        np.testing.assert_allclose(pieces["u"], whole["u"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pieces["v"], whole["v"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_samples_are_the_whole_call_scans(self, seed):
        """Picking emissions chunk by chunk gives, bit for bit, the samples of
        scanning the whole call first and gating after, for the stream fed
        whole and fed in pieces cut inside chunks; the warm-up ends inside
        the second of several chunk spans."""
        rng = np.random.default_rng(seed)
        tau = 0.002
        span_us = int(_CHUNK_TAUS * tau * 1e6)
        ev = _pixel_events(np.cumsum(rng.integers(0, 60, size=12_000)), rng)
        assert int(ev["t"][-1] - ev["t"][0]) > 5 * span_us
        kw = dict(patch=PatchSpec(cx=16.0, cy=16.0, half_size=12), tau_s=tau,
                  emit_period_s=2e-4, min_weight=3.0, warmup_s=1.5 * span_us * 1e-6)
        cuts = np.unique(np.concatenate([[0, ev.shape[0]], rng.integers(1, ev.shape[0], 5)]))
        for bounds in ([0, ev.shape[0]], cuts):
            tracker, ref = self.make(**kw), WholeCallTracker(**kw)
            pieces = list(zip(bounds[:-1], bounds[1:]))
            got = np.concatenate([tracker.run(ev[a:b]) for a, b in pieces])
            want = np.concatenate([ref.run(ev[a:b]) for a, b in pieces])
            assert got.shape[0] > 1000
            assert got.tobytes() == want.tobytes()
            assert (tracker.weight, tracker.cu, tracker.cv) == (ref.weight, ref.cu, ref.cv)

    def test_run_matches_the_oracle_across_chunks(self):
        """Every event emits; centroids match the per-event recursion over a
        stream of several chunk spans, across a gap whose decay underflows."""
        rng = np.random.default_rng(4)
        tau = 0.0005
        span_us = int(_CHUNK_TAUS * tau * 1e6)
        ts = np.cumsum(rng.integers(1, 80, size=5000))
        ts[2500:] += 800 * span_us  # exp(-24000) is 0.0 in double
        assert ts[-1] - ts[2500] > 6 * span_us and ts[2499] > 6 * span_us
        xs = rng.uniform(2.0, 30.0, size=ts.size)
        ys = rng.uniform(2.0, 30.0, size=ts.size)
        got = self.make(tau_s=tau).run(_events(ts, xs, ys))
        ref = np.array(exponential_centroid(ts.tolist(), xs.tolist(), ys.tolist(), tau_s=tau))
        assert got["t"].tolist() == ts.tolist()
        np.testing.assert_allclose(got["u"], ref[:, 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got["v"], ref[:, 2], rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-4, 0.02),
           period=st.floats(1e-6, 5e-3), min_weight=st.floats(1.0, 20.0),
           warmup=st.one_of(st.none(), st.floats(0.0, 0.02)))
    def test_emissions_match_the_event_loop(self, seed, tau, period, min_weight, warmup):
        """Same samples as the per-event loop: emission times exactly, centroids
        within 1e-12 px, for any period, weight floor and warm-up."""
        rng = np.random.default_rng(seed)
        ev = _pixel_events(np.cumsum(rng.integers(0, 30, size=3000)), rng)
        tracker = self.make(patch=PatchSpec(cx=16.0, cy=16.0, half_size=10), tau_s=tau,
                            emit_period_s=period, min_weight=min_weight, warmup_s=warmup)
        want = tracker_event_loop(tracker, ev)
        got = tracker.run(ev)
        assert got["t"].tolist() == want["t"].tolist()
        np.testing.assert_allclose(got["u"], want["u"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got["v"], want["v"], rtol=0, atol=1e-12)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            self.make(tau_s=0.0)
        with pytest.raises(ConfigError):
            self.make(min_weight=0.5)


def test_run_beats_a_per_event_loop():
    """The scan costs at most a third of the same recursion and gates as a
    per-event Python loop, per in-patch event, timed in one process."""
    rng = np.random.default_rng(5)
    n = 200_000
    ev = make_events(np.cumsum(rng.integers(0, 10, n)), rng.integers(0, 64, n),
                     rng.integers(0, 64, n), np.ones(n))

    def make():
        return CentroidTracker(PatchSpec(cx=31.5, cy=31.5, half_size=32), warmup_s=0.015)

    scan, loop = make().run(ev), tracker_event_loop(make(), ev)
    assert scan.shape[0] > 500 and scan["t"].tolist() == loop["t"].tolist()
    np.testing.assert_allclose(scan["u"], loop["u"], rtol=0, atol=1e-12)
    fast = tracker_bench(make, ev, repeats=5)
    slow = tracker_bench(make, ev, repeats=5, run=tracker_event_loop)
    assert fast["patch_events"] == n
    assert slow["ns_per_patch_event_median"] >= 3.0 * fast["ns_per_patch_event_median"], (
        fast, slow)


def test_track_events_merges_sorted_by_time_then_id():
    rng = np.random.default_rng(2)
    n = 2000
    ev = np.empty(n, dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
    ev["t"] = np.cumsum(rng.integers(1, 50, size=n))
    ev["x"] = rng.integers(0, 32, size=n)
    ev["y"] = rng.integers(0, 32, size=n)
    ev["p"] = 1
    trackers = [
        CentroidTracker(PatchSpec(cx=8.0, cy=16.0, half_size=8), min_weight=1.0,
                        emit_period_s=1e-4, tracker_id=1),
        CentroidTracker(PatchSpec(cx=24.0, cy=16.0, half_size=8), min_weight=1.0,
                        emit_period_s=1e-4, tracker_id=2),
    ]
    merged = track_events(ev, trackers)
    assert set(np.unique(merged["id"])) == {1, 2}
    key = merged["t"].astype(np.int64) * 10 + merged["id"]
    assert np.all(np.diff(key) > 0)


def test_track_events_empty_tracker_list():
    ev = np.empty(0, dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
    assert track_events(ev, []).shape == (0,)


def test_lowpass_gain_reference_points():
    assert lowpass_gain(0.0, 0.005) == 1.0
    assert lowpass_gain(200.0, 0.005) == pytest.approx(1.0 / math.sqrt(2.0))
    assert lowpass_gain(100.0 * math.pi, 0.005) == pytest.approx(
        1.0 / math.sqrt(1.0 + (0.5 * math.pi) ** 2)
    )


@given(
    a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
    omega=st.floats(1.0, 500.0), tau=st.floats(1e-4, 0.05),
)
def test_delag_inverts_first_order_lag(a, b, omega, tau):
    """delag o lag is the identity on (a, b) phasors."""
    true_p = complex(b, -a)
    meas_p = true_p / complex(1.0, omega * tau)
    a2, b2 = delag_coefficients(-meas_p.imag, meas_p.real, omega, tau)
    assert a2 == pytest.approx(a, abs=1e-9)
    assert b2 == pytest.approx(b, abs=1e-9)


def _fit_sin_cos(t_s, values, omega):
    design = np.column_stack([
        np.sin(omega * t_s), np.cos(omega * t_s), np.ones_like(t_s),
    ])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coef  # a, b, c


def test_tracker_lag_matches_first_order_model():
    """Centroid of a dense sinusoidal source is attenuated and phase lagged
    exactly as the exponential window predicts."""
    # 10 us steps keep the half-step discretization bias inside tolerance
    omega, tau, amp = 100.0 * math.pi, 0.005, 3.0
    ts = np.arange(0, 1_000_000, 10, dtype=np.int64)
    xs = 32.0 + amp * np.sin(omega * ts * 1e-6)
    tracker = CentroidTracker(PatchSpec(cx=32.0, cy=32.0, half_size=10),
                              tau_s=tau, emit_period_s=1e-9, min_weight=1.0)
    samples = tracker.run(_events(ts, xs, 32.0))
    keep = samples["t"] * 1e-6 > 5.0 * tau
    t_s = samples["t"][keep] * 1e-6
    a, b, _ = _fit_sin_cos(t_s, samples["u"][keep], omega)
    meas = complex(b, -a)
    assert abs(meas) / amp == pytest.approx(lowpass_gain(omega, tau), rel=5e-3)
    # truth is pure sine, phasor angle -pi/2; the lag rotates by -atan(w tau)
    assert np.angle(meas) == pytest.approx(
        -math.pi / 2.0 - math.atan(omega * tau), abs=5e-3
    )
    a2, b2 = delag_coefficients(a, b, omega, tau)
    recovered = complex(b2, -a2)
    assert abs(recovered) == pytest.approx(amp, rel=5e-3)
    assert np.angle(recovered) == pytest.approx(-math.pi / 2.0, abs=5e-3)


def test_tracked_disk_amplitude_and_phase(disk_stream, disk_cfg):
    """End to end: events from an oscillating disk, delagged fit recovers the
    commanded image motion."""
    tau = 0.005
    tracker = CentroidTracker(PatchSpec(cx=32.0, cy=32.0, half_size=14),
                              tau_s=tau, warmup_s=3 * tau)
    samples = tracker.run(disk_stream.events)
    assert samples.shape[0] > 500
    t_s = samples["t"] * 1e-6
    omega = disk_cfg.omega
    for axis, phi_true in (("u", disk_cfg.phi_x), ("v", disk_cfg.phi_y)):
        a, b, _ = _fit_sin_cos(t_s, samples[axis], omega)
        a2, b2 = delag_coefficients(a, b, omega, tau)
        p = complex(b2, -a2)
        assert abs(p) == pytest.approx(3.0, rel=0.06)
        assert math.remainder(np.angle(p) - phi_true, 2.0 * math.pi) == pytest.approx(
            0.0, abs=0.06
        )


class TestSamplesCsv:
    def test_round_trip(self):
        samples = samples_array([
            (1, 100, 3.125, 7.5), (1, 1100, 3.25, 7.0), (2, 1100, -0.5, 12.0),
        ])
        buf = io.BytesIO()
        write_samples_csv(buf, samples, 0.002)
        back, tau_s = read_samples_csv(io.StringIO(buf.getvalue().decode()))
        assert back.tobytes() == samples.tobytes()
        assert tau_s == 0.002

    def test_header_written(self):
        buf = io.BytesIO()
        write_samples_csv(buf, samples_array([]), 0.005)
        assert buf.getvalue() == b"# tracker_tau_s=0.005\nid,t_us,u,v\n"

    def test_tau_round_trips_exactly(self):
        buf = io.BytesIO()
        write_samples_csv(buf, samples_array([]), np.float64(0.1) + 0.2)
        assert read_samples_csv(buf.getvalue())[1] == 0.1 + 0.2

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigError, match="header"):
            read_samples_csv(io.StringIO("# tracker_tau_s=0.005\nt,u,v\n1,2,3\n"))

    @pytest.mark.parametrize("text, message", [
        ("id,t_us,u,v\n0,5,1.0,2.0\n",
         "samples line 1: expected '# tracker_tau_s=<seconds>', got 'id,t_us,u,v'"),
        ("\n\n", "samples line 1: expected '# tracker_tau_s=<seconds>', got ''"),
        ("# tracker_tau_s=-0.002\nid,t_us,u,v\n",
         "samples line 1: tracker_tau_s: expected a non-negative finite number, got -0.002"),
        ("# tracker_tau_s=nan\nid,t_us,u,v\n",
         "samples line 1: tracker_tau_s: expected a non-negative finite number, got nan"),
        ("# tracker_tau_s=inf\nid,t_us,u,v\n",
         "samples line 1: tracker_tau_s: expected a non-negative finite number, got inf"),
        ("# tracker_tau_s=fast\nid,t_us,u,v\n",
         "samples line 1: could not convert string to float: 'fast'"),
    ], ids=["no_tau_line", "blank", "negative", "nan", "inf", "not_a_number"])
    def test_missing_or_bad_tau_line_is_named(self, text, message):
        with pytest.raises(ConfigError) as err:
            read_samples_csv(text.encode())
        assert str(err.value) == message

    def test_rows_out_of_time_order_are_an_ordering_error(self):
        text = "# tracker_tau_s=0.005\nid,t_us,u,v\n0,6000,1.0,2.0\n\n0,5000,1.0,2.0\n"
        with pytest.raises(OrderingError, match="^samples line 5: t_us 5000 is before"):
            read_samples_csv(text.encode())

    def test_file_path_round_trip(self, tmp_path):
        samples = samples_array([(0, 5, 1.0, 2.0)])
        dest = tmp_path / "s.csv"
        write_samples_csv(dest, samples, 0.005)
        back, tau_s = read_samples_csv(dest)
        assert back.tobytes() == samples.tobytes() and tau_s == 0.005
