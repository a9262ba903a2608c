import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evosc import metrics
from evosc.core import AccumFrame, BinaryFrame, SensorGeometry, accumulate, make_events
from evosc.errors import ConfigError
from evosc.metrics import (
    EdgeReport,
    count_junctions,
    edge_pipeline,
    frame_variance,
    gaussian_blur,
    gradient_magnitude,
    label_components,
    otsu_threshold,
    shannon_entropy,
    stream_metrics,
    write_metrics_csv,
    zhang_suen_thin,
)

from oracles import (
    ENTROPY_QUARTER,
    bernoulli_entropy_reference,
    brute_force_junctions,
    flood_fill_components,
    gaussian_kernel_reference,
)


def bin_frame(bits):
    return BinaryFrame(bits=np.asarray(bits, dtype=bool), t0=0, t1=1)


def acc_frame(counts):
    return AccumFrame(counts=np.asarray(counts), t0=0, t1=1)


class TestEntropy:
    def test_extremes_are_zero(self):
        assert shannon_entropy(bin_frame(np.zeros((4, 4)))) == 0.0
        assert shannon_entropy(bin_frame(np.ones((4, 4)))) == 0.0

    def test_half_occupancy_is_one_bit(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[:2] = True
        assert shannon_entropy(bin_frame(bits)) == pytest.approx(1.0)

    def test_quarter_occupancy_frozen_value(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0] = True
        assert shannon_entropy(bin_frame(bits)) == pytest.approx(ENTROPY_QUARTER,
                                                                 rel=1e-12)

    @given(st.integers(0, 64))
    def test_matches_reference_and_symmetry(self, k):
        bits = np.zeros(64, dtype=bool)
        bits[:k] = True
        h = shannon_entropy(bin_frame(bits.reshape(8, 8)))
        assert h == pytest.approx(bernoulli_entropy_reference(k / 64), abs=1e-12)
        h_flip = shannon_entropy(bin_frame(~bits.reshape(8, 8)))
        assert h == pytest.approx(h_flip, abs=1e-12)

    def test_empty_frame_rejected(self):
        with pytest.raises(ConfigError):
            shannon_entropy(bin_frame(np.zeros((0, 0))))


class TestVarianceAndGradient:
    def test_variance_hand_case(self):
        # counts {0,0,2,2}: mean 1, population variance 1
        assert frame_variance(acc_frame([[0, 0], [2, 2]])) == pytest.approx(1.0)

    def test_variance_constant_frame_is_zero(self):
        assert frame_variance(acc_frame(np.full((5, 5), 3))) == 0.0

    @given(hnp.arrays(np.int32, (6, 7), elements=st.integers(0, 50)))
    def test_variance_matches_numpy(self, counts):
        assert frame_variance(acc_frame(counts)) == pytest.approx(
            float(np.var(counts.astype(float)))
        )

    def test_gradient_hand_case(self):
        # single column step of height 3: gx = 3 on one column
        counts = np.zeros((2, 3))
        counts[:, 1] = 3.0
        # gx: col0 +3, col1 -3, col2 0 (trailing); gy all 0
        want = np.mean([3.0, 3.0, 0.0, 3.0, 3.0, 0.0])
        assert gradient_magnitude(acc_frame(counts)) == pytest.approx(want)

    def test_gradient_flat_frame_is_zero(self):
        assert gradient_magnitude(acc_frame(np.full((4, 4), 7))) == 0.0

    def test_empty_frames_rejected(self):
        with pytest.raises(ConfigError):
            frame_variance(acc_frame(np.zeros((0, 0))))
        with pytest.raises(ConfigError):
            gradient_magnitude(acc_frame(np.zeros((0, 0))))


class TestBlur:
    def test_kernel_matches_reference_impulse_response(self):
        sigma = 1.5
        radius = math.ceil(3.0 * sigma)
        img = np.zeros((21, 21))
        img[10, 10] = 1.0
        out = gaussian_blur(img, sigma)
        k = gaussian_kernel_reference(sigma)
        assert k.shape[0] == 2 * radius + 1
        window = out[10 - radius:10 + radius + 1, 10 - radius:10 + radius + 1]
        np.testing.assert_allclose(window, np.outer(k, k), atol=1e-12)

    def test_preserves_total_mass_interior(self):
        rng = np.random.default_rng(0)
        img = np.zeros((40, 40))
        img[15:25, 15:25] = rng.uniform(0, 5, (10, 10))
        out = gaussian_blur(img, 2.0)
        assert out.sum() == pytest.approx(img.sum(), rel=1e-9)

    def test_zero_sigma_is_identity(self):
        img = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(gaussian_blur(img, 0.0), img)


class TestOtsu:
    def test_bimodal_split(self):
        values = np.concatenate([np.full(100, 1.0), np.full(100, 10.0)])
        thr = otsu_threshold(values)
        assert 1.0 < thr < 10.0

    def test_ignores_zero_background(self):
        values = np.concatenate([np.zeros(10_000), np.full(50, 2.0), np.full(50, 8.0)])
        thr = otsu_threshold(values)
        assert 2.0 < thr < 8.0

    def test_empty_support(self):
        assert otsu_threshold(np.zeros(16)) == 0.0

    def test_constant_support(self):
        assert otsu_threshold(np.array([0.0, 4.0, 4.0])) == 2.0


class TestThinning:
    def test_idempotent(self):
        rng = np.random.default_rng(4)
        bits = rng.random((24, 24)) > 0.6
        once = zhang_suen_thin(bits)
        twice = zhang_suen_thin(once)
        np.testing.assert_array_equal(once, twice)

    def test_thick_bar_reduces_to_thin_line(self):
        bits = np.zeros((12, 20), dtype=bool)
        bits[4:8, 2:18] = True
        skel = zhang_suen_thin(bits)
        # every column of the original bar keeps at most one skeleton pixel
        assert skel.sum(axis=0).max() == 1
        assert skel.any()

    def test_preserves_connectivity(self):
        bits = np.zeros((16, 16), dtype=bool)
        bits[3:13, 3:13] = True
        skel = zhang_suen_thin(bits)
        _, n = label_components(skel)
        assert n == 1

    def test_empty_input(self):
        assert not zhang_suen_thin(np.zeros((5, 5), dtype=bool)).any()


class TestComponents:
    @given(hnp.arrays(bool, (12, 12)))
    @settings(max_examples=60)
    def test_count_matches_flood_fill(self, bits):
        _, n = label_components(bits)
        assert n == flood_fill_components(bits.astype(np.uint8))

    def test_diagonal_touch_is_one_component(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0, 0] = bits[1, 1] = True
        _, n = label_components(bits)
        assert n == 1

    def test_labels_cover_pixels(self):
        bits = np.zeros((6, 6), dtype=bool)
        bits[0, :3] = True
        bits[4:, 4:] = True
        labels, n = label_components(bits)
        assert n == 2
        assert set(np.unique(labels[bits])) == {1, 2}
        assert np.all(labels[~bits] == 0)


class TestJunctions:
    def test_straight_line_has_none(self):
        skel = np.zeros((5, 9), dtype=bool)
        skel[2, 1:8] = True
        assert count_junctions(skel) == 0

    def test_plus_shape_matches_enumeration(self):
        # arm pixels touching the crossing also exceed two neighbours, so the
        # count covers the centre region, not just one pixel
        skel = np.zeros((23, 23), dtype=bool)
        skel[11, 1:22] = True
        skel[1:22, 11] = True
        got = count_junctions(skel)
        assert got == brute_force_junctions(skel)
        assert got == 5

    @given(hnp.arrays(bool, (10, 10)))
    @settings(max_examples=60)
    def test_matches_enumeration(self, skel):
        assert count_junctions(skel) == brute_force_junctions(skel)


class TestEdgePipeline:
    def test_empty_frame_reports_zeros(self):
        report = edge_pipeline(acc_frame(np.zeros((16, 16), dtype=np.int32)))
        assert report == EdgeReport(0, 0.0, 0, 0, 1)

    def test_straight_line_passthrough(self):
        counts = np.zeros((9, 44), dtype=np.int32)
        counts[4, 2:42] = 1
        report = edge_pipeline(acc_frame(counts), blur_sigma=0.0)
        assert report.num_components == 1
        assert report.avg_contour_length == 40.0
        assert report.junction_count == 0

    def test_two_separated_blobs(self):
        counts = np.zeros((32, 32), dtype=np.int32)
        counts[6:10, 6:10] = 8
        counts[22:26, 22:26] = 8
        report = edge_pipeline(acc_frame(counts), blur_sigma=0.8)
        assert report.num_components == 2
        assert report.avg_contour_length > 0


def test_stream_metrics_windows_and_fields(geom64):
    rng = np.random.default_rng(8)
    n = 3000
    ev = make_events(np.sort(rng.integers(0, 30_000, n)),
                     rng.integers(0, 64, n), rng.integers(0, 64, n),
                     rng.choice([-1, 1], n))
    rows = stream_metrics(ev, geom64, 0, 30_000, window_us=10_000)
    assert [r.t0 for r in rows] == [0, 10_000, 20_000]
    for r in rows:
        assert 0.0 <= r.entropy <= 1.0
        assert r.variance >= 0.0
        assert r.grad_mag >= 0.0


def _edge_stream():
    """Events on 1 ms window edges, one tick either side, and none in [4, 6) ms."""
    rng = np.random.default_rng(3)
    t = np.concatenate([np.arange(0, 10_001, 500), np.arange(999, 10_000, 1000),
                        np.arange(1001, 10_000, 1000), rng.integers(0, 10_000, 300)])
    t = np.sort(t[(t < 4000) | (t >= 6000)])
    n = t.shape[0]
    return make_events(t, rng.integers(0, 8, n), rng.integers(0, 6, n), rng.choice([-1, 1], n))


@pytest.mark.parametrize("t_begin,t_end,window_us", [
    (0, 10_000, 1000),   # windows start on events
    (500, 7_600, 1000),  # begins after the first event; t_end off the window grid
    (0, 10_001, 500),    # the last window starts on the last event
    (3_999, 6_001, 1000),  # the middle window is empty
    (20_000, 20_001, 1000),  # past the stream
])
def test_stream_metrics_counts_match_whole_stream_accumulate(monkeypatch, t_begin, t_end,
                                                              window_us):
    geom = SensorGeometry(width=8, height=6)
    ev = _edge_stream()
    seen = []

    def recording(events, window, geometry):
        frame = accumulate(events, window, geometry)
        seen.append(frame)
        return frame

    monkeypatch.setattr(metrics, "accumulate", recording)
    rows = stream_metrics(ev, geom, t_begin, t_end, window_us=window_us)
    starts = list(range(t_begin, t_end, window_us))
    assert [r.t0 for r in rows] == starts
    assert [(f.t0, f.t1) for f in seen] == [(t0, t0 + window_us) for t0 in starts]
    for frame in seen:
        whole = accumulate(ev, (frame.t0, frame.t1), geom)
        assert np.array_equal(frame.counts, whole.counts)
    if t_begin == 3_999:
        assert seen[1].counts.sum() == 0


def test_stream_metrics_without_edges_skips_structural(geom64):
    ev = make_events([5], [1], [1], [1])
    rows = stream_metrics(ev, geom64, 0, 10_000, with_edges=False)
    assert rows[0].num_components == 0
    assert rows[0].avg_contour_length == 0.0


def test_write_metrics_csv_format():
    rows = [
        type("R", (), dict(t0=0, entropy=0.5, variance=1.25, grad_mag=0.75,
                           num_components=3, avg_contour_length=12.5,
                           junction_count=2))(),
    ]
    buf = io.BytesIO()
    write_metrics_csv(buf, rows)
    lines = buf.getvalue().decode().splitlines()
    assert lines[0] == "t0_us,entropy,variance,grad_mag,num_components,avg_len,junctions"
    assert lines[1] == "0,0.5,1.25,0.75,3,12.5,2"
