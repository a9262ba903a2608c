import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evosc import metrics
from evosc.core import SensorGeometry, make_events, window_counts
from evosc.errors import ConfigError
from evosc.metrics import (
    count_junctions,
    edge_stats,
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
    otsu_threshold_reference,
    zhang_suen_deletes,
    zhang_suen_reference,
)


class TestEntropy:
    def test_extremes_are_zero(self):
        assert shannon_entropy(np.zeros((4, 4))) == 0.0
        assert shannon_entropy(np.ones((4, 4))) == 0.0

    def test_half_occupancy_is_one_bit(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[:2] = True
        assert shannon_entropy(bits) == pytest.approx(1.0)

    def test_quarter_occupancy_frozen_value(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0] = True
        assert shannon_entropy(bits) == pytest.approx(ENTROPY_QUARTER, rel=1e-12)

    @given(st.integers(0, 64))
    def test_matches_reference_and_symmetry(self, k):
        bits = np.zeros(64, dtype=bool)
        bits[:k] = True
        h = shannon_entropy(bits.reshape(8, 8))
        assert h == pytest.approx(bernoulli_entropy_reference(k / 64), abs=1e-12)
        h_flip = shannon_entropy(~bits.reshape(8, 8))
        assert h == pytest.approx(h_flip, abs=1e-12)

    def test_empty_frame_rejected(self):
        with pytest.raises(ConfigError):
            shannon_entropy(np.zeros((0, 0)))

    def test_one_event_occupies_a_pixel(self):
        # counts 2 and 1 on a 3x3 frame: two of nine pixels are occupied
        geom = SensorGeometry(width=3, height=3)
        ev = make_events([0, 1, 2], [1, 1, 2], [1, 1, 0], [1, -1, 1])
        (counts,) = window_counts(ev, geom, 0, 10, 10)
        assert counts[1, 1] == 2 and counts[0, 2] == 1
        assert shannon_entropy(counts) == pytest.approx(bernoulli_entropy_reference(2 / 9),
                                                        abs=1e-12)


class TestVarianceAndGradient:
    def test_variance_hand_case(self):
        # counts {0,0,2,2}: mean 1, population variance 1
        assert frame_variance(np.array([[0, 0], [2, 2]])) == pytest.approx(1.0)

    def test_variance_constant_frame_is_zero(self):
        assert frame_variance(np.full((5, 5), 3)) == 0.0

    @given(hnp.arrays(np.int32, (6, 7), elements=st.integers(0, 50)))
    def test_variance_matches_numpy(self, counts):
        assert frame_variance(counts) == pytest.approx(
            float(np.var(counts.astype(float)))
        )

    def test_gradient_hand_case(self):
        # single column step of height 3: gx = 3 on one column
        counts = np.zeros((2, 3))
        counts[:, 1] = 3.0
        # gx: col0 +3, col1 -3, col2 0 (trailing); gy all 0
        want = np.mean([3.0, 3.0, 0.0, 3.0, 3.0, 0.0])
        assert gradient_magnitude(counts) == pytest.approx(want)

    def test_gradient_flat_frame_is_zero(self):
        assert gradient_magnitude(np.full((4, 4), 7)) == 0.0

    def test_empty_frames_rejected(self):
        with pytest.raises(ConfigError):
            frame_variance(np.zeros((0, 0)))
        with pytest.raises(ConfigError):
            gradient_magnitude(np.zeros((0, 0)))


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

    @given(rows=st.lists(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 2.5, 3.0]),
                                  min_size=6, max_size=6), min_size=1, max_size=5),
           scales=st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5),
           jitter=st.floats(0.0, 1.0))
    @example(rows=[[0.0] * 6, [3.0, 0, 0, 0, 0, 3.0], [1.0, 2.0, 3.0, 0, 0, 0]],
             scales=[1.0] * 5, jitter=0.0)
    @settings(max_examples=100, deadline=None)
    def test_rows_match_one_histogram_per_frame(self, rows, scales, jitter):
        """Each row's threshold is the per-frame np.histogram Otsu's, bit for
        bit: rows without support, with one value, and values on bin edges
        (multiples of vmax / 256) included."""
        values = np.array(rows) * np.array(scales[:len(rows)])[:, None]
        values[:, 0] += jitter * values.max(axis=1) / 256.0 * np.arange(len(rows))
        got = otsu_threshold(values)
        assert got.shape == (len(rows),)
        assert got.tolist() == [otsu_threshold_reference(r) for r in values]
        assert otsu_threshold(values[0]) == otsu_threshold_reference(values[0])

    def test_blurred_stack_matches_one_histogram_per_frame(self):
        rng = np.random.default_rng(4)
        stack = gaussian_blur(rng.poisson(0.3, (12, 24, 32)), 1.5)
        stack[3] = 0.0
        got = otsu_threshold(stack.reshape(12, -1))
        assert got.tolist() == [otsu_threshold_reference(f) for f in stack]


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

    @pytest.mark.parametrize("subpass", [0, 1])
    def test_table_matches_scalar_predicate(self, subpass):
        # bit k - 2 of the code is Pk
        table = metrics._ZHANG_SUEN_TABLES[subpass]
        assert table.shape == (256,)
        for code in range(256):
            ring = [(code >> i) & 1 for i in range(8)]
            assert table[code] == zhang_suen_deletes(ring, subpass), code

    @given(hnp.arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    @settings(max_examples=60)
    def test_matches_pixel_by_pixel_reference(self, bits):
        np.testing.assert_array_equal(zhang_suen_thin(bits), zhang_suen_reference(bits))

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_equals_each_frame_alone(self, seed):
        rng = np.random.default_rng(seed)
        n, h, w = 12, 14, 17
        stack = rng.random((n, h, w)) < rng.uniform(0.2, 0.9, (n, 1, 1))
        stack[0] = False
        stack[1] = True
        stack[2] = False
        stack[2, 5, :] = True                    # 1-pixel-wide line: converged at once
        stack[3] = False
        stack[3, 2:12, 3:14] = True              # a block that needs several passes
        stack[4] = False
        stack[4, :, 8] = True
        got = zhang_suen_thin(stack)
        assert got.shape == stack.shape and got.dtype == bool
        for frame, thinned in zip(stack, got):
            np.testing.assert_array_equal(thinned, zhang_suen_thin(frame))
        assert not got[0].any()
        np.testing.assert_array_equal(got[2], stack[2])


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


def test_stack_labels_never_join_frames():
    stack = np.ones((3, 4, 4), dtype=bool)
    labels, n = label_components(stack)
    assert n == 3
    assert [set(np.unique(plane)) for plane in labels] == [{1}, {2}, {3}]


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
        assert edge_stats(np.zeros((16, 16), dtype=np.int32)) == (0, 0.0, 0)

    def test_straight_line_passthrough(self):
        counts = np.zeros((9, 44), dtype=np.int32)
        counts[4, 2:42] = 1
        assert edge_stats(counts, blur_sigma=0.0) == (1, 40.0, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_stream_rows_are_each_window_alone(self, geom64, seed, monkeypatch):
        # stream_metrics runs the edge pipeline on stacks of its windows
        rng = np.random.default_rng(seed)
        n = 20_000
        ev = make_events(np.sort(rng.integers(0, 60_000, n)),
                         (32 + 12 * rng.standard_normal(n)).clip(0, 63).astype(int),
                         rng.integers(0, 64, n), rng.choice([-1, 1], n))
        rows = stream_metrics(ev, geom64, 0, 80_000, window_us=5_000, blur_sigma=1.0)
        for r in rows:
            (counts,) = window_counts(ev, geom64, r.t0, r.t0 + 5_000, 5_000)
            assert (r.num_components, r.avg_contour_length, r.junction_count) == edge_stats(
                counts, blur_sigma=1.0)
        assert rows[-1].num_components == 0  # windows past the stream are empty
        assert any(r.num_components > 0 for r in rows)
        monkeypatch.setattr(metrics, "_BLOCK_PX", 3 * 64 * 64)  # stacks of three
        assert stream_metrics(ev, geom64, 0, 80_000, window_us=5_000, blur_sigma=1.0) == rows

    def test_two_separated_blobs(self):
        counts = np.zeros((32, 32), dtype=np.int32)
        counts[6:10, 6:10] = 8
        counts[22:26, 22:26] = 8
        components, length, _ = edge_stats(counts, blur_sigma=0.8)
        assert components == 2
        assert length > 0


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
def test_stream_metrics_counts_match_whole_stream_accumulate(t_begin, t_end, window_us):
    # window_counts against each event counted into its window and pixel, and
    # stream_metrics' rows scored on those windows
    geom = SensorGeometry(width=8, height=6)
    ev = _edge_stream()
    starts = list(range(t_begin, t_end, window_us))
    want = np.zeros((len(starts), 6, 8), dtype=int)
    for t, x, y in zip(ev["t"].tolist(), ev["x"].tolist(), ev["y"].tolist()):
        i = (t - t_begin) // window_us
        if 0 <= i < len(starts):
            want[i, y, x] += 1
    counts = window_counts(ev, geom, t_begin, t_end, window_us)
    np.testing.assert_array_equal(counts, want)
    rows = stream_metrics(ev, geom, t_begin, t_end, window_us=window_us)
    assert [r.t0 for r in rows] == starts
    assert [r.variance for r in rows] == frame_variance(counts).tolist()
    if t_begin == 3_999:
        assert counts[1].sum() == 0


@given(hnp.arrays(np.intp, st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
                  elements=st.integers(0, 12)))
@example(np.zeros((1, 1, 1), dtype=np.intp))
@example(np.ones((1, 1, 7), dtype=np.intp))
@example(np.full((1, 7, 1), 3, dtype=np.intp))
@settings(max_examples=60, deadline=None)
def test_stack_functions_equal_each_frame_alone(stack):
    # with an all-zero and an all-occupied frame in every stack
    stack = np.concatenate([np.zeros_like(stack[:1]), stack, stack[:1] + 1])
    for fn in (shannon_entropy, frame_variance, gradient_magnitude):
        got = fn(stack).tolist()
        assert got == [fn(frame) for frame in stack]
        assert got == [fn(frame[None])[0] for frame in stack]
    got = list(zip(*(a.tolist() for a in edge_stats(stack, blur_sigma=1.0))))
    assert got == [edge_stats(frame, blur_sigma=1.0) for frame in stack]
    assert got == [tuple(a[0] for a in edge_stats(frame[None], blur_sigma=1.0))
                   for frame in stack]


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


def test_import_loads_no_scipy():
    """scipy is imported where the edge path uses it, and the block walker's
    worker threads are made at its first call that splits, so a fresh
    `import evosc` loads no scipy module (scipy.ndimage included), no
    concurrent.futures, and starts no thread."""
    import evosc

    env = dict(os.environ, PYTHONPATH=str(Path(evosc.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, threading, evosc; print(sorted(m for m in sys.modules if m.split('.')[0] "
         "in ('scipy', 'concurrent')), threading.active_count())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] 1"
