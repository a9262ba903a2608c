import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import evosc
from evosc import compensate, core
from evosc.apps import estimate_motion, estimate_scene_frequency, relative_depth, run_pipeline
from evosc.cli import main
from evosc.compensate import compensate_stream, states_from_init, write_compensated_csv
from evosc.core import make_events
from evosc.errors import ConfigError, EvoscError
from evosc.freqest import SinusoidInit
from evosc.io import read_events, write_events, write_json
from evosc.sim import (
    Disks,
    MotorParams,
    OscillatorConfig,
    PhysicalOscillator,
    WorldMotion,
    camera_offset,
    motor_speed,
    simulate_moving_target,
)
from evosc.core import SensorGeometry
from evosc.track import PatchSpec, read_samples_csv

from oracles import MIN_DETECT_D_REF

CONFIG = {
    "geometry": {"width": 64, "height": 64},
    "scene": {
        "pattern": {"type": "disks", "pitch_px": 32.0, "offset_px": 16.0},
        "contrast": 2.0,
        "duration_s": 0.6,
        "oscillation": {"amp_x_px": 1.5, "amp_y_px": 1.5,
                        "omega_rad_s": 100.0 * math.pi,
                        "phi_x": 0.0, "phi_y": -math.pi / 2.0},
    },
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Simulated events plus the tracker/estimate artifacts, built once."""
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["simulate", "--config", str(cfg), "--seed", "5",
                 "--out", str(d)]) == 0
    assert main(["track", "--events", str(d / "events.evt"),
                 "--patch", "16", "16", "10",
                 "--out", str(d / "samples.csv")]) == 0
    assert main(["estimate", "--samples", str(d / "samples.csv"),
                 "--out", str(d / "states.json")]) == 0
    return d


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "evosc" in capsys.readouterr().out


def test_simulate_artifacts(workdir):
    events, geometry = read_events(workdir / "events.evt")
    assert events.shape[0] > 10_000
    assert (geometry.width, geometry.height) == (64, 64)
    truth = json.loads((workdir / "truth.json").read_text())
    assert truth["seed"] == 5
    assert truth["num_events"] == events.shape[0]
    assert truth["planes"][0]["amp_x_px"] == 1.5


def test_track_samples(workdir):
    samples, tau_s = read_samples_csv(workdir / "samples.csv")
    assert tau_s == 0.005
    assert samples.shape[0] > 300
    assert np.all(np.abs(samples["u"] - 16.0) < 11.0)


def test_track_drops_the_warmup_like_the_library(workdir):
    events, _ = read_events(workdir / "events.evt")
    patch = PatchSpec(cx=16.0, cy=16.0, half_size=10)
    first_in_patch = int(events["t"][patch.contains(events["x"], events["y"])][0])
    samples, _ = read_samples_csv(workdir / "samples.csv")
    assert samples["t"][0] >= first_in_patch + 3 * 0.005 * 1e6
    np.testing.assert_array_equal(samples["t"], estimate_motion(events, patch).samples["t"])


def test_estimate_states(workdir):
    states = json.loads((workdir / "states.json").read_text())
    assert states["omega_rad_s"] == pytest.approx(100.0 * math.pi, rel=2e-3)
    assert states["frequency_hz"] == pytest.approx(50.0, rel=2e-3)
    for axis in ("u", "v"):
        assert set(states[axis]) >= {"omega", "a", "b", "c", "residual_rms",
                                     "peaks"}
        assert states[axis]["peaks"]


def test_estimate_to_stdout(workdir, capsys):
    assert main(["estimate", "--samples", str(workdir / "samples.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["omega_rad_s"] == pytest.approx(100.0 * math.pi, rel=2e-3)


def test_compensate_binary_and_csv(workdir, capsys):
    out_evt = workdir / "comp.evt"
    assert main(["compensate", "--events", str(workdir / "events.evt"),
                 "--states", str(workdir / "states.json"),
                 "--out", str(out_evt)]) == 0
    msg = capsys.readouterr().out
    assert "compensated" in msg
    comp, _ = read_events(out_evt)
    raw, _ = read_events(workdir / "events.evt")
    assert comp.shape[0] == raw.shape[0]
    # compensation concentrates activity: unique active pixels shrink
    active = lambda ev: np.unique(ev[["x", "y"]]).size
    assert active(comp) < 0.7 * active(raw)

    out_csv = workdir / "comp.csv"
    assert main(["compensate", "--events", str(workdir / "events.evt"),
                 "--states", str(workdir / "states.json"), "--csv",
                 "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "t_us,x,y,p"


# fixed states with an orbit of about 2.5 px, so events near the edges leave the sensor
STATES = {"t_ref_us": 1000, "tracker_tau_s": 0.005,
          "u": {"omega": 100.0 * math.pi, "a": 1.5, "b": -2.0, "c": 0.0},
          "v": {"omega": 100.0 * math.pi, "a": -0.5, "b": 2.4, "c": 0.0}}


def write_stream(path, n, seed=0, geometry=SensorGeometry(64, 64)):
    """n events in runs of 9 equal timestamps, anywhere on the sensor."""
    rng = np.random.default_rng(seed)
    events = make_events((np.arange(n) // 9) * 250, rng.integers(0, geometry.width, n),
                         rng.integers(0, geometry.height, n), rng.choice([-1, 1], n))
    write_events(path, events, geometry)
    return events


def whole_stream_outputs(events_path):
    """(.evt bytes, CSV bytes, events out of bounds) from read_events,
    compensate_stream and the library writers over the whole stream."""
    events, geometry = read_events(events_path)
    states = states_from_init(SinusoidInit(**STATES["u"], residual_rms=0.0),
                              SinusoidInit(**STATES["v"], residual_rms=0.0), STATES["t_ref_us"])
    comp = compensate_stream(events, *states, geometry, lag_tau_s=STATES["tracker_tau_s"])
    evt, csv = io.BytesIO(), io.BytesIO()
    write_events(evt, comp.to_events(), geometry)
    write_compensated_csv(csv, comp)
    return evt.getvalue(), csv.getvalue(), int(np.count_nonzero(comp.out_of_bounds))


def compensate_cli(events, out, *flags):
    return main(["compensate", "--events", str(events), "--states", str(out.parent / "states.json"),
                 *flags, "--out", str(out)])


@pytest.mark.parametrize("n", [0, 5, 100])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_compensate_pieces_equal_the_whole_stream(tmp_path, monkeypatch, capsys, cpus, n):
    """evosc compensate, walking the file in pieces of one 7-record block per
    CPU, writes the bytes of the whole-stream path for .evt and --csv, with
    runs of equal timestamps across piece boundaries; it reports the events
    whose .evt records are clamped, and says the CSV's are out of bounds."""
    monkeypatch.setattr(core, "_BLOCK", 7)
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    (tmp_path / "states.json").write_text(json.dumps(STATES))
    events = write_stream(tmp_path / "in.evt", n)
    if n > 7 * cpus:
        assert events["t"][7 * cpus - 1] == events["t"][7 * cpus]
    evt, csv, n_oob = whole_stream_outputs(tmp_path / "in.evt")
    assert n_oob > 0 or n < 100
    for out, flags, want, flagged in ((tmp_path / "out.evt", (), evt, "clamped"),
                                      (tmp_path / "out.csv", ("--csv",), csv, "out of bounds")):
        assert compensate_cli(tmp_path / "in.evt", out, *flags) == 0
        assert out.read_bytes() == want
        assert capsys.readouterr().out == f"compensated {n} events ({n_oob} {flagged}) to {out}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "in.evt", "out.csv", "out.evt", "states.json"]


def test_compensate_rounds_each_evt_piece_once(tmp_path, monkeypatch, capsys):
    """The .evt path counts the clamped records in the pass that packs them:
    each block's coordinates are rounded once per axis, and the bytes and
    the printed count are those of the whole-stream path."""
    monkeypatch.setattr(core, "_BLOCK", 7)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    (tmp_path / "states.json").write_text(json.dumps(STATES))
    write_stream(tmp_path / "in.evt", 100)
    evt, _, n_oob = whole_stream_outputs(tmp_path / "in.evt")
    calls = []
    rounded = compensate._rounded
    monkeypatch.setattr(compensate, "_rounded", lambda *a: calls.append(1) or rounded(*a))
    assert compensate_cli(tmp_path / "in.evt", tmp_path / "out.evt") == 0
    assert len(calls) == 2 * -(-100 // 7)
    assert (tmp_path / "out.evt").read_bytes() == evt
    out = tmp_path / "out.evt"
    assert capsys.readouterr().out == f"compensated 100 events ({n_oob} clamped) to {out}\n"


AXIS = {"omega": 100.0 * math.pi, "a": 1.5, "b": -2.0, "c": 0.0}


@pytest.mark.parametrize("states, message", [
    ([], "a states file must be an object, got []"),
    ({"u": {**AXIS, "omega": None}, "v": AXIS}, "u.omega: expected float, got None"),
    ({"u": AXIS, "v": {**AXIS, "c": "x"}}, "v.c: expected float, got 'x'"),
    ({"u": AXIS, "v": {k: v for k, v in AXIS.items() if k != "b"}}, "v: missing key 'b'"),
    ({"u": AXIS}, "states: missing key 'v'"),
    ({"t_ref_us": [1], "u": AXIS, "v": AXIS}, "t_ref_us: expected int, got [1]"),
    ({"t_ref_us": "abc", "u": AXIS, "v": AXIS}, "t_ref_us: expected int, got 'abc'"),
    ({"tracker_tau_s": "x", "u": AXIS, "v": AXIS}, "tracker_tau_s: expected float, got 'x'"),
    ({"tracker_tau_s": -0.005, "u": AXIS, "v": AXIS},
     "tracker_tau_s: expected a non-negative finite number, got -0.005"),
])
def test_malformed_states_file_names_the_key(tmp_path, capsys, states, message):
    """A states file is read strictly: each fault exits 1 with a message
    naming its key, and writes no output."""
    (tmp_path / "states.json").write_text(json.dumps(states))
    write_stream(tmp_path / "in.evt", 20)
    assert compensate_cli(tmp_path / "in.evt", tmp_path / "out.evt") == 1
    assert capsys.readouterr().err == f"[compensate] {message}\n"
    assert not (tmp_path / "out.evt").exists()


def feed_fifo(fifo, payload):
    """A started thread writing payload into the named pipe fifo."""
    def feed():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


def test_compensate_reads_and_writes_pipes(tmp_path, monkeypatch, capsys):
    """A named pipe is read as a stream and written in place."""
    monkeypatch.setattr(core, "_BLOCK", 7)
    (tmp_path / "states.json").write_text(json.dumps(STATES))
    write_stream(tmp_path / "in.evt", 100)
    evt, _, _ = whole_stream_outputs(tmp_path / "in.evt")
    for name in ("in.fifo", "out.fifo"):
        os.mkfifo(tmp_path / name)
    writer = feed_fifo(tmp_path / "in.fifo", (tmp_path / "in.evt").read_bytes())
    got = []
    reader = threading.Thread(target=lambda: got.append((tmp_path / "out.fifo").read_bytes()),
                              daemon=True)
    reader.start()
    assert compensate_cli(tmp_path / "in.fifo", tmp_path / "out.fifo") == 0
    for thread in (writer, reader):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert got == [evt]


def bad_stream(fault, n=60):
    """The .evt bytes of n events with one fault after the first pieces."""
    t, x, p = np.arange(n) * 10, np.arange(n) % 64, np.ones(n, dtype=int)
    if fault in ("order", "polarity-then-order"):
        t[45] = 5
    if fault == "order-across-pieces":
        t[42] = t[41] - 1  # the first record of the fourth piece
    if fault in ("polarity", "polarity-then-order"):
        p[20] = 3
    if fault == "bounds":
        x[40] = 64
    events = make_events(t, x, np.zeros(n), p, validate=False)
    count = n + 1 if fault == "short" else n
    return struct.pack("<4sHHHQ6s", b"EVST", 1, 64, 64, count, b"\x00" * 6) + events.tobytes()


@pytest.mark.parametrize("fault", ["order", "order-across-pieces", "polarity", "bounds",
                                   "polarity-then-order", "short"])
@pytest.mark.parametrize("source", ["file", "fifo"])
def test_a_bad_record_in_a_later_piece_fails_like_read_events(tmp_path, monkeypatch, capsys,
                                                               fault, source):
    """A fault past the first pieces (and a record section cut short, which
    only a pipe finds at its end) gives read_events' error for the file, and
    leaves no output file behind."""
    monkeypatch.setattr(core, "_BLOCK", 7)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    (tmp_path / "states.json").write_text(json.dumps(STATES))
    payload = bad_stream(fault)
    with pytest.raises(EvoscError) as err:
        read_events(payload)
    events = tmp_path / "in.evt"
    if source == "fifo":
        os.mkfifo(events)
    else:
        events.write_bytes(payload)
    for out, flags in ((tmp_path / "out.evt", ()), (tmp_path / "out.csv", ("--csv",))):
        writer = feed_fifo(events, payload) if source == "fifo" else None
        assert compensate_cli(events, out, *flags) == 1
        assert capsys.readouterr().err == f"[compensate] {err.value}\n"
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["in.evt", "states.json"]


# The child's peak resident set. Linux carries the parent's resident set
# into a child's ru_maxrss at exec, so the peak is read from VmHWM, which
# counts from the exec.
CHILD_PEAK = """
import sys
from evosc.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_compensate_runs_in_bounded_memory(tmp_path):
    """The peak resident set of evosc compensate, each run in a fresh
    process, grows by less than 20 MB from 1e6 to 4e6 events (52 MB of
    records), for .evt and for CSV output; the whole-stream path grows by
    about 180 MB."""
    (tmp_path / "states.json").write_text(json.dumps(STATES))
    env = {**os.environ, "PYTHONPATH": str(Path(evosc.__file__).parents[1])}
    peaks = {}
    for n in (1_000_000, 4_000_000):
        write_stream(tmp_path / "in.evt", n, geometry=SensorGeometry(1280, 720))
        for flags in ((), ("--csv",)):
            out = subprocess.run(
                [sys.executable, "-c", CHILD_PEAK, "compensate", "--events",
                 str(tmp_path / "in.evt"), "--states", str(tmp_path / "states.json"), *flags,
                 "--out", str(tmp_path / "out")],
                env=env, capture_output=True, text=True, timeout=300, check=True)
            peaks[n, flags] = int(out.stdout.split()[-1]) / 1024.0  # KiB on Linux
    for flags in ((), ("--csv",)):
        assert peaks[4_000_000, flags] - peaks[1_000_000, flags] < 20.0, peaks


def test_metrics_csv(workdir):
    out = workdir / "metrics.csv"
    assert main(["metrics", "--events", str(workdir / "events.evt"),
                 "--window-ms", "20", "--no-edges", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t0_us,entropy,variance")
    assert len(lines) == 1 + 30  # 600 ms / 20 ms


def test_metrics_window_ms_rounds_to_the_nearest_us(workdir):
    out = workdir / "metrics_1005us.csv"
    assert main(["metrics", "--events", str(workdir / "events.evt"),
                 "--window-ms", "1.005", "--no-edges", "--out", str(out)]) == 0
    t0 = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert len(t0) > 1 and set(np.diff(t0).tolist()) == {1005}

def test_freq_report(workdir, capsys):
    assert main(["freq", "--events", str(workdir / "events.evt"),
                 "--patch", "16", "16", "10", "--trials", "2",
                 "--truth-hz", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["estimate_hz"] == pytest.approx(50.0, abs=0.5)
    assert len(report["per_trial_hz"]) == 2
    assert report["abs_error_hz"] < 0.5


@pytest.mark.parametrize("argv", [
    ["freq", "--patch", "16", "16", "10", "--truth-hz", "nan"],
    ["freq", "--patch", "16", "16", "10", "--truth-hz", "-10"],
    ["depth", "--patch1", "16", "16", "10", "--patch2", "48", "48", "10",
     "--truth-ratio", "nan"],
], ids=["freq_nan", "freq_negative", "depth_nan"])
def test_truth_that_is_not_positive_and_finite_is_reported(workdir, capsys, argv):
    """A NaN truth would print `NaN`, which is not JSON, and a negative one
    an error against a frequency no scene has: each exits 1 with no report."""
    assert main([*argv, "--events", str(workdir / "events.evt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be positive and finite" in captured.err


def test_depth_report(workdir, capsys):
    assert main(["depth", "--events", str(workdir / "events.evt"),
                 "--patch1", "16", "16", "10", "--patch2", "48", "48", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ratio"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("argv, library", [
    (["freq", "--patch", "16", "16", "10", "--trials", "2", "--truth-hz", "50"],
     lambda events: estimate_scene_frequency(
         events, PatchSpec(cx=16.0, cy=16.0, half_size=10), trials=2, tau_s=0.004,
         emit_period_s=0.002, truth_hz=50.0)),
    (["depth", "--patch1", "16", "16", "10", "--patch2", "48", "48", "10"],
     lambda events: relative_depth(
         events, PatchSpec(cx=16.0, cy=16.0, half_size=10),
         PatchSpec(cx=48.0, cy=48.0, half_size=10), tau_s=0.004, emit_period_s=0.002)),
])
def test_freq_and_depth_print_the_library_report(workdir, capsys, argv, library):
    """The tracker flags reach the library call: the command prints its report."""
    assert main([*argv, "--events", str(workdir / "events.evt"),
                 "--tau", "0.004", "--emit-period", "0.002"]) == 0
    events, _ = read_events(workdir / "events.evt")
    want = io.StringIO()
    write_json(want, asdict(library(events)))
    assert capsys.readouterr().out == want.getvalue()


def test_mindist_frozen_value(capsys):
    assert main(["mindist", "--fov-deg", "39", "--resolution", "720",
                 "--radius-m", "0.001"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_detectable_distance_m"] == pytest.approx(MIN_DETECT_D_REF,
                                                                 abs=1e-6)


def test_pipeline_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **CONFIG,
        "scene": {**CONFIG["scene"], "duration_s": 0.3,
                  "pattern": {"type": "disks", "pitch_px": 1000.0,
                              "offset_px": 32.0}},
        "tracker": {"patches": [{"cx": 32.0, "cy": 32.0, "half_size": 14}]},
        "metrics": {"edges": False},
    }))
    run_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--seed", "2",
                 "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert "report" in manifest["artifacts"]


def test_missing_file_exits_nonzero(tmp_path, capsys):
    assert main(["track", "--events", str(tmp_path / "nope.evt"),
                 "--patch", "0", "0", "5", "--out", str(tmp_path / "s.csv")]) == 1
    assert "[track]" in capsys.readouterr().err


def test_domain_error_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["estimate", "--samples", str(bad)]) == 1
    assert "[estimate]" in capsys.readouterr().err


@pytest.mark.parametrize("states", ['{"v": {}}', "{not json"])
def test_bad_states_file_is_reported(workdir, tmp_path, capsys, states):
    bad = tmp_path / "x.json"
    bad.write_text(states)
    assert main(["compensate", "--events", str(workdir / "events.evt"),
                 "--states", str(bad), "--out", str(tmp_path / "c.evt")]) == 1
    assert capsys.readouterr().err.startswith("[compensate] ")


def test_estimate_of_two_samples_exits_with_an_error(tmp_path, capsys):
    # two samples whose spectrum has a peak, so only the fit can refuse them
    two = tmp_path / "two.csv"
    two.write_text("# tracker_tau_s=0.005\nid,t_us,u,v\n"
                   "0,15106,14.529524,15.250879\n0,23108,17.344854,16.003243\n")
    out = tmp_path / "states.json"
    assert main(["estimate", "--samples", str(two), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "[estimate] need at least 3 samples, got 2\n"
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("0,-5,16.0,16.0\n", "samples line 3: expected an id in [0, 2**32), a t_us in [0, 2**64) "
                         "and finite u and v, got '0,-5,16.0,16.0'"),
    ("0,5000,nan,16.0\n", "samples line 3: expected an id in [0, 2**32), a t_us in [0, 2**64) "
                          "and finite u and v, got '0,5000,nan,16.0'"),
    ("0,5000,16.0,16.0\n0,6000,16.0\n",
     "samples line 4: not enough values to unpack (expected 4, got 3)"),
    ("0,7000,16.0,16.0\n0,6000,16.0,16.0\n0,5000,16.0,16.0\n",
     "samples line 4: t_us 6000 is before 7000"),
], ids=["negative_time", "nan_centroid", "three_fields", "time_order"])
def test_malformed_samples_row_names_its_line(tmp_path, capsys, rows, message):
    """A samples row that the tracker cannot have written (a negative time, a
    NaN centroid, three fields, rows out of time order) exits 1 with an
    error naming its line, and writes no estimate."""
    bad = tmp_path / "samples.csv"
    bad.write_text("# tracker_tau_s=0.005\nid,t_us,u,v\n" + rows)
    out = tmp_path / "estimate.json"
    assert main(["estimate", "--samples", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"[estimate] {message}\n"
    assert not out.exists()


def test_estimate_takes_the_tau_the_samples_were_tracked_with(tmp_path, monkeypatch):
    """A tracker tau other than the default reaches compensation through the
    samples file: on the demo disk scene (1 s, seed 0), samples tracked with
    tau 0.002 give an estimate with that tau, and compensation leaves at most
    0.2 px RMS against the true offset over the second half. When estimate
    took its tau from a flag that defaulted to 0.005, this was 2.31 px.
    estimate has no --tau flag."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    from run_demo import DEMO_CONFIG

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(DEMO_CONFIG))
    assert main(["simulate", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["track", "--events", str(tmp_path / "events.evt"), "--patch", "32", "32", "14",
                 "--tau", "0.002", "--out", str(tmp_path / "samples.csv")]) == 0
    assert main(["estimate", "--samples", str(tmp_path / "samples.csv"),
                 "--out", str(tmp_path / "estimate.json")]) == 0
    assert json.loads((tmp_path / "estimate.json").read_text())["tracker_tau_s"] == 0.002
    assert main(["compensate", "--events", str(tmp_path / "events.evt"), "--states",
                 str(tmp_path / "estimate.json"), "--csv", "--out", str(tmp_path / "c.csv")]) == 0
    events, _ = read_events(tmp_path / "events.evt")
    comp = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)
    osc = DEMO_CONFIG["scene"]["oscillation"]
    du, dv = camera_offset(comp[:, 0] * 1e-6, OscillatorConfig(
        osc["amp_x_px"], osc["amp_y_px"], osc["omega_rad_s"], osc["phi_x"], osc["phi_y"]))
    residual = np.hypot(comp[:, 1] - (events["x"] - du), comp[:, 2] - (events["y"] - dv))
    second_half = comp[:, 0] >= 0.5e6
    assert np.sqrt(np.mean(residual[second_half] ** 2)) <= 0.2
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--samples", str(tmp_path / "samples.csv"), "--tau", "0.005"])
    assert exc.value.code == 2


def test_states_axis_that_is_not_an_object_is_reported(workdir, tmp_path, capsys):
    states = json.loads((workdir / "states.json").read_text())
    bad = tmp_path / "x.json"
    bad.write_text(json.dumps({**states, "u": None}))
    assert main(["compensate", "--events", str(workdir / "events.evt"),
                 "--states", str(bad), "--out", str(tmp_path / "c.evt")]) == 1
    assert capsys.readouterr().err == "[compensate] a states axis must be an object, got null\n"
    assert not (tmp_path / "c.evt").exists()


PHYSICAL = {"voltage": 2.0, "mass_kg": 0.1, "eccentric_mass_kg": 0.01,
            "eccentricity_m": 0.005, "damping": 2.0, "stiffness": 4000.0}


@pytest.mark.parametrize("config, message", [
    ({"scene": {"pattern": {"type": "disks", "bogus": 1}}},
     "scene.pattern: unknown key 'bogus'"),
    ({"scene": {"pattern": {"type": "triangle"}}}, "scene.pattern: missing key 'center_x'"),
    ({"scene": {"depth_planes": [{}, {"pattern": {"type": "stripes", "pitch": 3}}]}},
     "scene.depth_planes[1].pattern: unknown key 'pitch'"),
    ({"scene": {"physical": {**PHYSICAL, "motor": {"kphi": 1}}}},
     "scene.physical.motor: unknown key 'kphi'"),
    ({"sed": 1}, "config: unknown key 'sed'"),
    ({"compensate": {}}, "config: unknown key 'compensate'"),
    ({"geometry": {"width": 16, "heigth": 16}}, "geometry: unknown key 'heigth'"),
    ({"geometry": {"width": 32}}, "geometry: missing key 'height'"),
    ({"scene": {"contrst": 2}}, "scene: unknown key 'contrst'"),
    ({"scene": {"geometry": {"width": 16, "height": 16}}}, "scene: unknown key 'geometry'"),
    ({"scene": {"depth_planes": [{"dpth_m": 2.0}]}},
     "scene.depth_planes[0]: unknown key 'dpth_m'"),
    ({"scene": {"oscillation": {"amp_x": 1.0}}}, "scene.oscillation: unknown key 'amp_x'"),
    ({"scene": {"physical": {**PHYSICAL, "geometry": {"width": 16, "height": 16}}}},
     "scene.physical: unknown key 'geometry'"),
    ({"scene": {"moving_target": {"freq_hz": 10.0, "radius": 3.0}}},
     "scene.moving_target: unknown key 'radius'"),
    ({"scene": {"oscillation": {}, "moving_target": {"freq_hz": 10.0, "radius_px": 3.0}}},
     "scene: give one of oscillation, physical and moving_target"),
    ({"tracker": {"tau": 0.5}}, "tracker: unknown key 'tau'"),
    ({"tracker": {"patches": [{"cx": 8.0, "cy": 8.0, "half": 4}]}},
     "tracker.patches[0]: unknown key 'half'"),
    ({"tracker": {"tau_s": "fast"}}, "tracker.tau_s: expected float, got 'fast'"),
    ({"estimate": {"band": [30.0, 500.0]}}, "estimate: unknown key 'band'"),
    ({"ekf": {"sigma_r": 0.1}}, "ekf: unknown key 'sigma_r'"),
    ({"metrics": {"window": 10}}, "metrics: unknown key 'window'"),
    ({"stages": ["simulate"]}, "config: unknown key 'stages'"),
    # a bool takes only a boolean, an int only an integer or an integral float
    ({"metrics": {"edges": "false"}}, "metrics.edges: expected bool, got 'false'"),
    ({"metrics": {"edges": 0.5}}, "metrics.edges: expected bool, got 0.5"),
    ({"tracker": {"patches": [{"cx": 8.0, "cy": 8.0, "half_size": 2.5}]}},
     "tracker.patches[0].half_size: expected int, got 2.5"),
    ({"scene": {"step_us": 50.7}}, "scene.step_us: expected int, got 50.7"),
    ({"scene": {"refractory_us": True}}, "scene.refractory_us: expected int, got True"),
])
def test_bad_config_key_is_a_config_error(tmp_path, capsys, config, message):
    """Every block of a pipeline config is read strictly, by run_pipeline and
    by `evosc simulate` alike, which takes the same file."""
    base = {"geometry": {"width": 16, "height": 16}, "scene": {"duration_s": 0.01}}
    if "scene" in config:
        config = {**config, "scene": {**base["scene"], **config["scene"]}}
    config = {**base, **config}
    with pytest.raises(ConfigError) as err:
        run_pipeline(config, tmp_path / "run")
    assert str(err.value) == message
    assert not (tmp_path / "run").exists()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1
    assert capsys.readouterr().err == f"[simulate] {message}\n"


def assert_close_json(got, want, path="$"):
    """Same keys and types throughout; numbers within 1e-6 relative."""
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for k in want:
            assert_close_json(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_json(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12), path
    else:
        assert got == want, path


# The CLI subcommands run the pipeline's stage functions: the same config and
# seed give the same artifacts through either front end. The CLI's estimate
# reads samples.csv, whose 6 decimals move the fit by about 1e-8 relative.
PARITY_CONFIG = {
    **CONFIG,
    "tracker": {"patches": [{"cx": 16.0, "cy": 16.0, "half_size": 10}], "tau_s": 0.004},
}


def test_cli_stages_match_the_pipeline(tmp_path):
    run_pipeline(PARITY_CONFIG, tmp_path / "pipe", seed=4)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PARITY_CONFIG))
    cli = tmp_path / "cli"
    assert main(["simulate", "--config", str(cfg), "--seed", "4", "--out", str(cli)]) == 0
    assert main(["track", "--events", str(cli / "events.evt"), "--patch", "16", "16", "10",
                 "--tau", "0.004", "--out", str(cli / "samples.csv")]) == 0
    assert main(["estimate", "--samples", str(cli / "samples.csv"),
                 "--out", str(cli / "estimate.json")]) == 0
    for name in ("events.evt", "truth.json", "samples.csv"):
        assert (cli / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes(), name
    assert_close_json(json.loads((cli / "estimate.json").read_text()),
                      json.loads((tmp_path / "pipe" / "estimate.json").read_text()))


def test_cli_estimate_fits_the_first_tracker_only(tmp_path):
    two = {**CONFIG,
           "tracker": {"patches": [{"cx": 16.0, "cy": 16.0, "half_size": 10},
                                   {"cx": 48.0, "cy": 48.0, "half_size": 10}]}}
    run_pipeline(two, tmp_path, seed=5)
    assert set(read_samples_csv(tmp_path / "samples.csv")[0]["id"]) == {0, 1}
    assert main(["estimate", "--samples", str(tmp_path / "samples.csv"),
                 "--out", str(tmp_path / "cli.json")]) == 0
    assert_close_json(json.loads((tmp_path / "cli.json").read_text()),
                      json.loads((tmp_path / "estimate.json").read_text()))


def simulate_config(tmp_path, config: dict, seed: int):
    """`evosc simulate --config` on a pipeline config: (exit code, out dir)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sim"
    return main(["simulate", "--config", str(path), "--seed", str(seed),
                 "--out", str(out)]), out


def test_pipeline_moving_target_is_the_library_preset(tmp_path):
    scene = {"moving_target": {"freq_hz": 10.0, "radius_px": 3.0},
             "contrast": 0.8, "duration_s": 0.1, "noise_rate_hz": 0.5}
    code, out = simulate_config(tmp_path, {"geometry": {"width": 32, "height": 32},
                                           "scene": scene}, seed=2)
    assert code == 0
    want = simulate_moving_target(10.0, 3.0, SensorGeometry(width=32, height=32),
                                  duration_s=0.1, contrast=0.8, noise_rate_hz=0.5, seed=2)
    events, _ = read_events(out / "events.evt")
    assert events.tobytes() == want.events.tobytes()
    truth = json.loads((out / "truth.json").read_text())
    assert truth["planes"] == [want.truth[0].to_dict()]


def test_pipeline_moving_target_draws_the_configured_pattern(tmp_path):
    g32 = SensorGeometry(width=32, height=32)
    scene = {"moving_target": {"freq_hz": 10.0, "radius_px": 3.0},
             "pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": 16.0},
             "contrast": 1.0, "duration_s": 0.05}
    code, out = simulate_config(tmp_path, {"geometry": {"width": 32, "height": 32},
                                           "scene": scene}, seed=1)
    assert code == 0
    events, _ = read_events(out / "events.evt")
    want = simulate_moving_target(10.0, 3.0, g32, duration_s=0.05, contrast=1.0, seed=1,
                                  pattern=Disks(pitch_px=1000.0, offset_px=16.0))
    assert events.tobytes() == want.events.tobytes()
    triangle = simulate_moving_target(10.0, 3.0, g32, duration_s=0.05, contrast=1.0, seed=1)
    assert events.tobytes() != triangle.events.tobytes()


def test_pipeline_physical_scene_projects_with_the_run_geometry(tmp_path):
    geometry = SensorGeometry(width=32, height=32, focal_length_px=250.0)
    scene = {"physical": {**PHYSICAL, "depth_m": 2.0}, "duration_s": 0.02}
    code, out = simulate_config(tmp_path, {"geometry": geometry.to_dict(), "scene": scene},
                                seed=1)
    assert code == 0
    omega = motor_speed(PHYSICAL["voltage"], MotorParams())
    osc = PhysicalOscillator(mass_kg=0.1, eccentric_mass_kg=0.01, eccentricity_m=0.005,
                             damping=2.0, stiffness=4000.0, omega_drive=omega)
    want = OscillatorConfig.from_world(WorldMotion.from_steady_state(osc), geometry, 2.0)
    truth = json.loads((out / "truth.json").read_text())
    assert truth["planes"][0]["amp_x_px"] == want.amp_x_px


def test_pipeline_moving_target_rejects_depth_planes(tmp_path, capsys):
    scene = {"moving_target": {"freq_hz": 10.0, "radius_px": 3.0}, "duration_s": 0.05,
             "depth_planes": [{"depth_m": 1.0}, {"depth_m": 2.0, "region": [16, 0, 32, 32]}]}
    code, out = simulate_config(tmp_path, {"geometry": {"width": 32, "height": 32},
                                           "scene": scene}, seed=1)
    assert code == 1
    assert "depth_planes" in capsys.readouterr().err
    assert not (out / "events.evt").exists()


def test_simulate_rejects_a_zero_step(tmp_path, capsys):
    # a zero step_us used to divide by zero inside the simulator and print a traceback
    code, out = simulate_config(tmp_path, {"geometry": {"width": 16, "height": 16},
                                           "scene": {"step_us": 0}}, seed=0)
    assert code == 1
    assert capsys.readouterr().err == "[simulate] scene: step_us must be positive and finite, got 0\n"
    assert not out.exists()
