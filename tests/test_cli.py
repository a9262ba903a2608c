import json
import math

import numpy as np
import pytest

from evosc.apps import estimate_motion, run_pipeline
from evosc.cli import main
from evosc.errors import ConfigError
from evosc.io import read_events
from evosc.sim import Disks, simulate_moving_target
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
    samples = read_samples_csv(workdir / "samples.csv")
    assert samples.shape[0] > 300
    assert np.all(np.abs(samples["u"] - 16.0) < 11.0)


def test_track_drops_the_warmup_like_the_library(workdir):
    events, _ = read_events(workdir / "events.evt")
    patch = PatchSpec(cx=16.0, cy=16.0, half_size=10)
    first_in_patch = int(events["t"][patch.contains(events["x"], events["y"])][0])
    samples = read_samples_csv(workdir / "samples.csv")
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


def test_metrics_csv(workdir):
    out = workdir / "metrics.csv"
    assert main(["metrics", "--events", str(workdir / "events.evt"),
                 "--window-ms", "20", "--no-edges", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t0_us,entropy,variance")
    assert len(lines) == 1 + 30  # 600 ms / 20 ms

def test_freq_report(workdir, capsys):
    assert main(["freq", "--events", str(workdir / "events.evt"),
                 "--patch", "16", "16", "10", "--trials", "2",
                 "--truth-hz", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["estimate_hz"] == pytest.approx(50.0, abs=0.5)
    assert len(report["per_trial_hz"]) == 2
    assert report["abs_error_hz"] < 0.5


def test_depth_report(workdir, capsys):
    assert main(["depth", "--events", str(workdir / "events.evt"),
                 "--patch1", "16", "16", "10", "--patch2", "48", "48", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ratio"] == pytest.approx(1.0, abs=0.05)


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


PHYSICAL = {"voltage": 2.0, "mass_kg": 0.1, "eccentric_mass_kg": 0.01,
            "eccentricity_m": 0.005, "damping": 2.0, "stiffness": 4000.0}


@pytest.mark.parametrize("scene, message", [
    ({"pattern": {"type": "disks", "bogus": 1}}, "pattern: unknown key 'bogus'"),
    ({"pattern": {"type": "triangle"}}, "pattern: missing key 'center_x'"),
    ({"depth_planes": [{}, {"pattern": {"type": "stripes", "pitch": 3}}]},
     "depth_planes[1].pattern: unknown key 'pitch'"),
    ({"physical": {**PHYSICAL, "motor": {"kphi": 1}}}, "physical.motor: unknown key 'kphi'"),
])
def test_bad_pattern_or_motor_key_is_a_config_error(tmp_path, capsys, scene, message):
    config = {"geometry": {"width": 16, "height": 16},
              "scene": {**scene, "duration_s": 0.01}, "stages": ["simulate"]}
    with pytest.raises(ConfigError) as err:
        run_pipeline(config, tmp_path / "run")
    assert str(err.value) == message
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
    run_pipeline({**PARITY_CONFIG, "stages": ["simulate", "track", "estimate"]},
                 tmp_path / "pipe", seed=4)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PARITY_CONFIG))
    cli = tmp_path / "cli"
    assert main(["simulate", "--config", str(cfg), "--seed", "4", "--out", str(cli)]) == 0
    assert main(["track", "--events", str(cli / "events.evt"), "--patch", "16", "16", "10",
                 "--tau", "0.004", "--out", str(cli / "samples.csv")]) == 0
    assert main(["estimate", "--samples", str(cli / "samples.csv"), "--tau", "0.004",
                 "--out", str(cli / "estimate.json")]) == 0
    for name in ("events.evt", "truth.json", "samples.csv"):
        assert (cli / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes(), name
    assert_close_json(json.loads((cli / "estimate.json").read_text()),
                      json.loads((tmp_path / "pipe" / "estimate.json").read_text()))


def test_cli_estimate_fits_the_first_tracker_only(tmp_path):
    two = {**CONFIG, "stages": ["simulate", "track", "estimate"],
           "tracker": {"patches": [{"cx": 16.0, "cy": 16.0, "half_size": 10},
                                   {"cx": 48.0, "cy": 48.0, "half_size": 10}]}}
    run_pipeline(two, tmp_path, seed=5)
    assert set(read_samples_csv(tmp_path / "samples.csv")["id"]) == {0, 1}
    assert main(["estimate", "--samples", str(tmp_path / "samples.csv"),
                 "--out", str(tmp_path / "cli.json")]) == 0
    assert_close_json(json.loads((tmp_path / "cli.json").read_text()),
                      json.loads((tmp_path / "estimate.json").read_text()))


def test_pipeline_moving_target_is_the_library_preset(tmp_path):
    scene = {"moving_target": {"freq_hz": 10.0, "radius_px": 3.0},
             "contrast": 0.8, "duration_s": 0.1, "noise_rate_hz": 0.5}
    run_pipeline({"geometry": {"width": 32, "height": 32}, "scene": scene,
                  "stages": ["simulate"]}, tmp_path, seed=2)
    want = simulate_moving_target(10.0, 3.0, SensorGeometry(width=32, height=32),
                                  duration_s=0.1, contrast=0.8, noise_rate_hz=0.5, seed=2)
    events, _ = read_events(tmp_path / "events.evt")
    assert events.tobytes() == want.events.tobytes()
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["planes"] == [want.truth[0].to_dict()]


def test_pipeline_moving_target_draws_the_configured_pattern(tmp_path):
    g32 = SensorGeometry(width=32, height=32)
    scene = {"moving_target": {"freq_hz": 10.0, "radius_px": 3.0},
             "pattern": {"type": "disks", "pitch_px": 1000.0, "offset_px": 16.0},
             "contrast": 1.0, "duration_s": 0.05}
    run_pipeline({"geometry": {"width": 32, "height": 32}, "scene": scene,
                  "stages": ["simulate"]}, tmp_path, seed=1)
    events, _ = read_events(tmp_path / "events.evt")
    want = simulate_moving_target(10.0, 3.0, g32, duration_s=0.05, contrast=1.0, seed=1,
                                  pattern=Disks(pitch_px=1000.0, offset_px=16.0))
    assert events.tobytes() == want.events.tobytes()
    triangle = simulate_moving_target(10.0, 3.0, g32, duration_s=0.05, contrast=1.0, seed=1)
    assert events.tobytes() != triangle.events.tobytes()


def test_pipeline_moving_target_rejects_depth_planes(tmp_path):
    scene = {"moving_target": {"freq_hz": 10.0, "radius_px": 3.0}, "duration_s": 0.05,
             "depth_planes": [{"depth_m": 1.0}, {"depth_m": 2.0, "region": [16, 0, 32, 32]}]}
    with pytest.raises(ConfigError, match="depth_planes"):
        run_pipeline({"geometry": {"width": 32, "height": 32}, "scene": scene,
                      "stages": ["simulate"]}, tmp_path, seed=1)
    assert not (tmp_path / "events.evt").exists()
