"""The example scripts run end to end on small inputs."""

import copy
import csv
import importlib
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def script(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module


def test_run_demo_writes_every_artifact(script, tmp_path, capsys):
    run_demo = script("run_demo")
    config = copy.deepcopy(run_demo.DEMO_CONFIG)
    config["scene"]["duration_s"] = 0.2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_demo.main(["--config", str(path), "--out", str(out), "--seed", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"]
    for name in manifest["artifacts"].values():
        assert (out / name).stat().st_size > 0, name
    assert "estimated frequency" in capsys.readouterr().out


def test_freq_sweep_writes_csv(script, tmp_path):
    dest = tmp_path / "sweep.csv"
    assert script("freq_sweep").main(["--frequencies", "10", "--duration", "0.5",
                                      "--trials", "2", "--csv", str(dest)]) == 0
    with dest.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["truth_hz"]) for r in rows] == [10.0]
    assert int(rows[0]["trials"]) == 2 and int(rows[0]["events"]) > 0
