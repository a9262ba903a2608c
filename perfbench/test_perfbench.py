"""Tests for the benchmark itself.

    python3 -m pytest -q perfbench

The smoke runs use the scaled-down workloads (--size small), once untraced
and once traced, in subprocesses as the benchmark is run.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from evosc import compensate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
_runs: dict = {}


def smoke(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "small",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emitted_names_are_declared(workload, trace):
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in smoke(workload, trace)["metrics"]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert name in declared, name


def test_spec_names_unique_and_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and n[0].isalnum() for n in names)
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_traced_run_reports_exercised_layers():
    layers = {
        "demo_pipeline": ["sim", "track", "freqest", "ekf", "compensate", "metrics", "io", "apps"],
        "depth_two_plane": ["sim", "track", "freqest", "ekf", "apps"],
        "checker_fixed": ["sim", "compensate", "metrics"],
        "stream_10m": ["ekf", "compensate", "io"],
    }
    for workload, used in layers.items():
        metrics = smoke(workload, 1)["metrics"]
        for layer in used:
            assert metrics[f"{layer}.calls"]["value"] > 0, (workload, layer)
            assert metrics[f"{layer}.self_s"]["value"] > 0, (workload, layer)


def _short_stream(workdir, n=20_000, chunks=20, seed=3):
    inp = workloads.Stream10M().inputs(seed, "small", workdir)
    d = inp.data
    keep = np.searchsorted(d["events"]["t"], np.uint64(chunks * workloads.CHUNK_US))
    return d["events"][:keep][:n], d["samples"][:chunks], d["init"], d["noise"]


@pytest.mark.parametrize("lag_tau_s", [workloads.TAU_S, None])
def test_replay_reference_matches_batch_tracking_mode(lag_tau_s, tmp_path):
    events, samples, (init_u, init_v), noise = _short_stream(tmp_path)
    batch = compensate.compensate_stream(
        events, copy.deepcopy(init_u), copy.deepcopy(init_v),
        workloads.Stream10M.geometry, mode="tracking", samples=samples, noise=noise,
        lag_tau_s=lag_tau_s,
    )
    ref_x, ref_y = workloads.tracking_reference(events, samples, init_u, init_v, noise,
                                                lag_tau_s, block=4096)
    assert np.max(np.abs(batch.x - ref_x)) <= 1e-9
    assert np.max(np.abs(batch.y - ref_y)) <= 1e-9


def test_self_times_account_for_the_root_span():
    spans = []

    def span(layer, start, end, parent):
        spans.append({"layer": layer, "name": f"x.{layer}", "parent": parent, "rep": 0,
                      "start_ns": start, "end_ns": end, "counts": None})

    span("job", 0, 100, None)
    span("apps", 10, 90, 0)
    span("sim", 20, 50, 1)
    span("ekf", 60, 70, 1)
    span("trace", 70, 75, 1)
    m = tracing.layer_metrics(spans)
    assert m["sim.self_s"] == pytest.approx(30e-9)
    assert m["apps.self_s"] == pytest.approx(35e-9)
    total = sum(m[f"{k}.self_s"] for k in tracing.LAYERS + tracing.OWN_LAYERS)
    assert total == pytest.approx(100e-9)
    assert m["sim.calls"] == 1 and m["apps.calls"] == 1


def test_install_restores_originals():
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    undo = tracing.install(tracing.Tracer())
    assert all(owner.__dict__[attr] is not fn
               for (owner, attr, _, _), fn in zip(tracing.TARGETS, before))
    tracing.uninstall(undo)
    assert all(owner.__dict__[attr] is fn
               for (owner, attr, _, _), fn in zip(tracing.TARGETS, before))


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_10m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
