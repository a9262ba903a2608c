#!/usr/bin/env python3
"""evosc benchmark: four seeded workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload stream_10m --seed 4 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload in turn

A run imports evosc from the checkout's src/, builds the workload's inputs
from the seed and warms up on a small version of the job (set-up, done
SETUP_ROUNDS times; set-up time is the import time plus the median round),
then repeats the job until --seconds of job time have passed, checking every
rep's output outside the timed region. --trace 0 reports the end-to-end
metrics of BENCHMARK.json. --trace 1 alternates untraced reps with traced
ones, whose layer calls are wrapped (see tracing.py), and reports the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Result sets, with the
environment they ran in, and span lists go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_ROUNDS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path; fail if it is missing."""
    if not (SRC / "evosc" / "__init__.py").is_file():
        raise SystemExit(f"error: no evosc package under {SRC}")
    sys.path.insert(0, str(SRC))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
                return int(size.rstrip("KMG")) * scale
        except (OSError, ValueError):
            continue
    return None


def environment(workload: str, seed: int, size: str, seconds: float) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "setup_rounds": SETUP_ROUNDS, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "llc_bytes_reported": _cache_bytes(3) or _cache_bytes(2),
    }


def time_setup(wl, seed: int, size: str, workdir: Path):
    """SETUP_ROUNDS rounds of input generation plus a small warm-up job."""
    rounds, inputs = [], None
    for i in range(SETUP_ROUNDS):
        inputs = None  # release the previous round's inputs first
        started = time.perf_counter()
        inputs = wl.inputs(seed, size, workdir)
        warm = wl.inputs(seed, "small", workdir / "warm")
        out = wl.job(warm, workdir / "warm" / f"job{i}")
        del out, warm
        rounds.append(time.perf_counter() - started)
    return inputs, rounds


def run_reps(wl, inputs, workdir: Path, seconds: float, trace: bool):
    """Repeat the job until `seconds` of job time; every other rep traced."""
    import tracing

    tracer = tracing.Tracer() if trace else None
    min_reps = max(wl.min_reps, 2 if trace else 1)
    memo: dict = {}
    reps = []
    while True:
        n = len(reps)
        traced = trace and n % 2 == 1
        rep_dir = workdir / f"rep{n}"
        if traced:
            tracer.rep = n
            undo = tracing.install(tracer)
            root = tracer.open("job", wl.name)
        started = time.perf_counter()
        try:
            out = wl.job(inputs, rep_dir)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            out, error = None, traceback.format_exc()
        finally:
            wall = time.perf_counter() - started
            if traced:
                tracer.close(root)
                tracing.uninstall(undo)
        if error is None:
            failed, figures = wl.check(inputs, out, memo)
        else:
            print(error, file=sys.stderr)
            failed, figures = [error.strip().splitlines()[-1]] * wl.ops_per_rep, {}
        del out
        reps.append({"wall_s": wall, "traced": traced, "failed": failed, "figures": figures})
        done = sum(r["wall_s"] for r in reps)
        if done >= seconds and len(reps) >= min_reps and (not trace or len(reps) % 2 == 0):
            return reps, tracer


def figures_summary(reps: list) -> dict:
    """Median of each per-rep figure; chunk latencies pooled over reps."""
    out = {}
    keys = {k for r in reps for k in r["figures"] if k != "chunk_ns"}
    for key in sorted(keys):
        out[key] = statistics.median(r["figures"][key] for r in reps if key in r["figures"])
    chunks = [r["figures"]["chunk_ns"] for r in reps if "chunk_ns" in r["figures"]]
    if chunks:
        import numpy as np

        pooled = np.concatenate(chunks) * 1e-6
        out["chunk_p50_ms"] = float(np.percentile(pooled, 50))
        out["chunk_p99_ms"] = float(np.percentile(pooled, 99))
        out["chunks"] = int(pooled.shape[0])
    return out


def run_workload(args) -> int:
    spec = load_spec()
    use_checkout_source()
    started = time.perf_counter()
    import evosc
    import workloads
    import_s = time.perf_counter() - started
    if not Path(evosc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: evosc imported from {evosc.__file__}, not {SRC}")

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    try:
        inputs, setup_rounds = time_setup(wl, seed, args.size, workdir)
        reps, tracer = run_reps(wl, inputs, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = wl.ops_per_rep * len(reps)
    failed = sum(len(r["failed"]) for r in reps)
    untraced = [r for r in reps if not r["traced"]]
    measured = {
        "setup_s": import_s + statistics.median(setup_rounds),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    figures = figures_summary(untraced)
    figures["failed_frac"] = failed / attempted
    if args.trace:
        import tracing

        traced = [r for r in reps if r["traced"]]
        per_layer = tracing.layer_metrics(tracer.spans)
        for key, value in per_layer.items():
            if key.endswith((".self_s", ".calls")):
                per_layer[key] = value / len(traced)
        per_layer["trace.untraced_wall_s"] = measured["wall_s"]
        per_layer["trace.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        per_layer["trace.overhead_s"] = (per_layer["trace.traced_wall_s"]
                                         - per_layer["trace.untraced_wall_s"])
        for key in ("failed_frac", "freq_err_hz", "depth_ratio_err", "variance_gain",
                    "replay_mevps", "chunk_p50_ms", "chunk_p99_ms"):
            per_layer[f"job.{key}"] = figures.get(key, 0.0)
        measured = per_layer
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]

    env = environment(wl.name, seed, args.size, args.seconds)
    env.update({"reps": len(reps), "traced_reps": len(reps) - len(untraced),
                "setup_rounds_s": setup_rounds, "import_s": import_s})
    if wl.name == "stream_10m":
        # computed from the record size, not measured
        env["computed_bytes_per_pass"] = inputs.data["events"].nbytes
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    tag = f"{wl.name}-seed{seed}-{args.size}-trace{args.trace}"
    record = {"env": env, "figures": figures, "reps": [
        {k: v for k, v in r.items() if k != "figures"} for r in reps], "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if tracer is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"{wl.name}: seed {seed}, size {args.size}, {len(reps)} reps, "
          f"{failed}/{attempted} operations failed")
    for r in reps:
        for message in r["failed"]:
            print(f"  FAILED: {message}")
    print("env " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        units = {"failed_frac": "frac", "freq_err_hz": "Hz", "depth_ratio_err": "frac",
                 "variance_gain": "ratio", "replay_mevps": "Mev/s", "chunk_p50_ms": "ms",
                 "chunk_p99_ms": "ms", "batch_s": "s", "replay_s": "s", "chunks": "count"}
        for key, value in figures.items():
            print(f"  {key:<32} {value:.6g} {units[key]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    for name in workload_names():
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workload_names(),
                    help="run one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, help="input seed (default: per workload)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="job time to measure; at least one rep always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs the scaled-down job (smoke tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        use_checkout_source()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
