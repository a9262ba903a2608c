"""Command-line interface.

Subcommands mirror the pipeline stages plus the analysis applications.
Configs are JSON files; results go to --out (a file or directory depending on
the subcommand). Errors print a stage-tagged line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .apps import (
    build_scene,
    estimate_scene_frequency,
    min_detectable_distance,
    relative_depth,
    run_pipeline,
)
from .compensate import compensate_stream, states_from_init, write_compensated_csv
from .core import SensorGeometry
from .errors import EvoscError
from .freqest import DEFAULT_BAND, DEFAULT_GRID_POINTS, SinusoidInit, initialize
from .io import read_events, write_events
from .metrics import stream_metrics, write_metrics_csv
from .sim import simulate, simulate_moving_target
from .track import (
    DEFAULT_WARMUP_TAUS,
    CentroidTracker,
    PatchSpec,
    read_samples_csv,
    track_events,
    write_samples_csv,
)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _patch_from_args(args) -> PatchSpec:
    cx, cy, half = args.patch
    return PatchSpec(cx=float(cx), cy=float(cy), half_size=int(half))


def _cmd_simulate(args) -> int:
    config = _load_json(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    geometry = SensorGeometry.from_dict(config.get("geometry", {"width": 96, "height": 96}))
    scene_cfg = config.get("scene", config)
    scene, osc, sim_kwargs = build_scene(scene_cfg)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    if "moving_target" in scene_cfg:
        mt = scene_cfg["moving_target"]
        sim_out = simulate_moving_target(
            freq_hz=float(mt["freq_hz"]), path_radius_px=float(mt["radius_px"]),
            geometry=geometry, seed=seed, contrast=scene.contrast, **sim_kwargs,
        )
    else:
        sim_out = simulate(scene, osc, geometry, seed=seed, **sim_kwargs)
    write_events(out / "events.evt", sim_out.events, geometry)
    with open(out / "truth.json", "w") as fh:
        json.dump(
            {
                "seed": seed,
                "geometry": geometry.to_dict(),
                "planes": [t.to_dict() for t in sim_out.truth],
                "num_events": int(sim_out.events.shape[0]),
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {sim_out.events.shape[0]} events to {out / 'events.evt'}")
    return 0


def _cmd_track(args) -> int:
    events, _ = read_events(args.events)
    tracker = CentroidTracker(
        _patch_from_args(args),
        tau_s=args.tau, emit_period_s=args.emit_period, min_weight=args.min_weight,
        warmup_s=DEFAULT_WARMUP_TAUS * args.tau,
    )
    samples = track_events(events, [tracker])
    write_samples_csv(args.out, samples)
    print(f"wrote {samples.shape[0]} samples to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    samples = read_samples_csv(args.samples)
    result = initialize(samples, band=tuple(args.band), grid_points=args.grid_points)

    def axis(init, peaks):
        if init is None:
            return None
        d = asdict(init)
        d["peaks"] = [asdict(p) for p in peaks]
        return d

    payload = {
        "omega_rad_s": result.omega,
        "frequency_hz": result.omega / (2.0 * math.pi),
        "t_ref_us": int(samples["t"][0]),
        "tracker_tau_s": args.tau,
        "u": axis(result.init_u, result.peaks_u),
        "v": axis(result.init_v, result.peaks_v),
    }
    _dump(payload, args.out)
    return 0


def _cmd_compensate(args) -> int:
    events, geometry = read_events(args.events)
    states = _load_json(args.states)
    init_u = _init_from_json(states["u"])
    init_v = _init_from_json(states["v"])
    state_u, state_v = states_from_init(init_u, init_v, int(states.get("t_ref_us", 0)))
    lag_tau = states.get("tracker_tau_s") if args.lag_correction else None
    comp = compensate_stream(
        events, state_u, state_v, geometry, mode="fixed_state", lag_tau_s=lag_tau
    )
    if args.csv:
        write_compensated_csv(args.out, comp)
    else:
        write_events(args.out, comp.to_events(), geometry)
    n_oob = int(np.count_nonzero(comp.out_of_bounds))
    print(f"compensated {len(comp)} events ({n_oob} clamped) to {args.out}")
    return 0


def _init_from_json(d: dict) -> SinusoidInit:
    return SinusoidInit(
        omega=float(d["omega"]), a=float(d["a"]), b=float(d["b"]),
        c=float(d["c"]), residual_rms=float(d.get("residual_rms", 0.0)),
    )


def _cmd_metrics(args) -> int:
    events, geometry = read_events(args.events)
    t0 = int(events["t"][0]) if events.shape[0] else 0
    t1 = int(events["t"][-1]) + 1 if events.shape[0] else 1
    rows = stream_metrics(
        events, geometry, t0, t1, window_us=int(args.window_ms * 1000),
        blur_sigma=args.blur_sigma, with_edges=not args.no_edges,
    )
    write_metrics_csv(args.out, rows)
    print(f"wrote {len(rows)} windows to {args.out}")
    return 0


def _cmd_freq(args) -> int:
    events, _ = read_events(args.events)
    report = estimate_scene_frequency(
        events, _patch_from_args(args), trials=args.trials,
        tau_s=args.tau, emit_period_s=args.emit_period,
        truth_hz=args.truth_hz, refine=not args.no_refine,
    )
    _dump(asdict(report), args.out)
    return 0


def _cmd_depth(args) -> int:
    events, _ = read_events(args.events)
    p1 = PatchSpec(*map(float, args.patch1[:2]), half_size=int(args.patch1[2]))
    p2 = PatchSpec(*map(float, args.patch2[:2]), half_size=int(args.patch2[2]))
    report = relative_depth(
        events, p1, p2, truth_ratio=args.truth_ratio,
        tau_s=args.tau, emit_period_s=args.emit_period,
    )
    _dump(asdict(report), args.out)
    return 0


def _cmd_mindist(args) -> int:
    distance = min_detectable_distance(
        fov_rad=math.radians(args.fov_deg),
        resolution_px=args.resolution,
        radius_m=args.radius_m,
        pixel_threshold=args.pixel_threshold,
    )
    _dump({"min_detectable_distance_m": distance}, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    config = _load_json(args.config)
    manifest = run_pipeline(config, args.out, seed=args.seed)
    print(f"pipeline stages {manifest['stages']} -> {args.out}")
    return 0


def _dump(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evosc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"evosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an event stream from a scene config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("track", help="run a centroid tracker over an event file")
    p.add_argument("--events", required=True)
    p.add_argument("--patch", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--tau", type=float, default=0.005)
    p.add_argument("--emit-period", type=float, default=0.001)
    p.add_argument("--min-weight", type=float, default=5.0)
    p.add_argument("--out", required=True, help="samples CSV path")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("estimate", help="spectral + least-squares initialization")
    p.add_argument("--samples", required=True, help="samples CSV from `track`")
    p.add_argument("--band", nargs=2, type=float, default=list(DEFAULT_BAND))
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--tau", type=float, default=0.005,
                   help="tracker tau used for the lag correction downstream")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("compensate", help="compensate an event file with estimated states")
    p.add_argument("--events", required=True)
    p.add_argument("--states", required=True, help="JSON from `estimate`")
    p.add_argument("--csv", action="store_true", help="write real-valued CSV")
    p.add_argument("--no-lag-correction", dest="lag_correction", action="store_false")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser("metrics", help="per-window frame metrics for an event file")
    p.add_argument("--events", required=True)
    p.add_argument("--window-ms", type=float, default=10.0)
    p.add_argument("--blur-sigma", type=float, default=1.5)
    p.add_argument("--no-edges", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("freq", help="scene frequency over disjoint trials")
    p.add_argument("--events", required=True)
    p.add_argument("--patch", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--tau", type=float, default=0.005)
    p.add_argument("--emit-period", type=float, default=0.001)
    p.add_argument("--truth-hz", type=float, default=None)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("depth", help="relative depth of two planes")
    p.add_argument("--events", required=True)
    p.add_argument("--patch1", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--patch2", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--tau", type=float, default=0.005)
    p.add_argument("--emit-period", type=float, default=0.001)
    p.add_argument("--truth-ratio", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("mindist", help="minimum detectable distance")
    p.add_argument("--fov-deg", type=float, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--radius-m", type=float, required=True)
    p.add_argument("--pixel-threshold", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mindist)

    p = sub.add_parser("pipeline", help="staged run producing artifacts + manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvoscError as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
