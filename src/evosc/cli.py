"""Command-line interface.

Subcommands mirror the pipeline stages plus the analysis applications.
simulate reads a pipeline config file; track, estimate and metrics turn their
flags into the pipeline's section object for that stage, whose field defaults
are the flags' defaults. Each runs the pipeline's own stage function. Results
go to --out (a file or directory depending on the subcommand). Errors print a
stage-tagged line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, core
from .apps import (
    EstimateSection,
    MetricsSection,
    PipelineConfig,
    TrackerSection,
    estimate_scene_frequency,
    estimate_stage,
    metrics_stage,
    min_detectable_distance,
    primary_samples,
    relative_depth,
    run_pipeline,
    simulate_stage,
    track_stage,
)
from .compensate import compensate_stream, states_from_init, write_compensated_csv
from .core import _read_value, from_section
from .errors import ConfigError, EvoscError
from .freqest import SinusoidInit
from .io import _evt_header, read_event_pieces, read_events, write_json
from .track import PatchSpec, read_samples_csv


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _patch(values) -> PatchSpec:
    cx, cy, half = values
    return PatchSpec(cx=float(cx), cy=float(cy), half_size=int(half))


def _cmd_simulate(args) -> int:
    config = from_section(PipelineConfig, _load_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed if args.seed is None else args.seed
    sim_out = simulate_stage(config.scene, config.geometry, seed, out)
    print(f"wrote {sim_out.events.shape[0]} events to {out / 'events.evt'}")
    return 0


def _cmd_track(args) -> int:
    events, geometry = read_events(args.events)
    section = TrackerSection(patches=(_patch(args.patch),), tau_s=args.tau,
                             emit_period_s=args.emit_period, min_weight=args.min_weight)
    samples = track_stage(section, events, geometry, args.out)
    print(f"wrote {samples.shape[0]} samples to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    samples = primary_samples(read_samples_csv(args.samples))
    section = EstimateSection(band_rad_s=tuple(args.band), grid_points=args.grid_points)
    estimate_stage(section, samples, args.tau, args.out or sys.stdout)
    return 0


def _cmd_compensate(args) -> int:
    """Fixed-state compensation from file to file in bounded memory: the
    stream is read, compensated and appended to the output one piece at a
    time (one block of core.map_blocks per CPU, so each piece still splits)."""
    state_u, state_v, lag_tau_s = _read_states(args.states)
    n_oob = 0
    with closing(read_event_pieces(args.events, core._cpus() * core._BLOCK)) as pieces:
        geometry, count = next(pieces)
        with _replacing(args.out) as fh:
            if not args.csv:
                fh.write(_evt_header(geometry, count))
            for i, piece in enumerate(pieces):
                comp = compensate_stream(piece, state_u, state_v, geometry, lag_tau_s=lag_tau_s)
                if args.csv:
                    write_compensated_csv(fh, comp, header=i == 0)
                    n_oob += int(np.count_nonzero(comp.out_of_bounds))
                else:
                    records, clamped = comp.pack()
                    fh.write(records.view(np.uint8))
                    n_oob += clamped
    # the CSV keeps the real coordinates; only the .evt records are clamped
    flagged = "out of bounds" if args.csv else "clamped"
    print(f"compensated {count} events ({n_oob} {flagged}) to {args.out}")
    return 0


@contextmanager
def _replacing(dest):
    """A binary file that becomes dest once the block ends without error. It
    is written beside dest under a temporary name and removed if the block
    raises, so a failed run leaves no partial file; a pipe or device is
    written in place."""
    dest = Path(dest)
    if dest.exists() and not dest.is_file():
        with open(dest, "wb") as fh:
            yield fh
        return
    part = dest.with_name(f".{dest.name}.{os.getpid()}.part")
    try:
        with open(part, "wb") as fh:
            yield fh
        os.replace(part, dest)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _read_states(path: str):
    """(state_u, state_v, tracker_tau_s) of a states file as evosc estimate
    writes it: an object whose axes u and v each hold omega, a, b and c (and
    residual_rms, which is optional), with optional t_ref_us (an integer,
    default 0) and tracker_tau_s (a number or null). Other keys are ignored;
    a missing key, or a value of the wrong type, is a ConfigError naming it."""
    d = _load_json(path)
    if not isinstance(d, dict):
        raise ConfigError(f"a states file must be an object, got {json.dumps(d)}")
    t_ref_us = _read_value(int, d.get("t_ref_us", 0), "t_ref_us")
    lag_tau_s = _read_value(float | None, d.get("tracker_tau_s"), "tracker_tau_s")
    if lag_tau_s is not None and not 0 <= lag_tau_s < math.inf:
        raise ConfigError(f"tracker_tau_s: expected a non-negative finite number, got {lag_tau_s}")
    inits = []
    for axis in ("u", "v"):
        if axis not in d:
            raise ConfigError(f"states: missing key {axis!r}")
        inits.append(_init_from_json(d[axis], axis))
    return (*states_from_init(*inits, t_ref_us), lag_tau_s)


def _init_from_json(d, axis: str) -> SinusoidInit:
    if not isinstance(d, dict):
        raise ConfigError(f"a states axis must be an object, got {json.dumps(d)}")
    values = {}
    for key in ("omega", "a", "b", "c", "residual_rms"):
        if key not in d and key != "residual_rms":
            raise ConfigError(f"{axis}: missing key {key!r}")
        values[key] = _read_value(float, d.get(key, 0.0), f"{axis}.{key}")
        if not math.isfinite(values[key]):
            raise ConfigError(f"{axis}.{key}: expected a finite number, got {values[key]}")
    return SinusoidInit(**values)


def _cmd_metrics(args) -> int:
    events, geometry = read_events(args.events)
    section = MetricsSection(window_ms=args.window_ms, blur_sigma=args.blur_sigma,
                             edges=not args.no_edges)
    rows = metrics_stage(section, events, geometry, args.out)
    print(f"wrote {len(rows)} windows to {args.out}")
    return 0


def _cmd_freq(args) -> int:
    events, _ = read_events(args.events)
    report = estimate_scene_frequency(
        events, _patch(args.patch), trials=args.trials,
        tau_s=args.tau, emit_period_s=args.emit_period,
        truth_hz=args.truth_hz,
    )
    _dump(asdict(report), args.out)
    return 0


def _cmd_depth(args) -> int:
    events, _ = read_events(args.events)
    report = relative_depth(
        events, _patch(args.patch1), _patch(args.patch2), truth_ratio=args.truth_ratio,
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
    write_json(out or sys.stdout, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evosc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"evosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate the scene of a pipeline config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("track", help="run a centroid tracker over an event file")
    p.add_argument("--events", required=True)
    p.add_argument("--patch", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--tau", type=float, default=TrackerSection.tau_s)
    p.add_argument("--emit-period", type=float, default=TrackerSection.emit_period_s)
    p.add_argument("--min-weight", type=float, default=TrackerSection.min_weight)
    p.add_argument("--out", required=True, help="samples CSV path")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("estimate", help="spectral + least-squares initialization")
    p.add_argument("--samples", required=True, help="samples CSV from `track`")
    p.add_argument("--band", nargs=2, type=float, default=EstimateSection.band_rad_s)
    p.add_argument("--grid-points", type=int, default=EstimateSection.grid_points)
    p.add_argument("--tau", type=float, default=TrackerSection.tau_s,
                   help="tracker tau used for the lag correction downstream")
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("compensate", help="compensate an event file with estimated states")
    p.add_argument("--events", required=True)
    p.add_argument("--states", required=True, help="JSON from `estimate`")
    p.add_argument("--csv", action="store_true", help="write real-valued CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser("metrics", help="per-window frame metrics for an event file")
    p.add_argument("--events", required=True)
    p.add_argument("--window-ms", type=float, default=MetricsSection.window_ms)
    p.add_argument("--blur-sigma", type=float, default=MetricsSection.blur_sigma)
    p.add_argument("--no-edges", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("freq", help="scene frequency over disjoint trials")
    p.add_argument("--events", required=True)
    p.add_argument("--patch", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--tau", type=float, default=TrackerSection.tau_s)
    p.add_argument("--emit-period", type=float, default=TrackerSection.emit_period_s)
    p.add_argument("--truth-hz", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("depth", help="relative depth of two planes")
    p.add_argument("--events", required=True)
    p.add_argument("--patch1", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--patch2", nargs=3, metavar=("CX", "CY", "HALF"), required=True)
    p.add_argument("--tau", type=float, default=TrackerSection.tau_s)
    p.add_argument("--emit-period", type=float, default=TrackerSection.emit_period_s)
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
    except (EvoscError, KeyError, ValueError, OSError) as exc:
        # the error set run_pipeline wraps in a StageError; ValueError covers
        # malformed JSON, KeyError a missing field
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
