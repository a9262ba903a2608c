#!/usr/bin/env python3
"""Sweep target frequencies and measure estimation error across trials.

For each frequency a target translates on a circular path in front of a
static camera; the estimator splits the recording into disjoint trials and
reports the mean absolute error and the 3-sigma spread.
"""

import argparse
import csv
import sys

from evosc.apps import estimate_scene_frequency
from evosc.sim import MovingTarget, SensorGeometry, simulate
from evosc.track import PatchSpec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--frequencies", type=float, nargs="+",
                    default=[7.5, 10.0, 15.2, 20.0, 22.6])
    ap.add_argument("--radius", type=float, default=4.0, help="path radius, px")
    ap.add_argument("--duration", type=float, default=2.0, help="seconds per frequency")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--contrast", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args(argv)

    geom = SensorGeometry(width=64, height=64)
    patch = PatchSpec(cx=31.5, cy=31.5, half_size=20)

    rows = []
    print(f"{'truth Hz':>9} {'estimate':>9} {'MAE Hz':>8} {'3sigma':>8} {'events':>9}")
    for freq in args.frequencies:
        out = simulate(*MovingTarget(freq, args.radius).preset(geom, contrast=args.contrast),
                       geom, duration_s=args.duration, seed=args.seed)
        rep = estimate_scene_frequency(out.events, patch, trials=args.trials,
                                       truth_hz=freq)
        print(f"{freq:9.2f} {rep.estimate_hz:9.4f} {rep.abs_error_hz:8.4f} "
              f"{rep.three_sigma_hz:8.4f} {out.events.shape[0]:9d}")
        rows.append({"truth_hz": freq, "estimate_hz": rep.estimate_hz,
                     "abs_error_hz": rep.abs_error_hz,
                     "three_sigma_hz": rep.three_sigma_hz,
                     "trials": args.trials, "events": out.events.shape[0]})

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
