"""Outside-in tracing of the evosc layers for the benchmark's traced runs.

`install` replaces the public functions each layer exposes, in the module
namespaces the callers look them up in, with wrappers that record a span
(layer, name, start, end, parent, rep) per call. Spans live in memory on a
`Tracer` and are written out by the caller when the run ends. Counts that turn
a layer's time into a rate (events, samples, bytes, ...) are taken right after
each call, inside a span of the pseudo-layer `trace`, so the instrumentation's
own cost is accounted for and stays out of the layer it measures.

Nothing here edits the program: the patch lives only in the process that
calls `install`, and `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

from evosc import apps, compensate, io as evio, metrics, sim, track
from evosc.core import EVENT_DTYPE

LAYERS = ("sim", "track", "freqest", "ekf", "compensate", "metrics", "io", "apps")
# the benchmark's own code inside a timed job, and the tracer's counting
OWN_LAYERS = ("job", "trace")

EVT_HEADER_BYTES = evio.HEADER_SIZE
EVT_RECORD_BYTES = EVENT_DTYPE.itemsize


class Tracer:
    """Span store for one process; spans nest by call order (one thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.rep = 0

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({
            "layer": layer, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep, "start_ns": time.perf_counter_ns(), "end_ns": None,
            "counts": None,
        })
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end_ns"] = time.perf_counter_ns()
        self._stack.pop()


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_simulate(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    g = a["geometry"]
    pixels = g.width * g.height
    steps = int(round(a["duration_s"] * 1e6 / a["step_us"]))
    flat = out.events["y"].astype(np.int64) * g.width + out.events["x"]
    fired = int(np.count_nonzero(np.bincount(flat, minlength=pixels)))
    return {"pixel_steps": pixels * steps, "pixels": pixels, "fired_pixels": fired}


def _count_tracker_run(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    tracker, events = a["self"], a["events"]
    inside = int(np.count_nonzero(tracker.patch.contains(events["x"], events["y"])))
    return {"patch_events": inside, "samples": int(out.shape[0])}


def _count_filter_samples(fn, args, kwargs, out):
    trace = out[1]
    return {"samples": int(trace.shape[0]),
            "rejects": int(np.count_nonzero(~trace["accepted"]))}


def _count_update(fn, args, kwargs, out):
    return {"samples": 1, "rejects": 0 if out[2] else 1}


def _count_compensate(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"mode": a["mode"], "events": len(out),
            "oob": int(np.count_nonzero(out.out_of_bounds))}


def _count_windows(fn, args, kwargs, out):
    return {"windows": len(out)}


def _count_evt_write(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"bytes": EVT_HEADER_BYTES + EVT_RECORD_BYTES * int(a["events"].shape[0])}


def _count_evt_read(fn, args, kwargs, out):
    return {"bytes": EVT_HEADER_BYTES + EVT_RECORD_BYTES * int(out[0].shape[0])}


def _count_text_write(fn, args, kwargs, out):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["dest"])}


# (owner, attribute, layer, count). Owners are the namespaces callers look the
# names up in: evosc.apps for run_pipeline and relative_depth, the defining
# modules for the benchmark's own direct calls, evosc.compensate for the filter
# steps of tracking mode, and the classes for methods.
TARGETS = [
    (apps, "run_pipeline", "apps", None),
    (apps, "relative_depth", "apps", None),
    (apps, "simulate", "sim", _count_simulate),
    (sim, "simulate", "sim", _count_simulate),
    (apps, "track_events", "track", None),
    (track.CentroidTracker, "run", "track", _count_tracker_run),
    (apps, "initialize", "freqest", None),
    (apps, "filter_samples", "ekf", _count_filter_samples),
    (compensate, "predict", "ekf", None),
    (compensate, "update", "ekf", _count_update),
    (apps, "compensate_stream", "compensate", _count_compensate),
    (compensate, "compensate_stream", "compensate", _count_compensate),
    (compensate.CompensatedEvents, "to_events", "compensate", None),
    (apps, "stream_metrics", "metrics", _count_windows),
    (metrics, "stream_metrics", "metrics", _count_windows),
    (apps, "write_events", "io", _count_evt_write),
    (evio, "write_events", "io", _count_evt_write),
    (evio, "read_events", "io", _count_evt_read),
    (apps, "write_samples_csv", "io", _count_text_write),
    (apps, "write_trace_csv", "io", _count_text_write),
    (apps, "write_compensated_csv", "io", _count_text_write),
    (apps, "write_metrics_csv", "io", _count_text_write),
]


def _wrap(tracer: Tracer, layer: str, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            c = tracer.open("trace", "count")
            try:
                tracer.spans[idx]["counts"] = count(fn, args, kwargs, result)
            finally:
                tracer.close(c)
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Patch every target; returns what `uninstall` needs to undo it."""
    undo = []
    for owner, attr, layer, count in TARGETS:
        original = owner.__dict__[attr]
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(owner, attr, _wrap(tracer, layer, name, original, count))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# io spans split by the kind of work; every other io target is a CSV writer
IO_KINDS = {"write_events": "evt_write", "read_events": "evt_read"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self time, calls and rates from a finished span list.

    A span's self time is its duration minus its direct children's; a
    layer's calls are its spans whose parent belongs to another layer.
    Rates divide a layer's self time by the work its calls report; compensate
    (by mode) and io (by kind) are also totalled per kind of call.
    """
    dur = [s["end_ns"] - s["start_ns"] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    self_ns = [d - c for d, c in zip(dur, child)]

    layer_self = {k: 0 for k in LAYERS + OWN_LAYERS}
    calls = {k: 0 for k in LAYERS}
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, s in enumerate(spans):
        layer = s["layer"]
        layer_self[layer] += self_ns[i]
        parent = s["parent"]
        if layer in calls and (parent is None or spans[parent]["layer"] != layer):
            calls[layer] += 1
        counts = dict(s["counts"] or {})
        kind = counts.pop("mode", None)
        if layer == "io":
            kind = IO_KINDS.get(s["name"].rsplit(".", 1)[-1], "text_write")
        for key, value in counts.items():
            add(f"{layer}.{key}", value)
            if kind:
                add(f"{layer}.{kind}.{key}", value)
        if kind:
            add(f"{layer}.{kind}.self_ns", self_ns[i])

    def t(key):
        return totals.get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * 1e-9
        out[f"{layer}.calls"] = calls[layer]
    for layer in OWN_LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * 1e-9

    out["sim.ns_per_pixel_step"] = _ratio(layer_self["sim"], t("sim.pixel_steps"))
    out["sim.fired_pixel_frac"] = _ratio(t("sim.fired_pixels"), t("sim.pixels"))
    out["track.ns_per_patch_event"] = _ratio(layer_self["track"], t("track.patch_events"))
    out["track.samples_per_kevent"] = _ratio(1e3 * t("track.samples"), t("track.patch_events"))
    out["freqest.ms_per_call"] = _ratio(layer_self["freqest"] * 1e-6, calls["freqest"])
    out["ekf.us_per_sample"] = _ratio(layer_self["ekf"] * 1e-3, t("ekf.samples"))
    out["ekf.gate_reject_frac"] = _ratio(t("ekf.rejects"), t("ekf.samples"))
    for mode, name in (("tracking", "tracking"), ("fixed_state", "fixed")):
        out[f"compensate.{name}_ns_per_event"] = _ratio(
            t(f"compensate.{mode}.self_ns"), t(f"compensate.{mode}.events"))
    out["compensate.oob_frac"] = _ratio(t("compensate.oob"), t("compensate.events"))
    out["metrics.ms_per_window"] = _ratio(layer_self["metrics"] * 1e-6, t("metrics.windows"))
    for kind in ("evt_write", "evt_read", "text_write"):
        # bytes per microsecond is MB/s
        out[f"io.{kind}_mbps"] = _ratio(1e3 * t(f"io.{kind}.bytes"), t(f"io.{kind}.self_ns"))
    return out
