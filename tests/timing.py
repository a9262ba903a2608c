"""Timing helper for the compensation throughput tests."""

import time

import numpy as np

from evosc.compensate import compensate_stream


def throughput_bench(events, state_u, state_v, geometry, repeats=10) -> dict:
    """Time the fixed-state hot path; returns mean/std ns per event."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    compensate_stream(events, state_u, state_v, geometry)  # warm cache
    per_event = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        compensate_stream(events, state_u, state_v, geometry)
        t1 = time.perf_counter_ns()
        per_event.append((t1 - t0) / events.shape[0])
    per_event = np.asarray(per_event)
    return {
        "events": int(events.shape[0]),
        "repeats": repeats,
        "ns_per_event_mean": float(per_event.mean()),
        "ns_per_event_std": float(per_event.std()),
        "events_per_second": float(1e9 / per_event.mean()),
    }
