"""Pieces shared by the workloads: metric accounting, the open-loop
generator, memory readings, and reading stored relations back for the
oracles."""

from __future__ import annotations

import gc
import json
import multiprocessing
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics() -> dict:
    """``{"end_to_end": [...], "per_layer": [...]}`` from BENCHMARK.json,
    the one place metric names, units and bounds are written down."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {group: spec[group] for group in ("end_to_end", "per_layer")}


class Layers:
    """Per-layer accumulators: busy seconds and counts by metric name."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)

    @contextmanager
    def timed(self, name: str):
        tick = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - tick

    def add(self, name: str, amount: float = 1.0) -> None:
        self.values[name] += amount


def settle() -> None:
    """Collect garbage and freeze what survives before a measured
    phase, so collector pauses scale with the phase's own garbage, not
    with everything set-up allocated."""
    gc.collect()
    gc.freeze()


def _send_result(pipe, function, args):
    pipe.send(function(*args))


def in_child(function, *args):
    """``function(*args)`` in a forked child process; returns its
    (picklable) result.  Work that allocates much but is not what a
    run measures (star generation, the oracles) runs here, so it stays
    out of this process's peak resident memory.  Call it only while
    this process runs no threads of its own."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send_result,
                            args=(sender, function, args))
    child.start()
    sender.close()
    try:
        return receiver.recv()
    finally:
        child.join()


def dimension_table(db, name):
    """A dimension relation's feature rows, read back with a plain heap
    scan, as a matrix indexed by primary key (NaN where no key)."""
    relation = db.relation(name)
    rows = relation.scan()
    keys = relation.project_keys(rows)
    table = np.full((keys.max() + 1, len(relation.schema.feature_positions)),
                    np.nan)
    table[keys] = relation.project_features(rows)
    return table


def median(values) -> float:
    return float(statistics.median(values))


def windowed_median(values, window: int) -> float:
    """Median over consecutive windows of ``window`` samples of each
    window's median.  Host noise comes in bursts of a few seconds; a
    burst that covers fewer than half the windows leaves this figure
    where it was, while it drags a pooled median along."""
    values = list(values)
    windows = [values[i:i + window]
               for i in range(0, len(values) - window + 1, window)]
    return median([median(w) for w in windows] or values)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def report(problems) -> None:
    """Print each oracle mismatch on standard error."""
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_open_loop(operations, offsets) -> float:
    """Call ``operations[i](due_i)`` at ``start + offsets[i]`` from the
    calling thread, whether or not earlier operations have finished.

    Each operation receives its scheduled time so latency can be taken
    from when the request was due, not from when a late generator got
    round to sending it.  Returns the generator's worst lateness in
    seconds.
    """
    start = time.perf_counter() + 0.005
    worst = 0.0
    for operation, offset in zip(operations, offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        worst = max(worst, time.perf_counter() - due)
        operation(due)
    return worst


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         trace: bool) -> dict:
    """The result object: every declared metric of the run's group,
    in declared order.  A per-layer metric whose layer did no work in
    this workload reads 0; an end-to-end metric must be measured."""
    group = "per_layer" if trace else "end_to_end"
    out = {}
    for entry in declared_metrics()[group]:
        name = entry["name"]
        if name not in metrics and group == "end_to_end":
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        out[name] = {"value": float(metrics.get(name, 0.0)),
                     "unit": entry["unit"]}
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    }
