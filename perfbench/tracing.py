"""Spans recorded from outside the package, and the per-layer numbers they give.

During a traced pass the benchmark replaces the functions the package calls
through module attributes (``mnls.harness.evolve``, ``mnls.propagator.
sample_diagnostics`` and so on) with wrappers that open a span around the
call, and puts the originals back afterwards.  Nothing in the package
changes; an untraced pass runs the original functions untouched.

A span is ``[name, start, end, parent, run_id]``: ``parent`` is the index of
the enclosing span (or None) and ``run_id`` names the top-level operation.
Counts that belong to a boundary (steps, samples, bytes) are collected by
the same wrappers from the call's arguments and result.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter

import mnls.constructor
import mnls.harness
import mnls.lattice
import mnls.mgmt_map
import mnls.propagator
import mnls.sweep

# lru_cache'd table builders on Grid; their hit ratio is a lattice metric
_GRID_TABLES = ("axis_coords", "axis_wavenumbers", "meshes", "laplacian_symbol")
_WRITERS = ("write_series_csv", "write_events_jsonl", "write_meta_json", "write_snapshot")
# one artifact category per file kind; snapshots share one
ARTIFACTS = ("series_csv", "construction_csv", "events_jsonl", "meta_json", "snapshot")


def steps_taken(log) -> int:
    """Steps the propagator computed, the discarded violating step included.

    ``layer_steps`` lists the planned steps of every layer entered; a halted
    run stopped inside its last layer at the step whose time is the blowup
    event's ``t_violation``.
    """
    total = sum(ls["steps"] for ls in log.layer_steps)
    if log.status == "blowup":
        last = log.layer_steps[-1]
        halt = [e for e in log.events if e.get("type") == "blowup"][-1]
        taken = round((halt["t_violation"] - last["t_begin"]) / last["dt"])
        total += taken - last["steps"]
    return total


def _artifact(path) -> str:
    p = Path(path)
    return "snapshot" if p.suffix == ".mnls" else p.name.replace(".", "_")


class Tracer:
    """In-memory span list plus counters, filled while the patches are on."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._series_rows: dict[str, int] = {}  # series.csv path -> data rows

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, after):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- count collectors, called after the wrapped function returns ------
    def _after_evolve(self, result, args, kwargs, construction=False):
        log = result[0]
        u0 = args[2] if len(args) > 2 else kwargs["u0"]
        steps = steps_taken(log)
        self.counts["propagator.steps"] += steps
        self.counts["propagator.point_steps"] += steps * u0.grid.n ** u0.grid.dim
        if construction:
            self.counts["constructor.steps"] += steps

    def _after_sample(self, result, args, kwargs):
        self.counts["diagnostics.samples"] += 1
        # spectral_gradient: one forward/inverse transform pair per axis
        self.counts["diagnostics.fft_pairs"] += args[0].grid.dim

    def _after_partition(self, result, args, kwargs):
        self.counts["mgmt_map.layers"] += len(result)

    def _after_write(self, result, args, kwargs):
        self.counts["runio.bytes." + _artifact(args[0])] += Path(args[0]).stat().st_size

    def _after_write_series(self, result, args, kwargs):
        self._after_write(result, args, kwargs)
        self._series_rows[str(args[0])] = len(args[1])

    def _after_plot(self, result, args, kwargs):
        self.counts["plotting.points"] += self._series_rows[str(args[0])]
        self.counts["plotting.bytes.svg"] += Path(args[2]).stat().st_size

    def _patch_table(self):
        after_evolve = self._after_evolve
        after_construction_evolve = partial(self._after_evolve, construction=True)
        table = [
            (mnls.harness, "resolve_config", "harness.resolve_config", None),
            (mnls.harness, "field_from_record", "profiles.field_from_record", None),
            (mnls.harness, "backward_blowup_data", "constructor.backward", None),
            (mnls.harness, "evolve", "propagator.evolve", after_evolve),
            (mnls.harness, "emit_plot", "plotting.emit_plot", self._after_plot),
            (mnls.constructor, "evolve", "propagator.evolve", after_construction_evolve),
            (mnls.propagator, "sample_diagnostics", "diagnostics.sample", self._after_sample),
            (mnls.mgmt_map.DispersionMap, "layer_partition", "mgmt_map.layer_partition",
             self._after_partition),
            (mnls.sweep, "resolve_config", "harness.resolve_config", None),
            (mnls.sweep, "field_from_record", "profiles.field_from_record", None),
            (mnls.sweep, "evolve", "propagator.evolve", after_evolve),
            # only called in-process when the sweep runs with one worker
            (mnls.sweep, "_run_cell", "sweep.cell", None),
        ]
        table += [
            (mnls.harness, w, "runio.write",
             self._after_write_series if w == "write_series_csv" else self._after_write)
            for w in _WRITERS
        ]
        return table

    @contextmanager
    def patched(self):
        """Install the wrappers; always restore the original attributes."""
        saved = []
        try:
            for owner, attr, name, after in self._patch_table():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def clear_table_caches() -> None:
    for name in _GRID_TABLES:
        getattr(mnls.lattice.Grid, name).cache_clear()


def table_cache_hit_ratio() -> float:
    hits = misses = 0
    for name in _GRID_TABLES:
        info = getattr(mnls.lattice.Grid, name).cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


def span_totals(spans: list[list]) -> tuple[list[float], dict, dict]:
    """Per-span self times, and inclusive and self seconds summed by span name.

    A span's self time is its duration minus the time its direct children
    cover; children of one parent never overlap, since calls nest.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    total, self_total = defaultdict(float), defaultdict(float)
    for s, t_self in zip(spans, own):
        total[s[0]] += s[2] - s[1]
        self_total[s[0]] += t_self
    return own, total, self_total


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  sweep_wall: float | None, sweep_workers: int) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by metric name."""
    spans = tracer.spans
    _, total, self_total = span_totals(spans)
    c = tracer.counts
    steps, samples = c["propagator.steps"], c["diagnostics.samples"]
    cells = [s[2] - s[1] for s in spans if s[0] == "sweep.cell"]
    m = {
        "propagator.evolve.self_s": self_total["propagator.evolve"],
        "propagator.steps": steps,
        "propagator.point_steps": c["propagator.point_steps"],
        "propagator.ns_per_point_step": (
            1e9 * self_total["propagator.evolve"] / c["propagator.point_steps"]
            if c["propagator.point_steps"] else 0.0
        ),
        "diagnostics.samples": samples,
        "diagnostics.sample.self_s": self_total["diagnostics.sample"],
        "diagnostics.us_per_sample": (
            1e6 * self_total["diagnostics.sample"] / samples if samples else 0.0
        ),
        "diagnostics.virial_residuals.s": total["diagnostics.virial_residuals"],
        "constructor.backward.s": total["constructor.backward"],
        "constructor.steps": c["constructor.steps"],
        "mgmt_map.layers": c["mgmt_map.layers"],
        "mgmt_map.layer_partition.s": total["mgmt_map.layer_partition"],
        "runio.write_s": total["runio.write"],
        "runio.bytes": sum(c["runio.bytes." + a] for a in ARTIFACTS),
        "plotting.emit_plot.s": total["plotting.emit_plot"],
        "plotting.points": c["plotting.points"],
        "plotting.bytes.svg": c["plotting.bytes.svg"],
        "harness.run_experiment.self_s": self_total["harness.run_experiment"],
        "harness.resolve_config.s": total["harness.resolve_config"],
        "profiles.field_from_record.s": total["profiles.field_from_record"],
        "lattice.table_cache_hit_ratio": table_cache_hit_ratio(),
        "sweep.cells": float(len(cells)),
        "sweep.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "sweep.cell_s_max": max(cells) if cells else 0.0,
        "sweep.parallel_efficiency": (
            sum(cells) / (sweep_workers * sweep_wall) if cells and sweep_wall else 0.0
        ),
        "trace.overhead_s": traced_wall - untraced_wall,
        # computed, not counted by the program: one transform pair per step
        # plus one per diagnostics sample per axis
        "computed.fft_pairs": steps + c["diagnostics.fft_pairs"],
    }
    for a in ARTIFACTS:
        m["runio.bytes." + a] = c["runio.bytes." + a]
    return m
