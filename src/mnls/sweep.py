"""Manageability sweeps over map parameters.

A sweep runs one base configuration across a Cartesian product of map
parameter axes and grades each cell: the run must complete, its global
sup of sup|u| must stay below a cap, and the maximum of sup|u| within
every full map period must stay above a floor (the pulse survives without
collapsing or dissolving).  The base profile must be closed-form: a
backward-constructed base would repeat its construction in every cell.
Cells are independent, so they are farmed out to a process pool of at
most `max_workers` processes.  Results keep the deterministic Cartesian
cell order regardless of completion order.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import period_peaks
from .errors import ConfigError, MnlsError
from .harness import build_run, resolve_config
from .profiles import CLOSED_FORM_KINDS, field_from_record
from .propagator import evolve
from .runio import atomic_write_text

__all__ = ["ManageabilityCriterion", "sweep_manageability", "verdict"]

_AXIS_KEYS = ("gamma", "gamma_minus", "gamma_plus", "t_star", "t_period", "epsilon")


@dataclass(frozen=True)
class ManageabilityCriterion:
    """Thresholds: floor for per-period peaks, cap for the global sup."""

    peak_floor: float  # c0
    sup_cap: float  # C0
    t_end: float | None = None  # horizon override; default: the config's


def verdict(status: str, sup_linf: float, min_period_peak: float,
            criterion: ManageabilityCriterion) -> bool:
    """Monotone grading: shrinking sup or raising every period peak never
    flips a manageable cell to unmanageable under the same thresholds."""
    if status != "completed":
        return False
    if not (sup_linf <= criterion.sup_cap):
        return False
    return bool(min_period_peak >= criterion.peak_floor)


def _apply_axis(map_dict: dict, key: str, value: float) -> dict:
    d = dict(map_dict)
    if key == "gamma":
        d["gamma_minus"] = value
        d["gamma_plus"] = value
    else:
        d[key] = value
    return d


def _run_cell(args):
    index, config, criterion = args
    try:
        run = build_run(config)
        t_end = run.t_end if criterion.t_end is None else float(criterion.t_end)
        u0 = field_from_record(run.grid, config["profile"])
        log, _ = evolve(run.model, run.disp_map, u0, 0.0, t_end, run.dt_target,
                        run.sample_every, run.policy)
        ts = np.array([s.t for s in log.samples])
        linf = np.array([s.linf for s in log.samples])
        sup = float(np.max(linf))
        peaks = period_peaks(ts, linf, run.disp_map.period, t_end)
        min_peak = min(peaks) if peaks else float("nan")
        return index, {
            "status": log.status,
            "sup_linf": sup,
            "min_period_peak": min_peak,
            "periods": len(peaks),
            "manageable": verdict(log.status, sup, min_peak, criterion),
            "error": "",
        }
    except MnlsError as exc:
        return index, {
            "status": "error",
            "sup_linf": float("nan"),
            "min_period_peak": float("nan"),
            "periods": 0,
            "manageable": False,
            "error": f"{type(exc).__name__}: {exc}",
        }


def sweep_manageability(
    base_config: str | dict,
    axes: dict[str, list[float]],
    criterion: ManageabilityCriterion,
    out_csv: str | Path | None = None,
    max_workers: int | None = None,
) -> list[dict]:
    """Grade every cell of the axes product; optionally write a CSV table.

    Returns one row dict per cell in Cartesian order (first axis slowest),
    each carrying the axis values, run status, sup of sup|u|, the smallest
    per-period peak, and the manageable verdict.
    """
    base = resolve_config(base_config)
    profile = base["profile"]
    if not (isinstance(profile, dict) and profile.get("kind") in CLOSED_FORM_KINDS):
        raise ConfigError(f"sweep needs a closed-form base profile {CLOSED_FORM_KINDS}, "
                          f"got {profile!r}")
    if not isinstance(axes, dict):
        raise ConfigError(f"sweep axes must be a record of value lists, got {axes!r}")
    for key, vals in axes.items():
        if key not in _AXIS_KEYS:
            raise ConfigError(f"unknown sweep axis {key!r}; allowed: {_AXIS_KEYS}")
        if not (isinstance(vals, (list, tuple)) and vals and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                for v in vals)):
            raise ConfigError(f"sweep axis {key!r} needs a non-empty list of finite numbers, "
                              f"got {vals!r}")
    names = list(axes)
    values = [list(map(float, axes[k])) for k in names]
    jobs = []
    for index, combo in enumerate(itertools.product(*values)):
        cfg = dict(base)
        m = dict(base["map"])
        for key, val in zip(names, combo):
            m = _apply_axis(m, key, val)
        cfg["map"] = m
        jobs.append((index, cfg, criterion))

    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = max(1, min(max_workers, len(jobs)))

    results: list[dict | None] = [None] * len(jobs)
    if max_workers == 1:
        for job in jobs:
            index, row = _run_cell(job)
            results[index] = row
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            for index, row in pool.map(_run_cell, jobs):
                results[index] = row

    rows = []
    for index, (combo, row) in enumerate(zip(itertools.product(*values), results)):
        full = {"cell": index}
        full.update({k: v for k, v in zip(names, combo)})
        full.update(row)
        rows.append(full)

    if out_csv is not None:
        header = ["cell", *names, "status", "sup_linf", "min_period_peak", "periods",
                  "manageable", "error"]
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join(_cell_fmt(r[h]) for h in header))
        atomic_write_text(out_csv, "\n".join(lines) + "\n")
    return rows


def _cell_fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)
