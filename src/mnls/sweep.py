"""Manageability sweeps over map parameters.

A sweep runs one base configuration across a Cartesian product of map
parameter axes and grades each cell: the run must complete, its global
sup of sup|u| must stay below a cap, and the maximum of sup|u| within
every full map period must stay above a floor (the pulse survives without
collapsing or dissolving).  The base profile must be closed-form: a
backward-constructed base would repeat its construction in every cell.
Cells are independent, so they are farmed out to a process pool of at
most `max_workers` processes, by default one per CPU this process may run
on.  The pool and `multiprocessing` are imported only when a sweep uses
more than one worker, so importing the package or running a one-worker
sweep loads neither.  Results keep the deterministic Cartesian cell order
regardless of completion order.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import period_peaks
from .errors import ConfigError, MnlsError, is_real
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

    def __post_init__(self):
        # a NaN threshold fails every comparison and grades every cell
        # unmanageable; JSON true and "3" are not thresholds
        if not all(is_real(v) and math.isfinite(v) for v in (self.peak_floor, self.sup_cap)):
            raise ValueError(f"criterion thresholds must be finite real numbers, got {self!r}")


def verdict(status: str, sup_linf: float, min_period_peak: float,
            criterion: ManageabilityCriterion) -> bool:
    """Monotone grading: shrinking sup or raising every period peak never
    flips a manageable cell to unmanageable under the same thresholds."""
    if status != "completed":
        return False
    if not (sup_linf <= criterion.sup_cap):
        return False
    return bool(min_period_peak >= criterion.peak_floor)


def _run_cell(config: dict) -> dict:
    """Run one resolved cell config to its t_end; return its measurements."""
    try:
        run = build_run(config)
        u0 = field_from_record(run.grid, config["profile"])
        log, _ = evolve(run.model, run.disp_map.layer_partition(0.0, run.t_end), u0,
                        run.dt_target, run.sample_every, run.policy)
        ts, linf = log.samples.column("t"), log.samples.column("linf")
        peaks = period_peaks(ts, linf, run.disp_map.period, run.t_end)
        return {
            "status": log.status,
            "sup_linf": float(np.max(linf)),
            "min_period_peak": min(peaks) if peaks else float("nan"),
            "periods": len(peaks),
            "error": "",
        }
    except MnlsError as exc:
        return {
            "status": "error",
            "sup_linf": float("nan"),
            "min_period_peak": float("nan"),
            "periods": 0,
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

    A cell is the base with its axis values merged into the map (`gamma`
    sets gamma_minus and gamma_plus), run to the base's t_end.  Returns one
    row dict per cell in Cartesian order (first axis slowest), each carrying
    the axis values, run status, sup of sup|u|, the smallest per-period
    peak, and the manageable verdict.
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
        if not (isinstance(vals, (list, tuple)) and vals
                and all(is_real(v) and math.isfinite(v) for v in vals)):
            raise ConfigError(f"sweep axis {key!r} needs a non-empty list of finite numbers, "
                              f"got {vals!r}")
    if max_workers is None:
        # the CPUs this process may run on; all of them where the OS keeps no affinity
        max_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
    elif not (isinstance(max_workers, numbers.Integral) and not isinstance(max_workers, bool)
              and max_workers >= 1):
        raise ConfigError(f"sweep workers must be a positive integer, got {max_workers!r}")
    names = list(axes)
    combos = list(itertools.product(*[list(map(float, axes[k])) for k in names]))
    map_keys = [("gamma_minus", "gamma_plus") if k == "gamma" else (k,) for k in names]
    configs = [resolve_config(base, {"map": {m: v for ms, v in zip(map_keys, c) for m in ms}})
               for c in combos]

    max_workers = min(max_workers, len(configs))
    if max_workers == 1:
        cells = [_run_cell(config) for config in configs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            cells = list(pool.map(_run_cell, configs))

    rows = []
    for index, (combo, cell) in enumerate(zip(combos, cells)):
        rows.append({"cell": index, **dict(zip(names, combo)), **cell,
                     "manageable": verdict(cell["status"], cell["sup_linf"],
                                           cell["min_period_peak"], criterion)})

    if out_csv is not None:
        header = ["cell", *names, "status", "sup_linf", "min_period_peak", "periods",
                  "manageable", "error"]
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join(_cell_fmt(r[h]) for h in header))
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_csv, "\n".join(lines) + "\n")
    return rows


def _cell_fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)
