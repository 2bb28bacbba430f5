"""Run resolution and artifact emission for single experiments.

A run configuration is a plain dict (see `catalog` for the schema).  Every
run takes one path: `resolve_config` expands it, `build_run` turns it into
model/map/grid/policy objects, `initial_data` turns its profile record into
the starting field, `evolve` marches that field, and one writer puts
series.csv, events.jsonl, meta.json and two SVG plots into the output
directory next to the field snapshots.  `construct_experiment` takes the
same path up to the initial data, with the same artifacts for a
constructed field or a failed construction.  Reruns of the same
configuration are byte-identical in series.csv.
"""

from __future__ import annotations

import math
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import catalog_entry
from .constructor import backward_blowup_data
from .errors import (BlowupDuringConstruction, ConfigError, InvalidDimension, InvalidResolution,
                     WrongDimension, is_real)
from .lattice import ComplexField, Grid, make_grid
from .mgmt_map import DispersionMap
from .plotting import emit_plot
from .profiles import field_from_record
from .propagator import BlowupPolicy, ModelSpec, TrajectoryLog, evolve
from .runio import write_events_jsonl, write_meta_json, write_series_csv, write_snapshot

__all__ = ["RunSpec", "build_run", "construct_experiment", "initial_data", "resolve_config",
           "run_experiment"]

_REQUIRED = ("model", "map", "profile", "grid", "dt_target", "t_end")
_KNOWN = _REQUIRED + ("sample_every", "policy", "experiment", "title", "expected")


def resolve_config(target: str | dict, overrides: dict | None = None) -> dict:
    """Expand a catalog id or explicit dict into a full configuration.

    Overrides replace top-level values and merge into nested records one
    level deep.  A dict that names an `experiment` and lacks a required key
    is that catalog entry with the dict's other keys applied as overrides.
    Raises ConfigError for a missing or an unknown top-level key.
    """
    if isinstance(target, dict) and "experiment" in target and not all(
            k in target for k in _REQUIRED):
        rest = {k: v for k, v in target.items() if k != "experiment"}
        return resolve_config(resolve_config(target["experiment"], rest), overrides)
    if isinstance(target, str):
        config = catalog_entry(target)
    elif isinstance(target, dict):
        config = dict(target)
    else:
        raise ConfigError(f"config must be an experiment name or dict, got {type(target)}")
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    missing = [k for k in _REQUIRED if k not in config]
    if missing:
        raise ConfigError(f"config is missing keys: {missing}")
    unknown = [k for k in config if k not in _KNOWN]
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; allowed: {_KNOWN}")
    config.setdefault("sample_every", 10)
    config.setdefault("policy", {})
    return config


@dataclass(frozen=True)
class RunSpec:
    """The objects a resolved configuration describes."""

    model: ModelSpec
    disp_map: DispersionMap
    grid: Grid
    policy: BlowupPolicy
    dt_target: float
    t_end: float
    sample_every: int


def build_run(config: dict) -> RunSpec:
    """Build the run objects of a resolved config.

    The model, grid and policy records are the keyword arguments of
    `ModelSpec`, `make_grid` and `BlowupPolicy`, which validate them; the
    map record goes to `DispersionMap.from_dict`.  Raises ConfigError for a
    missing, unknown, mistyped or out-of-range field.
    """
    try:
        run = RunSpec(
            model=ModelSpec(**config["model"]),
            disp_map=DispersionMap.from_dict(config["map"]),
            grid=make_grid(**config["grid"]),
            policy=BlowupPolicy(**config["policy"]),
            dt_target=float(config["dt_target"]),
            t_end=float(config["t_end"]),
            sample_every=config["sample_every"],
        )
    except (KeyError, TypeError, ValueError, InvalidDimension, InvalidResolution) as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc
    if not all(is_real(v) and math.isfinite(v) and v > 0
               for v in (config["dt_target"], config["t_end"])):
        raise ConfigError("dt_target and t_end must be positive, finite real numbers")
    if isinstance(run.sample_every, bool) or not (
            isinstance(run.sample_every, int) and run.sample_every >= 1):
        raise ConfigError(f"sample_every must be an integer >= 1, got {run.sample_every!r}")
    return run


def _is_constructed(profile) -> bool:
    return isinstance(profile, dict) and profile.get("kind") == "backward_construction"


def initial_data(run: RunSpec, profile: dict) -> tuple[ComplexField, TrajectoryLog | None]:
    """The starting field of a run, with the construction log if it was built.

    Closed-form kinds go to `field_from_record`.  A `backward_construction`
    record's other keys go to `backward_blowup_data` next to the run's
    model, map, grid, `dt_target`, `sample_every` and policy.  Raises ConfigError
    for a malformed record.
    """
    if not _is_constructed(profile):
        return field_from_record(run.grid, profile), None
    params = {k: v for k, v in profile.items() if k != "kind"}
    try:
        return backward_blowup_data(model=run.model, disp_map=run.disp_map, grid=run.grid,
                                    dt_target=run.dt_target, sample_every=run.sample_every,
                                    policy=run.policy, **params)
    except (TypeError, ValueError, WrongDimension) as exc:
        raise ConfigError(f"bad backward_construction profile {profile!r}: {exc}") from exc


def _write_run_artifacts(out: Path, config: dict, grid: Grid, status: str,
                         log: TrajectoryLog, construction_log: TrajectoryLog | None = None
                         ) -> dict:
    """Write series.csv, events.jsonl, meta.json and both plots; return meta."""
    write_series_csv(out / "series.csv", log.samples)
    write_events_jsonl(out / "events.jsonl", log.events)
    dts = [ls["dt"] for ls in log.layer_steps]
    meta = {
        "experiment": config.get("experiment"),
        "title": config.get("title"),
        "model": config["model"],
        "map": config["map"],
        "profile": config["profile"],
        "grid": {"dim": grid.dim, "half_width": grid.half_width, "n": grid.n, "dx": grid.dx},
        "dt_target": config["dt_target"],
        "t_end": config["t_end"],
        "sample_every": config["sample_every"],
        "policy": config["policy"],
        "status": status,
        "t_detect": log.t_detect,
        "versions": {"mnls": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "stepping": {
            "layers": len(log.layer_steps),
            "dt_min": min(dts) if dts else None,
            "dt_max": max(dts) if dts else None,
            "total_steps": sum(ls["steps"] for ls in log.layer_steps),
        },
    }
    if construction_log is not None:
        meta["construction"] = {
            "layers": len(construction_log.layer_steps),
            "samples": len(construction_log.samples),
        }
    write_meta_json(out / "meta.json", meta)
    emit_plot(out / "series.csv", "linf", out / "linf.svg")
    emit_plot(out / "series.csv", "energy", out / "energy.svg")
    return meta


def _construction_phase(config: dict, out_dir: str | Path) -> tuple[RunSpec, dict]:
    """Build a resolved config's run, make out_dir and the run's initial data.

    Constructed data goes to u0.mnls and its auxiliary trajectory to
    construction.csv.  A construction that trips the blowup policy writes
    the run's artifacts instead, its auxiliary trajectory being the record.
    Returns the run and a summary: status "constructed" with the field
    `u0` and its construction `log` (None for a closed-form profile), or
    the failed construction's status, t_detect and meta.
    """
    run = build_run(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        u0, log = initial_data(run, config["profile"])
    except BlowupDuringConstruction as exc:
        # expected for the managed-Laplacian attempt
        status = "blowup_during_construction"
        meta = _write_run_artifacts(out, config, run.grid, status, exc.log)
        return run, {"status": status, "t_detect": exc.t_detect, "out_dir": str(out),
                     "meta": meta}
    if log is not None:
        write_snapshot(out / "u0.mnls", u0)
        write_series_csv(out / "construction.csv", log.samples)
    return run, {"status": "constructed", "out_dir": str(out), "u0": u0, "log": log}


def construct_experiment(target: str | dict, out_dir: str | Path,
                         overrides: dict | None = None) -> dict:
    """Build one experiment's backward-constructed initial data under out_dir.

    The target and overrides are those of `run_experiment`, whose first
    phase this is.  Raises ConfigError for a closed-form profile, which
    has nothing to construct.
    """
    config = resolve_config(target, overrides)
    if not _is_constructed(config["profile"]):
        raise ConfigError("nothing to construct: the profile is not a backward_construction "
                          f"record, got {config['profile']!r}")
    return _construction_phase(config, out_dir)[1]


def run_experiment(target: str | dict, out_dir: str | Path, overrides: dict | None = None) -> dict:
    """Run one experiment and write its artifacts under out_dir.

    Returns status, t_detect, out_dir, meta and the trajectory log, or a
    failed construction's summary.  The field the run ends on is not
    returned: it is on disk as final.mnls, or last_stable.mnls after a
    halt, for `read_snapshot`.
    """
    config = resolve_config(target, overrides)
    run, start = _construction_phase(config, out_dir)
    if start["status"] != "constructed":
        return start
    out = Path(start["out_dir"])
    log, last = evolve(run.model, run.disp_map.layer_partition(0.0, run.t_end), start["u0"],
                       run.dt_target, run.sample_every, run.policy)
    write_snapshot(out / ("final.mnls" if log.completed else "last_stable.mnls"), last)
    meta = _write_run_artifacts(out, config, run.grid, log.status, log, start["log"])
    return {"status": log.status, "t_detect": log.t_detect, "out_dir": str(out), "meta": meta,
            "log": log}
