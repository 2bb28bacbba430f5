"""Run resolution and artifact emission for single experiments.

A run configuration is a plain dict (see `catalog` for the schema).  Every
run takes one path: `resolve_config` expands it, `build_run` turns it into
model/map/grid/policy objects, `initial_data` turns its profile record into
the starting field, `evolve` marches that field, and one writer puts
series.csv, events.jsonl, meta.json and two SVG plots into the output
directory next to the field snapshots.  Reruns of the same configuration
are byte-identical in series.csv.
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
from .errors import BlowupDuringConstruction, ConfigError, InvalidDimension, InvalidResolution
from .lattice import ComplexField, Grid, make_grid
from .mgmt_map import DispersionMap
from .plotting import emit_plot
from .profiles import field_from_record
from .propagator import BlowupPolicy, ModelSpec, TrajectoryLog, evolve
from .runio import write_events_jsonl, write_meta_json, write_series_csv, write_snapshot

__all__ = ["RunSpec", "build_run", "initial_data", "resolve_config", "run_experiment"]

_REQUIRED = ("model", "map", "profile", "grid", "dt_target", "t_end")


def resolve_config(target: str | dict, overrides: dict | None = None) -> dict:
    """Expand a catalog id or explicit dict into a full configuration.

    Overrides replace top-level values and merge into nested records one
    level deep.  A dict that names an `experiment` and lacks a required key
    is that catalog entry with the dict's other keys applied as overrides.
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
    """Build the run objects of a resolved config; raises ConfigError for a
    missing, mistyped or out-of-range field or an unknown policy key."""
    try:
        g = config["grid"]
        run = RunSpec(
            model=ModelSpec(kind=config["model"]["kind"], p=config["model"].get("p")),
            disp_map=DispersionMap.from_dict(config["map"]),
            grid=make_grid(int(g["dim"]), float(g["half_width"]), int(g["n"])),
            policy=BlowupPolicy(**{k: float(v) for k, v in config["policy"].items()}),
            dt_target=float(config["dt_target"]),
            t_end=float(config["t_end"]),
            sample_every=int(config["sample_every"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError,
            InvalidDimension, InvalidResolution) as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc
    if not all(math.isfinite(v) and v > 0 for v in (run.dt_target, run.t_end)):
        raise ConfigError("dt_target and t_end must be positive and finite")
    if run.sample_every < 1:
        raise ConfigError("sample_every must be >= 1")
    return run


def initial_data(run: RunSpec, profile: dict) -> tuple[ComplexField, TrajectoryLog | None]:
    """The starting field of a run, with the construction log if it was built.

    Closed-form kinds go to `field_from_record`, `backward_construction` to
    `backward_blowup_data`.  Raises ConfigError for a malformed record.
    """
    if not (isinstance(profile, dict) and profile.get("kind") == "backward_construction"):
        return field_from_record(run.grid, profile), None
    try:
        return backward_blowup_data(
            model=run.model,
            layer_index=int(profile["layer_index"]),
            blowup_time=float(profile["blowup_time"]),
            grid=run.grid,
            omega=float(profile.get("omega", 1.0)),
            dt_target=run.dt_target,
            sample_every=run.sample_every,
            policy=run.policy,
        )
    except (KeyError, TypeError, ValueError) as exc:
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
        "reference": config.get("reference", {}),
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


def run_experiment(target: str | dict, out_dir: str | Path, overrides: dict | None = None) -> dict:
    """Run one experiment and write its artifacts under out_dir."""
    config = resolve_config(target, overrides)
    run = build_run(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        u0, construction_log = initial_data(run, config["profile"])
    except BlowupDuringConstruction as exc:
        # expected for the managed-Laplacian attempt: persist the
        # auxiliary trajectory as the run's primary record
        status = "blowup_during_construction"
        meta = _write_run_artifacts(out, config, run.grid, status, exc.log)
        return {"status": status, "t_detect": exc.t_detect, "out_dir": str(out), "meta": meta}
    if construction_log is not None:
        write_snapshot(out / "u0.mnls", u0)
        write_series_csv(out / "construction.csv", construction_log.samples)

    log, final = evolve(run.model, run.disp_map, u0, run.t_end, run.dt_target,
                        run.sample_every, run.policy)
    write_snapshot(out / ("final.mnls" if log.completed else "last_stable.mnls"), final)
    meta = _write_run_artifacts(out, config, run.grid, log.status, log, construction_log)
    return {"status": log.status, "t_detect": log.t_detect, "out_dir": str(out), "meta": meta,
            "log": log, "final": final}
