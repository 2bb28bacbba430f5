"""Command-line front end.

Verbs:
    run        run a catalog experiment or a JSON config file
    construct  build backward-constructed initial data and save it
    sweep      grade a map-parameter product for manageability
    plot       render one series column to SVG
    list       show the experiment catalog

Exit codes: 0 on success (a detected blowup is a reported outcome, not a
failure), 1 for configuration errors, 2 for internal numerical faults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import CATALOG, catalog_ids
from .errors import BlowupDuringConstruction, ConfigError, MnlsError, NonFiniteState
from .harness import build_run, initial_data, resolve_config, run_experiment
from .mgmt_map import normalized_map
from .plotting import emit_plot
from .runio import write_series_csv, write_snapshot
from .sweep import ManageabilityCriterion, sweep_manageability


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _cmd_run(args) -> int:
    target = args.target
    if target.endswith(".json") or Path(target).is_file():
        target = _load_json(target)
    given = {"t_end": args.t_end, "dt_target": args.dt, "sample_every": args.sample_every}
    overrides = {k: v for k, v in given.items() if v is not None}
    grid_over = {k: v for k, v in (("n", args.grid), ("half_width", args.half_width))
                 if v is not None}
    if grid_over:
        overrides["grid"] = grid_over
    summary = run_experiment(target, args.out, overrides or None)
    print(f"status: {summary['status']}")
    if summary.get("t_detect") is not None:
        print(f"t_detect: {summary['t_detect']:.6g}")
    print(f"artifacts: {summary['out_dir']}")
    return 0


def _cmd_construct(args) -> int:
    # the run the constructed data is meant for: the unit map up to its blowup
    config = resolve_config({
        "model": {"kind": args.kind}, "map": normalized_map().to_dict(),
        "profile": {"kind": "backward_construction", "layer_index": args.layer,
                    "blowup_time": args.blowup_time, "omega": args.omega},
        "grid": {"dim": 1, "half_width": args.half_width, "n": args.n},
        "dt_target": args.dt, "t_end": args.blowup_time,
        "policy": {"amplitude_factor": args.amplitude_factor},
    })
    run = build_run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        u0, aux_log = initial_data(run, config["profile"])
    except BlowupDuringConstruction as exc:
        write_series_csv(out / "construction.csv", exc.log.samples)
        print(f"status: blowup_during_construction at t={exc.t_detect:.6g}")
        print(f"partial record: {out / 'construction.csv'}")
        return 0
    write_snapshot(out / "u0.mnls", u0)
    write_series_csv(out / "construction.csv", aux_log.samples)
    print(f"status: constructed, mass={u0.mass():.9g}")
    print(f"artifacts: {out}")
    return 0


def _cmd_sweep(args) -> int:
    plan = _load_json(args.config)
    try:
        base, axes, crit = plan["base"], plan["axes"], plan["criterion"]
        unknown = sorted(set(crit) - {"peak_floor", "sup_cap"})
        if unknown:
            raise ConfigError(f"unknown criterion keys {unknown}: a criterion takes peak_floor "
                              "and sup_cap, and the sweep runs each cell to base.t_end")
        criterion = ManageabilityCriterion(float(crit["peak_floor"]), float(crit["sup_cap"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sweep config needs base/axes/criterion: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep_manageability(base, axes, criterion, out / "sweep.csv",
                               max_workers=args.workers)
    good = sum(1 for r in rows if r["manageable"])
    print(f"cells: {len(rows)}, manageable: {good}")
    print(f"table: {out / 'sweep.csv'}")
    return 0


def _cmd_plot(args) -> int:
    out = args.out or (Path(args.series).with_suffix("") .name + f".{args.column}.svg")
    emit_plot(args.series, args.column, out)
    print(f"wrote {out}")
    return 0


def _cmd_list(args) -> int:
    for name in catalog_ids():
        print(f"{name:24s} {CATALOG[name]['title']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mnls", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run an experiment")
    p.add_argument("target", help="catalog id or JSON config path")
    p.add_argument("--out", default="runs/out", help="output directory")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--grid", type=int, default=None, help="nodes per axis")
    p.add_argument("--half-width", type=float, default=None, dest="half_width",
                   help="domain half width L")
    p.add_argument("--sample-every", type=int, default=None, dest="sample_every")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("construct", help="backward-construct initial data")
    p.add_argument("--kind", choices=("nm", "dm"), default="nm")
    p.add_argument("--layer", type=int, required=True, help="target layer index n")
    p.add_argument("--blowup-time", type=float, required=True, dest="blowup_time")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--half-width", type=float, default=12 * 3.141592653589793,
                   dest="half_width")
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--amplitude-factor", type=float, default=8.0,
                   dest="amplitude_factor")
    p.add_argument("--out", default="runs/construct")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("sweep", help="manageability sweep over map parameters")
    p.add_argument("config", help="JSON file with base, axes, criterion")
    p.add_argument("--out", default="runs/sweep")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("plot", help="render a series column to SVG")
    p.add_argument("series", help="path to series.csv")
    p.add_argument("--col", default="linf", dest="column")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("list", help="show the experiment catalog")
    p.set_defaults(fn=_cmd_list)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 2
    except MnlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
