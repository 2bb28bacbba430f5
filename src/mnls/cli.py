"""Command-line front end.

Verbs:
    run        run a catalog experiment or a JSON config file
    construct  run the same target only up to its backward-constructed initial data
    sweep      grade a map-parameter product for manageability
    plot       render one series column to SVG
    list       show the experiment catalog

Exit codes: 0 on success (a detected blowup is a reported outcome, not a
failure), 1 for configuration errors, files that cannot be written and a
reader that closed stdout early, 2 for internal numerical faults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .catalog import CATALOG, catalog_ids
from .errors import ConfigError, MnlsError, NonFiniteState
from .harness import construct_experiment, run_experiment
from .plotting import emit_plot
from .sweep import ManageabilityCriterion, sweep_manageability


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _target_and_overrides(args) -> tuple[str | dict, dict | None]:
    """The positional target (a catalog id or a JSON config) and the flags' overrides."""
    target = args.target
    if target.endswith(".json") or Path(target).is_file():
        target = _load_json(target)
    given = {"t_end": args.t_end, "dt_target": args.dt, "sample_every": args.sample_every}
    overrides = {k: v for k, v in given.items() if v is not None}
    grid_over = {k: v for k, v in (("n", args.grid), ("half_width", args.half_width))
                 if v is not None}
    if grid_over:
        overrides["grid"] = grid_over
    return target, overrides or None


def _report(summary: dict) -> int:
    status = summary["status"]
    if "u0" in summary:
        status += f", mass={summary['u0'].mass():.9g}"
    print(f"status: {status}")
    if summary.get("t_detect") is not None:
        print(f"t_detect: {summary['t_detect']:.6g}")
    print(f"artifacts: {summary['out_dir']}")
    return 0


def _cmd_run(args) -> int:
    target, overrides = _target_and_overrides(args)
    return _report(run_experiment(target, args.out, overrides))


def _cmd_construct(args) -> int:
    target, overrides = _target_and_overrides(args)
    return _report(construct_experiment(target, args.out, overrides))


def _cmd_sweep(args) -> int:
    plan = _load_json(args.config)
    try:
        base, axes = plan["base"], plan["axes"]
        criterion = ManageabilityCriterion(**plan["criterion"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep config: {exc} (a sweep config holds base, axes and "
                          "criterion; a criterion takes peak_floor and sup_cap, and each cell "
                          "runs to base.t_end)") from exc
    rows = sweep_manageability(base, axes, criterion, Path(args.out) / "sweep.csv",
                               max_workers=args.workers)
    good = sum(1 for r in rows if r["manageable"])
    print(f"cells: {len(rows)}, manageable: {good}")
    print(f"table: {Path(args.out) / 'sweep.csv'}")
    return 0


def _cmd_plot(args) -> int:
    out = args.out or (Path(args.series).with_suffix("") .name + f".{args.column}.svg")
    if Path(out).resolve() == Path(args.series).resolve():
        raise MnlsError(f"--out {out} is the series file itself; the plot would overwrite it")
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

    # run and construct take one target and one set of overrides
    for verb, fn, out, text in (
            ("run", _cmd_run, "runs/out", "run an experiment"),
            ("construct", _cmd_construct, "runs/construct",
             "backward-construct an experiment's initial data")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("target", help="catalog id or JSON config path")
        p.add_argument("--out", default=out, help="output directory")
        p.add_argument("--t-end", type=float, default=None, dest="t_end")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--grid", type=int, default=None, help="nodes per axis")
        p.add_argument("--half-width", type=float, default=None, dest="half_width",
                       help="domain half width L")
        p.add_argument("--sample-every", type=int, default=None, dest="sample_every")
        p.set_defaults(fn=fn)

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
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit cannot fail again (Python's documented SIGPIPE recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 2
    except (MnlsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
