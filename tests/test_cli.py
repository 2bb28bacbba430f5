"""End-to-end command line checks, driven through main(argv)."""

import json
import os
import sys
import warnings

import numpy as np
import pytest

from mnls.cli import main
from mnls.errors import MnlsError, NonFiniteState


def _tiny_config():
    return {
        "model": {"kind": "dm"},
        "map": {"t_star": 1.0, "t_period": 2.0},
        "profile": {"kind": "scaled_ground_state"},
        "grid": {"dim": 1, "half_width": 6 * np.pi, "n": 128},
        "dt_target": 2e-3,
        "t_end": 0.5,
        "sample_every": 10,
    }


def test_list_prints_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "foc-first-layer-T0.5" in out
    assert "dm-global-T1.5" in out
    assert "nm-revival-n2-T5.5" in out
    assert len(out.strip().splitlines()) == 19


def test_run_catalog_id_with_overrides(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "foc-first-layer-T0.5",
            "--out",
            str(out),
            "--t-end",
            "0.3",
            "--grid",
            "512",
            "--half-width",
            "10.0",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "status: completed" in text
    meta = json.loads((out / "meta.json").read_text())
    assert meta["grid"]["n"] == 512
    assert meta["grid"]["half_width"] == 10.0
    assert meta["t_end"] == 0.3


def test_run_reports_blowup_with_exit_zero(tmp_path, capsys):
    out = tmp_path / "blow"
    code = main(["run", "foc-first-layer-T0.5", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "status: blowup" in text
    assert "t_detect:" in text
    assert (out / "last_stable.mnls").exists()


def test_run_json_config(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "json-run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert "status: completed" in capsys.readouterr().out


def test_run_json_config_naming_an_experiment(tmp_path, capsys):
    """A partial grid record merges into the catalog entry's grid."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "foc-first-layer-T0.5", "grid": {"n": 512},
                               "t_end": 0.05}))
    out = tmp_path / "exp-run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["grid"]["n"] == 512


def test_run_unknown_id_exits_one(tmp_path, capsys):
    assert main(["run", "no-such-run", "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_broken_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_missing_json_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("map", "t_period"), ("map", "epsilon"),
                                          ("map", "gamma_minus"), ("map", "t_star"),
                                          ("model", "p")])
def test_run_non_finite_map_or_power_exits_one(tmp_path, capsys, section, key):
    """JSON Infinity passes every range check: an infinite period runs one
    layer, gamma_minus ends in a numerical fault.  All are config errors, and
    so is a model power `p`, which a model record no longer has."""
    config = _tiny_config()
    config[section] = config[section] | {key: float("inf")}
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps(config))
    assert "Infinity" in cfg.read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "x" / "series.csv").exists()


@pytest.mark.parametrize("experiment, profile", [
    ("foc-cQ-1.03", {"scale": 0}),
    ("dm-global-T1.5", {"blowup_time": float("inf")}),  # pseudo_conformal
    ("nm-blowup-T2.5", {"blowup_time": float("inf")}),  # backward_construction
])
def test_run_zero_mass_profile_exits_one(tmp_path, capsys, experiment, profile):
    """A profile that is zero everywhere (a zero scale; an infinite blowup
    time, whose profile underflows to zero) has no mass to check drift
    against: a config error, not a traceback."""
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"experiment": experiment, "profile": profile, "grid": {"n": 64}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "zero mass" in err and "Traceback" not in err
    assert not (tmp_path / "x" / "series.csv").exists()


def test_construct_nm_succeeds(tmp_path, capsys):
    out = tmp_path / "seed"
    code = main(["construct", "nm-blowup-T2.5", "--grid", "1024", "--dt", "1e-3",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "status: constructed" in text
    assert "mass=2.72069905" in text
    assert (out / "u0.mnls").exists()
    assert (out / "construction.csv").exists()


def test_construct_dm_reports_detection(tmp_path, capsys):
    out = tmp_path / "dmseed"
    code = main(["construct", "dm-backward-T2.5", "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "blowup_during_construction" in text
    # a failed construction leaves the run's record: its auxiliary trajectory
    assert (out / "series.csv").exists()
    assert not (out / "u0.mnls").exists()


def test_construct_writes_what_run_writes(tmp_path, capsys):
    """Both verbs take one construction path: the same constructed data,
    and the same failure artifacts when the construction trips the cap."""
    def files(verb, target, *flags):
        out = tmp_path / verb / target
        assert main([verb, target, "--dt", "1e-3", *flags, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    built = files("construct", "nm-blowup-T2.5", "--grid", "1024")
    run = files("run", "nm-blowup-T2.5", "--grid", "1024", "--t-end", "0.01")
    assert sorted(built) == ["construction.csv", "u0.mnls"]
    for name in built:
        assert built[name] == run[name], name

    built = files("construct", "dm-backward-T2.5")
    run = files("run", "dm-backward-T2.5")
    assert sorted(built) == sorted(run) == ["energy.svg", "events.jsonl", "linf.svg",
                                            "meta.json", "series.csv"]
    for name in ("series.csv", "meta.json"):
        assert built[name] == run[name], name


def test_construct_rejects_a_closed_form_target(tmp_path, capsys):
    out = tmp_path / "none"
    assert main(["construct", "dm-global-T1.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nothing to construct" in err
    assert not out.exists()


def test_plot_column_flag(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t,linf,energy\n0.0,1.0,0.5\n1.0,2.0,0.4\n")
    out = tmp_path / "peak.svg"
    assert main(["plot", str(series), "--col", "linf", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["plot", str(series), "--col", "entropy", "--out", str(tmp_path / "no.svg")]) == 1


@pytest.mark.parametrize("text", [None, "t,linf\n0.0,1.0\n0.5,high\n", "t,linf\n0.0,1.0\n0.5\n"],
                         ids=["missing-file", "non-numeric-cell", "short-row"])
def test_plot_malformed_series_exits_one(tmp_path, capsys, text):
    series = tmp_path / "series.csv"
    if text is not None:
        series.write_text(text)
    assert main(["plot", str(series), "--out", str(tmp_path / "p.svg")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["t", "linf"])
def test_plot_non_finite_series_exits_one(tmp_path, capsys, cell, column):
    """numpy parses nan and inf; such a cell would put nan in every polyline
    coordinate, so the reader refuses it before any arithmetic warns."""
    series = tmp_path / "series.csv"
    row = {"t": "0.5", "linf": "2.0"} | {column: cell}
    series.write_text(f"t,linf\n0.0,1.0\n{row['t']},{row['linf']}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plot", str(series), "--out", str(tmp_path / "p.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.rstrip().endswith(f"data row 2 has the non-finite {column} {cell}")
    assert not (tmp_path / "p.svg").exists()


def test_sweep_config_file(tmp_path, capsys):
    plan = {
        "base": _tiny_config() | {"t_end": 2.0},
        "axes": {"gamma": [1.0]},
        "criterion": {"peak_floor": 0.5, "sup_cap": 3.0},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(plan))
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    text = capsys.readouterr().out
    assert "cells: 1, manageable: 1" in text
    assert (out / "sweep.csv").exists()


def test_sweep_rejects_incomplete_plan(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"base": _tiny_config()}))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("criterion, message", [
    ({"peak_floor": 0.5, "sup_cap": 3.0, "t_end": 1.0}, "base.t_end"),
    ({"peak_floor": float("nan"), "sup_cap": 3.0}, "finite"),
    ({"peak_floor": True, "sup_cap": 3.0}, "real numbers"),
    ({"peak_floor": 0.5, "sup_cap": "3"}, "real numbers"),
])
def test_sweep_rejects_bad_criterion(tmp_path, capsys, criterion, message):
    plan = {"base": _tiny_config(), "axes": {"gamma": [1.0]}, "criterion": criterion}
    cfg = tmp_path / "crit.json"
    cfg.write_text(json.dumps(plan))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_non_positive_workers(tmp_path, capsys, workers):
    plan = {"base": _tiny_config(), "axes": {"gamma": [1.0]},
            "criterion": {"peak_floor": 0.5, "sup_cap": 3.0}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(plan))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "positive integer" in err and "Traceback" not in err
    assert not (tmp_path / "x" / "sweep.csv").exists()


def test_sweep_rejects_malformed_axes(tmp_path, capsys):
    plan = {"base": _tiny_config(), "axes": {"gamma": "abc"},
            "criterion": {"peak_floor": 0.5, "sup_cap": 3.0}}
    cfg = tmp_path / "axes.json"
    cfg.write_text(json.dumps(plan))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


def test_exit_code_two_on_numerical_fault(monkeypatch, capsys):
    def boom(args):
        raise NonFiniteState("synthetic")

    monkeypatch.setattr("mnls.cli._cmd_list", boom)
    assert main(["list"]) == 2
    assert "numerical fault" in capsys.readouterr().err


def test_exit_code_one_on_generic_fault(monkeypatch, capsys):
    def boom(args):
        raise MnlsError("synthetic")

    monkeypatch.setattr("mnls.cli._cmd_list", boom)
    assert main(["list"]) == 1
    assert "error" in capsys.readouterr().err


def test_unwritable_output_paths_exit_one(tmp_path, capsys):
    """A plot into a missing directory and a run under a regular file end in
    an error line on stderr and exit code 1, not a traceback."""
    series = tmp_path / "s.csv"
    series.write_text("t,linf\n0.0,1.0\n0.5,2.0\n")
    assert main(["plot", str(series), "--out", str(tmp_path / "missing" / "x.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "foc-first-layer-T0.5", "--out", str(blocker / "sub"),
                 "--t-end", "0.01"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-dir", "onto-a-dir"])
def test_unwritable_plot_is_reported_by_its_own_name(tmp_path, capsys, where):
    """The error names the path asked for, not the temporary file next to it
    that the atomic write opens and renames: a plot into a missing directory
    fails to open it, a plot onto a directory fails to rename it."""
    series = tmp_path / "s.csv"
    series.write_text("t,linf\n0.0,1.0\n0.5,2.0\n")
    out = tmp_path / "missing" / "x.svg"
    if where == "onto-a-dir":
        out = tmp_path / "x.svg"
        out.mkdir()
    assert main(["plot", str(series), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and err.rstrip().endswith(f": '{out}'")
    left = ["s.csv"] if where == "missing-dir" else ["s.csv", "x.svg"]
    assert sorted(p.name for p in tmp_path.iterdir()) == left  # no temporary file stays


def test_plot_refuses_to_overwrite_its_series(tmp_path, capsys, monkeypatch):
    """--out naming the series itself, directly or by another path to it,
    exits 1 and leaves the series as it was."""
    series = tmp_path / "series.csv"
    text = "t,linf\n0.0,1.0\n0.5,2.0\n"
    series.write_text(text)
    monkeypatch.chdir(tmp_path)
    for out in (str(series), "./series.csv", str(tmp_path / "sub" / ".." / "series.csv")):
        assert main(["plot", "series.csv", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "series file itself" in err
        assert series.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


def test_list_into_a_closed_pipe_ends_quietly(monkeypatch, capsys):
    """stdout is a pipe whose reader is gone, so the flush inside main fails
    every time: main exits 1 with nothing on stderr, and stdout is left on
    devnull so that a later flush cannot fail again."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipe = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert main(["list"]) == 1
        print("more", file=pipe, flush=True)
    finally:
        pipe.close()
    assert capsys.readouterr().err == ""
