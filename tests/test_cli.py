"""End-to-end command line checks, driven through main(argv)."""

import json

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


def test_construct_nm_succeeds(tmp_path, capsys):
    out = tmp_path / "seed"
    code = main(
        [
            "construct",
            "--kind",
            "nm",
            "--layer",
            "1",
            "--blowup-time",
            "2.5",
            "--n",
            "1024",
            "--dt",
            "1e-3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "status: constructed" in text
    assert "mass=2.72069905" in text
    assert (out / "u0.mnls").exists()
    assert (out / "construction.csv").exists()


def test_construct_dm_reports_detection(tmp_path, capsys):
    out = tmp_path / "dmseed"
    code = main(
        [
            "construct",
            "--kind",
            "dm",
            "--layer",
            "1",
            "--blowup-time",
            "2.5",
            "--n",
            "1024",
            "--dt",
            "1e-3",
            "--amplitude-factor",
            "1.7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "blowup_during_construction" in text
    assert (out / "construction.csv").exists()
    assert not (out / "u0.mnls").exists()


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
])
def test_sweep_rejects_bad_criterion(tmp_path, capsys, criterion, message):
    plan = {"base": _tiny_config(), "axes": {"gamma": [1.0]}, "criterion": criterion}
    cfg = tmp_path / "crit.json"
    cfg.write_text(json.dumps(plan))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err and "Traceback" not in err


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
