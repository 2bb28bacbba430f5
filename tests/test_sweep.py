"""Manageability verdicts and the parameter sweep driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mnls
from mnls.errors import ConfigError
from mnls.sweep import ManageabilityCriterion, sweep_manageability, verdict


def _crit(floor=0.5, cap=3.0):
    return ManageabilityCriterion(peak_floor=floor, sup_cap=cap)


def test_verdict_requires_completion():
    assert not verdict("blowup", 1.0, 1.0, _crit())
    assert not verdict("error", 1.0, 1.0, _crit())
    assert verdict("completed", 1.0, 1.0, _crit())


@pytest.mark.parametrize("floor, cap", [(float("nan"), 3.0), (0.5, float("inf"))])
def test_criterion_rejects_non_finite_thresholds(floor, cap):
    with pytest.raises(ValueError, match="finite"):
        ManageabilityCriterion(peak_floor=floor, sup_cap=cap)


def test_verdict_bounds():
    assert not verdict("completed", 3.5, 1.0, _crit(cap=3.0))
    assert not verdict("completed", 1.0, 0.4, _crit(floor=0.5))
    assert verdict("completed", 3.0, 0.5, _crit())  # inclusive on both edges
    assert not verdict("completed", float("nan"), 1.0, _crit())


def test_verdict_monotone_in_thresholds():
    """Raising the cap can only gain cells; raising the floor can only
    lose them."""
    sup, peak = 2.0, 1.0
    caps = [1.0, 1.5, 2.0, 2.5, 3.0]
    flags = [verdict("completed", sup, peak, _crit(floor=0.5, cap=c)) for c in caps]
    assert all(b >= a for a, b in zip(flags, flags[1:]))
    floors = [0.2, 0.6, 1.0, 1.4]
    flags = [verdict("completed", sup, peak, _crit(floor=f, cap=3.0)) for f in floors]
    assert all(b <= a for a, b in zip(flags, flags[1:]))


def _base_config():
    return {
        "model": {"kind": "dm"},
        "map": {"t_star": 1.0, "t_period": 2.0},
        "profile": {"kind": "scaled_ground_state"},
        "grid": {"dim": 1, "half_width": 6 * np.pi, "n": 128},
        "dt_target": 2e-3,
        "t_end": 2.0,
        "sample_every": 10,
    }


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ConfigError):
        sweep_manageability(_base_config(), {"half_width": [1.0]}, _crit())


def test_sweep_rejects_empty_axis():
    with pytest.raises(ConfigError):
        sweep_manageability(_base_config(), {"gamma": []}, _crit())


@pytest.mark.parametrize("axes", [["gamma"], "gamma", None])
def test_sweep_rejects_axes_that_are_not_a_record(axes):
    with pytest.raises(ConfigError, match="record"):
        sweep_manageability(_base_config(), axes, _crit())


@pytest.mark.parametrize("values", ["abc", 1.0, [1.0, "x"], [True], [float("nan")],
                                    [1.0, float("inf")], {"a": 1.0}])
def test_sweep_rejects_axis_values_that_are_not_finite_numbers(values):
    with pytest.raises(ConfigError, match="finite numbers"):
        sweep_manageability(_base_config(), {"gamma": values}, _crit())


def test_sweep_gamma_axis_sequential(tmp_path):
    """Weaker dispersion focuses harder; the cap separates the two cells."""
    out_csv = tmp_path / "sweep.csv"
    rows = sweep_manageability(
        _base_config(),
        {"gamma": [0.8, 1.0]},
        _crit(floor=0.5, cap=2.0),
        out_csv=out_csv,
        max_workers=1,
    )
    assert [r["cell"] for r in rows] == [0, 1]
    assert [r["gamma"] for r in rows] == [0.8, 1.0]
    assert all(r["status"] == "completed" for r in rows)
    assert rows[0]["sup_linf"] > rows[1]["sup_linf"]
    assert not rows[0]["manageable"]
    assert rows[1]["manageable"]
    assert all(r["periods"] == 1 for r in rows)

    text = out_csv.read_text().splitlines()
    assert text[0] == "cell,gamma,status,sup_linf,min_period_peak,periods,manageable,error"
    assert len(text) == 3
    assert text[1].split(",")[6] == "0"
    assert text[2].split(",")[6] == "1"


def test_sweep_pool_matches_sequential():
    axes = {"gamma": [0.8, 1.0]}
    seq = sweep_manageability(_base_config(), axes, _crit(), max_workers=1)
    par = sweep_manageability(_base_config(), axes, _crit(), max_workers=2)
    assert seq == par


def test_sweep_cartesian_order_two_axes():
    rows = sweep_manageability(
        _base_config(),
        {"gamma": [1.0], "epsilon": [1.0, 0.5]},
        _crit(),
        max_workers=1,
    )
    assert [(r["gamma"], r["epsilon"]) for r in rows] == [(1.0, 1.0), (1.0, 0.5)]
    assert [r["cell"] for r in rows] == [0, 1]


def test_sweep_error_cell_is_captured(tmp_path):
    """A cell whose map parameters are rejected reports the failure in its
    row instead of aborting the sweep."""
    rows = sweep_manageability(
        _base_config(),
        {"epsilon": [1.0, -1.0]},
        _crit(),
        out_csv=tmp_path / "err.csv",
        max_workers=1,
    )
    assert rows[0]["status"] == "completed"
    assert rows[1]["status"] == "error"
    assert rows[1]["error"] != ""
    assert not rows[1]["manageable"]
    text = (tmp_path / "err.csv").read_text().splitlines()
    assert len(text) == 3


def test_sweep_t_end_override():
    """The base's t_end is the sweep horizon: one layer holds no full period."""
    rows = sweep_manageability(
        {**_base_config(), "t_end": 1.0},
        {"gamma": [1.0]},
        _crit(),
        max_workers=1,
    )
    assert rows[0]["periods"] == 0
    assert np.isnan(rows[0]["min_period_peak"])
    assert not rows[0]["manageable"]


def test_sweep_rejects_constructed_base(monkeypatch):
    """A backward-constructed base is refused before any cell runs."""
    import mnls.sweep

    def no_cell(job):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(mnls.sweep, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="closed-form"):
        sweep_manageability("nm-blowup-T2.5", {"gamma": [1.0]}, _crit(), max_workers=1)


@pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
def test_sweep_rejects_workers_that_are_not_positive_integers(monkeypatch, workers):
    """A bad worker count is refused before any cell runs."""
    import mnls.sweep

    def no_cell(job):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(mnls.sweep, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="positive integer"):
        sweep_manageability(_base_config(), {"gamma": [1.0]}, _crit(), max_workers=workers)


_NO_POOL_SCRIPT = """
import json, sys
import mnls
from mnls.harness import resolve_config, run_experiment
from mnls.sweep import ManageabilityCriterion, sweep_manageability
base, out = json.loads(sys.argv[1]), sys.argv[2]
assert run_experiment(base, out)["status"] == "completed"
crit = ManageabilityCriterion(peak_floor=0.5, sup_cap=3.0)
assert len(sweep_manageability(base, {"gamma": [0.8, 1.0]}, crit, max_workers=1)) == 2
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("multiprocessing", "concurrent"))))
"""


def test_runs_and_one_worker_sweeps_load_no_process_pool(tmp_path):
    """Importing the package, a run and a one-worker sweep leave the process
    pool stack unloaded: `multiprocessing` costs every process about 1.3 MiB.
    The pool branch is covered by `test_sweep_pool_matches_sequential`."""
    src = str(Path(mnls.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    base = {**_base_config(), "t_end": 0.1}
    run = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT, json.dumps(base),
                          str(tmp_path / "run")],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(run.stdout) == []
