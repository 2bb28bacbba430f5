"""Manageability verdicts and the parameter sweep driver."""

import numpy as np
import pytest

from mnls.errors import ConfigError
from mnls.sweep import ManageabilityCriterion, sweep_manageability, verdict


def _crit(floor=0.5, cap=3.0, t_end=None):
    return ManageabilityCriterion(peak_floor=floor, sup_cap=cap, t_end=t_end)


def test_verdict_requires_completion():
    assert not verdict("blowup", 1.0, 1.0, _crit())
    assert not verdict("error", 1.0, 1.0, _crit())
    assert verdict("completed", 1.0, 1.0, _crit())


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
    """The criterion horizon shortens the run without touching the config."""
    rows = sweep_manageability(
        _base_config(),
        {"gamma": [1.0]},
        _crit(t_end=1.0),
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
