"""The names the benchmark tracer wraps, and the calls that go through them.

perfbench/tracing.py replaces module attributes of the package with timing
wrappers for one traced pass and puts the originals back afterwards.  A
renamed attribute makes `--trace 1` fail, and a call that no longer goes
through the attribute silently drops its counts; both fail here first.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from mnls.harness import run_experiment
from mnls.sweep import ManageabilityCriterion, sweep_manageability

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def _tiny(profile: dict) -> dict:
    return {
        "model": {"kind": "nm"},
        "map": {"t_star": 1.0, "t_period": 2.0},
        "profile": profile,
        "grid": {"dim": 1, "half_width": 12 * np.pi, "n": 256},
        "dt_target": 1e-2,
        "t_end": 1.5,  # one layer switch, so events.jsonl is not empty
        "sample_every": 5,
    }


def test_tracer_wraps_and_restores_every_attribute(tracing):
    tracer = tracing.Tracer()
    originals = []
    for owner, attr, _, _ in tracer._patch_table():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
        originals.append((owner, attr, owner.__dict__[attr]))
    with tracer.patched():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    tracing.clear_table_caches()
    assert tracing.table_cache_hit_ratio() == 0.0


def _traced(tracing, operation):
    tracer = tracing.Tracer()
    with tracer.patched():
        result = operation()
    return tracer, result, {span[0] for span in tracer.spans}


def test_runs_call_through_the_traced_names(tracing, tmp_path):
    tracer, summary, names = _traced(
        tracing, lambda: run_experiment(_tiny({"kind": "scaled_ground_state"}), tmp_path / "a"))
    assert names >= {"harness.resolve_config", "profiles.field_from_record", "propagator.evolve",
                     "diagnostics.sample", "mgmt_map.layer_partition", "runio.write",
                     "plotting.emit_plot"}
    c = tracer.counts
    assert c["propagator.steps"] == summary["meta"]["stepping"]["total_steps"]
    assert c["diagnostics.samples"] == len(summary["log"].samples)
    assert c["mgmt_map.layers"] == summary["meta"]["stepping"]["layers"]
    assert c["plotting.points"] == 2 * len(summary["log"].samples)
    for artifact in ("series_csv", "events_jsonl", "meta_json", "snapshot"):
        assert c["runio.bytes." + artifact] > 0, artifact

    tracer, _, names = _traced(tracing, lambda: run_experiment(
        _tiny({"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5}),
        tmp_path / "b"))
    assert "constructor.backward" in names
    assert tracer.counts["constructor.steps"] > 0
    assert tracer.counts["runio.bytes.construction_csv"] > 0


def test_sweep_calls_through_the_traced_names(tracing):
    _, rows, names = _traced(tracing, lambda: sweep_manageability(
        _tiny({"kind": "scaled_ground_state"}), {"gamma": [1.0]},
        ManageabilityCriterion(peak_floor=0.5, sup_cap=5.0), max_workers=1))
    assert rows[0]["status"] == "completed"
    assert names >= {"harness.resolve_config", "profiles.field_from_record", "propagator.evolve",
                     "sweep.cell"}


def test_halted_run_takes_one_sample_per_recorded_sample(tracing, tmp_path):
    """A run that trips the amplitude cap between two sample steps calls
    sample_diagnostics once per recorded sample, the halt sample included."""
    config = _tiny({"kind": "pseudo_conformal", "blowup_time": 0.5}) | {
        "model": {"kind": "dm"},
        "map": {"t_star": 1e6, "t_period": 2e6},  # one focusing layer
        "policy": {"amplitude_factor": 1.5},
    }
    tracer, summary, _ = _traced(tracing, lambda: run_experiment(config, tmp_path))
    log = summary["log"]
    assert log.status == "blowup" and log.events[-1]["reason"] == "amplitude"
    steps = tracing.steps_taken(log)
    assert (steps - 1) % config["sample_every"] != 0, "the last stable step is a sample step"
    assert log.samples[-1].t == log.t_detect
    assert tracer.counts["diagnostics.samples"] == len(log.samples)
    assert tracer.counts["propagator.steps"] == steps
    assert summary["meta"]["stepping"]["total_steps"] == steps
