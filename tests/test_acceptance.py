"""The twelve acceptance checks.

Each test computes its quantities from scratch or from shared catalog
runs, records a one-line verdict on the criteria board (printed after the
test summary), and then asserts.  Two of the checks pin tolerances beyond
the measured accuracy of the plain second-order split scheme; they fail
honestly rather than loosening their thresholds, and the README discusses
both.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mnls.diagnostics import period_peaks, sample_diagnostics, virial_residuals
from mnls.lattice import make_grid
from mnls.mgmt_map import normalized_map
from mnls.profiles import ground_state_1d, pseudo_conformal_field
from mnls.propagator import ModelSpec, evolve
from mnls.runio import read_series_csv, read_snapshot

# -- closed-form constants ---------------------------------------------------
CRITICAL_MASS = 2.7206990463513265  # sqrt(3) pi / 2
FROZEN_I = 3.776093899018378  # (3/2)^2 ||xQ||^2,  ||xQ||^2 = sqrt(3) pi^3 / 32
FROZEN_P = 1.2586979663394593  # I / (2 * 3/2)
FROZEN_E_FOC = 0.20978299438990988  # ||xQ||^2 / 8


def _g(x: float) -> str:
    return f"{x:.4g}"


def _series(summary) -> dict[str, np.ndarray]:
    return read_series_csv(Path(summary["out_dir"]) / "series.csv")


def _events(summary) -> list[dict]:
    text = (Path(summary["out_dir"]) / "events.jsonl").read_text()
    return [json.loads(ln) for ln in text.splitlines() if ln.strip()]


def test_criterion_01_reference_profile_quartet(criteria_board):
    grid = make_grid(1, half_width=12 * np.pi, n=1024)
    u = pseudo_conformal_field(grid, blowup_time=1.5, t=0.0)
    s = sample_diagnostics(u, gamma_now=-1.0)
    devs = {
        "mass": abs(s.mass - CRITICAL_MASS) / CRITICAL_MASS,
        "I": abs(s.variance - FROZEN_I) / FROZEN_I,
        "P": abs(s.momentum - FROZEN_P) / FROZEN_P,
        "E": abs(s.energy - FROZEN_E_FOC) / FROZEN_E_FOC,
    }
    worst = max(devs.values())
    ok = worst <= 1e-6
    criteria_board.record(1, ok, f"max relative deviation {_g(worst)} (bound 1e-6)")
    assert ok, devs


def test_criterion_02_standing_wave_fidelity(criteria_board):
    """The ground state must track exp(-it) Q through one focusing layer.

    The demanded 1e-5 relative L2 error at dt = 1e-3 sits below the
    splitting constant of this scheme on any grid; the error is recorded
    as measured and the second-order decay is checked alongside.
    """
    grid = make_grid(1, half_width=12 * np.pi, n=1024)
    q = ground_state_1d(grid)
    den = np.sqrt(grid.integrate(np.abs(q.values) ** 2))
    ref = np.exp(-1j * 1.0) * q.values
    errs = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        log, final = evolve(ModelSpec("dm"), normalized_map().layer_partition(0.0, 1.0),
                            q.copy(), dt)
        assert log.completed
        errs.append(float(np.sqrt(grid.integrate(np.abs(final.values - ref) ** 2)) / den))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    order_ok = all(3.3 < r < 4.7 for r in ratios)
    err_ok = errs[0] <= 1e-5
    ok = err_ok and order_ok
    criteria_board.record(
        2,
        ok,
        f"err(dt=1e-3)={_g(errs[0])} vs bound 1e-5; halving ratios "
        f"{_g(ratios[0])}, {_g(ratios[1])}",
    )
    assert ok, (errs, ratios)


def test_criterion_03_virial_residual_decay(criteria_board):
    """dI/dt - 4 gamma P and dP/dt - 4 gamma E vanish at second order."""
    grid = make_grid(1, half_width=24 * np.pi, n=2048)
    u0 = pseudo_conformal_field(grid, blowup_time=1.5)
    model = ModelSpec("dm")
    res1, res2 = [], []
    for dt in (1e-3, 5e-4, 2.5e-4):
        log, _ = evolve(model, normalized_map().layer_partition(0.0, 2.0), u0.copy(), dt,
                        sample_every=1)
        assert log.completed
        layers = virial_residuals(log, model)
        res1.append(max(float(np.max(l.residual1)) for l in layers))
        res2.append(max(float(np.max(l.residual2)) for l in layers))
    ratios = [res1[0] / res1[1], res1[1] / res1[2], res2[0] / res2[1], res2[1] / res2[2]]
    ok = all(3.3 < r < 4.7 for r in ratios)
    criteria_board.record(
        3,
        ok,
        f"res1 {_g(res1[0])}->{_g(res1[2])}, res2 {_g(res2[0])}->{_g(res2[2])}, "
        f"ratios {', '.join(_g(r) for r in ratios)}",
    )
    assert ok, (res1, res2)


def test_criterion_04_first_layer_blowup_refinement(criteria_board, catalog_run):
    """Detected collapse times march toward T = 0.5 under refinement and
    never cross it.  The rungs are the session's `rung2048` and `rung4096`
    runs, whose grid, dt and cap overrides `conftest._RUNS` holds."""
    base = catalog_run("foc-first-layer-T0.5")
    rungs = [base["t_detect"]]
    for tag in ("rung2048", "rung4096"):
        summary = catalog_run("foc-first-layer-T0.5", tag)
        assert summary["status"] == "blowup"
        rungs.append(summary["t_detect"])
    in_window = all(0.40 <= t < 0.50 for t in rungs)
    monotone = rungs[0] < rungs[1] < rungs[2]
    ok = base["status"] == "blowup" and in_window and monotone
    criteria_board.record(
        4, ok, "detections " + " -> ".join(_g(t) for t in rungs) + " < 0.5"
    )
    assert ok, rungs


def test_criterion_05_dm_global_bounded_oscillation(criteria_board, catalog_run):
    summary = catalog_run("dm-global-T1.5")
    cols = _series(summary)
    ts, linf = cols["t"], cols["linf"]
    peaks = period_peaks(ts, linf, 2.0, horizon=ts[-1])
    ratio = max(peaks) / min(peaks)
    sup = float(np.max(linf))
    ok = summary["status"] == "completed" and len(peaks) == 15 and ratio <= 5.0
    criteria_board.record(
        5,
        ok,
        f"{summary['status']} to t=30, sup|u|={_g(sup)}, period peak ratio "
        f"{_g(ratio)} <= 5",
    )
    assert ok, (summary["status"], ratio)


def test_criterion_06_nm_global_decaying_peaks(criteria_board, catalog_run):
    summary = catalog_run("nm-global-T1.5")
    cols = _series(summary)
    peaks = period_peaks(cols["t"], cols["linf"], 2.0, horizon=cols["t"][-1])
    increases = [b / a for a, b in zip(peaks, peaks[1:])]
    worst = max(increases)
    ok = (
        summary["status"] == "completed"
        and len(peaks) == 15
        and worst <= 1.05
        and peaks[-1] < peaks[0]
    )
    criteria_board.record(
        6,
        ok,
        f"{summary['status']} to t=30, worst per-period increase "
        f"{_g((worst - 1) * 100)}% (<= 5%), peaks {_g(peaks[0])}->{_g(peaks[-1])}",
    )
    assert ok, (summary["status"], peaks)


def test_criterion_07_constructed_second_layer_blowup(criteria_board, catalog_run):
    """The refined run is the session's `refined` run, whose grid, dt and
    cap overrides `conftest._RUNS` holds."""
    summary = catalog_run("nm-blowup-T2.5")
    u0 = read_snapshot(Path(summary["out_dir"]) / "u0.mnls")
    mass_dev = abs(u0.mass() - CRITICAL_MASS)
    cols = _series(summary)
    first_period = cols["linf"][cols["t"] <= 2.0]
    survives = float(np.max(first_period)) < 3.0
    t_base = summary["t_detect"]
    refined = catalog_run("nm-blowup-T2.5", "refined")
    ok = (
        summary["status"] == "blowup"
        and 2.0 < t_base <= 2.5
        and mass_dev < 1e-8
        and survives
        and refined["status"] == "blowup"
        and t_base < refined["t_detect"] <= 2.5
    )
    criteria_board.record(
        7,
        ok,
        f"survives [0,2] (max {_g(float(np.max(first_period)))}), detects "
        f"{_g(t_base)} then {_g(refined['t_detect'])} under refinement, "
        f"u0 mass dev {_g(mass_dev)}",
    )
    assert ok, (summary["status"], t_base, refined["t_detect"], mass_dev)


def test_criterion_08_dm_backward_construction_fails(criteria_board, catalog_run):
    summary = catalog_run("dm-backward-T2.5")
    t = summary["t_detect"]
    ok = summary["status"] == "blowup_during_construction" and 1.8 <= t < 2.0
    criteria_board.record(8, ok, f"{summary['status']} at t={_g(t)} in [1.8, 2.0)")
    assert ok, (summary["status"], t)


def test_criterion_09_supercritical_family(criteria_board, catalog_run):
    foc3 = catalog_run("foc-cQ-1.03")
    foc1 = catalog_run("foc-cQ-1.01")
    managed = {
        name: catalog_run(name)
        for name in ("dm-cQ-1.03", "dm-cQ-1.01", "nm-cQ-1.03", "nm-cQ-1.01")
    }
    foc_ok = (
        foc3["status"] == "blowup"
        and 1.2 <= foc3["t_detect"] <= 1.6
        and foc1["status"] == "blowup"
        and 2.3 <= foc1["t_detect"] <= 3.1
        and foc3["t_detect"] < foc1["t_detect"]
    )
    managed_ok = all(s["status"] == "completed" for s in managed.values())
    ok = foc_ok and managed_ok
    criteria_board.record(
        9,
        ok,
        f"unmanaged collapse at {_g(foc3['t_detect'])} (1.03Q) and "
        f"{_g(foc1['t_detect'])} (1.01Q); all four managed runs reach t=10",
    )
    assert ok, (foc3["status"], foc1["status"], {k: v["status"] for k, v in managed.items()})


def test_criterion_10_2d_fast_management(criteria_board, catalog_run):
    foc = catalog_run("2d-fast-focusing")
    dm = catalog_run("2d-fast-dm")
    nm = catalog_run("2d-fast-nm")
    foc_ok = foc["status"] == "blowup" and 0.11 <= foc["t_detect"] <= 0.17
    dm_cols = _series(dm)
    dm_factor = float(np.max(dm_cols["linf"])) / dm_cols["linf"][0]
    dm_ok = dm["status"] == "completed" and dm_factor <= 3.0
    nm_cols = _series(nm)
    nm_ok = nm["status"] == "completed" and nm_cols["linf"][-1] < nm_cols["linf"][0]
    ok = foc_ok and dm_ok and nm_ok
    criteria_board.record(
        10,
        ok,
        f"focusing collapse at {_g(foc['t_detect'])}; managed runs complete "
        f"(dm peak factor {_g(dm_factor)}, nm peak decays to "
        f"{_g(float(nm_cols['linf'][-1]))})",
    )
    assert ok, (foc["status"], foc.get("t_detect"), dm["status"], nm["status"])


def test_criterion_11_conservation_laws(criteria_board, catalog_run):
    """Grid mass to 1e-8, within-layer energy to 1e-6, and a rounding-level
    energy floor on critical-mass runs.

    The energy clause is beyond this scheme on marginally resolved spiky
    states: the drift is secular, not oscillatory, and exceeds the bound by
    orders of magnitude on the managed-Laplacian global run even though the
    same integrator holds the standing wave to 2e-10 per layer.  It is
    asserted as stated and fails as measured.
    """
    from mnls.catalog import CATALOG, catalog_ids

    worst_mass = 0.0
    worst_mass_run = ""
    worst_energy = 0.0
    worst_energy_run = ""
    energy_floor = np.inf
    floor_run = ""
    for name in catalog_ids():
        summary = catalog_run(name)
        cols = _series(summary)
        mass = cols["mass"]
        drift = float(np.max(np.abs(mass - mass[0]) / mass[0]))
        if drift > worst_mass:
            worst_mass, worst_mass_run = drift, name
        if summary["status"] != "completed":
            continue
        # group samples into constant-gamma layers via the event log
        switches = [e["t"] for e in _events(summary) if e.get("type") == "layer_switch"]
        ts, energy = cols["t"], cols["energy"]
        group = np.zeros(len(ts), dtype=int)
        for st in switches:
            group += ts > st
        for gi in np.unique(group):
            e_layer = energy[group == gi]
            rel = float((np.max(e_layer) - np.min(e_layer)) / (1.0 + abs(e_layer[0])))
            if rel > worst_energy:
                worst_energy, worst_energy_run = rel, name
        profile_kind = CATALOG[name]["profile"]["kind"]
        if profile_kind in ("pseudo_conformal", "backward_construction"):
            margin = float(np.min(energy + 1e-8 * (1.0 + cols["kinetic"])))
            if margin < energy_floor:
                energy_floor, floor_run = margin, name
    mass_ok = worst_mass <= 1e-8
    energy_ok = worst_energy <= 1e-6
    floor_ok = energy_floor >= 0.0
    ok = mass_ok and energy_ok and floor_ok
    criteria_board.record(
        11,
        ok,
        f"mass drift {_g(worst_mass)} ({worst_mass_run}) vs 1e-8; "
        f"within-layer energy drift {_g(worst_energy)} ({worst_energy_run}) vs 1e-6; "
        f"critical-mass energy floor {_g(energy_floor)} ({floor_run})",
    )
    assert ok, (worst_mass, worst_energy, energy_floor)


def test_catalog_entries_end_as_expected(catalog_run):
    """Every catalog entry ends with its `expected` status, with a detection
    time inside its `t_detect_window` and a peak within `linf_factor_max`
    times the initial sup|u| where it has them.  The runs are the session's
    cached ones, so after criterion 11 this adds no evolution."""
    from mnls.catalog import CATALOG, catalog_ids

    wrong = {}
    for name in catalog_ids():
        expected = CATALOG[name]["expected"]
        summary = catalog_run(name)
        ok = summary["status"] == expected["status"]
        if "t_detect_window" in expected:
            low, high = expected["t_detect_window"]
            ok = ok and low <= summary["t_detect"] < high
        if "linf_factor_max" in expected:
            linf = [s.linf for s in summary["log"].samples]
            ok = ok and max(linf) <= expected["linf_factor_max"] * linf[0]
        if not ok:
            wrong[name] = (summary["status"], summary["t_detect"], expected)
    assert not wrong, wrong


def test_criterion_12_byte_identical_reruns(criteria_board, catalog_run):
    """Each rerun is the session's `rerun` run: the same catalog entry in
    another process and output directory."""
    names = ("foc-first-layer-T0.5", "dm-global-T1.5", "nm-revival-n2-T5.5")
    mismatches = []
    for name in names:
        first = catalog_run(name)
        again = catalog_run(name, "rerun")
        a = (Path(first["out_dir"]) / "series.csv").read_bytes()
        b = (Path(again["out_dir"]) / "series.csv").read_bytes()
        if a != b:
            mismatches.append(name)
    ok = not mismatches
    criteria_board.record(
        12,
        ok,
        "series.csv identical across reruns of " + ", ".join(names)
        if ok
        else "mismatch in " + ", ".join(mismatches),
    )
    assert ok, mismatches
