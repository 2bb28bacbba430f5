"""Shared fixtures: a per-session catalog run cache and the criteria board.

Catalog experiments are expensive (the 2D ones take a minute), and several
acceptance checks grade the same runs, so each catalog id is executed at
most once per session and its summary is shared; so is each refined or
repeated variant of a catalog run that a check reads.  numpy computes on
one thread, so the runs go to a pool with one process per usable CPU.  The
criteria board collects one verdict per numbered acceptance check and
prints them as a block after the test summary, whether or not the
individual tests passed.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

import pytest

from mnls.catalog import catalog_ids
from mnls.harness import resolve_config, run_experiment

_CRITERIA_LABELS = {
    1: "closed-form diagnostics of the T0=1.5 profile",
    2: "standing-wave fidelity at dt=1e-3",
    3: "virial identity residuals, second-order decay",
    4: "first-layer blowup time under refinement",
    5: "managed-Laplacian global run, bounded oscillation",
    6: "managed-nonlinearity global run, decaying peaks",
    7: "constructed blowup inside the second focusing layer",
    8: "managed-Laplacian backward construction fails before t=2",
    9: "supercritical-mass family: collapse vs stabilization",
    10: "2D fast switching: collapse vs managed survival",
    11: "conservation laws on completed catalog runs",
    12: "byte-identical reruns",
}


class CriteriaBoard:
    def __init__(self):
        self.results = {
            num: {"label": label, "ok": None, "detail": "not run"}
            for num, label in _CRITERIA_LABELS.items()
        }

    def record(self, num: int, ok: bool, detail: str) -> None:
        self.results[num] = {
            "label": _CRITERIA_LABELS[num],
            "ok": bool(ok),
            "detail": detail,
        }


_BOARD = CriteriaBoard()


# Every run the checks read, keyed (id, tag) to its overrides: the catalog's
# own runs (tag None), the refined rungs of criteria 4 and 7 and criterion
# 12's reruns.
_RUNS = {
    **{(name, None): None for name in catalog_ids()},
    ("foc-first-layer-T0.5", "rung2048"):
        {"grid": {"n": 2048}, "dt_target": 1e-4, "policy": {"amplitude_factor": 2.6}},
    ("foc-first-layer-T0.5", "rung4096"):
        {"grid": {"n": 4096}, "dt_target": 5e-5, "policy": {"amplitude_factor": 2.9}},
    ("nm-blowup-T2.5", "refined"):
        {"grid": {"n": 4096}, "dt_target": 2.5e-4, "policy": {"amplitude_factor": 11.2}},
    **{(name, "rerun"): None
       for name in ("foc-first-layer-T0.5", "dm-global-T1.5", "nm-revival-n2-T5.5")},
}
# the CPUs this process may run on; all of them where the OS keeps no affinity
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _planned_point_steps(key: tuple) -> float:
    """Grid points times planned steps: the work of a run that does not halt."""
    config = resolve_config(key[0], _RUNS[key])
    grid = config["grid"]
    return grid["n"] ** grid["dim"] * config["t_end"] / config["dt_target"]


@pytest.fixture(scope="session")
def criteria_board():
    return _BOARD


@pytest.fixture(scope="session")
def catalog_run(tmp_path_factory):
    """Factory: run a catalog experiment once per session, cache the summary.

    `catalog_run(name)` is the catalog's own run; `catalog_run(name, tag)`
    is the catalog entry under the overrides `_RUNS[name, tag]`, in an
    output directory of its own.  The first call starts a pool with one
    worker process per usable CPU and a feeder thread that hands it every
    run, most planned work first, one per free worker, so a session that
    uses no catalog run starts no pool.  A run the feeder has
    not handed out yet when a test asks for it runs in this process instead
    of waiting for the queue.  No future is ever cancelled: stopping the
    workers of a partial session fails the pool's pending futures, which
    raises in its management thread for a cancelled one.
    """
    root = tmp_path_factory.mktemp("catalog_runs")
    queued = sorted(_RUNS, key=_planned_point_steps, reverse=True)
    lock = threading.Lock()  # a run moves out of `queued` under it, once
    futures: dict = {}
    summaries: dict[tuple, dict] = {}
    pool = feeder = None

    def run_args(key: tuple) -> tuple:
        name, tag = key
        return name, root / (f"{name}.{tag}" if tag else name), _RUNS[key]

    def feed():
        busy = set()
        while True:
            if len(busy) == _WORKERS:
                busy = wait(busy, return_when=FIRST_COMPLETED).not_done
            with lock:
                if not queued:
                    return
                key = queued.pop(0)
                futures[key] = pool.submit(run_experiment, *run_args(key))
            busy.add(futures[key])

    def runner(name: str, tag: str | None = None) -> dict:
        nonlocal pool, feeder
        key = (name, tag)
        if key not in summaries:
            if pool is None:
                pool = ProcessPoolExecutor(_WORKERS,
                                           mp_context=multiprocessing.get_context("spawn"))
                feeder = threading.Thread(target=feed, daemon=True)
                feeder.start()
            with lock:
                here = key in queued
                if here:
                    queued.remove(key)
            summaries[key] = (run_experiment(*run_args(key)) if here
                              else futures[key].result())
        return summaries[key]

    yield runner
    if pool is not None:
        with lock:
            queued.clear()
        unread = [f for f in futures.values() if not f.done()]
        pool.shutdown(wait=not unread)
        if unread:  # a partial session: stop the runs no test asked for
            for worker in multiprocessing.active_children():
                worker.terminate()
        feeder.join()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(_BOARD.results):
        r = _BOARD.results[num]
        if r["ok"] is None:
            verdict = "NOT RUN"
        else:
            verdict = "PASS" if r["ok"] else "FAIL"
        tr.write_line(f"criterion {num:2d} {verdict:7s} {r['label']}: {r['detail']}")
