"""Shared fixtures: a per-session catalog run cache and the criteria board.

Catalog experiments are expensive (the 2D ones take a minute), and several
acceptance checks grade the same runs, so each catalog id is executed at
most once per session and its summary is shared.  numpy computes on one
thread, so the runs go to a pool with one process per CPU.  The criteria
board collects one verdict per numbered acceptance check and prints them as
a block after the test summary, whether or not the individual tests passed.
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


def _planned_point_steps(name: str) -> float:
    """Grid points times planned steps: the work of a run that does not halt."""
    config = resolve_config(name)
    grid = config["grid"]
    return grid["n"] ** grid["dim"] * config["t_end"] / config["dt_target"]


@pytest.fixture(scope="session")
def criteria_board():
    return _BOARD


@pytest.fixture(scope="session")
def catalog_run(tmp_path_factory):
    """Factory: run a catalog experiment once per session, cache the summary.

    The first call starts a pool with one worker process per CPU and a
    feeder thread that hands it the catalog ids, most planned work first,
    one per free worker, so a session that uses no catalog run starts no
    pool.  An id the feeder has not handed out yet when a test asks for it
    runs in this process instead of waiting for the queue.  No future is
    ever cancelled: stopping the workers of a partial session fails the
    pool's pending futures, which raises in its management thread for a
    cancelled one.
    """
    root = tmp_path_factory.mktemp("catalog_runs")
    queued = sorted(catalog_ids(), key=_planned_point_steps, reverse=True)
    lock = threading.Lock()  # an id moves out of `queued` under it, once
    futures: dict = {}
    summaries: dict[str, dict] = {}
    pool = feeder = None

    def feed():
        busy = set()
        while True:
            if len(busy) == os.cpu_count():
                busy = wait(busy, return_when=FIRST_COMPLETED).not_done
            with lock:
                if not queued:
                    return
                name = queued.pop(0)
                futures[name] = pool.submit(run_experiment, name, root / name)
            busy.add(futures[name])

    def runner(name: str) -> dict:
        nonlocal pool, feeder
        if name not in summaries:
            if pool is None:
                pool = ProcessPoolExecutor(os.cpu_count(),
                                           mp_context=multiprocessing.get_context("spawn"))
                feeder = threading.Thread(target=feed, daemon=True)
                feeder.start()
            with lock:
                here = name in queued
                if here:
                    queued.remove(name)
            summaries[name] = (run_experiment(name, root / name) if here
                               else futures[name].result())
        return summaries[name]

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
