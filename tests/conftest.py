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
from concurrent.futures import ProcessPoolExecutor

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

    The first call submits every catalog id, most planned work first, to a
    pool with one worker process per CPU, so a session that uses no catalog
    run starts no pool.  An id the pool has not started yet when a test asks
    for it runs in this process instead of waiting for the queue.
    """
    root = tmp_path_factory.mktemp("catalog_runs")
    futures: dict = {}
    summaries: dict[str, dict] = {}
    pool = None

    def runner(name: str) -> dict:
        nonlocal pool
        if name not in summaries:
            if pool is None:
                pool = ProcessPoolExecutor(os.cpu_count(),
                                           mp_context=multiprocessing.get_context("spawn"))
                for other in sorted(catalog_ids(), key=_planned_point_steps, reverse=True):
                    futures[other] = pool.submit(run_experiment, other, root / other)
            future = futures[name]
            summaries[name] = (run_experiment(name, root / name) if future.cancel()
                               else future.result())
        return summaries[name]

    yield runner
    if pool is not None:
        unread = [f for f in futures.values() if not f.done()]
        pool.shutdown(wait=not unread, cancel_futures=True)
        if unread:  # a partial session: stop the runs no test asked for
            for worker in multiprocessing.active_children():
                worker.terminate()


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
