"""Benchmark of the mnls package: catalog runs, a virial ladder and a sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-1d --seed 1 --seconds 18 --trace 0

Workloads: catalog-1d, catalog-2d, virial-dense, sweep (see workloads.py
and BENCHMARK.json for what each runs and why).  A run repeats passes over
the workload's operations until ``--seconds`` seconds have passed, checks
every operation's output, and reports medians over the passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (median pass wall time), ``setup_s`` (median time for a fresh
process to import mnls and resolve the workload's configs),
``peak_rss_mb`` (peak resident memory of this process plus that of its
largest child, a forked sweep worker whose count includes pages it shares
with this process) and ``passed_ratio`` (operations whose checks
all passed over operations attempted).  With ``--trace 1`` the same
untraced passes run, then one traced pass gives the per-layer metrics
(see tracing.py); its spans and self times are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.  A traced sweep runs its
cells in this process, one at a time, so the sweep also gets an untraced
one-worker pass to measure the tracing overhead against.

The package is imported from ``src`` of the checkout; without it the
benchmark exits with status 1 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MNLS_THREADS")


def _import_package():
    src = ROOT / "src"
    if not (src / "mnls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'mnls'}")
    sys.path.insert(0, str(src))
    import mnls

    if Path(mnls.__file__).resolve().parent != (src / "mnls").resolve():
        sys.exit(f"perfbench: imported mnls from {mnls.__file__}, not from {src}")
    return mnls


def _setup_seconds(ops) -> float:
    """Median wall time of fresh processes that import mnls and resolve configs."""
    configs = json.dumps([[target, overrides] for _, target, overrides in ops])
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(ROOT), configs]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(probe, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_model() -> dict:
    info = {"model name": None, "cache size": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if info.get(key.strip(), "") is None:
                    info[key.strip()] = value.strip()
    except OSError:
        pass
    return info


def _caches() -> dict:
    """Cache sizes of CPU 0 as the kernel lists them, e.g. {"L1-Data": "48K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}-{kind}"] = size
    return out


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(mnls, np, seed: int, phase: float) -> dict:
    cpu = _cpu_model()
    return {
        "seed": seed,
        "phase": phase,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu["model name"],
        "cpu_cache_size": cpu["cache size"],
        "caches": _caches(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mnls": mnls.__version__,
        "git_commit": _git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mnls = _import_package()
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.seeded_ops(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"

    walls, outcomes = [], []
    began = perf_counter()
    while not walls or perf_counter() - began < args.seconds:
        wall, checked = workloads.run_pass(args.workload, ops, work)
        walls.append(wall)
        outcomes += checked
    wall_s = statistics.median(walls)
    peak_rss = _peak_rss_mib()  # before any other child process runs

    report = {
        "workload": args.workload,
        "provenance": provenance(mnls, np, args.seed, workloads.seed_phase(args.seed)),
        "pass_walls_s": walls,
    }
    if args.trace:
        untraced_wall = wall_s
        if args.workload == "sweep":
            # the traced sweep runs its cells serially; compare it with a serial pass
            untraced_wall, checked = workloads.run_pass(args.workload, ops, work, sweep_workers=1)
            outcomes += checked
        tracer = tracing.Tracer()
        tracing.clear_table_caches()
        with tracer.patched():
            traced_wall, checked = workloads.run_pass(args.workload, ops, work, tracer,
                                                      sweep_workers=1)
        outcomes += checked
        metrics = tracing.layer_metrics(
            tracer, traced_wall, untraced_wall,
            sweep_wall=wall_s if args.workload == "sweep" else None,
            sweep_workers=workloads.SWEEP_WORKERS,
        )
        own, total, self_total = tracing.span_totals(tracer.spans)
        report["span_fields"] = ["name", "start", "end", "parent", "run_id", "self_s"]
        report["spans"] = [[*s, t] for s, t in zip(tracer.spans, own)]
        report["seconds_by_span"] = {"total": total, "self": self_total}
        report["counts"] = dict(tracer.counts)
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        metrics = {"wall_s": wall_s, "setup_s": _setup_seconds(ops), "peak_rss_mb": peak_rss}
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    if work.exists():
        shutil.rmtree(work)

    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    if not args.trace:
        metrics["passed_ratio"] = (attempted - failed) / attempted
    report["outcomes"] = [
        {"name": o.name, "ok": o.ok, "error": o.error, "failures": o.failures,
         "final_row": o.final_row}
        for o in outcomes
    ]
    report["metrics"] = metrics
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))

    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.name}: {o.error or '; '.join(o.failures)}")
    print(json.dumps({"provenance": report["provenance"]}))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


if __name__ == "__main__":
    sys.exit(main())
