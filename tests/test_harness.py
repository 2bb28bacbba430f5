"""Config resolution, artifact emission, and the on-disk formats."""

import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import mnls.constructor
from mnls.diagnostics import SERIES_COLUMNS, SampleTable
from mnls.errors import (BlowupDuringConstruction, ConfigError, CorruptSnapshot, EmptySeries,
                         MissingColumn, MnlsError, UnreadableSeries)
from mnls.harness import build_run, initial_data, resolve_config, run_experiment
from mnls.lattice import ComplexField, make_grid
from mnls.mgmt_map import DispersionMap
from mnls.plotting import emit_plot
from mnls.profiles import ground_state_1d, sech_profile_2d
from mnls.propagator import BlowupPolicy, ModelSpec, evolve
from mnls.runio import (
    SNAPSHOT_MAGIC,
    read_series_csv,
    read_snapshot,
    require_column,
    write_series_csv,
    write_snapshot,
)


def test_resolve_config_expands_catalog_id():
    cfg = resolve_config("foc-first-layer-T0.5")
    assert cfg["experiment"] == "foc-first-layer-T0.5"
    assert cfg["model"]["kind"] == "dm"
    assert cfg["grid"]["n"] == 1024
    assert cfg["sample_every"] >= 1
    assert "policy" in cfg


def test_resolve_config_merges_nested_overrides():
    base = resolve_config("foc-first-layer-T0.5")
    cfg = resolve_config("foc-first-layer-T0.5", {"grid": {"n": 512}, "t_end": 0.25})
    assert cfg["grid"]["n"] == 512
    assert cfg["grid"]["half_width"] == base["grid"]["half_width"]
    assert cfg["grid"]["dim"] == base["grid"]["dim"]
    assert cfg["t_end"] == 0.25
    assert base["grid"]["n"] == 1024  # the catalog copy is untouched


def test_resolve_config_dict_with_experiment_key():
    cfg = resolve_config({"experiment": "foc-first-layer-T0.5", "t_end": 0.3})
    assert cfg["t_end"] == 0.3
    assert cfg["model"]["kind"] == "dm"


def test_resolve_config_rejects_incomplete_dict():
    with pytest.raises(ConfigError) as exc:
        resolve_config({"model": {"kind": "dm"}})
    assert "missing" in str(exc.value)


def test_resolve_config_rejects_unknown_top_level_keys():
    """A misspelled top-level key must not leave its default in force."""
    with pytest.raises(ConfigError) as exc:
        resolve_config("foc-first-layer-T0.5", {"dt_targt": 1e-3})
    assert "dt_targt" in str(exc.value)
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "foc-first-layer-T0.5", "sample_evry": 5})


def test_resolve_config_rejects_wrong_type():
    with pytest.raises(ConfigError):
        resolve_config(42)


def test_resolve_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        resolve_config("no-such-run")


def _tiny_config(**kw):
    cfg = {
        "model": {"kind": "dm"},
        "map": {"t_star": 1.0, "t_period": 2.0},
        "profile": {"kind": "scaled_ground_state"},
        "grid": {"dim": 1, "half_width": 6 * np.pi, "n": 128},
        "dt_target": 0.01,
        "t_end": 0.1,
        "sample_every": 5,
    }
    cfg.update(kw)
    return cfg


def test_run_experiment_rejects_bad_model_kind(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_tiny_config(model={"kind": "frob"}), tmp_path)


def test_run_experiment_rejects_nonpositive_dt(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_tiny_config(dt_target=0.0), tmp_path)


def test_run_experiment_writes_completed_artifacts(tmp_path):
    out = tmp_path / "tiny"
    summary = run_experiment(_tiny_config(), out)
    assert summary["status"] == "completed"
    assert summary["t_detect"] is None
    for name in ("series.csv", "events.jsonl", "meta.json", "final.mnls", "linf.svg", "energy.svg"):
        assert (out / name).exists(), name
    assert not (out / "last_stable.mnls").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["status"] == "completed"
    assert meta["grid"]["dx"] == pytest.approx(2 * 6 * np.pi / 128)
    assert meta["stepping"]["total_steps"] == 10
    assert "final" not in summary
    assert read_snapshot(out / "final.mnls").time == 0.1


def test_run_experiment_blowup_artifacts(catalog_run):
    summary = catalog_run("foc-first-layer-T0.5")
    assert summary["status"] == "blowup"
    lo, hi = 0.4, 0.5
    assert lo <= summary["t_detect"] < hi
    out = summary["out_dir"]
    from pathlib import Path

    outp = Path(out)
    assert (outp / "last_stable.mnls").exists()
    assert not (outp / "final.mnls").exists()
    snap = read_snapshot(outp / "last_stable.mnls")
    assert snap.time == summary["t_detect"]
    events = [json.loads(ln) for ln in (outp / "events.jsonl").read_text().splitlines()]
    assert events[-1]["type"] == "blowup"
    assert events[-1]["reason"] == "amplitude"


def test_run_experiment_backward_construction_success(tmp_path):
    out = tmp_path / "revival"
    summary = run_experiment(
        "nm-revival-n2-T5.5",
        out,
        overrides={"grid": {"n": 1024}, "t_end": 0.5, "dt_target": 1e-3},
    )
    assert summary["status"] == "completed"
    assert (out / "u0.mnls").exists()
    assert (out / "construction.csv").exists()
    assert (out / "final.mnls").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["construction"]["samples"] > 0
    u0 = read_snapshot(out / "u0.mnls")
    assert u0.time == 0.0
    assert abs(u0.mass() - 2.7206990463513265) < 1e-8


def test_run_experiment_construction_blowup_path(tmp_path):
    out = tmp_path / "dmback"
    summary = run_experiment(
        "dm-backward-T2.5",
        out,
        overrides={"grid": {"n": 1024}, "dt_target": 1e-3},
    )
    assert summary["status"] == "blowup_during_construction"
    assert summary["t_detect"] is not None
    assert "log" not in summary and "final" not in summary
    for name in ("series.csv", "events.jsonl", "meta.json", "linf.svg", "energy.svg"):
        assert (out / name).exists(), name
    assert not (out / "u0.mnls").exists()
    assert not any(out.glob("*.mnls"))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["status"] == "blowup_during_construction"


def test_catalog_entries_all_resolve_and_build():
    """Every catalog entry must expand into a buildable configuration."""
    from mnls.catalog import catalog_ids

    for name in catalog_ids():
        cfg = resolve_config(name)
        assert cfg["experiment"] == name
        assert cfg["model"]["kind"] in ("dm", "nm")
        assert cfg["grid"]["dim"] in (1, 2)
        assert cfg["dt_target"] > 0
        assert cfg["t_end"] > 0
        assert cfg["policy"]["amplitude_factor"] > 1.0
        assert "expected" in cfg and "status" in cfg["expected"]
        run = build_run(cfg)
        assert run.model.kind == cfg["model"]["kind"]
        assert run.grid.dim == cfg["grid"]["dim"] and run.grid.n == cfg["grid"]["n"]
        assert run.policy.amplitude_factor == cfg["policy"]["amplitude_factor"]
        assert (run.dt_target, run.t_end) == (cfg["dt_target"], cfg["t_end"])


def test_build_run_policy_defaults_and_unknown_keys():
    run = build_run(resolve_config(_tiny_config(policy={"amplitude_factor": 6.5})))
    assert run.policy == BlowupPolicy(amplitude_factor=6.5)
    for policy in ({"amplitude_factr": 6.5}, {"mass_drift_tol": "tight"}, [6.5],
                   {"amplitude_factor": float("nan")}, {"amplitude_ceiling": float("inf")},
                   {"mass_drift_tol": 0.0}, {"amplitude_factor": -2.0}):
        with pytest.raises(ConfigError):
            build_run(resolve_config(_tiny_config(policy=policy)))


def test_backward_construction_evolves_the_run_model(monkeypatch):
    """The auxiliary run must march the same power p as the forward run."""
    seen = []

    def recording_evolve(model, *args, **kwargs):
        seen.append(model)
        return evolve(model, *args, **kwargs)

    monkeypatch.setattr(mnls.constructor, "evolve", recording_evolve)
    cfg = resolve_config(_tiny_config(
        model={"kind": "nm", "p": 3},
        profile={"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5},
    ))
    run = build_run(cfg)
    try:
        initial_data(run, cfg["profile"])
    except BlowupDuringConstruction:
        pass
    assert seen == [ModelSpec("nm", p=3.0)]


def test_snapshot_round_trip_1d(tmp_path):
    g = make_grid(1, half_width=5.0, n=64)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u = ComplexField(g, vals, 1.25)
    path = tmp_path / "u.mnls"
    write_snapshot(path, u)
    v = read_snapshot(path)
    assert v.grid == g
    assert v.time == 1.25
    assert np.array_equal(v.values, vals)


def test_snapshot_round_trip_2d(tmp_path):
    g = make_grid(2, half_width=3.0, n=16)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    u = ComplexField(g, vals, 0.5)
    path = tmp_path / "u2.mnls"
    write_snapshot(path, u)
    v = read_snapshot(path)
    assert v.grid == g
    assert np.array_equal(v.values, vals)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.mnls"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


def test_snapshot_rejects_unknown_version(tmp_path):
    path = tmp_path / "v2.mnls"
    path.write_bytes(SNAPSHOT_MAGIC + struct.pack("<QQ", 2, 1) + b"\x00" * 32)
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


@pytest.mark.parametrize("keep", [-10, 12], ids=["cut-10-bytes", "12-byte-file"])
def test_snapshot_rejects_truncated_file(tmp_path, keep):
    path = tmp_path / "cut.mnls"
    write_snapshot(path, ground_state_1d(make_grid(1, half_width=5.0, n=64)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(MnlsError):
        read_snapshot(path)


def test_snapshot_rejects_a_resolution_that_is_not_a_power_of_two(tmp_path):
    path = tmp_path / "n12.mnls"
    path.write_bytes(SNAPSHOT_MAGIC + struct.pack("<QQQdd", 1, 1, 12, 5.0, 0.0)
                     + b"\x00" * 16 * 12)
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


def test_series_csv_round_trip(tmp_path):
    from mnls.diagnostics import sample_diagnostics

    g = make_grid(1, half_width=6 * np.pi, n=256)
    u = ground_state_1d(g)
    samples = SampleTable()
    samples.append(sample_diagnostics(u, -1.0, 5.0))
    path = tmp_path / "series.csv"
    write_series_csv(path, samples)
    cols = read_series_csv(path)
    assert cols["mass"][0] == samples[0].mass
    assert cols["I"][0] == samples[0].variance
    assert cols["P"][0] == samples[0].momentum
    assert require_column(cols, "linf")[0] == samples[0].linf
    with pytest.raises(MissingColumn):
        require_column(cols, "entropy")


def test_series_csv_empty_errors(tmp_path, capfd):
    p1 = tmp_path / "empty.csv"
    p1.write_text("")
    with pytest.raises(EmptySeries):
        read_series_csv(p1)
    p2 = tmp_path / "header.csv"
    p2.write_text("t,linf\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EmptySeries):
            read_series_csv(p2)
    assert [str(w.message) for w in caught] == []
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("text, error", [
    ("t,linf\n0.0,1.0\n0.5\n0.7,1.0,2.0\n", UnreadableSeries),
    ("t,linf\n0.0,1.0,2.0\n0.5,1.0,2.0\n", UnreadableSeries),
    ("t,linf\n0.0,1.0,\n", UnreadableSeries),
    ("t,linf\n0.0,\n", UnreadableSeries),
    ("t,linf\n0.0,high\n", UnreadableSeries),
    ("t,linf\n0x1p3,1.0\n", UnreadableSeries),
    ("t,linf\n# note\n0.0,1.0\n", UnreadableSeries),
    ("t,linf\n1_000,1.0\n", UnreadableSeries),
    ("t,linf\n", EmptySeries),
    ("", EmptySeries),
], ids=["ragged-row", "rows-wider-than-header", "trailing-comma", "empty-cell", "word", "hex",
        "hash-line", "underscore-digits", "header-only", "empty-file"])
def test_malformed_series_file_errors(tmp_path, text, error):
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(error):
        read_series_csv(path)


def test_series_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("\nt,linf\n0.0,1.0\n\n  \n0.5,2.0\n\n")
    cols = read_series_csv(path)
    assert cols["t"].tolist() == [0.0, 0.5]
    assert cols["linf"].tolist() == [1.0, 2.0]


# A 20,000-row series; its numeric table is rows * 9 columns * 8 bytes = 1.44 MB.
# Building each artifact should cost a small multiple of that table, not of
# the ~3.6 MB of CSV text.
_GUARD_ROWS = 20_000
_GUARD_TABLE = _GUARD_ROWS * len(SERIES_COLUMNS) * 8


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_series(tmp_path_factory):
    rng = np.random.default_rng(7)
    table = rng.standard_normal((_GUARD_ROWS, len(SERIES_COLUMNS))) * np.logspace(-3, 3, 9)
    samples = SampleTable(table)
    path = tmp_path_factory.mktemp("long") / "series.csv"
    write_series_csv(path, samples)
    return samples, path


def test_series_writer_memory_is_bounded(long_series, tmp_path):
    samples, _ = long_series
    assert _traced_peak(write_series_csv, tmp_path / "series.csv", samples) < _GUARD_TABLE


def test_emit_plot_points_match_the_pointwise_map(long_series, tmp_path):
    _, path = long_series
    emit_plot(path, "energy", tmp_path / "energy.svg")
    svg = (tmp_path / "energy.svg").read_text()
    points = svg.split('<polyline points="', 1)[1].split('"', 1)[0]
    cols = read_series_csv(path)
    t, y = cols["t"].tolist(), cols["energy"].tolist()
    tlo, thi = min(t), max(t)
    ylo, yhi = min(y), max(y)
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    # the reference: M4 over the plot's 632 pixel columns, one row at a time:
    # each column keeps its first and last row and a row of least and of
    # greatest value (the earliest and the latest on ties), in row order
    columns = {}
    for i, tv in enumerate(t):
        columns.setdefault(min(int((tv - tlo) / (thi - tlo) * 632), 631), []).append(i)
    keep = set()
    for rows in columns.values():
        low = min(y[i] for i in rows)
        high = max(y[i] for i in rows)
        keep |= {rows[0], rows[-1], next(i for i in rows if y[i] == low),
                 next(i for i in reversed(rows) if y[i] == high)}
    want = " ".join(f"{72 + (t[i] - tlo) / (thi - tlo) * 632:.2f},"
                    f"{440 - 48 - (y[i] - ylo) / (yhi - ylo) * 364:.2f}" for i in sorted(keep))
    assert points == want
    assert len(keep) <= 4 * 632


def test_emit_plot_memory_is_bounded(long_series, tmp_path):
    _, path = long_series
    assert _traced_peak(emit_plot, path, "linf", tmp_path / "linf.svg") < 4 * _GUARD_TABLE


# Footprints of the 2D field paths at 128^2, in complex fields of 256 KiB.
# Each bound sits between the measured peak and the peak of the copies it
# guards against: numpy's broadcasting and FFT buffers add a fixed ~0.1-0.5.
_FIELD = 16 * 128 * 128


def test_2d_evolve_holds_one_field_buffer():
    """At 256^2, sampling every step, the run allocates 0.52 fields with
    numpy's buffers, u0 being allocated before: the kick and the samples
    work in one scratch block of 64 rows (a quarter field), and a sample's
    dot products along the columns copy a strided block.  The layer symbol
    is one factor per axis and the variance is summed from marginals.  At
    128^2 a field-sized symbol, |x|^2 table and sample scratch made 5.03
    fields, a copy of u0 and a separate |u|^(p-1) array 3.04, and a
    field-sized phase buffer 1.54 (1.14 at 256^2)."""
    g = make_grid(2, half_width=8.0, n=256)
    u0 = sech_profile_2d(g, 5.0, 0.86)
    layers = DispersionMap(t_star=5e-4, t_period=1e-3).layer_partition(0.0, 2e-3)
    evolve(ModelSpec("dm"), layers, u0.copy(), 2.5e-4, 1)  # fill the grid's cached tables
    field = 16 * 256 * 256
    assert _traced_peak(evolve, ModelSpec("dm"), layers, u0, 2.5e-4, 1) < 0.55 * field


def test_sech_profile_2d_builds_the_field_in_place():
    g = make_grid(2, half_width=8.0, n=128)
    g.meshes()
    assert _traced_peak(sech_profile_2d, g, 5.0, 0.86) <= 1.5 * _FIELD


def test_snapshot_writes_the_interleaved_field_without_copies(tmp_path):
    """A field and a transposed view of it both give the header and then
    the interleaved Re/Im pairs in row-major node order; only the view,
    which is not C-contiguous, is copied on the way."""
    g = make_grid(2, half_width=8.0, n=128)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    path = tmp_path / "u.mnls"
    for view, bound in ((values, 0.25), (values.T, 1.25)):
        field = ComplexField(g, view, 0.5)
        assert _traced_peak(write_snapshot, path, field) < bound * _FIELD
        flat = np.empty(2 * view.size, dtype="<f8")
        flat[0::2] = view.real.ravel()
        flat[1::2] = view.imag.ravel()
        header = SNAPSHOT_MAGIC + struct.pack("<QQQQdd", 1, 2, 128, 128, 8.0, 0.5)
        assert path.read_bytes() == header + flat.tobytes()


def test_emit_plot_is_deterministic(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,linf\n0.0,1.0\n0.5,2.0\n1.0,1.5\n")
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    emit_plot(path, "linf", a)
    emit_plot(path, "linf", b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"<svg")
    with pytest.raises(MissingColumn):
        emit_plot(path, "energy", tmp_path / "c.svg")
