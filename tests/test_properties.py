"""Property tests: layer tiling, the config merge rule,
snapshot and series round trips, and the clean rejection of malformed
input on the command line."""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mnls.catalog import catalog_ids
from mnls.cli import main
from mnls.diagnostics import SERIES_COLUMNS, SampleTable
from mnls.errors import MnlsError, UnreadableSeries
from mnls.harness import resolve_config
from mnls.lattice import ComplexField, make_grid
from mnls.mgmt_map import DispersionMap
from mnls.runio import read_series_csv, read_snapshot, write_series_csv, write_snapshot

# -- management maps -----------------------------------------------------------


@st.composite
def maps(draw):
    t_period = draw(st.floats(0.1, 10.0))
    return DispersionMap(
        gamma_minus=draw(st.floats(0.05, 20.0)),
        gamma_plus=draw(st.floats(0.05, 20.0)),
        t_star=draw(st.floats(0.01, 0.99)) * t_period,
        t_period=t_period,
        epsilon=draw(st.floats(0.05, 5.0)),
    )


@st.composite
def windows(draw):
    """A map and a window (t_begin, t_end] on it."""
    disp = draw(maps())
    per = disp.period
    t_begin = draw(st.floats(0.0, 20.0 * per))
    t_end = t_begin + draw(st.floats(1e-3 * per, 20.0 * per))
    return disp, t_begin, t_end


_TP = 3.2530287541823113


# t_begin = t_period is the map's 20th switch, which 20 * (epsilon * t_period)
# rounds one ulp into the window: a sliver layer unless it is snapped away
@given(windows())
@example((DispersionMap(t_star=1.0, t_period=_TP, epsilon=0.05), _TP, _TP + 0.5))
def test_layer_partition_tiles_its_window(window):
    disp, t_begin, t_end = window
    layers = disp.layer_partition(t_begin, t_end)
    assert layers[0].t_begin == t_begin
    assert layers[-1].t_end == t_end
    for left, right in zip(layers, layers[1:]):
        assert left.t_end == right.t_begin
        assert left.gamma != right.gamma
    assert all(layer.t_end > layer.t_begin for layer in layers)


# -- config merging ------------------------------------------------------------

_MAP_KEYS = ("gamma_minus", "gamma_plus", "t_star", "t_period", "epsilon")
_POLICY_KEYS = ("amplitude_factor", "mass_drift_tol", "amplitude_ceiling")

# partial records and scalars; no model or profile, so a required key stays unset
_overrides = st.fixed_dictionaries({}, optional={
    "map": st.dictionaries(st.sampled_from(_MAP_KEYS), st.floats(0.01, 10.0)),
    "grid": st.dictionaries(st.sampled_from(("dim", "half_width", "n")), st.integers(1, 4096)),
    "policy": st.dictionaries(st.sampled_from(_POLICY_KEYS), st.floats(1.0, 1e3)),
    "t_end": st.floats(0.01, 30.0),
    "dt_target": st.floats(1e-5, 1e-2),
    "sample_every": st.integers(1, 100),
})


# the fast map's t_star and t_period survive a partial map record
@given(st.sampled_from(catalog_ids()), _overrides)
@example("2d-fast-dm", {"map": {"epsilon": 0.5}})
@example("dm-global-T1.5", {"grid": {"n": 2048}})
def test_experiment_dict_merges_like_overrides(experiment, overrides):
    assert resolve_config({"experiment": experiment, **overrides}) == resolve_config(
        experiment, overrides)


# -- snapshots -----------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw):
    grid = make_grid(draw(st.sampled_from([1, 2])), draw(st.floats(1e-3, 1e6)),
                     draw(st.sampled_from([8, 16, 32])))
    # set the parts directly: re + 1j * im would turn -0.0 into 0.0
    values = np.empty(grid.shape, dtype=np.complex128)
    values.real = draw(arrays(np.float64, grid.shape, elements=_finite))
    values.imag = draw(arrays(np.float64, grid.shape, elements=_finite))
    return ComplexField(grid, values, draw(_finite))


def _signed_zeros() -> ComplexField:
    values = np.full(8, -0.0 + 1j)
    values[1] = complex(1.0, math.inf)
    return ComplexField(make_grid(1, 1.0, 8), values, -0.0)


# bytes, not np.array_equal, which takes -0.0 for 0.0
@given(fields())
@example(_signed_zeros())
def test_snapshot_round_trip(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.mnls"
        write_snapshot(path, u)
        v = read_snapshot(path)
    assert v.grid == u.grid
    assert np.float64(v.time).tobytes() == np.float64(u.time).tobytes()
    assert v.values.tobytes() == u.values.tobytes()


@given(fields(), st.data())
def test_truncated_snapshot_is_a_package_error(u, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.mnls"
        write_snapshot(path, u)
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(MnlsError):
            read_snapshot(path)


# -- series files ----------------------------------------------------------------


@given(st.lists(st.tuples(*[st.floats()] * len(SERIES_COLUMNS)), min_size=1, max_size=30))
@example([(0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.5, 0.1, 1 / 3, 2.0, 1e22)])
@example([(0.0,) * 8 + (math.nan,), (math.inf,) * 9])
def test_series_csv_round_trip_is_bitwise(rows):
    """Finite cells read back bit for bit; a file holding a NaN or an infinity
    (which no run writes) is refused as unreadable."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series_csv(path, SampleTable(rows))
        want = np.array(rows, dtype=np.float64)
        if not np.all(np.isfinite(want)):
            with pytest.raises(UnreadableSeries):
                read_series_csv(path)
            return
        cols = read_series_csv(path)
    assert list(cols) == list(SERIES_COLUMNS)
    got = np.column_stack([cols[name] for name in SERIES_COLUMNS])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# -- malformed run configs on the command line ------------------------------------

VALID = {
    "model": {"kind": "dm"},
    "map": {"gamma_minus": 1.0, "gamma_plus": 1.0, "t_star": 1.0, "t_period": 2.0,
            "epsilon": 1.0},
    "profile": {"kind": "scaled_ground_state"},
    "grid": {"dim": 1, "half_width": 6.0, "n": 64},
    "dt_target": 0.01,
    "t_end": 0.02,
    "sample_every": 1,
    "policy": {},
}
_TOP_KEYS = (*VALID, "experiment", "title", "expected")
_DROP = object()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


_words = st.text(max_size=8).filter(lambda s: not _is_number(s))
_not_a_record = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), _words,
                          st.lists(st.integers(), max_size=3))
_not_a_number = st.one_of(st.none(), _words, st.lists(st.integers(), max_size=3))
_not_positive = st.floats(max_value=0.0)
# JSON true and "2" are not numbers, though Python compares and casts them as ones
_number_lookalikes = st.one_of(st.booleans(), st.floats(allow_nan=False).map(repr))
_bad_time = st.one_of(_not_a_number, _not_positive, _number_lookalikes,
                      st.sampled_from([math.nan, math.inf]))


def _with(record: dict, key: str, value) -> dict:
    out = dict(record)
    if value is _DROP:
        out.pop(key)
    else:
        out[key] = value
    return out


_bad_model = st.one_of(
    _not_a_record,
    st.just({}),
    st.builds(lambda k: {"kind": k}, st.text(max_size=4).filter(lambda k: k not in ("dm", "nm"))),
    # the power is always the mass-critical one: `p` is refused at any value
    st.builds(lambda p: {"kind": "nm", "p": p}, st.one_of(_words, st.floats())),
    st.builds(lambda k: {"kind": "nm", k: 3.0}, _words.filter(lambda k: k != "kind")),
)
_bad_map = st.one_of(
    _not_a_record,
    st.builds(_with, st.just(VALID["map"]),
              st.sampled_from(["gamma_minus", "gamma_plus", "epsilon"]),
              st.one_of(_words, _not_positive, _number_lookalikes)),
    st.builds(lambda ts: _with(VALID["map"], "t_star", ts), st.floats(min_value=2.0)),
    st.builds(lambda k: _with(VALID["map"], k, 1.0), _words.filter(lambda k: k not in VALID["map"])),
)
_bad_grid = st.one_of(
    _not_a_record,
    st.builds(_with, st.just(VALID["grid"]), st.sampled_from(["dim", "half_width", "n"]),
              st.one_of(st.just(_DROP), _not_a_number, _number_lookalikes)),
    st.builds(lambda d: _with(VALID["grid"], "dim", d), st.integers().filter(lambda d: d not in (1, 2))),
    st.builds(lambda n: _with(VALID["grid"], "n", n),
              st.integers(max_value=10**6).filter(lambda n: n < 8 or n & (n - 1))),
    st.builds(lambda w: _with(VALID["grid"], "half_width", w), _bad_time),
    st.builds(lambda k, v: _with(VALID["grid"], k, v), st.sampled_from(["dim", "n"]),
              st.floats().filter(lambda v: not v.is_integer())),
    st.builds(lambda k: _with(VALID["grid"], k, 64), _words.filter(lambda k: k not in VALID["grid"])),
)
_GOOD_PROFILES = (
    {"kind": "pseudo_conformal", "blowup_time": 1.5},
    {"kind": "scaled_ground_state"},
    {"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5},
)
_PROFILE_KEYS = ("kind", "blowup_time", "omega", "phase", "conjugate", "scale", "amplitude",
                 "width", "layer_index")
# (record, key) pairs whose value is a float parameter of the profile
_FLOAT_PARAMS = [(_GOOD_PROFILES[0], k) for k in ("omega", "phase")] + [
    (_GOOD_PROFILES[1], k) for k in ("omega", "scale")] + [(_GOOD_PROFILES[2], "omega")]
_bad_profile = st.one_of(
    _not_a_record,
    st.builds(lambda k: {"kind": k}, st.text(max_size=12).filter(lambda k: k not in (
        "pseudo_conformal", "scaled_ground_state", "sech2d", "backward_construction"))),
    st.builds(lambda t, w: {"kind": "pseudo_conformal", "blowup_time": t, "omega": w},
              st.floats(0.1, 10.0), st.one_of(_words, _not_positive)),
    st.builds(lambda t: {"kind": "pseudo_conformal", "blowup_time": t},
              st.one_of(_not_a_number, _not_positive)),
    st.builds(lambda w: {"kind": "scaled_ground_state", "omega": w},
              st.one_of(_words, _not_positive)),
    st.builds(lambda key: _with({"kind": "sech2d", "amplitude": 1.0, "width": 1.0}, key, _DROP),
              st.sampled_from(["amplitude", "width"])),
    st.builds(lambda key: _with({"kind": "backward_construction", "layer_index": 1,
                                 "blowup_time": 2.5}, key, _DROP),
              st.sampled_from(["layer_index", "blowup_time"])),
    st.builds(lambda n, t: {"kind": "backward_construction", "layer_index": n, "blowup_time": t},
              st.integers(-3, 0), st.floats(0.1, 10.0)),
    st.builds(lambda n, t: {"kind": "backward_construction", "layer_index": n,
                            "blowup_time": 2.0 * n - t},
              st.integers(1, 4), st.floats(0.0, 10.0)),
    st.builds(lambda n: {"kind": "backward_construction", "layer_index": n, "blowup_time": 2.5},
              st.floats()),
    st.builds(lambda rec, k: {**rec, k: 1.0}, st.sampled_from(_GOOD_PROFILES),
              _words.filter(lambda k: k not in _PROFILE_KEYS)),
    st.builds(lambda param, v: {**param[0], param[1]: v}, st.sampled_from(_FLOAT_PARAMS),
              st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), _number_lookalikes)),
    st.builds(lambda c: {"kind": "pseudo_conformal", "blowup_time": 1.5, "conjugate": c},
              st.one_of(_not_a_record, st.integers())),
)
_bad_policy = st.one_of(
    _not_a_record,
    st.builds(lambda k: {k: 2.0}, st.text(max_size=12).filter(lambda k: k not in (
        "amplitude_factor", "mass_drift_tol", "amplitude_ceiling"))),
    st.builds(lambda k, v: {k: v},
              st.sampled_from(["amplitude_factor", "mass_drift_tol", "amplitude_ceiling"]),
              _bad_time),
)
_mutations = st.one_of(
    st.tuples(st.sampled_from(["model", "map", "profile", "grid", "dt_target", "t_end"]),
              st.just(_DROP)),
    st.tuples(st.just("model"), _bad_model),
    st.tuples(st.just("map"), _bad_map),
    st.tuples(st.just("profile"), _bad_profile),
    st.tuples(st.just("grid"), _bad_grid),
    st.tuples(st.sampled_from(["dt_target", "t_end"]), _bad_time),
    st.tuples(st.just("sample_every"),
              st.one_of(_not_a_number, st.integers(max_value=0), st.floats(), st.booleans())),
    st.tuples(st.just("policy"), _bad_policy),
    st.tuples(_words.filter(lambda k: k not in _TOP_KEYS), st.just(1.0)),
)


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _run_config(config) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        return _main(["run", str(path), "--out", str(Path(tmp) / "out")])


def test_valid_config_runs():
    assert _run_config(VALID) == (0, "")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutations)
@example(("profile", {"kind": "pseudo_conformal"}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 1.5, "omega": -1}))
@example(("profile", "oops"))
@example(("policy", {"amplitude_factr": 6.5}))
@example(("policy", {"amplitude_factor": math.nan}))
@example(("map", {**VALID["map"], "gamma_minu": 3.0}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 0.0}))
@example(("profile", {"kind": "scaled_ground_state", "omgea": 2.0}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 1.5, "t": 0.5}))
@example(("model", {"kind": "dm", "pp": 3}))
@example(("model", {"kind": "dm", "p": 5.0}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 1.5, "x_shift": 0.0}))
@example(("grid", {**VALID["grid"], "nn": 128}))
@example(("grid", {**VALID["grid"], "n": 1024.7}))
@example(("grid", {**VALID["grid"], "dim": 1.9}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 1.5, "conjugate": "false"}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 1.5, "omega": math.nan}))
@example(("profile", {"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5,
                      "omega": math.nan}))
@example(("dt_targt", 0.001))
@example(("sample_every", 2.7))
@example(("grid", {**VALID["grid"], "dim": True}))
@example(("grid", {**VALID["grid"], "half_width": True}))
@example(("policy", {"amplitude_factor": True}))
@example(("map", {**VALID["map"], "epsilon": True}))
@example(("map", {**VALID["map"], "epsilon": "2"}))
@example(("dt_target", "0.01"))
@example(("profile", {"kind": "scaled_ground_state", "omega": True}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": True}))
@example(("profile", {"kind": "pseudo_conformal", "blowup_time": 1.5, "phase": True}))
@example(("profile", {"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5,
                      "omega": True}))
@example(("profile", {"kind": "sech2d", "amplitude": 1.0, "width": 1.0}))
@example(("grid", {**VALID["grid"], "dim": 2},
          "profile", {"kind": "pseudo_conformal", "blowup_time": 1.5}))
def test_malformed_run_config_is_a_config_error(mutation):
    # a mutation is one or more (key, value) pairs applied to VALID in turn
    config = VALID
    for key, value in zip(mutation[::2], mutation[1::2]):
        config = _with(config, key, value)
    code, err = _run_config(config)
    assert code == 1, err
    assert err.startswith("config error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("profile", [
    {"kind": "pseudo_conformal", "blowup_time": 1.5, "phase": math.inf},
    {"kind": "pseudo_conformal", "blowup_time": 1.5, "omega": math.inf},
    {"kind": "scaled_ground_state", "omega": math.inf},
    {"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5, "omega": math.inf},
], ids=["pseudo-conformal-phase", "pseudo-conformal-omega", "ground-state-omega",
        "backward-omega"])
def test_non_finite_profile_reports_only_the_config_error(profile):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run_config(_with(VALID, "profile", profile))
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert err.startswith("config error:") and err.count("\n") == 1, err


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 0), st.floats(-10.0, 10.0))
@example(0, 2.5)
def test_construct_rejects_a_layer_below_one(layer, blowup_time):
    config = {"experiment": "nm-blowup-T2.5",
              "profile": {"layer_index": layer, "blowup_time": blowup_time}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code, err = _main(["construct", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 1, err
    assert err.startswith("config error:"), err
    assert "Traceback" not in err
