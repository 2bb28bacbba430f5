"""Backward construction of data that blows up inside a later layer."""

import numpy as np
import pytest

from mnls.constructor import backward_blowup_data
from mnls.diagnostics import sample_diagnostics
from mnls.errors import BlowupDuringConstruction, ConfigError
from mnls.harness import build_run, initial_data, resolve_config
from mnls.lattice import make_grid
from mnls.mgmt_map import DispersionMap, normalized_map
from mnls.profiles import pseudo_conformal_field
from mnls.propagator import BlowupPolicy, ModelSpec, evolve

CRITICAL_MASS = 2.7206990463513265
# The n = 1, T = 2.5 seed is the profile with tau = 0.5 at its own t = 0;
# its dilation momentum is tau/2 * ||xQ||^2 = 0.25 * sqrt(3) pi^3 / 32.
SEED_MOMENTUM = 0.4195659888


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, half_width=12 * np.pi, n=1024)


@pytest.fixture(scope="module")
def nm_construction(grid1d):
    return backward_blowup_data(ModelSpec("nm"), normalized_map(), 1, 2.5, grid1d,
                                dt_target=5e-4, sample_every=10)


def test_constructed_data_is_stamped_at_zero(nm_construction):
    u0, aux = nm_construction
    assert u0.time == 0.0
    assert aux.completed
    assert aux.samples[-1].t == 2.0


def test_constructed_data_has_critical_mass(nm_construction):
    u0, _ = nm_construction
    assert abs(u0.mass() - CRITICAL_MASS) < 1e-8


def test_seed_momentum_frozen_value(grid1d):
    seed = pseudo_conformal_field(grid1d, blowup_time=0.5)
    s = sample_diagnostics(seed, gamma_now=-1.0)
    assert abs(s.momentum - SEED_MOMENTUM) < 1e-6 * (1.0 + SEED_MOMENTUM)
    assert abs(SEED_MOMENTUM - 0.25 * np.sqrt(3.0) * np.pi**3 / 32.0) < 1e-9


def test_forward_evolution_returns_to_the_seed(grid1d, nm_construction):
    """Marching the constructed data forward to t = 2n and conjugating must
    reproduce the seed profile; the mirrored stepping cancels the solver
    error almost exactly, far below the splitting accuracy."""
    u0, _ = nm_construction
    log, w = evolve(
        ModelSpec("nm"),
        normalized_map().layer_partition(0.0, 2.0),
        u0.copy(),  # the fixture is shared by the module
        5e-4,
        sample_every=10**9,
        policy=BlowupPolicy(amplitude_factor=50.0),
    )
    assert log.completed
    seed = pseudo_conformal_field(grid1d, blowup_time=0.5)
    num = np.sqrt(grid1d.integrate(np.abs(np.conj(w.values) - seed.values) ** 2))
    den = np.sqrt(grid1d.integrate(np.abs(seed.values) ** 2))
    assert num / den < 1e-10


def test_dm_construction_trips_before_reaching_zero(grid1d):
    """Under Laplacian management the backward flow concentrates instead of
    unwinding; the attempt must end in a detection, not a seed."""
    with pytest.raises(BlowupDuringConstruction) as exc:
        backward_blowup_data(
            ModelSpec("dm"),
            normalized_map(),
            1,
            2.5,
            grid1d,
            dt_target=5e-4,
            sample_every=10,
            policy=BlowupPolicy(amplitude_factor=1.7),
        )
    err = exc.value
    assert 1.5 < err.t_detect < 2.0
    assert err.log is not None
    assert err.log.status == "blowup"


@pytest.mark.parametrize("layer_index", [0, -1])
def test_rejects_nonpositive_layer_index(grid1d, layer_index):
    with pytest.raises(ValueError):
        backward_blowup_data(ModelSpec("nm"), normalized_map(), layer_index, 2.5, grid1d)


@pytest.mark.parametrize("layer_index", [1.0, 1.5, True, "1"])
def test_rejects_non_integer_layer_index(grid1d, layer_index):
    """A fractional layer must not be truncated to the layer below it."""
    with pytest.raises(ValueError):
        backward_blowup_data(ModelSpec("nm"), normalized_map(), layer_index, 2.5, grid1d)


@pytest.mark.parametrize("blowup_time", [2.0, 1.5])
def test_rejects_blowup_time_inside_the_backward_window(grid1d, blowup_time):
    """T must lie strictly past the pivot n * period (2n on the unit map) or
    the seed profile is meaningless."""
    with pytest.raises(ValueError):
        backward_blowup_data(ModelSpec("nm"), normalized_map(), 1, blowup_time, grid1d)


def test_backward_layers_mirror_the_run_map():
    """The auxiliary run marches the map's layers on (0, pivot] in mirror
    order: pivot 4 on the unit map gives +1 on (0, 1], -1 on (1, 2] and so
    on, each layer keeping its gamma and its exact edges."""
    g = make_grid(1, half_width=12 * np.pi, n=64)
    _, aux = backward_blowup_data(ModelSpec("nm"), normalized_map(), 2, 4.5, g,
                                  dt_target=0.25, sample_every=10**9)
    assert [(ls["t_begin"], ls["t_end"], ls["gamma"]) for ls in aux.layer_steps] == [
        (0.0, 1.0, 1.0), (1.0, 2.0, -1.0), (2.0, 3.0, 1.0), (3.0, 4.0, -1.0)]
    m = DispersionMap(gamma_plus=0.3, t_star=0.7, t_period=1.9, epsilon=0.35)
    _, aux = backward_blowup_data(ModelSpec("nm"), m, 3, 3 * m.period + 0.1, g,
                                  dt_target=0.05, sample_every=10**9)
    forward = m.layer_partition(0.0, 3 * m.period)
    assert [(ls["t_begin"], ls["t_end"], ls["gamma"]) for ls in aux.layer_steps] == [
        (3 * m.period - l.t_end, 3 * m.period - l.t_begin, l.gamma) for l in reversed(forward)]


def test_construction_on_the_run_map_returns_to_the_seed():
    """On an epsilon = 0.5 map the focusing layer after the first period
    starts at t = 1, so T* = 1.25 pins the profile there; marching the data
    forward on the run's own map to t = 1 and conjugating gives the seed."""
    cfg = resolve_config({"experiment": "nm-blowup-T2.5", "map": {"epsilon": 0.5},
                          "profile": {"blowup_time": 1.25}, "grid": {"n": 1024}})
    run = build_run(cfg)
    u0, aux = initial_data(run, cfg["profile"])
    assert aux.completed and aux.samples[-1].t == 1.0
    _, w = evolve(run.model, run.disp_map.layer_partition(0.0, 1.0), u0, run.dt_target,
                  sample_every=10**9, policy=BlowupPolicy(amplitude_factor=50.0))
    seed = pseudo_conformal_field(run.grid, blowup_time=0.25)
    num = np.sqrt(run.grid.integrate(np.abs(np.conj(w.values) - seed.values) ** 2))
    den = np.sqrt(run.grid.integrate(np.abs(seed.values) ** 2))
    assert num / den < 1e-10


def test_rejects_a_map_whose_focusing_layer_the_profile_does_not_solve(grid1d):
    """The profile blows up only under gamma = -1; with another gamma_minus
    the data would silently miss T*."""
    with pytest.raises(ValueError, match="gamma_minus"):
        backward_blowup_data(ModelSpec("nm"), DispersionMap(gamma_minus=2.0), 1, 2.5, grid1d)
    cfg = resolve_config({"experiment": "nm-blowup-T2.5", "map": {"gamma_minus": 0.5}})
    with pytest.raises(ConfigError, match="gamma_minus"):
        initial_data(build_run(cfg), cfg["profile"])
