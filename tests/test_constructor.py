"""Backward construction of data that blows up inside a later layer."""

import numpy as np
import pytest

from mnls.constructor import backward_blowup_data
from mnls.diagnostics import sample_diagnostics
from mnls.errors import BlowupDuringConstruction
from mnls.lattice import make_grid
from mnls.mgmt_map import normalized_map
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
    return backward_blowup_data(ModelSpec("nm"), 1, 2.5, grid1d, dt_target=5e-4, sample_every=10)


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
    s = sample_diagnostics(seed, gamma_now=-1.0, p=5.0)
    assert abs(s.momentum - SEED_MOMENTUM) < 1e-6 * (1.0 + SEED_MOMENTUM)
    assert abs(SEED_MOMENTUM - 0.25 * np.sqrt(3.0) * np.pi**3 / 32.0) < 1e-9


def test_forward_evolution_returns_to_the_seed(grid1d, nm_construction):
    """Marching the constructed data forward to t = 2n and conjugating must
    reproduce the seed profile; the mirrored stepping cancels the solver
    error almost exactly, far below the splitting accuracy."""
    u0, _ = nm_construction
    log, w = evolve(
        ModelSpec("nm"),
        normalized_map(),
        u0,
        2.0,
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
        backward_blowup_data(ModelSpec("nm"), layer_index, 2.5, grid1d)


@pytest.mark.parametrize("blowup_time", [2.0, 1.5])
def test_rejects_blowup_time_inside_the_backward_window(grid1d, blowup_time):
    """T must lie strictly past t = 2n or the seed profile is meaningless."""
    with pytest.raises(ValueError):
        backward_blowup_data(ModelSpec("nm"), 1, blowup_time, grid1d)
