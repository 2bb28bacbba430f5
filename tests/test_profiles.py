"""Closed-form checks on the initial-data profiles."""

import numpy as np
import pytest

from mnls.errors import ConfigError, TimePastBlowup, WrongDimension
from mnls.lattice import make_grid
from mnls.profiles import (
    field_from_record,
    ground_state_1d,
    ground_state_curve,
    pseudo_conformal_field,
    sech_profile_2d,
)

# Frozen oracle values for the quintic ground state Q(x) = 3^(1/4) sech(2x)^(1/2):
#   Q(0)      = 3^(1/4)
#   ||Q||_2^2 = integral of sqrt(3) sech(2x) dx = sqrt(3) * pi / 2
Q_PEAK = 1.3160740129524924
Q_MASS = 2.7206990463513265


@pytest.fixture
def grid1d():
    return make_grid(1, half_width=12 * np.pi, n=1024)


def test_ground_state_peak_value(grid1d):
    u = ground_state_1d(grid1d)
    assert abs(u.linf() - Q_PEAK) < 1e-13
    # peak sits at x = 0
    i0 = int(np.argmax(np.abs(u.values)))
    assert grid1d.axis_coords()[i0] == 0.0


def test_ground_state_mass_closed_form(grid1d):
    u = ground_state_1d(grid1d)
    assert abs(u.mass() - Q_MASS) < 1e-12
    assert abs(Q_MASS - np.sqrt(3.0) * np.pi / 2.0) < 1e-15


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_ground_state_mass_is_omega_invariant(grid1d, omega):
    """Q_omega(x) = omega^(1/2) Q(omega x) keeps the L2 norm fixed.

    Only omegas whose width the fixture grid resolves; narrower profiles
    pick up visible quadrature error.
    """
    u = ground_state_1d(grid1d, omega=omega)
    assert abs(u.mass() - Q_MASS) < 1e-10


@pytest.mark.parametrize("scale", [0.9, 1.01, 1.03])
def test_scaled_ground_state_mass(grid1d, scale):
    u = ground_state_1d(grid1d, scale=scale)
    assert abs(u.mass() - scale * scale * Q_MASS) < 1e-10


def test_ground_state_rejects_bad_args(grid1d):
    g2 = make_grid(2, half_width=4.0, n=32)
    with pytest.raises(WrongDimension):
        ground_state_1d(g2)
    with pytest.raises(ValueError):
        ground_state_1d(grid1d, omega=0.0)
    with pytest.raises(ValueError):
        ground_state_1d(grid1d, omega=-1.0)


def test_pseudo_conformal_peak_amplitude(grid1d):
    """|h(t, 0)| = sqrt(omega / (T - t)) * Q(0)."""
    for t, T, omega in [(0.0, 2.5, 1.0), (1.0, 2.5, 1.0), (0.5, 1.0, 2.0)]:
        u = pseudo_conformal_field(grid1d, blowup_time=T, omega=omega, t=t)
        tau = T - t
        assert abs(u.linf() - np.sqrt(omega / tau) * Q_PEAK) < 1e-12
        assert u.time == t


def test_pseudo_conformal_mass_is_critical(grid1d):
    u = pseudo_conformal_field(grid1d, blowup_time=2.5)
    assert abs(u.mass() - Q_MASS) < 1e-10


def test_pseudo_conformal_rejects_time_past_blowup(grid1d):
    with pytest.raises(TimePastBlowup):
        pseudo_conformal_field(grid1d, blowup_time=1.0, t=1.0)
    with pytest.raises(TimePastBlowup):
        pseudo_conformal_field(grid1d, blowup_time=1.0, t=1.5)


def test_pseudo_conformal_conjugate_flag(grid1d):
    a = pseudo_conformal_field(grid1d, blowup_time=2.5, t=0.5)
    b = pseudo_conformal_field(grid1d, blowup_time=2.5, t=0.5, conjugate=True)
    assert np.array_equal(b.values, np.conj(a.values))


def test_pseudo_conformal_shift_and_phase(grid1d):
    u0 = pseudo_conformal_field(grid1d, blowup_time=2.5)
    shifted = pseudo_conformal_field(grid1d, blowup_time=2.5, x_shift=1.0)
    x = grid1d.axis_coords()
    ipk = int(np.argmax(np.abs(shifted.values)))
    assert abs(x[ipk] - 1.0) < grid1d.dx / 2 + 1e-12
    rotated = pseudo_conformal_field(grid1d, blowup_time=2.5, phase=0.75)
    assert np.allclose(rotated.values, u0.values * np.exp(0.75j), atol=1e-14)


def test_sech2d_peak_and_dimension_guard():
    g2 = make_grid(2, half_width=6.0, n=64)
    u = sech_profile_2d(g2, amplitude=5.0, width=0.86)
    assert abs(u.linf() - 5.0) < 1e-13
    g1 = make_grid(1, half_width=6.0, n=64)
    with pytest.raises(WrongDimension):
        sech_profile_2d(g1, amplitude=1.0, width=1.0)
    with pytest.raises(ValueError):
        sech_profile_2d(g2, amplitude=1.0, width=0.0)


def test_field_from_record_dispatch(grid1d):
    rec = {"kind": "pseudo_conformal", "blowup_time": 2.5, "conjugate": True}
    u = field_from_record(grid1d, rec)
    ref = pseudo_conformal_field(grid1d, blowup_time=2.5, conjugate=True)
    assert np.array_equal(u.values, ref.values)
    assert u.time == 0.0

    rec = {"kind": "scaled_ground_state", "scale": 1.03}
    u = field_from_record(grid1d, rec)
    assert abs(u.mass() - 1.03**2 * Q_MASS) < 1e-10

    g2 = make_grid(2, half_width=6.0, n=64)
    rec = {"kind": "sech2d", "amplitude": 2.0, "width": 0.86}
    u = field_from_record(g2, rec)
    assert abs(u.linf() - 2.0) < 1e-13


def test_field_from_record_unknown_kind(grid1d):
    with pytest.raises(ConfigError):
        field_from_record(grid1d, {"kind": "gaussian"})
    with pytest.raises(ConfigError):
        field_from_record(grid1d, {})


@pytest.mark.parametrize("blowup_time", [0.0, -1.5, float("nan")])
def test_field_from_record_rejects_blowup_time_not_ahead(grid1d, blowup_time):
    with pytest.raises(ConfigError):
        field_from_record(grid1d, {"kind": "pseudo_conformal", "blowup_time": blowup_time})


@pytest.mark.parametrize("record", [
    {"kind": "pseudo_conformal", "blowup_time": 1.5, "omega": float("nan")},
    {"kind": "pseudo_conformal", "blowup_time": 1.5, "x_shift": float("nan")},
    {"kind": "pseudo_conformal", "blowup_time": 1.5, "phase": float("inf")},
    {"kind": "scaled_ground_state", "scale": float("nan")},
    {"kind": "scaled_ground_state", "omega": float("nan")},
    {"kind": "sech2d", "amplitude": float("inf"), "width": 1.0},
    {"kind": "sech2d", "amplitude": 1.0, "width": float("nan")},
])
def test_non_finite_profile_parameters_are_a_config_error(record):
    grid = make_grid(2 if record["kind"] == "sech2d" else 1, half_width=6.0, n=64)
    with pytest.raises(ConfigError):
        field_from_record(grid, record)


def test_curve_decays():
    y = np.linspace(0.0, 8.0, 9)
    q = ground_state_curve(y)
    assert np.all(np.diff(q) < 0.0)
    assert q[-1] < 1e-3
