"""Closed-form initial data: ground states and pseudo-conformal profiles.

The 1D ground state is Q(x) = 3^(1/4) sech(2x)^(1/2), the positive decaying
solution of Q'' - Q + Q^5 = 0, normalized so the quintic equation is
mass-critical.  The pseudo-conformal profile concentrates a rescaled ground
state toward a prescribed blowup time T:

    h(t, x) = (w/(T-t))^(1/2) exp(i x^2 / (4(T-t)) - i w^2/(T-t)) Q(w x/(T-t))

h solves i u_t - u_xx = |u|^4 u (the gamma = -1 layer when the Laplacian
carries the coefficient); its complex conjugate solves the same layer of
the nonlinearity-managed flow.  Note the sign: the standing wave of the
first equation is exp(-it) Q, of the conjugate equation exp(+it) Q.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, TimePastBlowup, WrongDimension, is_real
from .lattice import ComplexField, Grid

__all__ = [
    "ground_state_1d",
    "pseudo_conformal_field",
    "sech_profile_2d",
    "field_from_record",
    "CLOSED_FORM_KINDS",
]


def ground_state_curve(y: np.ndarray) -> np.ndarray:
    """Q evaluated pointwise (dimensionless argument)."""
    return 3.0**0.25 / np.sqrt(np.cosh(2.0 * y))


# Every profile function below evaluates under _QUIET and ends in
# _finite_field: a parameter that overflows or meets inf*0 raises ValueError
# there, which callers report as a config error, so numpy need not warn first.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _real(**params) -> None:
    """Raise TypeError for a parameter that is not a real number (JSON true, "2")."""
    bad = {k: v for k, v in params.items() if not is_real(v)}
    if bad:
        raise TypeError(f"profile parameters must be real numbers, got {bad!r}")


def _finite_field(grid: Grid, vals: np.ndarray, t: float = 0.0) -> ComplexField:
    """Profile samples as a field; parameters that make them non-finite
    (a NaN omega, an infinite amplitude) or all zero (a zero scale, an
    infinite blowup time) raise ValueError."""
    if not np.isfinite(vals).all():
        raise ValueError("profile parameters give a non-finite field")
    if not np.vdot(vals, vals).real > 0.0:
        raise ValueError("profile parameters give a field of zero mass")
    return ComplexField(grid, vals, t)


@_QUIET
def ground_state_1d(grid: Grid, omega: float = 1.0, scale: float = 1.0) -> ComplexField:
    """scale * Q_omega on a 1D grid, where Q_omega(x) = omega^(1/2) Q(omega x).

    The mass-invariant rescaling: ||Q_omega||_2 = ||Q||_2 for every omega.
    scale != 1 tips the mass off the critical value.
    """
    if grid.dim != 1:
        raise WrongDimension("ground_state_1d needs a 1D grid")
    _real(omega=omega, scale=scale)
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    x = grid.axis_coords()
    return _finite_field(grid, scale * np.sqrt(omega) * ground_state_curve(omega * x))


@_QUIET
def pseudo_conformal_field(
    grid: Grid,
    blowup_time: float,
    omega: float = 1.0,
    t: float = 0.0,
    phase: float = 0.0,
    conjugate: bool = False,
) -> ComplexField:
    """Sample the explicit self-similar profile h at time t on a 1D grid.

    Args:
        blowup_time: T, the concentration time; must satisfy t < T.
        omega: scaling of the underlying ground state.
        t: evaluation time (also stamped on the field).
        phase: constant phase rotation exp(i*phase).
        conjugate: return the complex conjugate profile instead (the
            blowup orbit of the nonlinearity-managed focusing layer).

    Raises TimePastBlowup if t >= blowup_time.
    """
    if grid.dim != 1:
        raise WrongDimension("pseudo_conformal_field needs a 1D grid")
    _real(blowup_time=blowup_time, omega=omega, t=t, phase=phase)
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if not isinstance(conjugate, bool):
        raise TypeError(f"conjugate must be a boolean, got {conjugate!r}")
    tau = blowup_time - t
    if not (tau > 0.0):
        raise TimePastBlowup(f"t={t} is not before blowup_time={blowup_time}")
    x = grid.axis_coords()
    amp = np.sqrt(omega / tau) * ground_state_curve(omega * x / tau)
    theta = x * x / (4.0 * tau) - omega * omega / tau + phase
    vals = amp * np.exp(1j * theta)
    if conjugate:
        vals = np.conj(vals)
    return _finite_field(grid, vals, float(t))


@_QUIET
def sech_profile_2d(grid: Grid, amplitude: float, width: float) -> ComplexField:
    """Radial bump A * sech(|x|/w) on a 2D grid."""
    if grid.dim != 2:
        raise WrongDimension("sech_profile_2d needs a 2D grid")
    _real(amplitude=amplitude, width=width)
    if width <= 0.0:
        raise ValueError("width must be positive")
    # built in the real part of the field itself from the broadcast meshes;
    # a broadcast assignment into that strided view needs no field-sized buffer
    x, y = grid.meshes()
    vals = np.zeros(grid.shape, dtype=np.complex128)
    bump = vals.real
    bump[...] = y * y
    bump += x * x
    np.sqrt(bump, out=bump)
    bump /= width
    np.cosh(bump, out=bump)
    np.divide(amplitude, bump, out=bump)
    return _finite_field(grid, vals)


# closed-form profile kinds; a record's other keys are the function's arguments
_CLOSED_FORMS = {
    "pseudo_conformal": pseudo_conformal_field,
    "scaled_ground_state": ground_state_1d,
    "sech2d": sech_profile_2d,
}
CLOSED_FORM_KINDS = tuple(_CLOSED_FORMS)


def field_from_record(grid: Grid, record: dict) -> ComplexField:
    """Build t = 0 initial data from a tagged profile record (config surface).

    The record is `kind` plus the keyword arguments of that kind's profile
    function, so its keys and defaults are that function's.  Raises
    ConfigError for an unknown kind or key, a bad value, or a `t` key
    (initial data is always at t = 0).
    """
    if not isinstance(record, dict):
        raise ConfigError(f"profile must be a record, got {record!r}")
    kind = record.get("kind")
    if kind not in CLOSED_FORM_KINDS:
        raise ConfigError(f"unknown profile kind: {kind!r}")
    params = {k: v for k, v in record.items() if k != "kind"}
    if "t" in params:
        raise ConfigError(f"profile records have no 't': initial data is at t = 0, got {record!r}")
    try:
        return _CLOSED_FORMS[kind](grid, **params)
    except (TypeError, ValueError, TimePastBlowup, WrongDimension) as exc:
        raise ConfigError(f"bad {kind} profile {record!r}: {exc}") from exc
