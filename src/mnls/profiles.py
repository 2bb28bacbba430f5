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

from .errors import ConfigError, TimePastBlowup, WrongDimension
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


def ground_state_1d(grid: Grid, omega: float = 1.0, scale: float = 1.0) -> ComplexField:
    """scale * Q_omega on a 1D grid, where Q_omega(x) = omega^(1/2) Q(omega x).

    The mass-invariant rescaling: ||Q_omega||_2 = ||Q||_2 for every omega.
    scale != 1 tips the mass off the critical value.
    """
    if grid.dim != 1:
        raise WrongDimension("ground_state_1d needs a 1D grid")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    x = grid.axis_coords()
    vals = scale * np.sqrt(omega) * ground_state_curve(omega * x)
    return ComplexField(grid, vals.astype(np.complex128), 0.0)


def pseudo_conformal_field(
    grid: Grid,
    blowup_time: float,
    omega: float = 1.0,
    t: float = 0.0,
    x_shift: float = 0.0,
    phase: float = 0.0,
    conjugate: bool = False,
) -> ComplexField:
    """Sample the explicit self-similar profile h at time t on a 1D grid.

    Args:
        blowup_time: T, the concentration time; must satisfy t < T.
        omega: scaling of the underlying ground state.
        t: evaluation time (also stamped on the field).
        x_shift: spatial translation applied to the profile.
        phase: constant phase rotation exp(i*phase).
        conjugate: return the complex conjugate profile instead (the
            blowup orbit of the nonlinearity-managed focusing layer).

    Raises TimePastBlowup if t >= blowup_time.
    """
    if grid.dim != 1:
        raise WrongDimension("pseudo_conformal_field needs a 1D grid")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    tau = blowup_time - t
    if not (tau > 0.0):
        raise TimePastBlowup(f"t={t} is not before blowup_time={blowup_time}")
    x = grid.axis_coords() - x_shift
    amp = np.sqrt(omega / tau) * ground_state_curve(omega * x / tau)
    theta = x * x / (4.0 * tau) - omega * omega / tau + phase
    vals = amp * np.exp(1j * theta)
    if conjugate:
        vals = np.conj(vals)
    return ComplexField(grid, vals, float(t))


def sech_profile_2d(grid: Grid, amplitude: float, width: float) -> ComplexField:
    """Radial bump A * sech(|x|/w) on a 2D grid."""
    if grid.dim != 2:
        raise WrongDimension("sech_profile_2d needs a 2D grid")
    if width <= 0.0:
        raise ValueError("width must be positive")
    xm, ym = grid.meshes()
    r = np.sqrt(xm * xm + ym * ym)
    vals = amplitude / np.cosh(r / width)
    return ComplexField(grid, vals.astype(np.complex128), 0.0)


# profile kinds that field_from_record evaluates in closed form
CLOSED_FORM_KINDS = ("pseudo_conformal", "scaled_ground_state", "sech2d")


def field_from_record(grid: Grid, record: dict, t: float = 0.0) -> ComplexField:
    """Build initial data from a tagged profile record (config surface);
    raises ConfigError for a malformed record or an unknown kind."""
    if not isinstance(record, dict):
        raise ConfigError(f"profile must be a record, got {record!r}")
    kind = record.get("kind")
    try:
        if kind == "pseudo_conformal":
            return pseudo_conformal_field(
                grid,
                blowup_time=float(record["blowup_time"]),
                omega=float(record.get("omega", 1.0)),
                t=t,
                x_shift=float(record.get("x_shift", 0.0)),
                phase=float(record.get("phase", 0.0)),
                conjugate=bool(record.get("conjugate", False)),
            )
        if kind == "scaled_ground_state":
            return ground_state_1d(
                grid,
                omega=float(record.get("omega", 1.0)),
                scale=float(record.get("scale", 1.0)),
            )
        if kind == "sech2d":
            return sech_profile_2d(
                grid,
                amplitude=float(record["amplitude"]),
                width=float(record["width"]),
            )
    except (KeyError, TypeError, ValueError, TimePastBlowup) as exc:
        raise ConfigError(f"bad {kind} profile {record!r}: {exc}") from exc
    raise ConfigError(f"unknown profile kind: {kind!r}")
