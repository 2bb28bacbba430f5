"""Strang split-step integrator for managed NLS flows.

Each layer of the management map is a constant-coefficient equation

    i u_t + a Lap(u) = b |u|^(p-1) u

with (a, b) = (gamma, 1) when the Laplacian is managed ("dm") and
(1, gamma) when the nonlinearity is ("nm").  A step is a half nonlinear
kick, a full linear sweep exp(-i a |k|^2 dt) in frequency space and a
second half kick, second-order accurate in dt.  Both substeps are exact:
the nonlinear phase leaves |u| untouched pointwise and the linear sweep
multiplies by a unit-modulus symbol, so the grid mass is conserved to
rounding no matter how badly resolved the run is.  Layer boundaries are
never straddled; each layer gets its own uniform step dividing its length.

Blowup is a detection outcome, not an exception.  The amplitude cap is
checked after every step (a single step from a capped state cannot reach
non-finite values, which keeps the NonFiniteState guard meaningful); the
mass-drift monitor runs at sample times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsSample, sample_diagnostics
from .errors import NonFiniteState
from .lattice import ComplexField
from .mgmt_map import DispersionMap

__all__ = ["ModelSpec", "BlowupPolicy", "TrajectoryLog", "evolve"]


@dataclass(frozen=True)
class ModelSpec:
    """Which coefficient the map multiplies, and the nonlinearity power."""

    kind: str  # "dm" (Laplacian managed) or "nm" (nonlinearity managed)
    p: float | None = None  # default: mass-critical 1 + 4/dim

    def __post_init__(self):
        if self.kind not in ("dm", "nm"):
            raise ValueError(f"model kind must be 'dm' or 'nm', got {self.kind!r}")
        if self.p is not None and not self.p > 1.0:
            raise ValueError("nonlinearity power p must exceed 1")

    def resolve_p(self, dim: int) -> float:
        return self.p if self.p is not None else 1.0 + 4.0 / dim

    def layer_coefficients(self, gamma: float) -> tuple[float, float]:
        if self.kind == "dm":
            return gamma, 1.0
        return 1.0, gamma


@dataclass(frozen=True)
class BlowupPolicy:
    """Detection thresholds; defaults follow the harness conventions."""

    amplitude_factor: float = 1.0e3  # cap = factor * initial sup|u|
    mass_drift_tol: float = 1.0e-4  # relative, against the initial mass
    amplitude_ceiling: float = 1.0e9  # absolute cap, independent of data

    def cap_for(self, linf0: float) -> float:
        return min(self.amplitude_factor * linf0, self.amplitude_ceiling)


@dataclass
class TrajectoryLog:
    samples: list = field(default_factory=list)
    events: list = field(default_factory=list)
    layer_steps: list = field(default_factory=list)
    status: str = "completed"  # or "blowup"
    t_detect: float | None = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def _nonlinear_kick(vals: np.ndarray, coeff: float, p: float) -> np.ndarray:
    """Exact flow of i u_t = b |u|^(p-1) u over b*tau = coeff."""
    amp2 = vals.real**2 + vals.imag**2
    e = 0.5 * (p - 1.0)
    if e == 1.0:
        nl = amp2
    elif e == 2.0:
        nl = amp2 * amp2
    else:
        nl = amp2**e
    return vals * np.exp(-1j * coeff * nl)


def _steps_for(length: float, dt_target: float) -> int:
    # tiny slack so a length that is an exact multiple of dt_target does not
    # pick up a spurious extra step from rounding
    return max(1, int(math.ceil(length / dt_target - 1e-9)))


def evolve(
    model: ModelSpec,
    disp_map: DispersionMap,
    u0: ComplexField,
    t_begin: float,
    t_end: float,
    dt_target: float,
    sample_every: int = 1,
    policy: BlowupPolicy | None = None,
) -> tuple[TrajectoryLog, ComplexField]:
    """March u0 from t_begin to t_end through the map's layers.

    Per layer the step count is ceil(length / dt_target) and the realized
    dt divides the layer length exactly, so every gamma discontinuity is
    hit exactly.  Diagnostics are recorded at t_begin, every sample_every
    steps, and at each layer end; layer-switch events carry the energies
    on both sides of the interface.

    Returns the log and the last stable field.  On a policy trip the log
    status is "blowup" with t_detect the last stable time.
    """
    if policy is None:
        policy = BlowupPolicy()
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if abs(u0.time - t_begin) > 1e-12:
        raise ValueError(f"u0 is stamped t={u0.time}, expected t_begin={t_begin}")
    grid = u0.grid
    p = model.resolve_p(grid.dim)
    layers = disp_map.layer_partition(t_begin, t_end)
    lap = grid.laplacian_symbol()

    log = TrajectoryLog()
    u = np.asarray(u0.values, dtype=np.complex128)
    linf0 = float(np.sqrt(np.max(u.real**2 + u.imag**2)))
    cap = policy.cap_for(linf0)
    first = sample_diagnostics(ComplexField(grid, u, t_begin), layers[0].gamma, p)
    mass0 = first.mass
    log.samples.append(first)

    t_prev = t_begin
    for li, layer in enumerate(layers):
        a, b = model.layer_coefficients(layer.gamma)
        steps = _steps_for(layer.length, dt_target)
        dt = layer.length / steps
        log.layer_steps.append(
            {
                "t_begin": layer.t_begin,
                "t_end": layer.t_end,
                "gamma": layer.gamma,
                "dt": dt,
                "steps": steps,
            }
        )
        mult = np.exp(-1j * a * dt * lap)
        half = b * dt / 2.0
        for s in range(1, steps + 1):
            # checks run on the candidate state v; u stays the last stable one
            v = _nonlinear_kick(u, half, p)
            v = np.fft.ifftn(mult * np.fft.fftn(v))
            v = _nonlinear_kick(v, half, p)
            t_new = layer.t_end if s == steps else layer.t_begin + s * dt
            m2 = float(np.max(v.real**2 + v.imag**2))
            if not np.isfinite(m2):
                raise NonFiniteState(
                    f"non-finite state at t={t_new:.9g} without a policy trigger"
                )
            if m2 > cap * cap:
                return _halt(log, grid, u, t_prev, layer.gamma, p, "amplitude", math.sqrt(m2), t_new)
            if s == steps or s % sample_every == 0:
                smp = sample_diagnostics(ComplexField(grid, v, t_new), layer.gamma, p)
                drift = abs(smp.mass - mass0) / mass0
                if drift > policy.mass_drift_tol:
                    return _halt(log, grid, u, t_prev, layer.gamma, p, "mass_drift", drift, t_new)
                log.samples.append(smp)
                if s == steps and li + 1 < len(layers):
                    gamma_in = layers[li + 1].gamma
                    log.events.append(
                        {
                            "type": "layer_switch",
                            "t": t_new,
                            "gamma_before": layer.gamma,
                            "gamma_after": gamma_in,
                            "energy_before": smp.energy,
                            "energy_after": 0.5 * smp.kinetic
                            + gamma_in / (p + 1.0) * smp.potential,
                            "potential": smp.potential,
                            "mass": smp.mass,
                        }
                    )
            u = v
            t_prev = t_new
    return log, ComplexField(grid, u, t_end)


def _halt(log, grid, u_stable, t_stable, gamma, p, reason, value, t_violation):
    """Close the log after a policy trip; the violating state is discarded."""
    if not log.samples or log.samples[-1].t < t_stable:
        log.samples.append(sample_diagnostics(ComplexField(grid, u_stable, t_stable), gamma, p))
    log.status = "blowup"
    log.t_detect = t_stable
    log.events.append(
        {
            "type": "blowup",
            "t_detect": t_stable,
            "t_violation": t_violation,
            "reason": reason,
            "value": value,
        }
    )
    return log, ComplexField(grid, u_stable, t_stable)
