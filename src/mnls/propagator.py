"""Strang split-step integrator for managed NLS flows.

Each layer of the management map is a constant-coefficient equation

    i u_t + a Lap(u) = b |u|^(p-1) u

with (a, b) = (gamma, 1) when the Laplacian is managed ("dm") and
(1, gamma) when the nonlinearity is ("nm").  A step is a half nonlinear
kick, a full linear sweep exp(-i a |k|^2 dt) in frequency space and a
second half kick, second-order accurate in dt (Weideman & Herbst, SIAM J.
Numer. Anal. 23, 1986).  Both substeps are exact: the nonlinear phase
leaves |u| untouched pointwise and the linear sweep multiplies by a
unit-modulus symbol, so the grid mass is conserved to rounding no matter
how badly resolved the run is.  Layer boundaries are never straddled;
each layer gets its own uniform step dividing its length.

The stepping is fused and buffered.  Each run owns three field-sized
buffers: the field, a phase factor and one real array holding |u|^2 and
then the kick exponent |u|^(p-1).  The sweep runs in place, and the |u|^2
taken after it serves both the amplitude check and the next kick, since
a kick is a pure phase rotation.  The trailing half-kick of one step and
the leading half-kick of the next are one full kick, split only at sample
steps and layer ends.

Blowup is a detection outcome, not an exception.  `evolve` keeps the step
loop and checks the amplitude cap after every step (one step from a
capped state cannot reach non-finite values, which keeps the
NonFiniteState guard meaningful).  One recorder owns the TrajectoryLog
and does all the rest: the samples, the mass-drift check at each one, the
layer-switch events and the halt record.  On a halt the last stable state
is rebuilt from the violating candidate by an inverse sweep and a
backward half-kick, exact to rounding since the sweep is unitary and the
kick keeps |u|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsSample, layer_energy, sample_diagnostics
from .errors import NonFiniteState
from .lattice import ComplexField, Grid
from .mgmt_map import DispersionMap, Layer

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

    def __post_init__(self):
        # a NaN threshold would make every comparison false and switch detection off
        for name in ("amplitude_factor", "mass_drift_tol", "amplitude_ceiling"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"policy {name} must be positive and finite, got {value!r}")

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


class _Stepper:
    """The three run-lifetime buffers of one evolve call and the substeps on them.

    ``u`` is the marching field, ``phase`` the kick factor, and ``nl`` the
    kick exponent |u|^(p-1) of the last `modulus` call.  Every substep works
    in place, so a step allocates nothing of the field's size beyond one
    real temporary.
    """

    def __init__(self, values: np.ndarray, p: float):
        self.u = np.array(values, dtype=np.complex128)  # a copy: u0 stays untouched
        self.phase = np.empty_like(self.u)
        self.nl = np.empty(self.u.shape)
        self.e = 0.5 * (p - 1.0)

    def modulus(self) -> float:
        """Return max |u|^2 and leave the kick exponent |u|^(p-1) in nl."""
        u, nl = self.u, self.nl
        np.multiply(u.real, u.real, out=nl)
        nl += u.imag * u.imag
        m2 = float(nl.max())
        if self.e == 2.0:
            np.multiply(nl, nl, out=nl)
        elif self.e != 1.0:
            np.power(nl, self.e, out=nl)
        return m2

    def kick(self, coeff: float) -> None:
        """Exact flow of i u_t = b |u|^(p-1) u over b*tau = coeff; leaves |u| alone.

        The factor exp(-i coeff |u|^(p-1)) is built as cos + i sin in the
        phase buffer's own real and imaginary parts, which is cheaper than
        numpy's complex exp and agrees with it to rounding.
        """
        arg = self.phase.imag
        np.multiply(self.nl, -coeff, out=arg)
        np.cos(arg, out=self.phase.real)
        np.sin(arg, out=arg)
        self.u *= self.phase

    def sweep(self, mult: np.ndarray) -> None:
        """Linear flow: multiply by the layer's symbol in frequency space."""
        u = self.u
        np.fft.fftn(u, out=u)
        u *= mult
        np.fft.ifftn(u, out=u)

    def unstep(self, mult: np.ndarray, half: float) -> np.ndarray:
        """Rebuild the state a step started from out of its post-sweep state.

        The sweep is unitary and the kick keeps |u|, so an inverse sweep and
        a backward half-kick recover it to rounding.
        """
        u = self.u
        np.fft.fftn(u, out=u)
        u /= mult
        np.fft.ifftn(u, out=u)
        self.modulus()
        self.kick(-half)
        return u


class _Recorder:
    """Owns a run's TrajectoryLog and writes everything that goes into it: the
    layer plan, the first sample, one sample per sample step with its
    mass-drift check against the first, the layer-switch events and the halt."""

    def __init__(self, grid: Grid, p: float, policy: BlowupPolicy, u: np.ndarray, t: float,
                 gamma: float):
        self.grid, self.p, self.tol = grid, p, policy.mass_drift_tol
        self.log = TrajectoryLog(samples=[self._diagnose(u, t, gamma)])
        self.mass0 = self.log.samples[0].mass

    def _diagnose(self, u: np.ndarray, t: float, gamma: float) -> DiagnosticsSample:
        return sample_diagnostics(ComplexField(self.grid, u, t), gamma, self.p)

    def enter(self, layer: Layer, dt: float, steps: int) -> None:
        self.log.layer_steps.append({"t_begin": layer.t_begin, "t_end": layer.t_end,
                                     "gamma": layer.gamma, "dt": dt, "steps": steps})

    def sample(self, u: np.ndarray, t: float, gamma: float) -> bool:
        """Record the full-step state u at t.  Returns False and records
        nothing when its mass drifted past the policy; `drift` keeps the value."""
        smp = self._diagnose(u, t, gamma)
        self.drift = abs(smp.mass - self.mass0) / self.mass0
        if self.drift > self.tol:
            return False
        self.log.samples.append(smp)
        return True

    def switch(self, t: float, gamma_before: float, gamma_after: float) -> None:
        """Log the switch at t with the energies, on both sides, of the sample there."""
        smp = self.log.samples[-1]
        self.log.events.append({
            "type": "layer_switch", "t": t, "gamma_before": gamma_before,
            "gamma_after": gamma_after, "energy_before": smp.energy,
            "energy_after": layer_energy(smp.kinetic, smp.potential, gamma_after, self.p),
            "potential": smp.potential, "mass": smp.mass,
        })

    def halt(self, u: np.ndarray, t_stable: float, gamma: float, reason: str, value: float,
             t_violation: float, steps: int) -> tuple[TrajectoryLog, ComplexField]:
        """Close the log after a policy trip; u is the last stable state and
        `steps` the steps the last layer computed, the violating one included."""
        log = self.log
        log.layer_steps[-1]["steps"] = steps
        if log.samples[-1].t < t_stable:
            log.samples.append(self._diagnose(u, t_stable, gamma))
        log.status, log.t_detect = "blowup", t_stable
        log.events.append({"type": "blowup", "t_detect": t_stable, "t_violation": t_violation,
                           "reason": reason, "value": value})
        return log, ComplexField(self.grid, u, t_stable)


def _steps_for(length: float, dt_target: float) -> int:
    # tiny slack so a length that is an exact multiple of dt_target does not
    # pick up a spurious extra step from rounding
    return max(1, int(math.ceil(length / dt_target - 1e-9)))


def evolve(
    model: ModelSpec,
    disp_map: DispersionMap,
    u0: ComplexField,
    t_end: float,
    dt_target: float,
    sample_every: int = 1,
    policy: BlowupPolicy | None = None,
) -> tuple[TrajectoryLog, ComplexField]:
    """March u0 from its own time u0.time to t_end through the map's layers.

    Per layer the step count is ceil(length / dt_target) and the realized
    dt divides the layer length exactly, so every gamma discontinuity is
    hit exactly.  Diagnostics are recorded at u0.time, every sample_every
    steps, and at each layer end; layer-switch events carry the energies
    on both sides of the interface.

    Returns the log and the last stable field.  On a policy trip the log
    status is "blowup" with t_detect the last stable time.
    """
    if policy is None:
        policy = BlowupPolicy()
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    grid, t_begin = u0.grid, u0.time
    p = model.resolve_p(grid.dim)
    layers = disp_map.layer_partition(t_begin, t_end)
    lap = grid.laplacian_symbol()

    st = _Stepper(u0.values, p)
    cap = policy.cap_for(math.sqrt(st.modulus()))
    rec = _Recorder(grid, p, policy, st.u, t_begin, layers[0].gamma)

    # The trailing half-kick of a step and the leading half-kick of the next
    # are one full kick, split only where st.u must be a full-step state: at
    # samples and layer ends.  st.nl holds the exponent of the current |u|.
    t_prev = t_begin
    for li, layer in enumerate(layers):
        a, b = model.layer_coefficients(layer.gamma)
        steps = _steps_for(layer.length, dt_target)
        dt = layer.length / steps
        rec.enter(layer, dt, steps)
        mult = np.exp(-1j * a * dt * lap)
        half = b * dt / 2.0
        st.kick(half)
        for s in range(1, steps + 1):
            st.sweep(mult)
            t_new = layer.t_end if s == steps else layer.t_begin + s * dt
            # the trailing kick is a pure phase: this is the candidate's modulus
            m2 = st.modulus()
            if not math.isfinite(m2):
                raise NonFiniteState(f"non-finite state at t={t_new:.9g} without a policy trigger")
            if m2 > cap * cap:
                return rec.halt(st.unstep(mult, half), t_prev, layer.gamma, "amplitude",
                                math.sqrt(m2), t_new, s)
            if s < steps and s % sample_every:
                st.kick(2.0 * half)
                t_prev = t_new
                continue
            st.kick(half)
            if not rec.sample(st.u, t_new, layer.gamma):
                st.kick(-half)
                return rec.halt(st.unstep(mult, half), t_prev, layer.gamma, "mass_drift",
                                rec.drift, t_new, s)
            if s < steps:
                st.u *= st.phase  # the next leading half-kick: same modulus, same phase
            elif li + 1 < len(layers):
                rec.switch(t_new, layer.gamma, layers[li + 1].gamma)
            t_prev = t_new
    return rec.log, ComplexField(grid, st.u, t_end)
