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
each layer gets its own uniform step dividing its length.  `evolve` takes
the layer list it marches, so a forward run and a backward construction
drive the same loop.

The stepping is in place, fused, buffered and, in 1D, paired.  `evolve`
marches the field it is given: u0's own array is the marching field, and
u0 comes back advanced, so a caller who still needs the initial data
passes `u0.copy()`.  Besides it the run owns one field-sized buffer, the
phase buffer, so a 2D run holds two field-sized arrays.  The phase buffer
carries |u|^2 and then the kick exponent |u|^(p-1) in its imaginary part,
and a kick turns that exponent into the factor exp(-i b tau |u|^(p-1))
in place, which spends it.  The layer symbol exp(-i a dt |k|^2) is the
product of one factor per axis, exp(-i a dt k^2) over (n, 1) and (1, n)
in 2D, rebuilt in place at each layer; the sweep multiplies by each in
turn.  Nothing else field-sized lives for the run: a sample that
differentiates on its own borrows the phase buffer as its scratch, and a
kick after it takes the exponent afresh from the field.
The sweep runs in place (`fft` in 1D, `fftn` in 2D), and the |u|^2 taken
after it serves both the amplitude check and the next kick, since a kick
is a pure phase rotation.  The trailing half-kick of one step and the
leading half-kick of the next are one full kick, split only at sample
steps and layer ends.  At a 1D sample step inside a layer, the sample's
gradient and the next step's sweep do not depend on each other, so one
batched transform each way over a two-row buffer does both: row 0 holds
the field after the leading half-kick and is multiplied by the layer
symbol, row 1 a copy of the sample state multiplied by i*k.  The next
step skips its own sweep.  Each row of numpy's batched transform has the
bits of a single transform, so pairing changes no output.  The first
sample, layer ends, halts and 2D (a two-axis sweep, whose rows numpy
already batches) leave the derivative to `sample_diagnostics`, which
takes it one axis at a time.

Blowup is a detection outcome, not an exception.  `evolve` keeps the step
loop and checks the amplitude cap after every step (one step from a
capped state cannot reach non-finite values, which keeps the
NonFiniteState guard meaningful).  One recorder owns the TrajectoryLog
and does all the rest: the samples, the mass-drift check at each one, the
layer-switch events and the halt record.  The samples go into one float64
table (`diagnostics.SampleTable`), a 72-byte row each, which builds a
`DiagnosticsSample` only when a row is read.  A u0 of zero mass is a
ValueError, since the drift check is relative to the first sample's mass.
On a halt the last stable state is rebuilt from the violating candidate
by an inverse sweep and a backward half-kick, exact to rounding since the
sweep is unitary and the kick keeps |u|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsSample, SampleTable, layer_energy, sample_diagnostics
from .errors import NonFiniteState, is_real
from .lattice import ComplexField, Grid
from .mgmt_map import Layer

__all__ = ["ModelSpec", "BlowupPolicy", "TrajectoryLog", "evolve"]


@dataclass(frozen=True)
class ModelSpec:
    """Which coefficient the map multiplies, and the nonlinearity power."""

    kind: str  # "dm" (Laplacian managed) or "nm" (nonlinearity managed)
    p: float | None = None  # default: mass-critical 1 + 4/dim

    def __post_init__(self):
        if self.kind not in ("dm", "nm"):
            raise ValueError(f"model kind must be 'dm' or 'nm', got {self.kind!r}")
        if self.p is not None and not (is_real(self.p) and math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"nonlinearity power p must be a finite real number above 1, "
                             f"got {self.p!r}")

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
            if not (is_real(value) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"policy {name} must be a positive, finite real number, "
                                 f"got {value!r}")

    def cap_for(self, linf0: float) -> float:
        return min(self.amplitude_factor * linf0, self.amplitude_ceiling)


@dataclass
class TrajectoryLog:
    samples: SampleTable = field(default_factory=SampleTable)
    events: list = field(default_factory=list)
    layer_steps: list = field(default_factory=list)
    status: str = "completed"  # or "blowup"
    t_detect: float | None = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class _Stepper:
    """The run-lifetime buffers of one evolve call and the substeps on them.

    ``u`` is the marching field (the caller's array), ``phase`` the kick
    factor, whose imaginary part holds the kick exponent |u|^(p-1) between
    a `modulus` call and the `kick` that spends it.  In 1D ``pair`` is the
    two-row buffer of `lead`; 2D allocates none.  ``mult`` is the layer
    symbol as one factor per axis.  Every substep works in place, so a step
    allocates nothing of the field's size.
    """

    def __init__(self, u: np.ndarray, p: float, lap: tuple[np.ndarray, ...]):
        self.u = u
        self.phase = np.empty_like(u)
        self.lap = lap
        self.mult = tuple(np.empty(k2.shape, dtype=np.complex128) for k2 in lap)
        self.e = 0.5 * (p - 1.0)
        if u.ndim == 1:
            self.fft, self.ifft = np.fft.fft, np.fft.ifft
            self.pair = np.empty((2,) + u.shape, dtype=np.complex128)
        else:
            self.fft, self.ifft = np.fft.fftn, np.fft.ifftn
            self.pair = None  # a 2D sweep already batches its rows

    def modulus(self) -> float:
        """Return max |u|^2 and leave the kick exponent |u|^(p-1) in phase.imag.

        The phase factor is dead here (a kick rebuilds it before it is read),
        so |u|^2 is summed in its imaginary part with Im(u)^2 going through
        its real part.
        """
        u, nl = self.u, self.phase.imag
        np.multiply(u.real, u.real, out=nl)
        nl += np.multiply(u.imag, u.imag, out=self.phase.real)
        m2 = float(nl.max())
        if self.e == 2.0:
            np.multiply(nl, nl, out=nl)
        elif self.e != 1.0:
            np.power(nl, self.e, out=nl)
        return m2

    def kick(self, coeff: float) -> None:
        """Exact flow of i u_t = b |u|^(p-1) u over b*tau = coeff; leaves |u| alone.

        The factor exp(-i coeff |u|^(p-1)) is built from the exponent that
        `modulus` left in phase.imag, as cos + i sin in the phase buffer's
        own real and imaginary parts, which is cheaper than numpy's complex
        exp and agrees with it to rounding.  This spends the exponent: the
        next kick needs a `modulus` call first.
        """
        arg = self.phase.imag
        arg *= -coeff
        np.cos(arg, out=self.phase.real)
        np.sin(arg, out=arg)
        self.u *= self.phase

    def symbol(self, coeff: complex) -> None:
        """Make mult the layer symbol exp(coeff |k|^2), one factor per axis."""
        for k2, m in zip(self.lap, self.mult):
            np.multiply(k2, coeff, out=m)
            np.exp(m, out=m)

    def sweep(self) -> None:
        """Linear flow: multiply by the layer's symbol in frequency space."""
        u = self.u
        self.fft(u, out=u)
        for m in self.mult:
            u *= m
        self.ifft(u, out=u)

    def lead(self, ik: np.ndarray) -> np.ndarray:
        """Start the next step on a copy of the sample state u and differentiate u.

        Row 0 of the pair buffer gets u after the leading half-kick (the
        phase of the trailing one) and the sweep; row 1 gets du/dx.  One
        batched transform each way does both rows, and each row has the bits
        of a single transform.  u stays the sample state until `advance`.
        """
        w = self.pair
        np.multiply(self.u, self.phase, out=w[0])
        w[1] = self.u
        np.fft.fft(w, axis=-1, out=w)
        w[0] *= self.mult[0]
        w[1] *= ik
        np.fft.ifft(w, axis=-1, out=w)
        return w[1]

    def advance(self) -> None:
        """Take the state `lead` swept as the marching field."""
        self.u[...] = self.pair[0]

    def unstep(self, half: float) -> None:
        """Rebuild in u the state a step started from out of its post-sweep state.

        The sweep is unitary and the kick keeps |u|, so an inverse sweep and
        a backward half-kick recover it to rounding.
        """
        u = self.u
        self.fft(u, out=u)
        for m in self.mult:
            u /= m
        self.ifft(u, out=u)
        self.modulus()
        self.kick(-half)


class _Recorder:
    """Owns a run's TrajectoryLog and writes everything that goes into it: the
    layer plan, the first sample, one sample per sample step with its
    mass-drift check against the first, the layer-switch events and the halt.

    A sample without a gradient uses `scratch`, the stepper's phase buffer,
    as its scratch field; the caller rebuilds the phase after it."""

    def __init__(self, grid: Grid, p: float, policy: BlowupPolicy, u: np.ndarray, t: float,
                 gamma: float, scratch: np.ndarray):
        self.grid, self.p, self.tol = grid, p, policy.mass_drift_tol
        self.scratch = scratch
        first = self._diagnose(u, t, gamma)
        if not first.mass > 0.0:
            raise ValueError(f"u0 must have positive mass, got {first.mass!r}")
        self.mass0 = first.mass
        self.log = TrajectoryLog()
        self.log.samples.append(first)

    def _diagnose(self, u: np.ndarray, t: float, gamma: float,
                  gradient: tuple[np.ndarray, ...] | None = None) -> DiagnosticsSample:
        return sample_diagnostics(ComplexField(self.grid, u, t), gamma, self.p, gradient,
                                  scratch=self.scratch)

    def enter(self, layer: Layer, dt: float, steps: int) -> None:
        self.log.layer_steps.append({"t_begin": layer.t_begin, "t_end": layer.t_end,
                                     "gamma": layer.gamma, "dt": dt, "steps": steps})

    def sample(self, u: np.ndarray, t: float, gamma: float,
               gradient: tuple[np.ndarray, ...] | None = None) -> bool:
        """Record the full-step state u at t, with its gradient if the caller
        has it.  Returns False and records nothing when its mass drifted past
        the policy; `drift` keeps the value."""
        smp = self._diagnose(u, t, gamma, gradient)
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

    def halt(self, u: ComplexField, t_stable: float, gamma: float, reason: str, value: float,
             t_violation: float, steps: int) -> tuple[TrajectoryLog, ComplexField]:
        """Close the log after a policy trip and stamp u, which holds the last
        stable state, with t_stable; `steps` are the steps the last layer
        computed, the violating one included."""
        log = self.log
        log.layer_steps[-1]["steps"] = steps
        u.time = t_stable
        if log.samples[-1].t < t_stable:
            log.samples.append(self._diagnose(u.values, t_stable, gamma))
        log.status, log.t_detect = "blowup", t_stable
        log.events.append({"type": "blowup", "t_detect": t_stable, "t_violation": t_violation,
                           "reason": reason, "value": value})
        return log, u


def _steps_for(length: float, dt_target: float) -> int:
    # tiny slack so a length that is an exact multiple of dt_target does not
    # pick up a spurious extra step from rounding
    return max(1, int(math.ceil(length / dt_target - 1e-9)))


def evolve(
    model: ModelSpec,
    layers: list[Layer],
    u0: ComplexField,
    dt_target: float,
    sample_every: int = 1,
    policy: BlowupPolicy | None = None,
) -> tuple[TrajectoryLog, ComplexField]:
    """March u0 in place through consecutive layers, from layers[0].t_begin,
    which must be u0's own time, to layers[-1].t_end.

    Per layer the step count is ceil(length / dt_target) and the realized
    dt divides the layer length exactly, so every gamma discontinuity is
    hit exactly.  Diagnostics are recorded at u0.time, every sample_every
    steps, and at each layer end; layer-switch events carry the energies
    on both sides of the interface.

    Returns the log and u0 itself, advanced: its values are the last
    stable state and its time layers[-1].t_end, or on a policy trip, where
    the log status is "blowup", t_detect, the last stable time.  A caller
    who needs the initial data afterwards passes `u0.copy()`; evolving an
    advanced field over the same layers again fails the start-time check.
    Besides the field, a run holds one field-sized buffer (two field-sized
    arrays in 2D; 1D adds the two-row pair buffer).
    """
    if policy is None:
        policy = BlowupPolicy()
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    grid, t_begin = u0.grid, u0.time
    if layers[0].t_begin != t_begin:
        raise ValueError(f"layers start at t={layers[0].t_begin}, u0 at t={t_begin}")
    p = model.resolve_p(grid.dim)
    ik = grid.derivative_symbols()[0]

    u0.values = np.ascontiguousarray(u0.values, dtype=np.complex128)  # copies only a strided view
    st = _Stepper(u0.values, p, grid.laplacian_symbol())
    cap = policy.cap_for(math.sqrt(st.modulus()))
    rec = _Recorder(grid, p, policy, st.u, t_begin, layers[0].gamma, st.phase)

    # The trailing half-kick of a step and the leading half-kick of the next
    # are one full kick, split only where st.u must be a full-step state: at
    # samples and layer ends.  A kick spends the exponent st.modulus() left
    # in st.phase, so a kick that does not follow a modulus call makes one.
    # In 1D a mid-layer sample's gradient and the next step's sweep share one
    # batched transform pair, and that step skips its own sweep.  Any other
    # sample uses st.phase as scratch.
    t_prev, swept = t_begin, False
    for li, layer in enumerate(layers):
        a, b = model.layer_coefficients(layer.gamma)
        steps = _steps_for(layer.length, dt_target)
        dt = layer.length / steps
        rec.enter(layer, dt, steps)
        st.symbol(-1j * a * dt)
        half = b * dt / 2.0
        st.modulus()
        st.kick(half)
        for s in range(1, steps + 1):
            if not swept:  # else the last sample's batched call did this sweep
                st.sweep()
            swept = False
            t_new = layer.t_end if s == steps else layer.t_begin + s * dt
            # the trailing kick is a pure phase: this is the candidate's modulus
            m2 = st.modulus()
            if not math.isfinite(m2):
                raise NonFiniteState(f"non-finite state at t={t_new:.9g} without a policy trigger")
            if m2 > cap * cap:
                st.unstep(half)
                return rec.halt(u0, t_prev, layer.gamma, "amplitude", math.sqrt(m2), t_new, s)
            if s < steps and s % sample_every:
                st.kick(2.0 * half)
                t_prev = t_new
                continue
            st.kick(half)
            swept = s < steps and st.pair is not None
            gradient = (st.lead(ik),) if swept else None
            if not rec.sample(st.u, t_new, layer.gamma, gradient):
                st.modulus()
                st.kick(-half)
                st.unstep(half)
                return rec.halt(u0, t_prev, layer.gamma, "mass_drift", rec.drift, t_new, s)
            if swept:
                st.advance()
            elif s < steps:
                st.modulus()  # the next leading half-kick: the sample used st.phase
                st.kick(half)
            elif li + 1 < len(layers):
                rec.switch(t_new, layer.gamma, layers[li + 1].gamma)
            t_prev = t_new
    u0.time = layers[-1].t_end
    return rec.log, u0
