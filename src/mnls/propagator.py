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

The stepping is in place, fused, blocked and, in 1D, paired.  `evolve`
marches the field it is given: u0's own array is the marching field, and
u0 comes back advanced, so a caller who still needs the initial data
passes `u0.copy()`.  Besides it the run owns one scratch block, the phase
buffer, of `Grid.block_shape`: the whole field in 1D, 2^14 points of
whole rows in 2D (64 rows at 256^2), so a 2D run holds one field-sized
array.  A kick works a block at a time: |u|^2 into the phase block's
imaginary part (Im(u)^2 going through its real part), its max against
the amplitude cap, then the exponent |u|^(p-1) in place and the factor
exp(-i b tau |u|^(p-1)) as cos + i sin, which multiplies the block.  A
block over the cap stops the kick, and the blocks already kicked are
turned back.  The layer symbol exp(-i a dt |k|^2) is the product of one
factor per axis, exp(-i a dt k^2) over (n, 1) and (1, n) in 2D, rebuilt
in place at each layer; the sweep multiplies by each in turn.  Nothing
else field-sized lives for the run: a sample that differentiates on its
own takes the phase block as its scratch, and sums and differentiates
over blocks of it.
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
takes it one axis and one block of lines at a time.

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
from .lattice import ComplexField, Grid, line_blocks
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

    ``u`` is the marching field (the caller's array) and ``blocks`` its
    block views, built once: the whole field in 1D, blocks of whole rows of
    `Grid.block_shape` in 2D.  ``phase`` is one block of scratch: a kick
    takes |u|^2, the exponent and the factor exp(-i coeff |u|^(p-1)) in it,
    a block at a time, and in 1D, where it is field-sized, the last factor
    stays for `lead`.  In 1D ``pair`` is the two-row buffer of `lead`; 2D
    allocates none.  ``mult`` is the layer symbol as one factor per axis.
    Every substep works in place, so a step allocates nothing of the
    field's size.
    """

    def __init__(self, u: np.ndarray, p: float, lap: tuple[np.ndarray, ...],
                 block_shape: tuple[int, ...]):
        self.u = u
        self.phase = np.empty(block_shape, dtype=np.complex128)
        self.re, self.im = self.phase.real, self.phase.imag
        self.blocks = line_blocks(u, u.ndim - 1, block_shape[0])
        self.lap = lap
        self.mult = tuple(np.empty(k2.shape, dtype=np.complex128) for k2 in lap)
        self.e = 0.5 * (p - 1.0)
        if u.ndim == 1:
            self.fft, self.ifft = np.fft.fft, np.fft.ifft
            self.pair = np.empty((2,) + u.shape, dtype=np.complex128)
        else:
            self.fft, self.ifft = np.fft.fftn, np.fft.ifftn
            self.pair = None  # a 2D sweep already batches its rows

    def _modulus(self, ub: np.ndarray) -> float:
        """Leave |u|^2 of the block ub in phase.imag and return its max; Im(u)^2
        goes through phase.real."""
        nl = self.im
        np.multiply(ub.real, ub.real, out=nl)
        nl += np.multiply(ub.imag, ub.imag, out=self.re)
        return float(nl.max())

    def kick(self, coeff: float, cap2: float = math.inf) -> float:
        """Exact flow of i u_t = b |u|^(p-1) u over b*tau = coeff; return max |u|^2.

        A block at a time: |u|^2 and its max, the cap check, then the
        exponent |u|^(p-1) in place and the factor exp(-i coeff |u|^(p-1))
        as cos + i sin in the phase block's own real and imaginary parts,
        which is cheaper than numpy's complex exp and agrees with it to
        rounding.  The kick leaves |u| alone, so the max is that of the
        state before it as well as after.  A block whose max is above
        `cap2` or not finite stops the kick: the blocks already kicked are
        turned back, which restores the state to rounding, and the return
        value is the max over the whole field, which fails the same test.
        """
        top = 0.0
        for i, ub in enumerate(self.blocks):
            m2 = self._modulus(ub)
            if not m2 <= cap2:
                rest = [self._modulus(vb) for vb in self.blocks[i + 1:]]
                for vb in self.blocks[:i]:
                    self._modulus(vb)
                    self._rotate(vb, -coeff)
                return float(np.max([m2, *rest]))
            self._rotate(ub, coeff)
            if m2 > top:
                top = m2
        return top

    def _rotate(self, ub: np.ndarray, coeff: float) -> None:
        """Multiply the block ub by exp(-i coeff |u|^(p-1)), |u|^2 being in phase.imag."""
        nl = self.im
        if self.e == 2.0:
            np.multiply(nl, nl, out=nl)
        elif self.e != 1.0:
            np.power(nl, self.e, out=nl)
        nl *= -coeff
        np.cos(nl, out=self.re)
        np.sin(nl, out=nl)
        ub *= self.phase

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
        self.kick(-half)


class _Recorder:
    """Owns a run's TrajectoryLog and writes everything that goes into it: the
    layer plan, the first sample, one sample per sample step with its
    mass-drift check against the first, the layer-switch events and the halt.

    A sample without a gradient uses `scratch`, the stepper's phase block,
    as its scratch; the next kick takes its exponent afresh."""

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
    Besides the field, a run holds one scratch block of `Grid.block_shape`
    (field-sized in 1D, which adds the two-row pair buffer; 2^14 points in
    2D, so a 2D run holds one field-sized array).
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
    st = _Stepper(u0.values, p, grid.laplacian_symbol(), grid.block_shape)
    rec = _Recorder(grid, p, policy, st.u, t_begin, layers[0].gamma, st.phase)
    cap = policy.cap_for(rec.log.samples[0].linf)
    cap2 = cap * cap

    # The trailing half-kick of a step and the leading half-kick of the next
    # are one full kick, split only where st.u must be a full-step state: at
    # samples and layer ends.  The trailing kick checks the cap, block by
    # block, and a kick is a pure phase, so its max is the candidate's.  In
    # 1D a mid-layer sample's gradient and the next step's sweep share one
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
        st.kick(half)
        for s in range(1, steps + 1):
            if not swept:  # else the last sample's batched call did this sweep
                st.sweep()
            swept = False
            t_new = layer.t_end if s == steps else layer.t_begin + s * dt
            sample = s == steps or s % sample_every == 0
            m2 = st.kick(half if sample else 2.0 * half, cap2)
            if not math.isfinite(m2):
                raise NonFiniteState(f"non-finite state at t={t_new:.9g} without a policy trigger")
            if m2 > cap2:
                st.unstep(half)
                return rec.halt(u0, t_prev, layer.gamma, "amplitude", math.sqrt(m2), t_new, s)
            if not sample:
                t_prev = t_new
                continue
            swept = s < steps and st.pair is not None
            gradient = (st.lead(ik),) if swept else None
            if not rec.sample(st.u, t_new, layer.gamma, gradient):
                st.kick(-half)
                st.unstep(half)
                return rec.halt(u0, t_prev, layer.gamma, "mass_drift", rec.drift, t_new, s)
            if swept:
                st.advance()
            elif s < steps:
                st.kick(half)  # the next leading half-kick
            elif li + 1 < len(layers):
                rec.switch(t_new, layer.gamma, layers[li + 1].gamma)
            t_prev = t_new
    u0.time = layers[-1].t_end
    return rec.log, u0
