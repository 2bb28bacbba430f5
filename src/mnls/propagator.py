"""Strang split-step integrator for managed NLS flows.

Each layer of the management map is a constant-coefficient equation

    i u_t + a Lap(u) = b |u|^(4/d) u

in d = 1 or 2 dimensions (the mass-critical power), with (a, b) =
(gamma, 1) when the Laplacian is managed ("dm") and (1, gamma) when the
nonlinearity is ("nm").  A step is a half nonlinear
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
buffer, of `Grid.block_shape`: the whole field in 1D, 2^14 points in 2D
(64 lines at 256^2), so a 2D run holds one field-sized array.  Every pass
goes over blocks of whole lines (`lattice.line_blocks`).  The layer
symbol exp(-i a dt |k|^2) is the product of one factor per axis,
exp(-i a dt k^2) over (n, 1) and (1, n) in 2D, rebuilt in place at each
layer.  The 2D sweep is a column pass, where each block of columns is
copied transposed into the phase block, transformed along its rows with
the axis-0 factor and copied back, and then a row pass with the axis-1
factor; 1D is the row pass alone.  A kick takes |u|^2, checks its max
against the amplitude cap and multiplies by exp(-i b tau |u|^(4/d)), the
exponent being (|u|^2)^2 in 1D and |u|^2 in 2D.  In 1D the factor is
cos + i sin in the phase buffer's own parts.  In 2D it works on
half-blocks of rows, and the factor comes from the half-angle tangent
t = tan(theta/2), cos theta = 2/(1+t^2) - 1 and sin theta = t 2/(1+t^2),
with the factor in one half of the phase block and |u|^2, t and 2/(1+t^2)
in the other half as floats: numpy's float64 tan is a SIMD loop where cos
and sin are not, and the factor agrees with cos + i sin to rounding.  A
step's kick takes each row block right after that block's row pass.  A
unit over the cap stops the kick, and the units already kicked are turned
back.
Nothing else field-sized lives for the run: a sample takes the phase
buffer as its scratch for |u|^2, and one that differentiates on its own
differentiates over blocks of it too.
The sweep runs in place, and the |u|^2 taken after it serves both the
amplitude check and the next kick, since a kick is a pure phase
rotation.  The trailing half-kick of one step and the
leading half-kick of the next are one full kick, split only at sample
steps and layer ends.  At a 1D sample step inside a layer, the sample's
gradient and the next step's sweep do not depend on each other, so one
batched transform each way over a two-row buffer does both: row 0 holds
the field after the leading half-kick and is multiplied by the layer
symbol, row 1 a copy of the sample state multiplied by i*k.  The next
step skips its own sweep.  Each row of numpy's batched transform has the
bits of a single transform, so pairing changes no output.  The first
sample, layer ends, halts and 2D (a two-axis sweep, which batches its
own lines) leave the derivative to `sample_diagnostics`, which
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
    """Which coefficient the map multiplies; the power is always mass-critical."""

    kind: str  # "dm" (Laplacian managed) or "nm" (nonlinearity managed)

    def __post_init__(self):
        if self.kind not in ("dm", "nm"):
            raise ValueError(f"model kind must be 'dm' or 'nm', got {self.kind!r}")

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

    ``u`` is the marching field (the caller's array).  Its passes go over
    views built once: ``rows`` and ``cols``, the blocks of whole rows and
    of whole columns (`lattice.line_blocks` of `Grid.block_shape`), and
    ``units``, the kick's units (``parts`` lists each row block's).  1D has
    one row block and one unit, the whole field, and no column pass.
    ``phase`` is the one scratch block, of `Grid.block_shape`.  In 1D the
    kick keeps |u|^2 and the exponent |u|^4 in its imaginary part, with
    Im(u)^2 going through its real part, and then the factor cos + i sin in both,
    so the last factor stays there for `lead`.  In 2D a unit is half a row
    block: the column pass copies a column block into ``phase`` transposed,
    and a kick keeps the factor in its first half and |u|^2, the tangent
    and 2/(1+t^2) in its second half as floats.  ``mult`` is the layer
    symbol as one factor per axis.  Every substep works in place, so a step
    allocates nothing of the field's size.
    """

    def __init__(self, u: np.ndarray, lap: tuple[np.ndarray, ...],
                 block_shape: tuple[int, ...]):
        self.u = u
        self.lap = lap
        self.mult = tuple(np.empty(k2.shape, dtype=np.complex128) for k2 in lap)
        self.phase = np.empty(block_shape, dtype=np.complex128)
        self.half_angle = u.ndim > 1
        if u.ndim == 1:
            self.pair = np.empty((2,) + u.shape, dtype=np.complex128)
            self.fac, self.nl, self.re = self.phase, self.phase.imag, self.phase.real
            self.rows, self.cols, self.units, self.parts = [u], [], [u], [[0]]
        else:
            self.pair = None  # a 2D sweep batches its own lines
            flat = self.phase.reshape(-1)
            half = flat.size // 2
            self.fac = flat[:half]
            self.nl, self.re = flat[half:].view(np.float64).reshape(2, half)
            self.rows = line_blocks(u, 1, block_shape[0])
            self.cols = line_blocks(u, 0, block_shape[0])
            self.units = [h for rb in self.rows for h in np.split(rb.reshape(-1), 2)]
            self.parts = [[2 * i, 2 * i + 1] for i in range(len(self.rows))]
            self.col_mult = self.mult[0].reshape(-1)

    def _modulus(self, ub: np.ndarray) -> float:
        """Leave |u|^2 of the unit ub in nl and return its max; Im(u)^2 goes
        through re."""
        nl = self.nl
        np.multiply(ub.real, ub.real, out=nl)
        nl += np.multiply(ub.imag, ub.imag, out=self.re)
        return float(nl.max())

    def _rotate(self, ub: np.ndarray, coeff: float) -> None:
        """Multiply the unit ub by exp(-i coeff |u|^(4/d)), |u|^2 being in nl.

        In 1D the exponent is (|u|^2)^2 and the factor cos + i sin of the
        angle; in 2D the exponent is |u|^2 and the factor comes from the
        half-angle tangent t = tan(theta/2): cos theta = 2/(1+t^2) - 1 and
        sin theta = t * 2/(1+t^2).  numpy's float64 tan is a SIMD loop where
        cos and sin are not."""
        nl, r, fac = self.nl, self.re, self.fac
        if self.half_angle:
            nl *= -0.5 * coeff
            np.tan(nl, out=nl)
            np.multiply(nl, nl, out=r)
            r += 1.0
            np.divide(2.0, r, out=r)
            np.subtract(r, 1.0, out=fac.real)
            np.multiply(nl, r, out=fac.imag)
        else:
            np.multiply(nl, nl, out=nl)
            nl *= -coeff
            np.cos(nl, out=r)
            np.sin(nl, out=nl)
        ub *= fac

    def kick(self, coeff: float, cap2: float = math.inf, op=None) -> float:
        """Exact flow of i u_t = b |u|^(4/d) u over b*tau = coeff; return max |u|^2.

        A unit at a time: |u|^2 and its max, the cap check, then the
        exponent |u|^(4/d) and the factor exp(-i coeff |u|^(4/d)) (see
        `_rotate`), which agrees with numpy's complex exp to rounding.  The
        kick leaves |u| alone, so the max is that of the state before it as
        well as after.  A unit whose max is above `cap2` or not finite stops
        the kick: the units already kicked are turned back, which restores
        the state to rounding, and the return value is the max over that
        unit and the ones after it, which is the whole field's and fails the
        same test.  With `op`, each row block first gets its row pass: a
        transform along the rows, the last axis's factor applied with op,
        and the inverse transform.
        """
        m = self.mult[-1]
        top, over = 0.0, []
        for rb, part in zip(self.rows, self.parts):
            if op is not None:
                np.fft.fft(rb, axis=-1, out=rb)
                op(rb, m, out=rb)
                np.fft.ifft(rb, axis=-1, out=rb)
            for j in part:
                ub = self.units[j]
                m2 = self._modulus(ub)
                if over or not m2 <= cap2:
                    over.append(m2)
                    continue
                self._rotate(ub, coeff)
                if m2 > top:
                    top = m2
        if not over:
            return top
        for ub in self.units[:len(self.units) - len(over)]:
            self._modulus(ub)
            self._rotate(ub, -coeff)
        return float(np.max(over))

    def step(self, coeff: float, cap2: float = math.inf, op=np.multiply) -> float:
        """The linear flow, a multiplication by the layer's symbol in frequency
        space (op np.divide undoes it), and then `kick(coeff, cap2)`.

        In 2D the sweep is the column pass and then the row pass; each row
        block is kicked right after its row pass, while it is still in cache.
        """
        if self.cols:
            self._column_pass(op)
        return self.kick(coeff, cap2, op)

    def symbol(self, coeff: complex) -> None:
        """Make mult the layer symbol exp(coeff |k|^2), one factor per axis."""
        for k2, m in zip(self.lap, self.mult):
            np.multiply(k2, coeff, out=m)
            np.exp(m, out=m)

    def _column_pass(self, op) -> None:
        """Transform each column block along axis 0 with the axis-0 factor: it
        is copied transposed into the phase block, transformed along its rows
        there and copied back."""
        buf, m = self.phase, self.col_mult
        for cb in self.cols:
            buf[...] = cb.T
            np.fft.fft(buf, axis=-1, out=buf)
            op(buf, m, out=buf)
            np.fft.ifft(buf, axis=-1, out=buf)
            cb[...] = buf.T

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
        self.step(-half, op=np.divide)


class _Recorder:
    """Owns a run's TrajectoryLog and writes everything that goes into it: the
    layer plan, the first sample, one sample per sample step with its
    mass-drift check against the first, the layer-switch events and the halt.

    Every sample takes |u|^2 in `scratch`, the stepper's phase block, and
    one without a gradient differentiates there too; the next kick takes
    its exponent afresh."""

    def __init__(self, grid: Grid, policy: BlowupPolicy, u: np.ndarray, t: float,
                 gamma: float, scratch: np.ndarray):
        self.grid, self.tol = grid, policy.mass_drift_tol
        self.scratch = scratch
        first = self._diagnose(u, t, gamma)
        if not first.mass > 0.0:
            raise ValueError(f"u0 must have positive mass, got {first.mass!r}")
        self.mass0 = first.mass
        self.log = TrajectoryLog()
        self.log.samples.append(first)

    def _diagnose(self, u: np.ndarray, t: float, gamma: float,
                  gradient: tuple[np.ndarray, ...] | None = None) -> DiagnosticsSample:
        return sample_diagnostics(ComplexField(self.grid, u, t), gamma, gradient,
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
            "energy_after": layer_energy(smp.kinetic, smp.potential, gamma_after, self.grid.dim),
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


_UFUNC_BUFFER = 256  # elements


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
    ik = grid.derivative_symbols()[0]

    u0.values = np.ascontiguousarray(u0.values, dtype=np.complex128)  # copies only a strided view
    st = _Stepper(u0.values, grid.laplacian_symbol(), grid.block_shape)
    # numpy gives a ufunc call it cannot run as one flat loop (a broadcast
    # operand: a 2D sweep's symbol factor, a sample's mesh) a fresh buffer of
    # its buffer size in elements, 128 KiB complex at the default, on every
    # call.  The run needs no buffering (no casts, aligned data), and a
    # smaller buffer made a 2D evolve at 256^2 0.91 of its time and 0.27 of
    # a field of allocations instead of 0.39.  The errstate context restores
    # numpy's size on the way out.
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER)
        rec = _Recorder(grid, policy, st.u, t_begin, layers[0].gamma, st.phase)
        cap = policy.cap_for(rec.log.samples[0].linf)
        cap2 = cap * cap

        # The trailing half-kick of a step and the leading half-kick of the next
        # are one full kick, split only where st.u must be a full-step state: at
        # samples and layer ends.  The trailing kick checks the cap, block by
        # block, and a kick is a pure phase, so its max is the candidate's.  In
        # 1D a mid-layer sample's gradient and the next step's sweep share one
        # batched transform pair, and that step skips its own sweep.  Every
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
                t_new = layer.t_end if s == steps else layer.t_begin + s * dt
                sample = s == steps or s % sample_every == 0
                coeff = half if sample else 2.0 * half
                # the last sample's batched call may have done this sweep
                m2 = st.kick(coeff, cap2) if swept else st.step(coeff, cap2)
                swept = False
                if not math.isfinite(m2):
                    raise NonFiniteState(
                        f"non-finite state at t={t_new:.9g} without a policy trigger")
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
