"""Spatial functionals of a field and virial-identity residuals.

For a state u and the active layer value gamma the tracked quantities are

    mass      integral |u|^2
    kinetic   integral |grad u|^2
    potential integral |u|^(p+1)
    energy    kinetic/2 + gamma/(p+1) * potential
    variance  integral |x|^2 |u|^2            (I)
    momentum  Im integral (x . grad u) conj(u) (P)

with x measured from the domain center.  Within a layer the exact flow
obeys dI/dt = 4*gamma*P and dP/dt = 4*gamma*E when the Laplacian carries
gamma, and dI/dt = 4*P, dP/dt = 4*E when the nonlinearity does; P is then
piecewise linear and I piecewise quadratic in t, so a three-point
difference of the sampled series isolates the solver error.

`sample_diagnostics` returns one sample as a DiagnosticsSample.  A run
keeps its samples in a SampleTable, one float64 row per sample in
SERIES_COLUMNS order, and builds a DiagnosticsSample only when a row is
read; readers of whole series (`virial_residuals`, the sweep, the
series.csv writer) take columns or row blocks from the table.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientSamples
from .lattice import ComplexField, line_blocks, spectral_derivative

__all__ = ["DiagnosticsSample", "LayerResiduals", "SampleTable", "layer_energy", "period_peaks",
           "sample_diagnostics", "virial_residuals"]

# fixed column order shared with the series.csv writer
SERIES_COLUMNS = (
    "t",
    "layer_gamma",
    "mass",
    "kinetic",
    "potential",
    "energy",
    "I",
    "P",
    "linf",
)


@dataclass(frozen=True, slots=True)
class DiagnosticsSample:
    """One sample's values; its fields are in SERIES_COLUMNS order."""

    t: float
    layer_gamma: float
    mass: float
    kinetic: float
    potential: float
    energy: float
    variance: float
    momentum: float
    linf: float


_FIELDS = tuple(f.name for f in fields(DiagnosticsSample))
_values = operator.attrgetter(*_FIELDS)
# rows that iteration and `rows` turn into Python objects at a time
_BLOCK = 256


class SampleTable:
    """A run's samples as one float64 table, a row per sample in SERIES_COLUMNS
    order: 72 bytes a sample instead of a DiagnosticsSample's ~430.

    It reads like a list of DiagnosticsSample: `len`, indexing (negative
    indices too), iteration and `==` build rows on demand, and a slice is a
    new table.  Iteration converts a block of rows at a time, so it never
    holds the whole log as Python objects.  `column(name)` returns a field's
    values as an array without making rows.  The table grows by doubling,
    and pickles only its filled rows.
    """

    def __init__(self, rows=()):
        """A table holding `rows`, an (n, 9) array-like in SERIES_COLUMNS order."""
        data = np.array(rows, dtype=np.float64).reshape(-1, len(_FIELDS))
        self._n = len(data)
        self._data = data if self._n else np.empty((16, len(_FIELDS)))

    def append(self, sample: DiagnosticsSample) -> None:
        if self._n == len(self._data):
            grown = np.empty((2 * self._n, len(_FIELDS)))
            grown[:self._n] = self._data
            self._data = grown
        self._data[self._n] = _values(sample)
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleTable(self._data[:self._n][index])
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("sample index out of range")
        return DiagnosticsSample(*self._data[i].tolist())

    def rows(self) -> Iterator[list[float]]:
        """The rows as lists of Python floats, converted a block at a time."""
        for start in range(0, self._n, _BLOCK):
            yield from self._data[start:min(start + _BLOCK, self._n)].tolist()

    def __iter__(self) -> Iterator[DiagnosticsSample]:
        return (DiagnosticsSample(*row) for row in self.rows())

    def column(self, name: str) -> np.ndarray:
        """A copy of one field's values over all samples (`t`, `linf`, `variance`...)."""
        return self._data[:self._n, _FIELDS.index(name)].copy()

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's buffer, filled or not."""
        return self._data.nbytes

    def __eq__(self, other):
        if not isinstance(other, SampleTable):
            return NotImplemented
        return np.array_equal(self._data[:self._n], other._data[:other._n])

    def __reduce__(self):
        return SampleTable, (self._data[:self._n],)


# OpenBLAS runs a dot product over more than 10,000 elements on several
# threads, and the split changes the rounding of the sum; blocks of this size
# never split, so a sum's bits do not depend on the thread count.
_VDOT_BLOCK = 8192


def _vdot(a: np.ndarray, b: np.ndarray):
    """np.vdot summed over fixed blocks of the flattened arrays.

    Arrays of at most one block go to np.vdot as they are; the total of
    longer ones starts from the first block's value.
    """
    if a.size <= _VDOT_BLOCK:
        return np.vdot(a, b)
    a, b = a.ravel(), b.ravel()
    total = np.vdot(a[:_VDOT_BLOCK], b[:_VDOT_BLOCK])
    for i in range(_VDOT_BLOCK, a.size, _VDOT_BLOCK):
        total += np.vdot(a[i:i + _VDOT_BLOCK], b[i:i + _VDOT_BLOCK])
    return total


def layer_energy(kinetic: float, potential: float, gamma: float, p: float) -> float:
    """The energy kinetic/2 + gamma/(p+1) * potential of a layer of value gamma."""
    return 0.5 * kinetic + gamma / (p + 1.0) * potential


def sample_diagnostics(u: ComplexField, gamma_now: float, p: float,
                       gradient: tuple[np.ndarray, ...] | None = None, *,
                       scratch: np.ndarray | None = None) -> DiagnosticsSample:
    """Evaluate all tracked functionals of u for the layer value gamma_now.

    `gradient` is `spectral_gradient(u)` when the caller already has it (the
    stepper computes it in a batch with its own transforms); its arrays are
    used as scratch.  Without it the sample needs one complex scratch block
    of shape `grid.block_shape`, `scratch` if given (the stepper lends its
    phase buffer; the contents are overwritten) or a new one.  A 1D field is
    one block; a 2D field is taken a block of rows at a time.  The block's
    two halves first hold |u|^2 and Im(u)^2: mass, potential and sup are
    summed block by block, and the variance from x^2 against each block's
    row marginals and a running column marginal, so no |x|^2 table is
    needed.  Then the block takes each partial derivative over blocks of
    whole lines along its axis.  Dot products over contiguous lines go
    through `_vdot`.  Over a strided block of columns the momentum sum is
    taken in the derivative's block, conjugated and multiplied by the
    field's lines in place, so the block is never copied, and totalled by
    numpy's sum.  Neither depends on how many threads the BLAS
    library runs, so neither do the bits.
    """
    g = u.grid
    v = u.values
    shape = g.block_shape
    if gradient is None:
        d = np.empty(shape, dtype=np.complex128) if scratch is None else scratch
        amp2, imag2 = d.reshape(-1).view(np.float64).reshape((2,) + shape)
    else:
        amp2, imag2 = np.empty(shape), None
    x2 = g.axis_coords_squared()
    cols = np.zeros(g.n) if g.dim == 2 else None  # running column marginal
    mass = pot = variance = peak = 0.0
    for lo, vb in zip(range(0, g.n, shape[0]), line_blocks(v, g.dim - 1, shape[0])):
        np.multiply(vb.real, vb.real, out=amp2)
        amp2 += np.multiply(vb.imag, vb.imag, out=imag2)
        # |u|^(p+1) = |u|^(p-1) |u|^2; numpy squares for p = 5
        nl = amp2 if p == 3.0 else amp2 ** (0.5 * (p - 1.0))
        mass += amp2.sum()
        pot += _vdot(nl, amp2)
        peak = amp2.max(initial=peak)
        if cols is None:
            variance = _vdot(x2, amp2)
        else:
            variance += _vdot(x2[lo:lo + len(vb)], amp2.sum(axis=1))
            cols += amp2.sum(axis=0)
    if cols is not None:
        variance += _vdot(x2, cols)
    cv = g.cell_volume
    meshes = g.meshes()
    if gradient is None:  # |u|^2 is spent: d takes the derivatives, a block at a time
        lines = d.size // g.n
        parts = ((vb, spectral_derivative(g, vb, axis, d.reshape(vb.shape)), meshes[axis])
                 for axis in range(g.dim) for vb in line_blocks(v, axis, lines))
    else:
        parts = ((v, dv, x) for dv, x in zip(gradient, meshes))
    kin = mom = 0.0
    for vb, dv, x in parts:
        kin += _vdot(dv, dv).real
        dv *= x
        if vb.flags.c_contiguous:
            mom += _vdot(vb, dv).imag
        else:
            # Im sum conj(v) x dv is -Im sum conj(x dv) v: taken in dv, a
            # strided block of columns is read in place instead of copied
            np.conjugate(dv, out=dv)
            dv *= vb
            mom -= dv.reshape(-1).imag.sum()
    kin = float(kin) * cv
    pot = float(pot) * cv
    return DiagnosticsSample(
        t=float(u.time),
        layer_gamma=float(gamma_now),
        mass=float(mass) * cv,
        kinetic=kin,
        potential=pot,
        energy=layer_energy(kin, pot, gamma_now, p),
        variance=float(variance) * cv,
        momentum=float(mom) * cv,
        linf=float(np.sqrt(peak)),
    )


def period_peaks(times: np.ndarray, linf: np.ndarray, period: float,
                 horizon: float) -> list[float]:
    """Largest sup|u| inside each full map period (k*period, (k+1)*period]
    that ends by `horizon`; periods that hold no sample are skipped."""
    full = int(math.floor((horizon + 1e-12) / period))
    peaks = []
    for k in range(full):
        inside = (times > k * period) & (times <= (k + 1) * period)
        if np.any(inside):
            peaks.append(float(np.max(linf[inside])))
    return peaks


def _three_point_derivative(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """d f/d t at interior nodes of a possibly nonuniform time series.

    Exact for quadratics regardless of spacing, which matters because the
    first and last gaps inside a layer need not match the sampling stride.
    """
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    return (f[2:] * h1**2 - f[:-2] * h2**2 + f[1:-1] * (h2**2 - h1**2)) / (
        h1 * h2 * (h1 + h2)
    )


@dataclass(frozen=True)
class LayerResiduals:
    """Virial residuals at the interior samples of one layer."""

    gamma: float
    times: np.ndarray
    residual1: np.ndarray  # |dI/dt - target * P|
    residual2: np.ndarray  # |dP/dt - target * E|


def virial_residuals(log, model) -> list[LayerResiduals]:
    """Per-layer virial residual series from a trajectory log.

    The factor multiplying P and E is 4*gamma for Laplacian management and
    4 otherwise.  Interface samples anchor the one-sided differences but
    never receive a residual of their own.  The log's `samples` is a
    SampleTable, read by column without a row object per sample.  Raises
    InsufficientSamples when no layer holds at least three samples.
    """
    switch_times = [e["t"] for e in log.events if e.get("type") == "layer_switch"]
    samples = log.samples
    t = samples.column("t")
    # layer k holds the samples past k switch times; samples are in time order
    layer = np.searchsorted(switch_times, t, side="left")
    bounds = np.searchsorted(layer, np.arange(len(switch_times) + 2))
    ivals, pvals, evals, gammas = (samples.column(name) for name in
                                   ("variance", "momentum", "energy", "layer_gamma"))
    dm_like = model.kind == "dm"
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 3:
            continue
        ts, iv, pv, ev = t[lo:hi], ivals[lo:hi], pvals[lo:hi], evals[lo:hi]
        gamma = float(gammas[lo + 1])
        factor = 4.0 * gamma if dm_like else 4.0
        di = _three_point_derivative(ts, iv)
        dp = _three_point_derivative(ts, pv)
        out.append(
            LayerResiduals(
                gamma=gamma,
                times=ts[1:-1],
                residual1=np.abs(di - factor * pv[1:-1]),
                residual2=np.abs(dp - factor * ev[1:-1]),
            )
        )
    if not out:
        raise InsufficientSamples("no layer carries three or more samples")
    return out
