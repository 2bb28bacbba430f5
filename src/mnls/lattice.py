"""Periodic spectral lattice: grids, fields, derivatives, quadrature.

The domain is the square [-L, L)^dim sampled on n uniform nodes per axis,
with the usual FFT wavenumber set k = (pi/L)*m, m = -n/2 .. n/2-1.  All
integrals are rectangle sums, which are spectrally accurate for smooth
periodic integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDimension, InvalidResolution, is_real

__all__ = ["Grid", "ComplexField", "make_grid", "spectral_derivative", "spectral_gradient"]

# Points in one block of a 2D field's blocked passes (the stepper's kick and
# the diagnostics sums and derivatives): 2^14 complex values are 256 KiB.
BLOCK_POINTS = 1 << 14


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^dim.

    Attributes:
        dim: spatial dimension, 1 or 2.
        half_width: L, half the box edge length.
        n: nodes per axis (power of two, >= 8).
    """

    dim: int
    half_width: float
    n: int

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def block_shape(self) -> tuple[int, ...]:
        """Shape of one block of a field's blocked passes.

        A 1D field is one block.  A 2D block is whole rows, BLOCK_POINTS
        points of them (64 rows at 256^2), or the field when it is smaller.
        """
        if self.dim == 1:
            return self.shape
        return (min(self.n, max(1, BLOCK_POINTS // self.n)), self.n)

    # The table helpers below are cached per grid and shared by the hot
    # loops; callers must treat the returned arrays as read-only.

    @lru_cache(maxsize=32)
    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis, measured from the box center."""
        return -self.half_width + self.dx * np.arange(self.n)

    @lru_cache(maxsize=32)
    def axis_coords_squared(self) -> np.ndarray:
        """x^2 along one axis, the weight of the variance integral."""
        x = self.axis_coords()
        return x * x

    @lru_cache(maxsize=32)
    def axis_wavenumbers(self) -> np.ndarray:
        """Wavenumbers along one axis in FFT storage order.

        Equals (pi/L)*m for m in [-n/2, n/2); the unpaired m = -n/2 mode is
        kept so the table matches numpy's transform layout exactly.
        """
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @lru_cache(maxsize=32)
    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis, broadcastable to `shape`.

        In 2D they are the (n, 1) and (1, n) views of `axis_coords`, so no
        field-sized coordinate array is ever held.
        """
        x = self.axis_coords()
        return (x,) if self.dim == 1 else (x[:, None], x[None, :])

    @lru_cache(maxsize=32)
    def laplacian_symbol(self) -> tuple[np.ndarray, ...]:
        """k^2 per axis in FFT order, broadcastable to `shape`; |k|^2 is their sum.

        In 2D they are (n, 1) and (1, n) arrays, so a function of |k|^2 that
        factors over the axes, like the layer symbol exp(-i a dt |k|^2), is
        built per axis without a field-sized table.
        """
        k = self.axis_wavenumbers()
        k2 = k * k
        return (k2,) if self.dim == 1 else (k2[:, None], k2[None, :])

    @lru_cache(maxsize=32)
    def derivative_symbols(self) -> tuple[np.ndarray, ...]:
        """i*k per axis in FFT order, broadcastable to `shape`, Nyquist mode zeroed."""
        ik = 1j * self.axis_wavenumbers()
        ik[self.n // 2] = 0.0
        return (ik,) if self.dim == 1 else (ik[:, None], ik[None, :])

    def integrate(self, values: np.ndarray) -> float:
        """Rectangle-rule integral of a real sampled function."""
        return float(np.sum(values)) * self.cell_volume


def make_grid(dim: int, half_width: float, n: int) -> Grid:
    """Validate parameters and build a Grid.

    Raises InvalidDimension unless dim is 1 or 2, and InvalidResolution
    unless n is a power of two >= 8.
    """
    if not is_real(dim) or dim not in (1, 2):
        raise InvalidDimension(f"dim must be 1 or 2, got {dim}")
    if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(int(n)):
        raise InvalidResolution(f"n must be a power of two >= 8, got {n}")
    if not (is_real(half_width) and half_width > 0.0 and np.isfinite(half_width)):
        raise ValueError(f"half_width must be a positive, finite real number, got {half_width}")
    return Grid(dim=int(dim), half_width=float(half_width), n=int(n))


@dataclass
class ComplexField:
    """Complex-valued state sampled on a Grid, stamped with its time."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy(), self.time)

    def mass(self) -> float:
        """L2 mass, integral of |u|^2."""
        v = self.values
        return self.grid.integrate(v.real**2 + v.imag**2)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


def line_blocks(values: np.ndarray, axis: int, lines: int) -> list[np.ndarray]:
    """Views of a field's values holding `lines` whole lines along `axis` each.

    In 2D the lines along axis 0 are columns and those along axis 1 rows; a
    1D field is one block.
    """
    if values.ndim == 1:
        return [values]
    return [values[:, lo:lo + lines] if axis == 0 else values[lo:lo + lines]
            for lo in range(0, len(values), lines)]


def spectral_derivative(g: Grid, values: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Write the partial derivative along `axis` of values on g into `out`.

    `values` is a field's values or a block of its whole lines along `axis`
    (in 2D, columns for axis 0 and rows for axis 1); `out` is a complex
    array of its shape.  The derivative is computed by multiplication with
    i*k in frequency space, exact for band-limited fields.  The unpaired
    Nyquist mode has no well-defined odd derivative on a real lattice, so
    its multiplier is zeroed; smooth, well-resolved fields carry no content
    there anyway.  Both transforms run in `out`, so nothing of its size is
    allocated.
    """
    np.fft.fft(values, axis=axis, out=out)
    out *= g.derivative_symbols()[axis]
    return np.fft.ifft(out, axis=axis, out=out)


def spectral_gradient(f: ComplexField) -> tuple[np.ndarray, ...]:
    """Partial derivatives of the field along each axis (`spectral_derivative`)."""
    return tuple(spectral_derivative(f.grid, f.values, axis, np.empty_like(f.values))
                 for axis in range(f.grid.dim))
