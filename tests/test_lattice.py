"""Grid construction, quadrature, and spectral derivatives."""

import numpy as np
import pytest

from mnls.errors import InvalidDimension, InvalidResolution
from mnls.lattice import ComplexField, make_grid, spectral_gradient


def test_make_grid_basic():
    g = make_grid(1, 8.0, 64)
    assert g.dx == pytest.approx(0.25)
    assert g.cell_volume == pytest.approx(0.25)
    assert g.shape == (64,)
    x = g.axis_coords()
    assert x[0] == pytest.approx(-8.0)
    assert x[-1] == pytest.approx(8.0 - 0.25)


def test_make_grid_2d_cell_volume():
    g = make_grid(2, 4.0, 32)
    assert g.shape == (32, 32)
    assert g.cell_volume == pytest.approx(g.dx**2)


@pytest.mark.parametrize("dim", [0, 3, -1])
def test_bad_dimension_rejected(dim):
    with pytest.raises(InvalidDimension):
        make_grid(dim, 8.0, 64)


@pytest.mark.parametrize("n", [7, 12, 100, 4, 0])
def test_bad_resolution_rejected(n):
    with pytest.raises(InvalidResolution):
        make_grid(1, 8.0, n)


def test_bad_half_width_rejected():
    with pytest.raises(ValueError):
        make_grid(1, 0.0, 64)
    with pytest.raises(ValueError):
        make_grid(1, float("inf"), 64)


def test_wavenumbers_match_fft_layout():
    g = make_grid(1, np.pi, 16)
    k = g.axis_wavenumbers()
    assert k[0] == 0.0
    # spacing pi/L = 1 for L = pi and the FFT order keeps the negative
    # block in the second half
    assert k[1] == pytest.approx(1.0)
    assert k[8] == pytest.approx(-8.0)
    assert np.allclose(k, 2.0 * np.pi * np.fft.fftfreq(16, d=g.dx))


def test_integrate_periodic_closed_form():
    # integral of sech^2(x) over the line is 2; the tail truncation error
    # at L=20 is ~1e-17, far below the quadrature's spectral accuracy
    g = make_grid(1, 20.0, 256)
    x = g.axis_coords()
    val = g.integrate(1.0 / np.cosh(x) ** 2)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_spectral_gradient_single_mode_exact():
    g = make_grid(1, np.pi, 64)
    x = g.axis_coords()
    f = ComplexField(g, np.exp(3j * x))
    (df,) = spectral_gradient(f)
    assert np.allclose(df, 3j * np.exp(3j * x), atol=1e-12)


def test_spectral_gradient_2d_axes_independent():
    g = make_grid(2, np.pi, 32)
    xm, ym = g.meshes()
    f = ComplexField(g, np.exp(2j * xm) * np.exp(-5j * ym))
    fx, fy = spectral_gradient(f)
    assert np.allclose(fx, 2j * f.values, atol=1e-11)
    assert np.allclose(fy, -5j * f.values, atol=1e-11)


def test_nyquist_mode_derivative_zeroed():
    """The unpaired m = -n/2 mode must not leak an asymmetric derivative."""
    g = make_grid(1, np.pi, 16)
    x = g.axis_coords()
    f = ComplexField(g, np.cos(8.0 * x).astype(complex))
    (df,) = spectral_gradient(f)
    assert np.max(np.abs(df)) < 1e-12


def test_field_mass_and_linf():
    g = make_grid(1, 10.0, 128)
    x = g.axis_coords()
    u = ComplexField(g, 2.0 * np.exp(-(x**2)) * np.exp(0.5j * x))
    # integral of 4 exp(-2x^2) = 4 sqrt(pi/2)
    assert u.mass() == pytest.approx(4.0 * np.sqrt(np.pi / 2.0), rel=1e-12)
    assert u.linf() == pytest.approx(2.0)


def test_field_shape_mismatch_rejected():
    g = make_grid(1, 10.0, 128)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros(64, dtype=complex))


def test_field_copy_isolated():
    g = make_grid(1, 10.0, 64)
    u = ComplexField(g, np.ones(64, dtype=complex), 1.5)
    v = u.copy()
    v.values[0] = 0.0
    assert u.values[0] == 1.0
    assert v.time == 1.5


def test_laplacian_symbol_is_k_squared_per_axis():
    g1, g2 = make_grid(1, 8.0, 64), make_grid(2, 8.0, 64)
    k = g1.axis_wavenumbers()
    (k2,) = g1.laplacian_symbol()
    assert np.array_equal(k2, k * k)
    kx2, ky2 = g2.laplacian_symbol()
    assert kx2.shape == (64, 1) and ky2.shape == (1, 64)
    assert np.array_equal(kx2 + ky2, k[:, None] ** 2 + k[None, :] ** 2)


@pytest.mark.parametrize("a", [1.0, -1.0])
def test_per_axis_layer_factors_multiply_to_the_layer_symbol(a):
    """A 2D layer's sweep multiplies by exp(-i a dt k^2) of each axis in turn;
    their product is exp(-i a dt |k|^2) to rounding."""
    g, dt = make_grid(2, 8.0, 64), 2.5e-4
    k = g.axis_wavenumbers()
    full = np.exp(-1j * a * dt * (k[:, None] ** 2 + k[None, :] ** 2))
    kx2, ky2 = g.laplacian_symbol()
    product = np.exp(-1j * a * dt * kx2) * np.exp(-1j * a * dt * ky2)
    assert np.max(np.abs(product - full)) <= 1e-15


def test_2d_grid_tables_hold_no_field_sized_array():
    """Every cached table of a 2D grid is O(n): per-axis arrays or their
    broadcastable (n, 1) and (1, n) views."""
    g = make_grid(2, 8.0, 64)
    tables = [name for name, attr in vars(type(g)).items() if hasattr(attr, "cache_info")]
    assert {"meshes", "laplacian_symbol", "derivative_symbols"} <= set(tables)
    for name in tables:
        result = getattr(g, name)()
        for array in result if isinstance(result, tuple) else (result,):
            assert array.size <= g.n, name
