"""Functional evaluation and virial residual grouping."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mnls
from mnls.diagnostics import (
    SERIES_COLUMNS,
    DiagnosticsSample,
    SampleTable,
    _three_point_derivative,
    _vdot,
    sample_diagnostics,
    virial_residuals,
)
from mnls.errors import InsufficientSamples
from mnls.lattice import ComplexField, make_grid
from mnls.profiles import ground_state_1d, pseudo_conformal_field
from mnls.propagator import ModelSpec, TrajectoryLog

# Frozen values for the profile concentrating at T = 1.5, sampled at t = 0
# on the default box (half width 12*pi, 1024 nodes), evaluated in the
# focusing layer gamma = -1 of the Laplacian-managed flow:
#   mass = sqrt(3)*pi/2        variance I = (3/2)^2 * ||xQ||^2
#   P = I / (2 * 3/2) = I/3    energy = ||xQ||^2 / 8
# with ||xQ||^2 = sqrt(3)*pi^3/32.
FROZEN_MASS = 2.7206990463513265
FROZEN_I = 3.776093899018378
FROZEN_P = 1.2586979663394593
FROZEN_E_FOC = 0.20978299438990988
XQ_SQ = 1.678263955119292


@pytest.fixture
def grid1d():
    return make_grid(1, half_width=12 * np.pi, n=1024)


def test_frozen_quartet_of_the_reference_profile(grid1d):
    u = pseudo_conformal_field(grid1d, blowup_time=1.5, t=0.0)
    s = sample_diagnostics(u, gamma_now=-1.0)
    assert abs(s.mass - FROZEN_MASS) < 1e-12
    assert abs(s.variance - FROZEN_I) < 1e-11
    assert abs(s.momentum - FROZEN_P) < 1e-11
    assert abs(s.energy - FROZEN_E_FOC) < 1e-11


def test_frozen_values_match_closed_forms():
    assert abs(XQ_SQ - np.sqrt(3.0) * np.pi**3 / 32.0) < 1e-14
    assert abs(FROZEN_I - 2.25 * XQ_SQ) < 5e-12
    assert abs(FROZEN_P - FROZEN_I / 3.0) < 5e-12
    assert abs(FROZEN_E_FOC - XQ_SQ / 8.0) < 5e-12
    assert abs(FROZEN_MASS - np.sqrt(3.0) * np.pi / 2.0) < 1e-14


def test_ground_state_energy_vanishes(grid1d):
    """E(Q) = 0 in the focusing layer: kinetic/2 exactly cancels pot/6."""
    q = ground_state_1d(grid1d)
    s = sample_diagnostics(q, gamma_now=-1.0)
    assert abs(s.energy) < 1e-12
    assert s.kinetic > 0.0
    assert s.potential > 0.0


def test_momentum_variance_relation_across_tau(grid1d):
    """The concentrating profile carries P = I / (2 tau) at every tau."""
    for blowup_time, t in [(1.5, 0.0), (2.5, 0.0), (2.5, 1.0), (1.0, 0.5)]:
        u = pseudo_conformal_field(grid1d, blowup_time=blowup_time, t=t)
        s = sample_diagnostics(u, gamma_now=-1.0)
        tau = blowup_time - t
        assert abs(s.momentum - s.variance / (2.0 * tau)) < 1e-10 * (1.0 + s.variance)


def test_conjugation_flips_momentum(grid1d):
    u = pseudo_conformal_field(grid1d, blowup_time=2.5)
    v = pseudo_conformal_field(grid1d, blowup_time=2.5, conjugate=True)
    su = sample_diagnostics(u, gamma_now=-1.0)
    sv = sample_diagnostics(v, gamma_now=-1.0)
    assert abs(su.momentum + sv.momentum) < 1e-10 * (1.0 + abs(su.momentum))
    assert abs(su.variance - sv.variance) < 1e-12 * (1.0 + su.variance)
    assert abs(su.kinetic - sv.kinetic) < 1e-10 * (1.0 + su.kinetic)


def test_energy_is_affine_in_gamma(grid1d):
    u = pseudo_conformal_field(grid1d, blowup_time=1.5)
    lo = sample_diagnostics(u, gamma_now=-1.0)
    hi = sample_diagnostics(u, gamma_now=1.0)
    assert abs((hi.energy - lo.energy) - hi.potential / 3.0) < 1e-12 * (1.0 + hi.potential)
    assert hi.kinetic == lo.kinetic
    assert hi.potential == lo.potential


def test_chirped_gaussian_2d_closed_forms():
    """u = A exp(-|x|^2/(2 s^2) + i b |x|^2) in the plane: mass = pi A^2 s^2,
    I = pi A^2 s^4, P = 2 b I, kinetic = pi A^2 (1 + 4 b^2 s^4) and, at the
    planar critical power p = 3, potential = pi A^4 s^2 / 2 and energy =
    kinetic/2 + gamma potential/4."""
    a, s, b = 1.2, 1.1, 0.3
    g = make_grid(2, half_width=8.0, n=64)
    r2 = g.meshes()[0] ** 2 + g.meshes()[1] ** 2
    u = ComplexField(g, a * np.exp(-r2 / (2 * s * s) + 1j * b * r2))
    d = sample_diagnostics(u, gamma_now=-1.0)
    variance = np.pi * a**2 * s**4
    exact = {
        "mass": np.pi * a**2 * s**2,
        "variance": variance,
        "momentum": 2 * b * variance,
        "kinetic": np.pi * a**2 * (1 + 4 * b**2 * s**4),
        "potential": np.pi * a**4 * s**2 / 2,
    }
    for name, value in exact.items():
        assert abs(getattr(d, name) - value) < 1e-13 * value, name
    assert abs(d.energy - (0.5 * d.kinetic - d.potential / 4)) < 1e-14 * d.kinetic
    assert d.linf == pytest.approx(a, rel=1e-15)


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 64)])
def test_computed_and_supplied_derivatives_give_equal_samples(dim, n):
    """The sample's own one-scratch derivative pass equals a sample handed
    the gradient, computed here as separate transforms per axis."""
    g = make_grid(dim, half_width=8.0, n=n)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    u = ComplexField(g, v, 0.25)
    gradient = []
    for axis, ik in enumerate(g.derivative_symbols()):
        d = np.fft.fft(v, axis=axis)
        d *= ik
        gradient.append(np.fft.ifft(d, axis=axis))
    supplied = tuple(d.copy() for d in gradient)  # the sample uses them as scratch
    assert sample_diagnostics(u, -1.0) == sample_diagnostics(u, -1.0, supplied)


@pytest.mark.parametrize("dim, n", [(1, 16384), (2, 128)])
def test_variance_from_marginals_matches_the_radius_table(dim, n):
    """The variance sums x^2 against the marginals of |u|^2, axis by axis; it
    equals the sum against a |x|^2 table exactly in 1D, to rounding in 2D."""
    g = make_grid(dim, half_width=8.0, n=n)
    rng = np.random.default_rng(3)
    u = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    v = u.values
    r2 = sum(x * x for x in g.meshes())
    want = float(_vdot(r2, v.real * v.real + v.imag * v.imag)) * g.cell_volume
    got = sample_diagnostics(u, -1.0).variance
    if dim == 1:
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * want


_SAMPLE_SCRIPT = """
import numpy as np
from mnls.diagnostics import sample_diagnostics
from mnls.lattice import ComplexField, make_grid
g = make_grid(2, 8.0, 128)
rng = np.random.default_rng(0)
u = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
print(repr(sample_diagnostics(u, -1.0)))
"""


def test_sample_bits_do_not_depend_on_blas_threads():
    """OpenBLAS splits a dot product over more than 10,000 elements across
    threads; a 128^2 sample must still print the same digits on 1 and 2."""
    src = str(Path(mnls.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _SAMPLE_SCRIPT], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        out.append(run.stdout)
    assert out[0] == out[1]


def test_sample_row_order_matches_series_columns():
    s = DiagnosticsSample(
        t=1.0,
        layer_gamma=2.0,
        mass=3.0,
        kinetic=4.0,
        potential=5.0,
        energy=6.0,
        variance=7.0,
        momentum=8.0,
        linf=9.0,
    )
    by_column = {
        "t": s.t,
        "layer_gamma": s.layer_gamma,
        "mass": s.mass,
        "kinetic": s.kinetic,
        "potential": s.potential,
        "energy": s.energy,
        "I": s.variance,
        "P": s.momentum,
        "linf": s.linf,
    }
    table = SampleTable()
    table.append(s)
    assert next(table.rows()) == [by_column[c] for c in SERIES_COLUMNS]


def _sample_at(t, gamma, variance, momentum, energy):
    return DiagnosticsSample(
        t=t,
        layer_gamma=gamma,
        mass=1.0,
        kinetic=1.0,
        potential=1.0,
        energy=energy,
        variance=variance,
        momentum=momentum,
        linf=1.0,
    )


def _table(samples) -> SampleTable:
    table = SampleTable()
    for s in samples:
        table.append(s)
    return table


def test_virial_residuals_vanish_on_exact_layer_data():
    """Quadratic I and linear P satisfying the layer identities exactly
    produce zero residuals even on nonuniform sample times."""
    ts = [0.0, 0.3, 0.7, 1.0]
    gamma = -1.0
    # dI/dt = 4*gamma*P and dP/dt = 4*gamma*E with I = t^2:
    # P = t / (2*gamma), E = 1 / (8*gamma^2).
    samples = [
        _sample_at(t, gamma, t * t, t / (2.0 * gamma), 1.0 / (8.0 * gamma**2))
        for t in ts
    ]
    log = TrajectoryLog(samples=_table(samples), events=[])
    out = virial_residuals(log, ModelSpec("dm"))
    assert len(out) == 1
    lay = out[0]
    assert lay.gamma == gamma
    assert np.array_equal(lay.times, np.array(ts[1:-1]))
    assert np.all(lay.residual1 < 1e-12)
    assert np.all(lay.residual2 < 1e-12)


def test_virial_residuals_group_by_switch_events():
    """A sample sitting exactly on a switch time anchors the earlier layer."""
    first = [_sample_at(t, -1.0, 0.0, 0.0, 0.0) for t in (0.0, 0.4, 0.8, 1.0)]
    second = [_sample_at(t, 1.0, 0.0, 0.0, 0.0) for t in (1.3, 1.6, 2.0)]
    log = TrajectoryLog(
        samples=_table(first + second),
        events=[{"type": "layer_switch", "t": 1.0}],
    )
    out = virial_residuals(log, ModelSpec("nm"))
    assert [lay.gamma for lay in out] == [-1.0, 1.0]
    assert out[0].times[-1] < 1.0
    assert out[1].times[0] > 1.0


def test_virial_residuals_need_three_samples():
    log = TrajectoryLog(
        samples=_table([_sample_at(0.0, -1.0, 0.0, 0.0, 0.0),
                        _sample_at(1.0, -1.0, 0.0, 0.0, 0.0)]),
        events=[],
    )
    with pytest.raises(InsufficientSamples):
        virial_residuals(log, ModelSpec("dm"))


def _walked_residuals(samples, switch_times, dm_like):
    """The residuals grouped by walking the samples as objects, one layer
    per switch interval, each sample past the switch times it exceeds."""
    groups = [[] for _ in range(len(switch_times) + 1)]
    idx = 0
    for s in samples:
        while idx < len(switch_times) and s.t > switch_times[idx]:
            idx += 1
        groups[idx].append(s)
    out = []
    for grp in groups:
        if len(grp) < 3:
            continue
        t = np.array([s.t for s in grp])
        ivals = np.array([s.variance for s in grp])
        pvals = np.array([s.momentum for s in grp])
        evals = np.array([s.energy for s in grp])
        factor = 4.0 * grp[1].layer_gamma if dm_like else 4.0
        out.append((grp[1].layer_gamma, t[1:-1],
                    np.abs(_three_point_derivative(t, ivals) - factor * pvals[1:-1]),
                    np.abs(_three_point_derivative(t, pvals) - factor * evals[1:-1])))
    return out


def test_sample_table_reads_like_a_list_of_samples():
    """A table of several thousand samples matches the list of the same
    DiagnosticsSample objects row for row, holds at most twice its rows'
    72 bytes, survives a pickle round trip, and gives the residuals of
    the sample-by-sample grouping."""
    rng = np.random.default_rng(3)
    rows = 5001
    values = rng.standard_normal((rows, len(SERIES_COLUMNS)))
    values[:, 0] = np.cumsum(rng.uniform(1e-3, 2e-3, rows))
    # layers switch on some sample times and between others
    switch_times = [float(values[1000, 0]), float(values[2500, 0]) + 1e-4,
                    float(values[2502, 0]), float(values[4000, 0])]
    values[:, 1] = np.where(values[:, 0] > switch_times[1], 1.0, -1.0)
    samples = [DiagnosticsSample(*row) for row in values.tolist()]
    table = _table(samples)

    assert len(table) == rows and table.nbytes <= 2 * 72 * rows
    assert table[0] == samples[0] and table[-1] == samples[-1]
    assert table[rows - 1] == table[-1] and table[-rows] == samples[0]
    for bad in (rows, -rows - 1):
        with pytest.raises(IndexError):
            table[bad]
    assert list(table) == samples
    assert [s.mass for s in table] == [s.mass for s in samples]
    assert list(table[10:300:7]) == samples[10:300:7] and len(table[-5:]) == 5
    assert table == SampleTable(values) and table != table[:-1]
    assert np.array_equal(table.column("variance"), values[:, 6])
    again = pickle.loads(pickle.dumps(table))
    assert again == table and list(again) == samples
    assert len(pickle.dumps(table)) < 1.1 * 72 * rows

    events = [{"type": "layer_switch", "t": t} for t in switch_times]
    for kind in ("dm", "nm"):
        got = virial_residuals(TrajectoryLog(samples=table, events=events), ModelSpec(kind))
        want = _walked_residuals(samples, switch_times, kind == "dm")
        assert len(got) == len(want) == 4
        for lay, (gamma, times, res1, res2) in zip(got, want):
            assert lay.gamma == gamma
            assert np.array_equal(lay.times, times)
            assert np.array_equal(lay.residual1, res1)
            assert np.array_equal(lay.residual2, res2)
