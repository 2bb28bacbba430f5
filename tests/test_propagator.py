"""Split-step integrator: substep oracles, invariants, detection semantics."""

import numpy as np
import pytest

import mnls.propagator
from mnls.diagnostics import sample_diagnostics
from mnls.errors import NonFiniteState
from mnls.lattice import ComplexField, make_grid
from mnls.mgmt_map import DispersionMap, normalized_map
from mnls.profiles import ground_state_1d, pseudo_conformal_field, sech_profile_2d
from mnls.propagator import BlowupPolicy, ModelSpec, evolve


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("cubic")
    with pytest.raises(ValueError):
        ModelSpec("dm", p=1.0)
    assert ModelSpec("dm").resolve_p(1) == 5.0
    assert ModelSpec("nm").resolve_p(2) == 3.0
    assert ModelSpec("dm", p=3.0).resolve_p(1) == 3.0
    assert ModelSpec("dm").layer_coefficients(-1.0) == (-1.0, 1.0)
    assert ModelSpec("nm").layer_coefficients(-1.0) == (1.0, -1.0)


def _one_step(kind, gamma, u, dt):
    """A single Strang step of evolve inside a first layer of value -gamma."""
    disp = DispersionMap(gamma_minus=gamma, gamma_plus=1.0, t_star=1.0, t_period=2.0)
    log, out = evolve(ModelSpec(kind), disp.layer_partition(0.0, dt), u, dt)
    assert log.completed and log.layer_steps[0]["steps"] == 1
    return out


def test_strang_step_pure_linear_phase():
    """|u| = 1 makes the kick a uniform phase, so a plane wave e^{ikx} picks
    up exactly exp(-i (a k^2 + b) dt) for any layer coefficients (a, b)."""
    g = make_grid(1, half_width=np.pi, n=64)
    x = g.axis_coords()
    u = ComplexField(g, np.exp(1j * x), 0.0)
    dt = 0.37
    for kind in ("dm", "nm"):
        for gamma in (0.4, 2.5):
            a, b = ModelSpec(kind).layer_coefficients(-gamma)
            out = _one_step(kind, gamma, u.copy(), dt)
            expect = np.exp(-1j * (a + b) * dt) * np.exp(1j * x)
            assert np.max(np.abs(out.values - expect)) < 1e-13
            assert out.time == dt


def test_strang_step_pure_nonlinear_phase():
    """The linear sweep leaves a constant field alone, so it rotates by
    exactly exp(-i b |A|^(p-1) dt) for any layer coefficients (a, b)."""
    g = make_grid(1, half_width=np.pi, n=32)
    amp = 0.8 + 0.3j
    u = ComplexField(g, np.full(g.shape, amp), 0.0)
    dt = 0.21
    for kind in ("dm", "nm"):
        for gamma in (0.4, 2.5):
            _, b = ModelSpec(kind).layer_coefficients(-gamma)
            out = _one_step(kind, gamma, u.copy(), dt)
            expect = amp * np.exp(-1j * b * abs(amp) ** 4 * dt)
            assert np.max(np.abs(out.values - expect)) < 1e-14


def test_strang_step_conserves_mass_per_step():
    g = make_grid(1, half_width=12 * np.pi, n=512)
    u = pseudo_conformal_field(g, blowup_time=1.5)
    m0 = u.mass()
    for _ in range(50):
        u = _one_step("dm", 1.0, ComplexField(g, u.values, 0.0), 1e-3)
        assert abs(u.mass() - m0) / m0 < 1e-13


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, half_width=12 * np.pi, n=1024)


@pytest.fixture(scope="module")
def dm_run(grid1d):
    """Managed-Laplacian run of the T = 1.5 profile over two layers."""
    u0 = pseudo_conformal_field(grid1d, blowup_time=1.5)
    return evolve(
        ModelSpec("dm"),
        normalized_map().layer_partition(0.0, 2.0),
        u0,
        1e-3,
        sample_every=20,
        policy=BlowupPolicy(amplitude_factor=50.0),
    )


def test_evolve_conserves_mass(dm_run):
    log, final = dm_run
    assert log.completed
    m0 = log.samples[0].mass
    worst = max(abs(s.mass - m0) / m0 for s in log.samples)
    assert worst < 1e-10


def test_sample_times_strictly_increase(dm_run):
    log, _ = dm_run
    ts = [s.t for s in log.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[0] == 0.0
    assert ts[-1] == 2.0


def test_layer_steps_tile_the_window(dm_run):
    log, _ = dm_run
    assert [ls["t_begin"] for ls in log.layer_steps] == [0.0, 1.0]
    assert [ls["t_end"] for ls in log.layer_steps] == [1.0, 2.0]
    assert [ls["gamma"] for ls in log.layer_steps] == [-1.0, 1.0]
    for ls in log.layer_steps:
        assert ls["dt"] * ls["steps"] == pytest.approx(ls["t_end"] - ls["t_begin"], rel=1e-12)


def test_interface_event_energy_jump(dm_run):
    """The energy jump across a switch is (g_after - g_before)/(p+1) * pot,
    an arithmetic identity of the recorded numbers."""
    log, _ = dm_run
    switches = [e for e in log.events if e["type"] == "layer_switch"]
    assert len(switches) == 1
    ev = switches[0]
    assert ev["t"] == 1.0
    assert ev["gamma_before"] == -1.0
    assert ev["gamma_after"] == 1.0
    jump = ev["energy_after"] - ev["energy_before"]
    expect = (ev["gamma_after"] - ev["gamma_before"]) / 6.0 * ev["potential"]
    assert abs(jump - expect) < 1e-12 * (1.0 + abs(expect))
    assert ev["mass"] > 0.0


def test_standing_wave_energy_drift_within_layer(grid1d):
    """Q is the standing wave of the focusing layer; its layer energy must
    hold to far better than the documented 1e-6 budget at dt = 1e-3."""
    u0 = ground_state_1d(grid1d)
    log, final = evolve(
        ModelSpec("dm"),
        normalized_map().layer_partition(0.0, 1.0),
        u0.copy(),
        1e-3,
        sample_every=50,
    )
    assert log.completed
    energies = [s.energy for s in log.samples]
    assert max(energies) - min(energies) < 1e-6
    # the peak only moves by the O(dt^2) splitting error
    assert abs(final.linf() - u0.linf()) < 1e-4


def test_second_order_self_convergence(grid1d):
    """L2 self-convergence against a dt/8 reference; second order gives an
    error ratio of (1 - 1/64)/(1/4 - 1/64) = 4.2 between dt and dt/2."""
    u0 = pseudo_conformal_field(grid1d, blowup_time=1.5)
    model = ModelSpec("dm")
    layers = normalized_map().layer_partition(0.0, 1.0)
    pol = BlowupPolicy(amplitude_factor=50.0)
    coarse = 1e-3
    ref = evolve(model, layers, u0.copy(), coarse / 8.0, sample_every=10**9, policy=pol)[1]
    den = np.sqrt(grid1d.integrate(np.abs(ref.values) ** 2))
    errs = []
    for dt in (coarse, coarse / 2.0):
        out = evolve(model, layers, u0.copy(), dt, sample_every=10**9, policy=pol)[1]
        num = np.sqrt(grid1d.integrate(np.abs(out.values - ref.values) ** 2))
        errs.append(num / den)
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


def test_nm_momentum_monotone_at_critical_mass(grid1d):
    """dP/dt = 4E and E >= 0 at critical mass, so P never decreases.
    Only valid at (or below) the critical mass; heavier data can and does
    drive P downward in focusing layers."""
    u0 = pseudo_conformal_field(grid1d, blowup_time=2.5, conjugate=True)
    log, _ = evolve(
        ModelSpec("nm"),
        normalized_map().layer_partition(0.0, 2.0),
        u0,
        1e-3,
        sample_every=20,
        policy=BlowupPolicy(amplitude_factor=50.0),
    )
    assert log.completed
    p_series = np.array([s.momentum for s in log.samples])
    steps = np.diff(p_series)
    floor = -1e-6 * (1.0 + np.max(np.abs(p_series)))
    assert steps.min() > floor


def test_blowup_detection_semantics(grid1d):
    """A profile concentrating at T = 0.5 in a pure focusing layer trips the
    amplitude cap; the violating state is discarded, not returned."""
    u0 = pseudo_conformal_field(grid1d, blowup_time=0.5)
    focusing = DispersionMap(t_star=1e6, t_period=2e6).layer_partition(0.0, 1.0)
    policy = BlowupPolicy(amplitude_factor=2.3)
    log, final = evolve(
        ModelSpec("dm"), focusing, u0.copy(), 5e-4, sample_every=10, policy=policy
    )
    assert log.status == "blowup"
    assert not log.completed
    assert 0.3 < log.t_detect < 0.5
    assert final.time == log.t_detect
    assert log.samples[-1].t == log.t_detect
    cap = policy.cap_for(u0.linf())
    assert final.linf() <= cap
    for s in log.samples:
        assert s.linf <= cap * (1.0 + 1e-12)
    trips = [e for e in log.events if e["type"] == "blowup"]
    assert len(trips) == 1
    ev = trips[0]
    assert ev["reason"] == "amplitude"
    assert ev["t_detect"] == log.t_detect
    assert ev["t_violation"] > ev["t_detect"]
    assert ev["value"] > cap


def _check_paired_samples(monkeypatch) -> list[bool]:
    """Make every sample that gets its gradient from the stepper recompute
    itself with `spectral_gradient` and compare all fields for equality.
    Returns a list that gets, per sample, whether its gradient was paired."""
    original = mnls.propagator.sample_diagnostics
    paired = []

    def checked(u, gamma, p, gradient=None, *, scratch=None):
        paired.append(gradient is not None)
        if gradient is None:
            return original(u, gamma, p, scratch=scratch)
        ref = original(u, gamma, p)
        got = original(u, gamma, p, gradient)
        assert got == ref
        return got

    monkeypatch.setattr(mnls.propagator, "sample_diagnostics", checked)
    return paired


@pytest.mark.parametrize("kind", ["dm", "nm"])
@pytest.mark.parametrize("p", [5.0, 3.0])
@pytest.mark.parametrize("every", [1, 3])
def test_paired_gradients_are_exact(monkeypatch, kind, p, every):
    """Every mid-layer sample in 1D takes its gradient from the batched
    transform that also sweeps the next step, and gets the same bits as the
    stand-alone gradient; the first sample and the layer ends do not pair."""
    paired = _check_paired_samples(monkeypatch)
    g = make_grid(1, half_width=12 * np.pi, n=256)
    u0 = pseudo_conformal_field(g, blowup_time=1.5)
    layers = DispersionMap(epsilon=0.3).layer_partition(0.0, 1.0)  # three switches
    log, _ = evolve(ModelSpec(kind, p), layers, u0, 1e-2, sample_every=every,
                    policy=BlowupPolicy(amplitude_factor=50.0))
    assert log.completed and len(paired) == len(log.samples)
    assert sum(paired) == sum((ls["steps"] - 1) // every for ls in log.layer_steps) > 0
    assert not paired[0]


@pytest.mark.parametrize("every", [1, 3])
def test_halt_right_after_a_paired_sample(grid1d, monkeypatch, every):
    """A cap trip on the step after a paired sample, whose sweep the batched
    call already did, still returns the paired sample's state."""
    paired = _check_paired_samples(monkeypatch)
    u0 = pseudo_conformal_field(grid1d, blowup_time=0.5)
    focusing = DispersionMap(t_star=1e6, t_period=2e6)
    model, dt = ModelSpec("dm"), 5e-4
    log, final = evolve(model, focusing.layer_partition(0.0, 1.0), u0.copy(), dt,
                        sample_every=every,
                        policy=BlowupPolicy(amplitude_factor=1.05))
    trip = [e for e in log.events if e["type"] == "blowup"][0]
    assert trip["reason"] == "amplitude"
    step = round(trip["t_violation"] / dt)
    assert step == 94 and (step - 1) % every == 0  # the step before the trip was sampled
    assert paired[-1] and log.samples[-1].t == log.t_detect == final.time
    ref = _march_to(model, focusing, u0, log.t_detect, dt)
    assert np.max(np.abs(final.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))


def test_mass_drift_policy_trips(grid1d, monkeypatch):
    """An absurdly tight drift tolerance converts rounding into a halt, here
    at a mid-layer sample whose gradient came with the next step's sweep."""
    paired = _check_paired_samples(monkeypatch)
    u0 = ground_state_1d(grid1d)
    policy = BlowupPolicy(mass_drift_tol=1e-17)
    log, final = evolve(ModelSpec("dm"), normalized_map().layer_partition(0.0, 1.0), u0.copy(),
                        1e-3, sample_every=1, policy=policy)
    assert log.status == "blowup"
    ev = [e for e in log.events if e["type"] == "blowup"][0]
    assert ev["reason"] == "mass_drift"
    assert paired[-1] and ev["t_violation"] < log.layer_steps[-1]["t_end"]
    assert final.time == log.t_detect
    ref = _march_to(ModelSpec("dm"), normalized_map(), u0, log.t_detect, 1e-3)
    assert np.max(np.abs(final.values - ref.values)) <= 1e-12 * u0.linf()


def test_samples_on_the_borrowed_phase_buffer_change_no_bit(monkeypatch):
    """A 2D sample uses the stepper's phase buffer as its scratch field and
    the next leading half-kick takes its exponent afresh; the run matches one whose
    samples allocate their own scratch, bit for bit."""
    g = make_grid(2, half_width=8.0, n=64)
    u0 = sech_profile_2d(g, 5.0, 0.86)
    layers = DispersionMap(t_star=5e-4, t_period=1e-3).layer_partition(0.0, 2e-3)

    def run():
        return evolve(ModelSpec("dm"), layers, u0.copy(), 2.5e-4, 1)

    borrowed, final = run()
    original = mnls.propagator.sample_diagnostics

    def own_scratch(u, gamma, p, gradient=None, *, scratch=None):
        return original(u, gamma, p, gradient)

    monkeypatch.setattr(mnls.propagator, "sample_diagnostics", own_scratch)
    own, own_final = run()
    assert len(borrowed.samples) == 9 and borrowed.samples == own.samples
    assert final.values.tobytes() == own_final.values.tobytes()


def test_evolve_advances_the_field_it_is_given(grid1d):
    """evolve marches u0's own array and returns u0, stamped with the end
    time, or on a halt with t_detect and the last stable state the log ends
    on; a second run of the advanced field over the same layers is refused."""
    u0 = pseudo_conformal_field(grid1d, blowup_time=1.5)
    values = u0.values
    layers = normalized_map().layer_partition(0.0, 0.5)
    ref = evolve(ModelSpec("dm"), layers, u0.copy(), 1e-3, sample_every=7)[1]
    log, out = evolve(ModelSpec("dm"), layers, u0, 1e-3, sample_every=7)
    assert log.completed and out is u0 and out.values is values
    assert out.time == layers[-1].t_end == 0.5
    assert out.values.tobytes() == ref.values.tobytes()
    with pytest.raises(ValueError, match="layers start"):
        evolve(ModelSpec("dm"), layers, u0, 1e-3)

    u0 = pseudo_conformal_field(grid1d, blowup_time=0.5)
    values = u0.values
    focusing = DispersionMap(t_star=1e6, t_period=2e6).layer_partition(0.0, 1.0)
    log, out = evolve(ModelSpec("dm"), focusing, u0, 5e-4, sample_every=9,
                      policy=BlowupPolicy(amplitude_factor=2.3))
    assert log.status == "blowup" and out is u0 and np.shares_memory(out.values, values)
    assert out.time == log.t_detect == log.samples[-1].t
    assert sample_diagnostics(out, -1.0, 5.0) == log.samples[-1]
    with pytest.raises(ValueError, match="layers start"):
        evolve(ModelSpec("dm"), focusing, u0, 5e-4)


def test_evolve_marches_a_contiguous_copy_of_a_strided_field():
    """A field whose values are not C-contiguous is copied once, and u0 takes
    the copy as its values."""
    g = make_grid(2, half_width=8.0, n=64)
    base = sech_profile_2d(g, 5.0, 0.86).values
    u0 = ComplexField(g, base.T, 0.0)
    layers = DispersionMap(t_star=5e-4, t_period=1e-3).layer_partition(0.0, 5e-4)
    ref = evolve(ModelSpec("dm"), layers, ComplexField(g, base.T.copy(), 0.0), 2.5e-4)[1]
    _, out = evolve(ModelSpec("dm"), layers, u0, 2.5e-4)
    assert out is u0 and out.values.flags.c_contiguous
    assert not np.shares_memory(out.values, base)
    assert out.values.tobytes() == ref.values.tobytes()


def test_evolve_rejects_bad_arguments(grid1d):
    u0 = ground_state_1d(grid1d)
    with pytest.raises(ValueError):
        evolve(ModelSpec("dm"), normalized_map().layer_partition(0.0, 1.0), u0, 1e-3,
               sample_every=0)
    with pytest.raises(ValueError, match="layers start"):  # u0 is stamped t = 0
        evolve(ModelSpec("dm"), normalized_map().layer_partition(0.5, 1.0), u0, 1e-3)
    # the mass-drift check divides by the first sample's mass
    zero = ComplexField(grid1d, np.zeros(grid1d.shape, dtype=np.complex128), 0.0)
    with pytest.raises(ValueError, match="positive mass"):
        evolve(ModelSpec("dm"), normalized_map().layer_partition(0.0, 1.0), zero, 1e-3)


def test_sampling_cadence(grid1d):
    """Samples land every sample_every steps plus the layer ends."""
    u0 = ground_state_1d(grid1d)
    log, _ = evolve(
        ModelSpec("dm"), normalized_map().layer_partition(0.0, 2.0), u0, 0.25, sample_every=2
    )
    ts = [s.t for s in log.samples]
    assert ts == [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("kind", ["dm", "nm"])
@pytest.mark.parametrize("p", [None, 3.0, 2.5])
def test_fused_kicks_change_no_result(kind, p):
    """Between samples the trailing and leading half-kicks are applied as one
    full kick; sparse sampling must match sampling every step to rounding on
    every common sample and on the final field (p = 5, 3 and 2.5 take the
    square, identity and general-power exponent paths)."""
    g = make_grid(1, half_width=12 * np.pi, n=256)
    u0 = pseudo_conformal_field(g, blowup_time=1.5)
    layers = DispersionMap(epsilon=0.3).layer_partition(0.0, 1.6)  # five switches
    policy = BlowupPolicy(amplitude_factor=50.0)
    (dense, f1), (sparse, f7) = (
        evolve(ModelSpec(kind, p), layers, u0.copy(), 1e-2, sample_every=k, policy=policy)
        for k in (1, 7)
    )
    assert dense.completed and sparse.completed
    assert len(sparse.samples) < len(dense.samples)
    rows = {row[0]: np.array(row) for row in dense.samples.rows()}
    for row in sparse.samples.rows():
        ref = rows[row[0]]
        assert np.all(np.abs(np.array(row) - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    assert np.max(np.abs(f7.values - f1.values)) <= 1e-12 * np.max(np.abs(f1.values))


def _march_to(model, disp, u0, t, dt):
    """The state at time t of an uncapped run from u0 (u0 itself at t = 0); u0
    stays untouched."""
    if t == 0.0:
        return u0
    return evolve(model, disp.layer_partition(0.0, t), u0.copy(), dt, sample_every=10**9)[1]


def test_2d_halt_in_a_later_block_turns_the_kicked_blocks_back():
    """At 256^2 a kick takes eight units of 32 rows, and the bump's peak
    sits in the third block of 64: the trip at t = 0.07, a step between
    samples, stops the kick there and turns the units before it back.  The
    run halts where the unblocked kick halted (t_detect 0.068), and the
    field it returns is the uncapped march's state at t_detect to rounding,
    with the diagnostics of the log's last sample."""
    g = make_grid(2, half_width=8.0, n=256)
    u0 = sech_profile_2d(g, 5.0, 0.86)
    focusing = DispersionMap(t_star=1e6, t_period=2e6)
    model, dt, policy = ModelSpec("dm"), 2e-3, BlowupPolicy(amplitude_factor=1.5)
    assert g.block_shape == (64, 256)
    log, out = evolve(model, focusing.layer_partition(0.0, 0.2), u0.copy(), dt, sample_every=3,
                      policy=policy)
    trip = log.events[-1]
    assert log.status == "blowup" and trip["reason"] == "amplitude"
    assert log.t_detect == out.time == 0.068 and trip["t_violation"] == 0.07
    assert trip["value"] > policy.cap_for(u0.linf())
    assert np.argmax(np.abs(out.values)) // g.n >= 2 * g.block_shape[0]
    assert sample_diagnostics(out, -1.0, 3.0) == log.samples[-1]
    ref = _march_to(model, focusing, u0, log.t_detect, dt)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))


def test_halt_inside_a_fused_stretch_returns_the_last_stable_state(grid1d):
    """A trip between samples rebuilds the last stable state from the
    violating candidate; it must match the densely sampled run and an
    uncapped march to t_detect, never the discarded candidate."""
    u0 = pseudo_conformal_field(grid1d, blowup_time=0.5)
    focusing = DispersionMap(t_star=1e6, t_period=2e6)
    model, dt = ModelSpec("dm"), 5e-4
    policy = BlowupPolicy(amplitude_factor=2.3)
    layers = focusing.layer_partition(0.0, 1.0)
    dense_log, dense = evolve(model, layers, u0.copy(), dt, sample_every=1, policy=policy)
    log, final = evolve(model, layers, u0.copy(), dt, sample_every=9, policy=policy)
    trip = [e for e in log.events if e["type"] == "blowup"][0]
    step = round(trip["t_violation"] / dt)
    assert step % 9 and (step - 1) % 9  # neither the trip nor the step before is sampled
    assert log.t_detect == dense_log.t_detect
    # 742 steps toward collapse amplify rounding: 1.5e-12 relative measured
    scale = np.max(np.abs(dense.values))
    assert np.max(np.abs(final.values - dense.values)) <= 1e-11 * scale
    ref = _march_to(model, focusing, u0, log.t_detect, dt)
    assert np.max(np.abs(final.values - ref.values)) <= 1e-10 * scale


@pytest.mark.parametrize("n", [8, 256, 1024, 2048, 4096])
def test_batched_transform_rows_have_single_transform_bits(n):
    """The paired sample step rests on this numpy property: each row of an
    in-place transform along the last axis of a C-contiguous (2, n) array
    has the bits of that row's own transform, both ways, and a 1D `fftn`
    has the bits of `fft`."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    for batched, nd in ((np.fft.fft, np.fft.fftn), (np.fft.ifft, np.fft.ifftn)):
        w = rows.copy()
        batched(w, axis=-1, out=w)
        for row, out in zip(rows, w):
            assert np.array_equal(out, batched(row))
            assert np.array_equal(out, nd(row))


def test_tangent_factor_matches_cos_and_sin():
    """The 2D kick takes exp(i theta) from t = tan(theta/2): cos theta =
    2/(1+t^2) - 1 and sin theta = t 2/(1+t^2).  On theta in [-60, 60], odd
    multiples of pi and tiny angles, each part is within 4 ulp of 1 of
    cos theta and sin theta, and the sine within 4 of its own ulp."""
    g = make_grid(2, half_width=8.0, n=256)
    u = np.ones((g.n, g.n), dtype=np.complex128)
    st = mnls.propagator._Stepper(u, 3.0, g.laplacian_symbol(), g.block_shape)
    unit = st.units[0]
    theta = np.linspace(-60.0, 60.0, unit.size)
    odd = (2 * np.arange(-10, 10) + 1) * np.pi
    tiny = [5e-324, -1e-300, 1e-20, -1e-12, 1e-8, 0.0]
    theta[:len(odd) + len(tiny)] = [*odd, *tiny]
    st.nl[:] = theta  # |u|^2, which is |u|^(p-1) at p = 3
    st._rotate(unit, -1.0)  # the unit becomes exp(-i coeff |u|^2) = exp(i theta)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(unit.real - np.cos(theta))) <= 4 * eps
    sin = np.sin(theta)
    assert np.max(np.abs(unit.imag - sin)) <= 4 * eps
    assert np.all(np.abs(unit.imag - sin) <= 4 * np.spacing(np.abs(sin)))
    assert np.all(u[len(st.rows[0]) // 2:] == 1.0)  # the other units are untouched


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite run
@pytest.mark.parametrize("poison", [False, True])
def test_evolve_restores_numpy_buffer_size(poison):
    """evolve runs with a small ufunc buffer and gives the caller's back,
    on a return and on a raise."""
    g = make_grid(2, half_width=8.0, n=128)
    u0 = sech_profile_2d(g, 5.0, 0.86)
    if poison:
        u0.values[0, 0] = np.inf
    layers = DispersionMap(t_star=5e-4, t_period=1e-3).layer_partition(0.0, 1e-3)
    old = np.setbufsize(4096)
    try:
        if poison:
            with pytest.raises(NonFiniteState):
                evolve(ModelSpec("dm"), layers, u0, 2.5e-4)
        else:
            assert evolve(ModelSpec("dm"), layers, u0, 2.5e-4)[0].completed
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
