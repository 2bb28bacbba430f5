"""Management map values, layer partitions, time reversal and config records."""

import numpy as np
import pytest

from mnls.constructor import backward_blowup_data
from mnls.errors import ConfigError, EmptyWindow, NegativeTime
from mnls.lattice import make_grid
from mnls.mgmt_map import DispersionMap, normalized_map
from mnls.propagator import ModelSpec


def test_unit_map_values():
    m = normalized_map()
    assert m.gamma_at(0.5) == -1.0
    assert m.gamma_at(1.0) == -1.0  # left-continuous at the switch
    assert m.gamma_at(1.5) == 1.0
    assert m.gamma_at(2.0) == 1.0
    assert m.gamma_at(2.5) == -1.0  # periodic extension
    # t = 0 takes the value carried over from the end of the previous period
    assert m.gamma_at(0.0) == 1.0


def test_asymmetric_amplitudes():
    m = DispersionMap(gamma_minus=0.3, gamma_plus=2.0, t_star=1.0, t_period=3.0)
    assert m.gamma_at(0.5) == -0.3
    assert m.gamma_at(2.0) == 2.0
    assert m.period == 3.0


def test_epsilon_compresses_period():
    m = DispersionMap(t_star=0.5, t_period=1.0, epsilon=1e-3)
    assert m.period == pytest.approx(1e-3)
    assert m.gamma_at(0.25e-3) == -1.0
    assert m.gamma_at(0.75e-3) == 1.0


def test_negative_time_rejected():
    with pytest.raises(NegativeTime):
        normalized_map().gamma_at(-0.1)


@pytest.mark.parametrize(
    "bad",
    [
        dict(gamma_minus=0.0),
        dict(gamma_plus=-1.0),
        dict(t_star=2.0, t_period=2.0),
        dict(t_star=0.0),
        dict(epsilon=0.0),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        DispersionMap(**bad)


# === layer partitions =====================================================


def test_partition_tiles_window_exactly():
    m = normalized_map()
    layers = m.layer_partition(0.0, 5.0)
    assert [(l.t_begin, l.t_end, l.gamma) for l in layers] == [
        (0.0, 1.0, -1.0),
        (1.0, 2.0, 1.0),
        (2.0, 3.0, -1.0),
        (3.0, 4.0, 1.0),
        (4.0, 5.0, -1.0),
    ]


def test_partition_interior_window():
    m = normalized_map()
    layers = m.layer_partition(0.25, 1.75)
    assert len(layers) == 2
    assert layers[0].t_end == 1.0
    assert layers[0].gamma == -1.0
    assert layers[1].t_begin == 1.0
    assert layers[1].gamma == 1.0


def test_partition_breakpoints_are_exact_multiples():
    """Interfaces must land on the exact floating-point values k*P and
    k*P + t_star so reruns place them bit-identically."""
    m = DispersionMap(t_star=0.1, t_period=0.2, epsilon=1.0)
    layers = m.layer_partition(0.0, 1.0)
    edges = [l.t_end for l in layers[:-1]]
    expected = []
    for k in range(6):
        expected.extend([k * 0.2, k * 0.2 + 0.1])
    expected = [e for e in expected if 0.0 < e < 1.0]
    assert edges == sorted(expected)


def test_partition_empty_window_rejected():
    with pytest.raises(EmptyWindow):
        normalized_map().layer_partition(1.0, 1.0)
    with pytest.raises(NegativeTime):
        normalized_map().layer_partition(-0.5, 1.0)


# === reversal =============================================================
# A construction plays the map backwards from the pivot n * period by
# mirroring the forward partition on (0, pivot]; its auxiliary run records
# the layers it marched.


def _mirrored_layers(m, layer_index):
    g = make_grid(1, half_width=12 * np.pi, n=64)
    _, aux = backward_blowup_data(ModelSpec("nm"), m, layer_index,
                                  layer_index * m.period + 0.5, g,
                                  dt_target=0.25, sample_every=10**9)
    return aux.layer_steps


def _gamma_in(layers, t):
    """The gamma of the mirrored layer (a, b] holding t."""
    (gamma,) = [ls["gamma"] for ls in layers if ls["t_begin"] < t <= ls["t_end"]]
    return gamma


def test_reversed_values_mirror_forward():
    """The mirrored gamma at t equals the forward value just after pivot - t."""
    m = normalized_map()
    r = _mirrored_layers(m, 2)  # pivot 4
    # forward map on (3, 4] is +1, so mirrored on (0, 1] must be +1
    assert _gamma_in(r, 0.5) == 1.0
    # forward on (2, 3] is -1
    assert _gamma_in(r, 1.5) == -1.0
    assert _gamma_in(r, 2.5) == 1.0
    assert _gamma_in(r, 3.5) == -1.0
    # left-continuity of the mirrored layers at their own switches
    assert _gamma_in(r, 1.0) == 1.0
    assert _gamma_in(r, 2.0) == -1.0
    for t in np.linspace(0.05, 3.95, 40):
        assert _gamma_in(r, t) == m.gamma_at(4.0 - t + 1e-9)


def test_reversed_partition_tiles_pivot_window():
    layers = _mirrored_layers(normalized_map(), 2)
    assert len(layers) == 4
    assert [ls["gamma"] for ls in layers] == [1.0, -1.0, 1.0, -1.0]
    assert layers[0]["t_begin"] == 0.0
    assert layers[-1]["t_end"] == 4.0
    assert all(a["t_end"] == b["t_begin"] for a, b in zip(layers, layers[1:]))


def test_dict_round_trip():
    m = DispersionMap(0.5, 1.5, 0.25, 1.0, 2.0)
    record = {"gamma_minus": 0.5, "gamma_plus": 1.5, "t_star": 0.25, "t_period": 1.0,
              "epsilon": 2}
    assert DispersionMap.from_dict(record) == m
    assert DispersionMap.from_dict({}) == normalized_map()


@pytest.mark.parametrize("record", [{"gamma_minu": 3.0}, {"t_star": 1.0, "period": 2.0},
                                    {"reversed_pivot": 3}])
def test_from_dict_rejects_unknown_keys(record):
    """A misspelled parameter must not silently run the default map, and a
    map has no key beyond its five parameters."""
    with pytest.raises(ConfigError):
        DispersionMap.from_dict(record)
