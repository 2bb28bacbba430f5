"""Management map values, layer partitions, and time reversal."""

import numpy as np
import pytest

from mnls.errors import ConfigError, EmptyWindow, NegativeTime
from mnls.mgmt_map import DispersionMap, normalized_map


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


def test_reverse_is_involutive():
    m = normalized_map()
    assert m.reverse(4.0).reverse(4.0) == m
    with pytest.raises(ValueError):
        m.reverse(4.0).reverse(2.0)


def test_reversed_values_mirror_forward():
    """gamma_reversed(t) equals the forward value just after pivot - t."""
    m = normalized_map()
    r = m.reverse(4.0)
    # forward map on (3, 4] is +1, so reversed on (0, 1] must be +1
    assert r.gamma_at(0.5) == 1.0
    # forward on (2, 3] is -1
    assert r.gamma_at(1.5) == -1.0
    assert r.gamma_at(2.5) == 1.0
    assert r.gamma_at(3.5) == -1.0
    # left-continuity of the reversed map at its own switches
    assert r.gamma_at(1.0) == 1.0
    assert r.gamma_at(2.0) == -1.0


def test_reversed_partition_tiles_pivot_window():
    r = normalized_map().reverse(4.0)
    layers = r.layer_partition(0.0, 4.0)
    assert len(layers) == 4
    assert [l.gamma for l in layers] == [1.0, -1.0, 1.0, -1.0]
    assert layers[0].t_begin == 0.0
    assert layers[-1].t_end == 4.0


def test_dict_round_trip():
    m = DispersionMap(0.5, 1.5, 0.25, 1.0, 2.0)
    record = {"gamma_minus": 0.5, "gamma_plus": 1.5, "t_star": 0.25, "t_period": 1.0,
              "epsilon": 2}
    assert DispersionMap.from_dict(record) == m
    assert DispersionMap.from_dict({**record, "reversed_pivot": 3}) == m.reverse(3.0)
    assert DispersionMap.from_dict({}) == normalized_map()


@pytest.mark.parametrize("record", [{"gamma_minu": 3.0}, {"t_star": 1.0, "period": 2.0}])
def test_from_dict_rejects_unknown_keys(record):
    """A misspelled parameter must not silently run the default map."""
    with pytest.raises(ConfigError):
        DispersionMap.from_dict(record)
