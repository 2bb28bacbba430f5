"""Periodic piecewise-constant management maps.

A map takes the value -gamma_minus on (0, t_star] and +gamma_plus on
(t_star, t_period], extended periodically and left-continuously.  The
epsilon factor compresses the period: the scaled map is gamma(t/epsilon),
switching at epsilon*t_star and epsilon*t_period.  A map only runs
forwards; a backward construction marches the mirror image of its layer
partition instead.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyWindow, NegativeTime, is_real

__all__ = ["DispersionMap", "normalized_map", "Layer"]


@dataclass(frozen=True)
class Layer:
    """One maximal interval (t_begin, t_end] of constant gamma."""

    t_begin: float
    t_end: float
    gamma: float

    @property
    def length(self) -> float:
        return self.t_end - self.t_begin


@dataclass(frozen=True)
class DispersionMap:
    gamma_minus: float = 1.0
    gamma_plus: float = 1.0
    t_star: float = 1.0
    t_period: float = 2.0
    epsilon: float = 1.0

    def __post_init__(self):
        if not (self.gamma_minus > 0.0 and self.gamma_plus > 0.0):
            raise ValueError("gamma_minus and gamma_plus must be positive")
        if not (0.0 < self.t_star < self.t_period):
            raise ValueError("need 0 < t_star < t_period")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")

    @property
    def period(self) -> float:
        """Physical period, epsilon * t_period."""
        return self.epsilon * self.t_period

    def gamma_at(self, t: float) -> float:
        """Map value at time t >= 0.

        Left-continuous in t; in particular gamma_at(0.0) takes the value at
        the end of the previous period.  Raises NegativeTime for t < 0.
        """
        if t < 0.0:
            raise NegativeTime(f"map queried at t={t}")
        # left-continuous reduction: residue in (0, t_period]
        s = (t / self.epsilon) % self.t_period
        if s == 0.0:
            s = self.t_period
        return -self.gamma_minus if s <= self.t_star else self.gamma_plus

    def _breakpoints(self, t_begin: float, t_end: float) -> list[float]:
        """Switch times strictly inside (t_begin, t_end), sorted ascending.

        Computed as exact multiples of the scaled period rather than
        detected numerically, so interfaces land bit-identically across
        runs of the same window.
        """
        per = self.period
        ts = self.epsilon * self.t_star
        out = []
        k0 = int(np.floor(t_begin / per)) - 1
        k1 = int(np.ceil(t_end / per)) + 1
        for k in range(k0, k1 + 1):
            for b in (k * per, k * per + ts):
                if t_begin < b < t_end:
                    out.append(b)
        return sorted(out)

    def layer_partition(self, t_begin: float, t_end: float) -> list[Layer]:
        """Tile (t_begin, t_end] with maximal constant-gamma layers.

        Neighbouring layers always differ in gamma, and no layer is a
        rounding sliver at either edge of the window.  Raises NegativeTime
        if t_begin < 0 and EmptyWindow if the window has no extent.
        """
        if t_begin < 0.0:
            raise NegativeTime(f"window starts at t={t_begin}")
        if not (t_end > t_begin):
            raise EmptyWindow(f"window ({t_begin}, {t_end}] is empty")
        # A switch computed a few ulps off an edge (k * period need not round
        # like the edge does) is snapped onto it, so it leaves no sliver layer.
        tol = 4.0 * np.spacing(t_end)
        inner = [b for b in self._breakpoints(t_begin, t_end)
                 if b - t_begin > tol and t_end - b > tol]
        layers: list[Layer] = []
        for a, b in zip([t_begin] + inner, inner + [t_end]):
            gamma = self.gamma_at(0.5 * (a + b))
            if layers and layers[-1].gamma == gamma:
                layers[-1] = Layer(layers[-1].t_begin, b, gamma)  # one maximal layer
            else:
                layers.append(Layer(a, b, gamma))
        return layers

    @classmethod
    def from_dict(cls, d: dict) -> "DispersionMap":
        """Build a map from its config record; raises ConfigError for an
        unknown key, so a misspelled parameter cannot fall back to a default,
        and for a value that is not a finite real number (an infinite period
        or epsilon would pass every range check and lose a layer)."""
        if not isinstance(d, dict):
            raise ConfigError(f"map must be a record, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown map keys: {unknown}")
        not_real = sorted(k for k, v in d.items() if not (is_real(v) and math.isfinite(v)))
        if not_real:
            raise ConfigError(f"map values must be finite real numbers: {not_real}")
        # absent keys take the dataclass defaults; the cast keeps integer-valued
        # JSON times and gammas printing as floats in the run's events
        return cls(**{k: float(v) for k, v in d.items()})


def normalized_map() -> DispersionMap:
    """The unit map: -1 on (0, 1], +1 on (1, 2], period 2."""
    return DispersionMap()
