"""Backward construction of data that concentrates in a later layer.

To place a self-similar concentration inside the n-th focusing layer
(nP, nP + epsilon*t_star] of the run's own map, of period P, the profile is
pinned at the pivot nP and integrated backwards: an auxiliary state seeded
with the profile's sample at the pivot evolves the same model through the
map's layers on (0, nP] in mirror order, each layer (a, b] becoming
(nP - b, nP - a] with its gamma, and the conjugate of the arrival state is
the sought initial datum.  Concretely, for the nonlinearity-managed flow

    seed(x) = h(0, x) with blowup time T* - nP
    i w_t + Lap(w) = gamma(nP - t) |w|^(p-1) w   on (0, nP]
    u0 = conj(w(nP))

and forward evolution then satisfies u(t) = conj(w(nP - t)), so the run
reproduces the conjugate profile on layer n and blows up at T* when
nP < T* <= nP + epsilon*t_star.  Choosing a later T* instead parks the
would-be concentration inside a defocusing span, which is the revival
setup.  The profile solves the focusing equation with unit coefficient, so
the map's gamma_minus must be 1.

When the Laplacian is managed the same attempt seeds the conjugate profile
(the analogous backward system conjugates the equation); its auxiliary
integration is expected to concentrate on its own just before the pivot,
in which case BlowupDuringConstruction is raised with the partial log.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowupDuringConstruction, is_real
from .lattice import ComplexField, Grid
from .mgmt_map import DispersionMap, Layer
from .profiles import pseudo_conformal_field
from .propagator import BlowupPolicy, ModelSpec, TrajectoryLog, evolve

__all__ = ["backward_blowup_data"]


def backward_blowup_data(
    model: ModelSpec,
    disp_map: DispersionMap,
    layer_index: int,
    blowup_time: float,
    grid: Grid,
    omega: float = 1.0,
    dt_target: float = 5e-4,
    sample_every: int = 10,
    policy: BlowupPolicy | None = None,
) -> tuple[ComplexField, TrajectoryLog]:
    """Construct u0 whose forward evolution on disp_map concentrates at blowup_time.

    Args:
        model: the model the data is meant for; the auxiliary run evolves
            the same kind and power.
        disp_map: the run's map; its gamma_minus must be 1.
        layer_index: n >= 1, the focusing layer that starts at n * period.
        blowup_time: T*, must exceed n * period; a T* past the focusing
            layer gives revival data.
        grid: 1D lattice for the construction.
        omega: profile scaling.
        dt_target, sample_every, policy: passed to the auxiliary evolution.

    Returns (u0 stamped t=0, auxiliary TrajectoryLog).

    Raises BlowupDuringConstruction if the auxiliary run trips the policy,
    which is the expected outcome when the Laplacian is managed.
    """
    if isinstance(layer_index, bool) or not (isinstance(layer_index, int) and layer_index >= 1):
        raise ValueError(f"layer_index must be a positive integer, got {layer_index!r}")
    if not is_real(blowup_time):
        raise TypeError(f"blowup_time must be a real number, got {blowup_time!r}")
    if disp_map.gamma_minus != 1.0:
        raise ValueError("the profile solves only a gamma = -1 layer, "
                         f"but the map's gamma_minus is {disp_map.gamma_minus}")
    pivot = layer_index * disp_map.period
    if not (blowup_time > pivot):
        raise ValueError(f"blowup_time must exceed {pivot}")
    seed = pseudo_conformal_field(
        grid,
        blowup_time=blowup_time - pivot,
        omega=omega,
        t=0.0,
        conjugate=(model.kind == "dm"),
    )
    layers = [Layer(pivot - l.t_end, pivot - l.t_begin, l.gamma)
              for l in reversed(disp_map.layer_partition(0.0, pivot))]
    log, u0 = evolve(model, layers, seed, dt_target, sample_every, policy)
    if not log.completed:
        raise BlowupDuringConstruction(log.t_detect, log)
    np.conjugate(u0.values, out=u0.values)  # the arrival state becomes u0 in place
    u0.time = 0.0
    return u0, log
