"""Backward construction of data that concentrates in a later layer.

To place a self-similar concentration inside layer n of the unit map, the
profile is pinned at t = 2n and integrated backwards: an auxiliary state
seeded with the profile's t = 2n sample evolves the same model against the
time-reversed map (pivot 2n), and the conjugate of the arrival state is
the sought initial datum.  Concretely, for the nonlinearity-managed flow

    seed(x) = h(0, x) with blowup time T* - 2n
    i w_t + Lap(w) = gamma(2n - t) |w|^(p-1) w   on (0, 2n]
    u0 = conj(w(2n))

and forward evolution then satisfies u(t) = conj(w(2n - t)), so the run
reproduces the conjugate profile on layer n and blows up at T* when
2n < T* <= 2n + 1.  Choosing T* > 2n + 1 instead parks the would-be
concentration inside a defocusing span, which is the revival setup.

When the Laplacian is managed the same attempt seeds the conjugate profile
(the analogous backward system conjugates the equation); its auxiliary
integration is expected to concentrate on its own just before t = 2n, in
which case BlowupDuringConstruction is raised with the partial log.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowupDuringConstruction, is_real
from .lattice import ComplexField, Grid
from .mgmt_map import normalized_map
from .profiles import pseudo_conformal_field
from .propagator import BlowupPolicy, ModelSpec, TrajectoryLog, evolve

__all__ = ["backward_blowup_data"]


def backward_blowup_data(
    model: ModelSpec,
    layer_index: int,
    blowup_time: float,
    grid: Grid,
    omega: float = 1.0,
    dt_target: float = 5e-4,
    sample_every: int = 10,
    policy: BlowupPolicy | None = None,
) -> tuple[ComplexField, TrajectoryLog]:
    """Construct u0 whose forward evolution concentrates at blowup_time.

    Args:
        model: the model the data is meant for; the auxiliary run evolves
            the same kind and power.
        layer_index: n >= 1, the focusing layer (2n, 2n+1] targeted.
        blowup_time: T*, must exceed 2n; T* > 2n+1 gives revival data.
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
    pivot = 2.0 * layer_index
    if not (blowup_time > pivot):
        raise ValueError(f"blowup_time must exceed {pivot}")
    seed = pseudo_conformal_field(
        grid,
        blowup_time=blowup_time - pivot,
        omega=omega,
        t=0.0,
        conjugate=(model.kind == "dm"),
    )
    rev = normalized_map().reverse(pivot)
    log, final = evolve(model, rev, seed, pivot, dt_target, sample_every, policy)
    if not log.completed:
        raise BlowupDuringConstruction(log.t_detect, log)
    u0 = ComplexField(grid, np.conj(final.values), 0.0)
    return u0, log
