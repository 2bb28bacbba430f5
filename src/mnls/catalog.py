"""Built-in experiment catalog.

Each entry is a complete run configuration: model, map, initial data,
lattice, stepping, and detection policy, plus the qualitative outcome it
reproduces ("expected": a status, and a window for the detection time),
which the test suite checks against every entry's run.  Box sizes are
chosen per run so the initial profile's boundary amplitude stays below
1e-8 and, for spreading solutions, so the far field does not wrap within
the horizon; resolutions are powers of two.

Detection caps deserve a note: because the split steps conserve grid mass
exactly, the only workable blowup signal is amplitude growth, and the grid
itself bounds sup|u| by sqrt(mass)/dx^(dim/2).  Caps are therefore set per
experiment a factor of a few above the expected stable oscillation rather
than at the generic default, which no desk-scale lattice can reach.
"""

from __future__ import annotations

import copy
import math

from .errors import ConfigError

__all__ = ["catalog_ids", "catalog_entry", "CATALOG"]

_PI = math.pi

_UNIT_MAP = {"gamma_minus": 1.0, "gamma_plus": 1.0, "t_star": 1.0, "t_period": 2.0, "epsilon": 1.0}
# a map whose first switch lies far beyond any desk horizon: gamma == -1
_FOCUSING_MAP = {"gamma_minus": 1.0, "gamma_plus": 1.0, "t_star": 1e6, "t_period": 2e6, "epsilon": 1.0}
_FAST_MAP = {"gamma_minus": 1.0, "gamma_plus": 1.0, "t_star": 5e-4, "t_period": 1e-3, "epsilon": 1.0}


def _entry(title, model, mp, profile, dim, half_width, n, dt, t_end, sample_every, kappa,
           expected):
    return {
        "title": title,
        "model": {"kind": model},
        "map": dict(mp),
        "profile": dict(profile),
        "grid": {"dim": dim, "half_width": half_width, "n": n},
        "dt_target": dt,
        "t_end": t_end,
        "sample_every": sample_every,
        "policy": {"amplitude_factor": kappa, "mass_drift_tol": 1e-4, "amplitude_ceiling": 1e9},
        "expected": expected,
    }


CATALOG: dict[str, dict] = {
    "dm-global-T1.5": _entry(
        "Laplacian-managed run from the T0=1.5 self-similar profile; bounded oscillation",
        "dm", _UNIT_MAP,
        {"kind": "pseudo_conformal", "blowup_time": 1.5, "omega": 1.0, "conjugate": False},
        1, 12 * _PI, 1024, 5e-4, 30.0, 20, 6.5,
        expected={"status": "completed"},
    ),
    "nm-global-T1.5": _entry(
        "Nonlinearity-managed run from the conjugate T0=1.5 profile; spreads, peak decays",
        "nm", _UNIT_MAP,
        {"kind": "pseudo_conformal", "blowup_time": 1.5, "omega": 1.0, "conjugate": True},
        1, 48 * _PI, 4096, 5e-4, 30.0, 20, 5.0,
        expected={"status": "completed"},
    ),
    "nm-global-T2": _entry(
        "Nonlinearity-managed run, conjugate profile with T0=2",
        "nm", _UNIT_MAP,
        {"kind": "pseudo_conformal", "blowup_time": 2.0, "omega": 1.0, "conjugate": True},
        1, 32 * _PI, 2048, 5e-4, 30.0, 20, 5.0,
        expected={"status": "completed"},
    ),
    "nm-global-T5": _entry(
        "Nonlinearity-managed run, conjugate profile with T0=5",
        "nm", _UNIT_MAP,
        {"kind": "pseudo_conformal", "blowup_time": 5.0, "omega": 1.0, "conjugate": True},
        1, 40 * _PI, 2048, 5e-4, 30.0, 20, 5.0,
        expected={"status": "completed"},
    ),
    "nm-global-T8": _entry(
        "Nonlinearity-managed run, conjugate profile with T0=8",
        "nm", _UNIT_MAP,
        {"kind": "pseudo_conformal", "blowup_time": 8.0, "omega": 1.0, "conjugate": True},
        1, 48 * _PI, 4096, 5e-4, 30.0, 20, 5.0,
        expected={"status": "completed"},
    ),
    "nm-blowup-T2.5": _entry(
        "Backward-constructed data blowing up inside the second focusing layer",
        "nm", _UNIT_MAP,
        {"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5, "omega": 1.0},
        1, 12 * _PI, 2048, 5e-4, 2.5, 10, 9.5,
        expected={"status": "blowup", "t_detect_window": [2.0, 2.5]},
    ),
    "dm-backward-T2.5": _entry(
        "Backward construction attempt with the managed Laplacian; concentrates before t=2",
        "dm", _UNIT_MAP,
        {"kind": "backward_construction", "layer_index": 1, "blowup_time": 2.5, "omega": 1.0},
        1, 12 * _PI, 1024, 5e-4, 2.5, 10, 1.7,
        expected={"status": "blowup_during_construction", "t_detect_window": [1.8, 2.0]},
    ),
    "nm-revival-n2-T5.5": _entry(
        "Revival data: conjugate profile pinned at t=4 with T*=5.5 past the focusing span",
        "nm", _UNIT_MAP,
        {"kind": "backward_construction", "layer_index": 2, "blowup_time": 5.5, "omega": 1.0},
        1, 24 * _PI, 2048, 5e-4, 6.0, 20, 8.0,
        expected={"status": "completed"},
    ),
    "nm-revival-n4-T9.5": _entry(
        "Revival data: conjugate profile pinned at t=8 with T*=9.5 past the focusing span",
        "nm", _UNIT_MAP,
        {"kind": "backward_construction", "layer_index": 4, "blowup_time": 9.5, "omega": 1.0},
        1, 32 * _PI, 2048, 5e-4, 10.0, 20, 10.0,
        expected={"status": "completed"},
    ),
    "foc-cQ-1.03": _entry(
        "Plain focusing flow from 1.03*Q: slightly supercritical mass, early collapse",
        "dm", _FOCUSING_MAP,
        {"kind": "scaled_ground_state", "scale": 1.03, "omega": 1.0},
        1, 12 * _PI, 1024, 2.5e-4, 10.0, 20, 3.0,
        expected={"status": "blowup", "t_detect_window": [1.2, 1.6]},
    ),
    "foc-cQ-1.01": _entry(
        "Plain focusing flow from 1.01*Q: barely supercritical mass, later collapse",
        "dm", _FOCUSING_MAP,
        {"kind": "scaled_ground_state", "scale": 1.01, "omega": 1.0},
        1, 12 * _PI, 1024, 2.5e-4, 10.0, 20, 3.0,
        expected={"status": "blowup", "t_detect_window": [2.3, 3.1]},
    ),
    "dm-cQ-1.03": _entry(
        "Managed Laplacian stabilizes the 1.03*Q data through t=10",
        "dm", _UNIT_MAP,
        {"kind": "scaled_ground_state", "scale": 1.03, "omega": 1.0},
        1, 12 * _PI, 1024, 2.5e-4, 10.0, 20, 5.0,
        expected={"status": "completed"},
    ),
    "dm-cQ-1.01": _entry(
        "Managed Laplacian stabilizes the 1.01*Q data through t=10",
        "dm", _UNIT_MAP,
        {"kind": "scaled_ground_state", "scale": 1.01, "omega": 1.0},
        1, 12 * _PI, 1024, 2.5e-4, 10.0, 20, 5.0,
        expected={"status": "completed"},
    ),
    "nm-cQ-1.03": _entry(
        "Managed nonlinearity stabilizes the 1.03*Q data through t=10",
        "nm", _UNIT_MAP,
        {"kind": "scaled_ground_state", "scale": 1.03, "omega": 1.0},
        1, 12 * _PI, 1024, 2.5e-4, 10.0, 20, 3.0,
        expected={"status": "completed"},
    ),
    "nm-cQ-1.01": _entry(
        "Managed nonlinearity stabilizes the 1.01*Q data through t=10",
        "nm", _UNIT_MAP,
        {"kind": "scaled_ground_state", "scale": 1.01, "omega": 1.0},
        1, 12 * _PI, 1024, 2.5e-4, 10.0, 20, 3.0,
        expected={"status": "completed"},
    ),
    "foc-first-layer-T0.5": _entry(
        "Plain focusing flow from the T=0.5 profile: collapse inside the first layer",
        "dm", _FOCUSING_MAP,
        {"kind": "pseudo_conformal", "blowup_time": 0.5, "omega": 1.0, "conjugate": False},
        1, 3 * _PI, 1024, 2e-4, 0.5, 10, 2.3,
        expected={"status": "blowup", "t_detect_window": [0.40, 0.50]},
    ),
    "2d-fast-focusing": _entry(
        "2D focusing collapse of the radial sech bump",
        "dm", _FOCUSING_MAP,
        {"kind": "sech2d", "amplitude": 5.0, "width": 0.86},
        2, 6 * _PI, 256, 2.5e-5, 0.5, 100, 6.0,
        expected={"status": "blowup", "t_detect_window": [0.11, 0.17]},
    ),
    "2d-fast-dm": _entry(
        "2D radial bump under fast Laplacian management (period 1e-3)",
        "dm", _FAST_MAP,
        {"kind": "sech2d", "amplitude": 5.0, "width": 0.86},
        2, 6 * _PI, 256, 2.5e-5, 0.5, 100, 3.0,
        expected={"status": "completed", "linf_factor_max": 3.0},
    ),
    "2d-fast-nm": _entry(
        "2D radial bump under fast nonlinearity management (period 1e-3)",
        "nm", _FAST_MAP,
        {"kind": "sech2d", "amplitude": 5.0, "width": 0.86},
        2, 6 * _PI, 256, 2.5e-5, 0.5, 100, 3.0,
        expected={"status": "completed"},
    ),
}


def catalog_ids() -> list[str]:
    return sorted(CATALOG)


def catalog_entry(name: str) -> dict:
    """Deep copy of a catalog configuration, tagged with its name."""
    if name not in CATALOG:
        raise ConfigError(f"unknown experiment {name!r}; see `mnls list`")
    out = copy.deepcopy(CATALOG[name])
    out["experiment"] = name
    return out
