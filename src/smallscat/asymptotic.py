"""Point-scatterer model and its Laplace-domain counterpart.

The obstacle is replaced by the monopole

    u_app(t, x) = -c_eps * u_inc(t - |x|, 0) / (4 pi |x|),

where c_eps = eps * c1 is the capacitance of the scaled surface.  The
companion frequency-domain objects are the approximate single-layer
potential (point evaluation times total charge) and the approximate
boundary density -sigma_eps * u_hat_inc(s, 0), with the equilibrium
density scaled as sigma_eps(x) = sigma1(x / eps) / eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceGrid
from .incident import ShellPulse, incident_laplace, incident_time


class SingularEvaluationError(ValueError):
    """Model evaluated at the scatterer location x = 0."""


@dataclass(frozen=True)
class PointScattererModel:
    """Monopole replacement of the obstacle: capacitance plus pulse."""

    c_eps: float
    pulse: ShellPulse

    def __post_init__(self):
        if self.c_eps <= 0:
            raise ValueError("capacitance must be positive")


def _norms(x):
    """|x| per point; returns (norms, was_single_vector).  Every model here
    is singular at the scatterer location, so x = 0 is rejected."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    rho = np.linalg.norm(x, axis=-1)
    if np.any(rho == 0.0):
        raise SingularEvaluationError("point-scatterer model is singular at x = 0")
    return rho, single


def point_scatterer_time(model: PointScattererModel, t, x):
    """u_app(t, x); t scalar or array, x a 3-vector or (n, 3) points."""
    rho, single = _norms(x)
    t = np.asarray(t, dtype=float)
    tau = t - rho
    vals = incident_time(model.pulse, np.maximum(tau, 0.0), model.pulse.origin_distance)
    vals = np.where(tau > 0.0, vals, 0.0)
    out = -model.c_eps * vals / (4.0 * np.pi * rho)
    return float(out[0]) if single and t.ndim == 0 else out


def point_scatterer_frequency(model: PointScattererModel, s: complex, x):
    """u_hat_app(s, x) = -c_eps exp(-s|x|) u_hat_inc(s, 0) / (4 pi |x|)."""
    rho, single = _norms(x)
    s = complex(s)
    u0 = incident_laplace(model.pulse, s, model.pulse.origin_distance)
    out = -model.c_eps * np.exp(-s * rho) * u0 / (4.0 * np.pi * rho)
    return complex(out[0]) if single else out


def apply_S_app(grid: SurfaceGrid, density: np.ndarray, s: complex, x):
    """Approximate single-layer potential: point monopole carrying the
    total charge of the density."""
    rho, single = _norms(x)
    s = complex(s)
    total = np.sum(grid.weights * np.asarray(density))
    out = np.exp(-s * rho) / (4.0 * np.pi * rho) * total
    return complex(out[0]) if single else out


def density_app(grid: SurfaceGrid, pulse: ShellPulse, s: complex,
                sigma1: np.ndarray) -> np.ndarray:
    """Approximate boundary density -sigma_eps * u_hat_inc(s, 0) on the grid.

    sigma1 is the unit-scale equilibrium density sampled on a grid of the
    same resolution; the scaled density is sigma1 / eps at the scaled nodes.
    """
    sigma1 = np.asarray(sigma1)
    if sigma1.shape != (grid.n_nodes,):
        raise ValueError("sigma1 resolution does not match the grid")
    u0 = incident_laplace(pulse, complex(s), pulse.origin_distance)
    return -(sigma1 / grid.epsilon) * u0
