"""Closed-form scattered field for a centered sphere with radial data.

Radial incident data excites only the monopole mode, so the scattered
field is the unique outgoing monopole matched to the sound-soft boundary
condition at r = eps:

    u_sc(t, r)   = -(eps / r) * u_inc(t - (r - eps), eps)
    u_hat_sc(s, r) = -(eps / r) * exp(-s (r - eps)) * u_hat_inc(s, eps)

These are exact and serve as the independent oracle for the BEM solver,
the frequency synthesis, and the asymptotic-model error claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .incident import ShellPulse, incident_laplace, incident_time


@dataclass(frozen=True)
class SphereScenario:
    """Centered sphere of radius eps inside an origin-centered radial pulse."""

    epsilon: float
    pulse: ShellPulse

    def __post_init__(self):
        if not (0.0 < self.epsilon < self.pulse.r0):
            raise ValueError(
                f"sphere radius {self.epsilon} must lie inside the source shell hole (r0={self.pulse.r0})")
        if self.pulse.origin_distance != 0.0:
            raise ValueError("the sphere oracle requires an origin-centered pulse")


def sphere_scattered_time(scn: SphereScenario, t, r):
    """Exact scattered field u_sc(t, |x| = r), r >= eps.

    The retarded time is clamped at zero: the outgoing monopole is causal
    (the boundary trace vanishes before the incident arrival anyway).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r < scn.epsilon):
        raise ValueError("observation radius inside the sphere")
    tau = t - (r - scn.epsilon)
    vals = incident_time(scn.pulse, np.maximum(tau, 0.0), scn.epsilon)
    return -(scn.epsilon / r) * np.where(tau > 0.0, vals, 0.0)


def sphere_scattered_frequency(scn: SphereScenario, s: complex, r):
    """Exact Laplace-domain scattered field u_hat_sc(s, |x| = r), r >= eps."""
    r = np.asarray(r, dtype=float)
    if np.any(r < scn.epsilon):
        raise ValueError("observation radius inside the sphere")
    s = complex(s)
    boundary = incident_laplace(scn.pulse, s, scn.epsilon)
    val = -(scn.epsilon / r) * np.exp(-s * (r - scn.epsilon)) * boundary
    if r.ndim == 0 and np.ndim(val):
        return val[()]
    return val
