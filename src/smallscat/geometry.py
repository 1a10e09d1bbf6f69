"""Star-shaped surfaces, their contractions, quadrature grids, and
observation shells.

A star-shaped surface is described by a radial function r(s_hat) > 0 over
the unit sphere, sampled on a Gauss-Legendre (in cos(theta)) x uniform
(in phi) product grid.  The scaled obstacle boundary is

    x(theta, phi) = eps * (center + r(theta, phi) * s_hat(theta, phi)),

with surface measure

    dGamma = eps^2 * r * sqrt(r^2 + r_theta^2 + (r_phi / sin(theta))^2)
             * sin(theta) dtheta dphi.

The grid at scale eps is, by construction, the unit-scale grid with nodes
multiplied by eps and weights by eps^2 (exact in floating point).

Each real harmonic is evaluated through Y_l^|m|(theta, phi) =
Y_l^|m|(theta, 0) exp(i |m| phi): the Legendre factor on theta's own array,
the azimuthal factor (cos |m| phi, sin |m| phi or 1) on phi's, and the two
broadcast.  A theta column and a phi row thus cost one Legendre evaluation
per theta, and a cloud of points that differ only by azimuthal turns costs
one per distinct theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import sph_harm_y


class ShapeInvalidError(ValueError):
    """Radial function violates a star-shape invariant."""


# ---------------------------------------------------------------------------
# Star-shaped surfaces
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StarShape:
    """Star-shaped surface: r(s_hat) = constant + sum of real harmonics.

    Attributes
    ----------
    center : np.ndarray, shape (3,)
        Star center (dimensionless).  The physical obstacle is the scaled
        set eps * (center + r * s_hat).
    constant : float
        Constant part of the radial function.
    harmonics : tuple of (l, m, coeff)
        Real spherical-harmonic terms added to the constant.  m may be
        negative (sine-type harmonics).
    """

    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    constant: float = 1.0
    harmonics: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (3,):
            raise ShapeInvalidError(f"center must be a 3-vector, got {self.center.shape}")
        for (l, m, _) in self.harmonics:
            if l < 0 or abs(m) > l:
                raise ShapeInvalidError(f"invalid harmonic index (l={l}, m={m})")
        # Dense sample check of positivity and the unit-ball bound.
        th = np.linspace(1e-3, math.pi - 1e-3, 61)
        ph = np.linspace(0.0, 2.0 * math.pi, 121, endpoint=False)
        r = self.radial(th[:, None], ph[None, :])
        if np.min(r) <= 0.0:
            raise ShapeInvalidError(f"radial function not strictly positive (min {np.min(r):.3e})")
        reach = float(np.linalg.norm(self.center)) + float(np.max(r))
        if reach > 1.0 + 1e-12:
            raise ShapeInvalidError(f"surface exceeds the unit ball (max |x| ~ {reach:.4f})")

    @property
    def is_sphere(self) -> bool:
        return len(self.harmonics) == 0

    def radial(self, theta, phi):
        """r(s_hat) at polar angle theta, azimuth phi (arrays broadcast)."""
        return self.radial_derivatives(theta, phi)[0]

    def radial_derivatives(self, theta, phi):
        """Return (r, dr/dtheta, dr/dphi) at the given angles.

        theta and phi broadcast against each other, and so do the results.
        Each harmonic's Legendre factor is evaluated on theta's shape only
        and its azimuthal factor on phi's, so a theta of shape (n,) with a
        phi of shape (k, n) costs n Legendre evaluations, not k * n.
        """
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        shape = np.broadcast(theta, phi).shape
        r = np.full(shape, self.constant, dtype=float)
        rt = np.zeros(shape)
        rp = np.zeros(shape)
        for (l, m, c) in self.harmonics:
            y, dy_t, dy_p = _real_sph_harm(l, m, theta, phi)
            r += c * y
            rt += c * dy_t
            rp += c * dy_p
        return r, rt, rp

    @staticmethod
    def sphere(radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> "StarShape":
        return StarShape(center=np.asarray(center, dtype=float), constant=radius)

    @staticmethod
    def bumpy_sphere() -> "StarShape":
        """Shipped non-spherical test shape, safely star-shaped (r in [0.74, 0.90])."""
        return StarShape(constant=0.8, harmonics=((2, 0, 0.10), (3, 2, 0.05)))

    @staticmethod
    def offset_bumpy_sphere() -> "StarShape":
        """Bumpy shape displaced off the contraction point: nonzero first
        moment of its equilibrium density (generic position for the
        point-approximation checks)."""
        return StarShape(center=np.array([0.25, 0.0, 0.0]), constant=0.6,
                         harmonics=((2, 0, 0.06), (3, 2, 0.03)))


def _real_sph_harm(l: int, m: int, theta, phi):
    """Real spherical harmonic and its theta- and phi-derivatives:
    m=0 -> Y_l0; m>0 -> sqrt(2)(-1)^m Re Y_l^m; m<0 -> sqrt(2)(-1)^m Im Y_l^|m|.

    Y_l^|m|(theta, 0) is real, so the harmonic is that Legendre factor
    times cos |m| phi (m > 0), sin |m| phi (m < 0) or 1 (m = 0).  The
    results broadcast theta against phi.
    """
    y, dy = sph_harm_y(l, abs(m), theta, 0.0, diff_n=1)
    p, dp = np.real(y), np.real(dy[..., 0])
    if m == 0:
        return p, dp, np.zeros(np.shape(phi))
    k = abs(m)
    s = math.sqrt(2.0) * (-1.0) ** k
    cos_k, sin_k = np.cos(k * phi), np.sin(k * phi)
    a, da = (cos_k, -k * sin_k) if m > 0 else (sin_k, k * cos_k)
    return s * p * a, s * dp * a, s * p * da


# ---------------------------------------------------------------------------
# Surface quadrature grids
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SurfaceGrid:
    """Quadrature nodes and weights on the scaled surface Gamma^eps.

    Nodes are ordered theta-major: index i = a * n_phi + b with theta
    ascending (a) and phi ascending (b).
    """

    shape: StarShape
    epsilon: float
    n_theta: int
    n_phi: int
    theta: np.ndarray        # (n_theta,) ascending polar angles
    phi: np.ndarray          # (n_phi,) uniform azimuths
    nodes: np.ndarray        # (N, 3) points on Gamma^eps
    weights: np.ndarray      # (N,) positive, sum ~ area(Gamma^eps)
    radial_values: np.ndarray     # (N,) r(s_hat) per node (unit scale)
    jacobian: np.ndarray          # (N,) dGamma/dS on the UNIT-scale surface

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))

    def mesh_width(self) -> float:
        """Characteristic panel size (used by near-field evaluation guards)."""
        return float(np.sqrt(np.max(self.weights)))


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    return _leggauss_cached(n)


@lru_cache(maxsize=64)
def _leggauss_cached(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def build_surface_grid(shape: StarShape, epsilon: float, n_theta: int, n_phi: int) -> SurfaceGrid:
    """Product quadrature grid on Gamma^eps.

    Gauss-Legendre in cos(theta) x uniform in phi; weights carry the full
    surface Jacobian of the star-shaped parameterization.  The eps-scale
    node set equals eps times the unit-scale node set exactly.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if n_theta < 4 or n_phi < 4:
        raise ValueError(f"resolution too coarse: n_theta={n_theta}, n_phi={n_phi} (need >= 4)")

    u, wu = gauss_legendre(n_theta)
    theta = np.arccos(u[::-1])            # ascending theta
    w_theta = wu[::-1].copy()
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi

    TH = np.repeat(theta, n_phi)
    PH = np.tile(phi, n_theta)
    r, rt, rp = (v.ravel() for v in shape.radial_derivatives(theta[:, None], phi[None, :]))
    if np.min(r) <= 0.0:
        raise ShapeInvalidError("non-positive radial sample on the quadrature grid")

    st = np.sin(TH)
    s_hat = np.stack([st * np.cos(PH), st * np.sin(PH), np.cos(TH)], axis=1)

    rp_over_st = rp / st
    metric = np.sqrt(r * r + rt * rt + rp_over_st * rp_over_st)
    jac = r * metric                       # dGamma/dS at unit scale

    unit_nodes = shape.center[None, :] + r[:, None] * s_hat

    w_unit = np.repeat(w_theta, n_phi) * w_phi * jac
    nodes = epsilon * unit_nodes
    weights = (epsilon * epsilon) * w_unit

    return SurfaceGrid(
        shape=shape, epsilon=float(epsilon), n_theta=n_theta, n_phi=n_phi,
        theta=theta, phi=phi, nodes=nodes, weights=weights,
        radial_values=r, jacobian=jac,
    )


# ---------------------------------------------------------------------------
# Observation shells and their volumetric quadrature
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShellRegion:
    """Spherical shell inner < |x| < outer used for far-field norms."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (self.outer >= self.inner > 1.0):
            raise ValueError(f"shell radii must satisfy outer >= inner > 1, got ({self.inner}, {self.outer})")

    @property
    def volume(self) -> float:
        return 4.0 * math.pi / 3.0 * (self.outer ** 3 - self.inner ** 3)


def shell_quadrature(region: ShellRegion, n_r: int, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """Volumetric rule on the shell: radial GL x (GL in cos(theta) x uniform phi).

    Returns (points (M,3), weights (M,)); weights sum to the shell volume.
    A degenerate shell (inner == outer) yields an empty rule.
    """
    if region.outer == region.inner:
        return np.zeros((0, 3)), np.zeros(0)
    xr, wr = gauss_legendre(n_r)
    rad = 0.5 * (region.outer + region.inner) + 0.5 * (region.outer - region.inner) * xr
    wrad = 0.5 * (region.outer - region.inner) * wr

    u, wu = gauss_legendre(n_ang)
    theta = np.arccos(u)
    n_phi = 2 * n_ang
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi

    st = np.sin(theta)
    dirs = np.stack([
        np.outer(st, np.cos(phi)).ravel(),
        np.outer(st, np.sin(phi)).ravel(),
        np.repeat(np.cos(theta), n_phi),
    ], axis=1)
    w_ang = np.repeat(wu, n_phi) * w_phi

    points = (rad[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = (wrad[:, None] * (rad[:, None] ** 2) * w_ang[None, :]).ravel()
    return points, weights
