"""Shell norms and scaling-law verification checks.

Every scaling claim is tested the same way: compute a norm per obstacle
scale, fit a line through (log eps, log norm), and compare the slope and
the maximum log-residual against the expected window.  H^(1/2) boundary
norms are replaced by computable L2 surrogates with correspondingly
adjusted exponents (mean part O(eps), fluctuation O(eps^2)); the
substitution is noted at each check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .asymptotic import apply_S_app, density_app
from .bem import _equilibrium_density, assemble_single_layer, boundary_projections, \
    capacitance, dilate, evaluate_potential, exterior_field, solve_density_with_diagnostics
from .geometry import ShellRegion, StarShape, build_surface_grid, shell_quadrature
from .incident import ShellPulse, incident_trace

# Fixed inputs of the proposition checks: the projection check's pulse
# centre, the dilation check's grid resolution and (scale-eps) observation
# points, and the radial and angular orders of the kernel-difference
# check's shell rule
PROJECTION_DATA_CENTER = (0.5, 0.0, 0.0)
DILATION_RESOLUTION = (16, 32)
DILATION_POINTS = np.array([[2.0, 0.3, -0.4], [0.5, 2.2, 0.9], [-1.5, 1.0, 1.2]])
KERNEL_SHELL_ORDERS = (6, 4)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log x, log y) with its worst residual."""

    ordinates: tuple
    slope: float
    intercept: float
    max_residual: float

    def within(self, target: float, slope_tol: float, residual_tol: float = np.inf) -> bool:
        return (abs(self.slope - target) <= slope_tol
                and self.max_residual <= residual_tol)


def fit_power_law(points) -> ScalingFit:
    """Fit y ~ C x^p on positive data; returns slope p and log residuals."""
    points = list(points)
    if len(points) < 2:
        raise ValueError("power-law fit needs at least two points")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return ScalingFit(ordinates=tuple(y), slope=float(slope), intercept=float(intercept),
                      max_residual=float(np.max(np.abs(resid))))


# ---------------------------------------------------------------------------
# Shell norm
# ---------------------------------------------------------------------------
def shell_l2_norm_of_values(values: np.ndarray, weights: np.ndarray):
    """L2 norm over a shell rule of samples at its points.

    values is (P,) or a (T, P) history; returns a scalar or (T,) norms.
    """
    return np.sqrt(np.abs(values) ** 2 @ weights)


# ---------------------------------------------------------------------------
# Proposition checks
# ---------------------------------------------------------------------------
def check_projection_scaling(shape: StarShape, pulse: ShellPulse, s: complex,
                             eps_list, n_theta: int = 20, n_phi: int = 40):
    """Mean / fluctuation split of the incident trace across scales.

    Returns (mean fit, fluctuation fit): the weighted-mean part of the
    trace carries an O(eps) L2(Gamma) norm (slope 1); the fluctuation's L2
    norm scales as eps^2 (L2 surrogate of the H^(1/2) bound, which lowers
    the paper exponent 3/2 to 2).

    The pulse is recentered at PROJECTION_DATA_CENTER: the
    generic-position exponents require a nonzero field gradient at the
    contraction point, and a radial field centered exactly there has none
    (the fluctuation would gain an extra power of eps).
    """
    probe = replace(pulse, center=PROJECTION_DATA_CENTER)
    mean_pts, fluct_pts = [], []
    for eps in eps_list:
        grid = build_surface_grid(shape, eps, n_theta, n_phi)
        trace = incident_trace(probe, s, grid)
        mean, fluct = boundary_projections(grid, trace)
        area = np.sum(grid.weights)
        mean_pts.append((eps, abs(mean) * np.sqrt(area)))
        fluct_pts.append((eps, np.sqrt(np.sum(grid.weights * np.abs(fluct) ** 2))))
    return fit_power_law(mean_pts), fit_power_law(fluct_pts)


def check_density_expansion(shape: StarShape, pulse: ShellPulse, s: complex,
                            eps_list, n_theta: int = 20, n_phi: int = 40) -> ScalingFit:
    """Relative L2(Gamma) error of the equilibrium-density approximation
    of the solved BIE density; expected slope 1 in eps.  One unit-scale
    static core serves every scale, scaled by `bem.dilate`."""
    unit = build_surface_grid(shape, 1.0, n_theta, n_phi)
    sigma1 = _equilibrium_density(unit)
    pts = []
    for eps in eps_list:
        grid = dilate(unit, eps)
        trace = incident_trace(pulse, s, grid)
        lam, _ = solve_density_with_diagnostics(assemble_single_layer(grid, s), -trace)
        lam_app = density_app(grid, pulse, s, sigma1)
        num = np.sqrt(np.sum(grid.weights * np.abs(lam - lam_app) ** 2))
        den = np.sqrt(np.sum(grid.weights * np.abs(lam) ** 2))
        pts.append((eps, num / den))
    return fit_power_law(pts)


def check_dilation_identity(shape: StarShape, eps_list, s_list) -> float:
    """Max relative mismatch between the two dilation solution paths over
    every (eps, s): solve at (eps, s) vs solve at (1, eps*s) with mapped
    data and points.  Each grid, built once, builds its own static core.

    The boundary data are exp(-0.3 x) (1 + 0.5 y) + 0.2 z, passed as
    complex values, so at real s the real matrix is solved with two
    right-hand sides.
    """
    def data(pts):
        return (np.exp(-0.3 * pts[:, 0]) * (1.0 + 0.5 * pts[:, 1])
                + 0.2 * pts[:, 2]).astype(complex)

    grid_one = build_surface_grid(shape, 1.0, *DILATION_RESOLUTION)
    worst = 0.0
    for eps in eps_list:
        grid_eps = build_surface_grid(shape, eps, *DILATION_RESOLUTION)
        for s in s_list:
            va, _ = exterior_field(grid_eps, s, data(grid_eps.nodes), DILATION_POINTS)
            vb, _ = exterior_field(grid_one, eps * s, data(eps * grid_one.nodes),
                                   DILATION_POINTS / eps)
            worst = max(worst, float(np.max(np.abs(va - vb)) / np.max(np.abs(va))))
    return worst


def check_kernel_difference(shape: StarShape, eps_list, s: complex,
                            region: ShellRegion | None = None,
                            n_theta: int = 20, n_phi: int = 40) -> ScalingFit:
    """||(S - S_app) sigma_eps|| over the far-field shell per eps; the
    point-monopole replacement of the single layer loses O(eps^2)."""
    if region is None:
        region = ShellRegion(2.0, 3.0)
    cap = capacitance(shape, n_theta, n_phi)
    pts, w = shell_quadrature(region, *KERNEL_SHELL_ORDERS)
    out = []
    for eps in eps_list:
        grid = build_surface_grid(shape, eps, n_theta, n_phi)
        sigma_eps = cap.sigma1 / eps
        exact = evaluate_potential(grid, sigma_eps, s, pts)
        approx = apply_S_app(grid, sigma_eps, s, pts)
        out.append((eps, shell_l2_norm_of_values(exact - approx, w)))
    return fit_power_law(out)
