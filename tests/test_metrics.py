import math

import numpy as np
import pytest

from smallscat.geometry import ShellRegion, StarShape, build_surface_grid, gauss_legendre, \
    shell_quadrature
from smallscat.incident import incident_time
from smallscat.metrics import (
    check_density_expansion, check_dilation_identity, check_kernel_difference,
    check_projection_scaling, fit_power_law, shell_l2_norm_of_values,
)

EPS_SWEEP = (0.02, 0.04, 0.08, 0.16)
REGION = ShellRegion(2.0, 3.0)


# -- fits ----------------------------------------------------------------------
def test_fit_exact_power_law():
    fit = fit_power_law([(e, 3.0 * e ** 2) for e in EPS_SWEEP])
    assert abs(fit.slope - 2.0) < 1e-12
    assert fit.max_residual < 1e-12


def test_fit_perturbed_power_law():
    # direct-evaluation oracle: the same least-squares fit on exact data
    pts = [(e, e * (1 + 0.1 * e)) for e in EPS_SWEEP]
    fit = fit_power_law(pts)
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope_ref = np.polyfit(lx, ly, 1)[0]
    assert fit.slope == pytest.approx(slope_ref, rel=1e-12)
    assert 1.0 <= fit.slope <= 1.02


def test_fit_preconditions():
    with pytest.raises(ValueError):
        fit_power_law([(0.1, 1.0)])
    with pytest.raises(ValueError):
        fit_power_law([(0.1, 1.0), (0.2, -1.0)])
    with pytest.raises(ValueError):
        fit_power_law([(0.0, 1.0), (0.2, 1.0)])


# -- shell norms ---------------------------------------------------------------
def shell_norm(field, region=REGION, n_r=8, n_ang=6):
    pts, w = shell_quadrature(region, n_r, n_ang)
    return shell_l2_norm_of_values(field(pts), w)


def test_shell_norm_constant():
    val = shell_norm(lambda pts: np.full(len(pts), 2.5))
    assert val == pytest.approx(2.5 * math.sqrt(REGION.volume), rel=1e-12)


def test_shell_norm_inverse_radius():
    val = shell_norm(lambda pts: 1.0 / np.linalg.norm(pts, axis=1))
    assert val == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-12)


def test_shell_norm_monopole_vs_radial_quadrature():
    # independent 1D radial oracle for ||e^{-r}/r||
    field = lambda pts: np.exp(-np.linalg.norm(pts, axis=1)) / np.linalg.norm(pts, axis=1)
    val = shell_norm(field, n_r=24)
    x, w = gauss_legendre(64)
    r = 2.5 + 0.5 * x
    ref = math.sqrt(np.sum(0.5 * w * np.exp(-2 * r) * 4 * math.pi))
    assert abs(val - ref) < 1e-10


def test_shell_norm_homogeneous():
    field = lambda pts: np.linalg.norm(pts, axis=1) - 2.2
    assert shell_norm(lambda p: 7.0 * field(p)) == pytest.approx(
        7.0 * shell_norm(field), rel=1e-14)


def test_shell_norm_degenerate_region():
    assert shell_norm(lambda pts: np.ones(len(pts)), ShellRegion(2.0, 2.0)) == 0.0


def test_shell_norm_of_history_is_rowwise():
    pts, w = shell_quadrature(REGION, 8, 6)
    history = np.stack([np.full(len(pts), 2.0), 1.0 / np.linalg.norm(pts, axis=1)])
    norms = shell_l2_norm_of_values(history, w)
    assert norms.shape == (2,)
    for row, norm in zip(history, norms):
        assert norm == pytest.approx(shell_l2_norm_of_values(row, w), rel=1e-14)


def test_incident_energy_after_passage(pulse):
    # strong Huygens: the incident field has left the shell for t > R0 + R_ff,
    # so u, u_t and u_r all vanish identically on the shell rule
    t = pulse.R0 + REGION.outer + 0.2
    pts, w = shell_quadrature(REGION, 8, 6)
    r = np.linalg.norm(pts, axis=1)
    h = 1e-5
    u_t = (incident_time(pulse, t + h, r) - incident_time(pulse, t - h, r)) / (2 * h)
    u_r = (incident_time(pulse, t, r + h) - incident_time(pulse, t, r - h)) / (2 * h)
    energy = 0.5 * (shell_l2_norm_of_values(u_r, w) ** 2 + shell_l2_norm_of_values(u_t, w) ** 2)
    assert energy == 0.0


# -- proposition checks -----------------------------------------------------------
def test_projection_scaling_windows(pulse, bumpy):
    mean_fit, fluct_fit = check_projection_scaling(bumpy, pulse, 1j, EPS_SWEEP)
    assert abs(mean_fit.slope - 1.0) <= 0.15
    assert abs(fluct_fit.slope - 2.0) <= 0.2


def test_projection_radial_degenerate_case(pulse, sphere):
    # centered sphere + origin-centered radial data: the trace is constant,
    # the fluctuation sits at solver-noise level
    from smallscat.bem import boundary_projections
    from smallscat.incident import incident_trace
    grid = build_surface_grid(sphere, 0.1, 12, 24)
    tr = incident_trace(pulse, 1j, grid)
    mean, fluct = boundary_projections(grid, tr)
    assert np.max(np.abs(fluct)) < 1e-13 * abs(mean)


def test_density_expansion_slope(pulse, bumpy):
    fit = check_density_expansion(bumpy, pulse, 1j, EPS_SWEEP, n_theta=16, n_phi=32)
    assert abs(fit.slope - 1.0) <= 0.2


def test_density_expansion_sphere_static_exact(pulse, sphere):
    # sphere at s = 0: lambda and lambda_app coincide up to solver noise
    fit = check_density_expansion(sphere, pulse, 0.0, (0.05, 0.1), n_theta=12, n_phi=24)
    assert max(fit.ordinates) < 1e-6


def test_dilation_identity_windows(sphere, bumpy):
    for shape in (sphere, bumpy):
        for eps in (0.1, 0.25):
            for s in (1.0, 2j):
                assert check_dilation_identity(shape, eps, s) < 1e-10


def test_dilation_identity_trivial_at_unit_scale(sphere):
    assert check_dilation_identity(sphere, 1.0, 1.5) == 0.0


def test_kernel_difference_slope():
    fit = check_kernel_difference(StarShape.offset_bumpy_sphere(), EPS_SWEEP, 1j,
                                  n_theta=16, n_phi=32)
    assert abs(fit.slope - 2.0) <= 0.2
    assert fit.max_residual < 0.05


def test_kernel_difference_offset_sphere_closed_form():
    # static offset sphere: both potentials are exact monopoles with
    # different centers
    from smallscat.asymptotic import apply_S_app
    from smallscat.bem import capacitance, evaluate_potential
    shape = StarShape.sphere(radius=0.6, center=(0.3, 0.0, 0.0))
    cap = capacitance(shape, 16, 32)
    eps, radius = 0.1, 0.6
    grid = build_surface_grid(shape, eps, 16, 32)
    sigma_eps = cap.sigma1 / eps
    pts = np.array([[2.0, 0.5, 0.3], [0.0, 2.5, 0.0]])
    exact = evaluate_potential(grid, sigma_eps, 0.0, pts)
    approx = apply_S_app(grid, sigma_eps, 0.0, pts)
    center = eps * np.array([0.3, 0.0, 0.0])
    ref_exact = eps * radius / np.linalg.norm(pts - center, axis=1)
    ref_approx = eps * radius / np.linalg.norm(pts, axis=1)
    assert np.max(np.abs((exact - approx) - (ref_exact - ref_approx))) < 1e-10
