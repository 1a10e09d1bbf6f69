import math

import numpy as np
import pytest

from conftest import numerical_incident_laplace
from smallscat.geometry import StarShape, build_surface_grid, gauss_legendre
from smallscat.incident import (
    PulseConfigurationError, ShellPulse, incident_laplace, incident_time, incident_trace,
)


def test_profile_normalization_and_support(pulse):
    rho = np.linspace(1.0, 4.0, 4001)
    vals = pulse.psi(rho)
    assert np.max(vals) == pytest.approx(1.0, abs=1e-12)
    assert np.all(vals[(rho < pulse.r0) | (rho > pulse.R0)] == 0.0)


def test_profile_regularity_at_endpoints(pulse):
    # first k_reg derivatives vanish at both shell radii
    for j in range(1, pulse.k_reg + 1):
        assert pulse.psi_derivative(pulse.r0, j) == pytest.approx(0.0, abs=1e-30)
        assert pulse.psi_derivative(pulse.R0, j) == pytest.approx(0.0, abs=1e-30)
    # finite-difference cross-check of C^k behaviour across the edge
    # (threshold dominated by roundoff amplification eps / h^2)
    h = 1e-3
    fd = (pulse.psi(pulse.r0 + h) - 2 * pulse.psi(pulse.r0) + pulse.psi(pulse.r0 - h)) / h ** 2
    assert abs(fd) < 1e-8


def test_pulse_validation():
    with pytest.raises(PulseConfigurationError):
        ShellPulse(r0=3.0, R0=2.0)
    with pytest.raises(PulseConfigurationError):
        ShellPulse(r0=0.5, R0=3.0)
    with pytest.raises(PulseConfigurationError):
        ShellPulse(k_reg=-1)


# -- time domain -------------------------------------------------------------
def test_initial_condition_zero(pulse):
    for r in (0.0, 0.5, 2.5, 7.0):
        assert incident_time(pulse, 0.0, r) == 0.0


def test_kirchhoff_origin_limit(pulse):
    # oracle: spherical mean of v0 over |y| = t, by product quadrature
    t = 0.5 * (pulse.r0 + pulse.R0)
    u, w = gauss_legendre(24)
    theta = np.arccos(u)
    phi = 2 * math.pi * np.arange(48) / 48
    pts_r = t * np.ones((24 * 48,))
    mean = np.sum(np.repeat(w, 48) * (2 * math.pi / 48) * pulse.psi(pts_r)) / (4 * math.pi)
    assert incident_time(pulse, t, 0.0) == pytest.approx(t * mean, rel=1e-12)
    # small-radius continuity with the origin branch
    assert incident_time(pulse, t, 1e-8) == pytest.approx(incident_time(pulse, t, 0.0), rel=1e-8)


def test_huygens_support_exact(pulse):
    # behind the trailing front: exact zeros by polynomial saturation
    assert incident_time(pulse, 5.6, 2.5) == 0.0
    assert incident_time(pulse, 10.0, 3.0) == 0.0
    # causality before arrival at interior points
    assert incident_time(pulse, 0.9, 1.0) == 0.0
    assert incident_time(pulse, 0.3, 0.0) == 0.0


def test_wave_equation_residual(pulse):
    # second-order centered differences on u and on (r u)
    def resid(t, r, h):
        utt = (incident_time(pulse, t + h, r) - 2 * incident_time(pulse, t, r)
               + incident_time(pulse, t - h, r)) / h ** 2
        w = lambda rr: rr * incident_time(pulse, t, rr)
        wrr = (w(r + h) - 2 * w(r) + w(r - h)) / h ** 2
        return utt - wrr / r

    for (t, r) in ((0.7, 2.4), (1.5, 1.2), (2.0, 3.2)):
        r2 = resid(t, r, 2e-3)
        r1 = resid(t, r, 1e-3)
        assert abs(r1) < 1e-4
        assert abs(r1) <= abs(r2) * 0.5 + 1e-9    # ~O(h^2) scheme order


# -- Laplace domain ----------------------------------------------------------
def test_laplace_matches_time_transform_origin(pulse):
    lhs = incident_laplace(pulse, 1.0, 0.0)
    rhs = numerical_incident_laplace(pulse, 1.0, 0.0)
    assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 0.5 + 1j, 1 + 2j, 3j + 0.5])
@pytest.mark.parametrize("r", [0.0, 0.02, 1.5, 2.5, 3.5])
def test_transform_consistency_grid(pulse, s, r):
    lhs = incident_laplace(pulse, s, r)
    rhs = numerical_incident_laplace(pulse, s, r)
    assert abs(lhs - rhs) < 1e-8


def test_laplace_static_limit_is_newtonian(pulse):
    rho = np.linspace(pulse.r0, pulse.R0, 20001)
    newton = np.trapezoid(rho * pulse.psi(rho), rho)
    assert incident_laplace(pulse, 0.0, 0.0) == pytest.approx(newton, abs=1e-8)


def test_laplace_constant_inside_hole(pulse):
    # the Newtonian potential of a radial shell is constant in its hole
    v0 = incident_laplace(pulse, 0.0, 0.0)
    for r in (0.3, 1.0, 1.9):
        assert incident_laplace(pulse, 0.0, r) == pytest.approx(v0, rel=1e-13)


def test_conjugate_symmetry(pulse):
    for (om, r) in ((3.7, 2.2), (11.0, 0.5)):
        assert np.conj(incident_laplace(pulse, 1j * om, r)) == \
            pytest.approx(incident_laplace(pulse, -1j * om, r), abs=1e-15)


def test_small_s_branch_accuracy(pulse):
    # near s = 0 the closed form must agree with the independent
    # time-domain transform at the same s
    r = 1.5
    s = 0.99e-3 / (pulse.R0 + r)
    assert abs(incident_laplace(pulse, s, r) - numerical_incident_laplace(pulse, s, r)) < 1e-10


def test_laplace_overflow_range(pulse):
    # past |Re s| (r + R0) = 700 sinh overflows: refuse instead of returning nan
    for s in (300.0, 250.0 + 1j, -130.0):
        with pytest.raises(ValueError):
            incident_laplace(pulse, s, 2.5)
    s = 100.0
    assert incident_laplace(pulse, s, 2.5) == pytest.approx(
        numerical_incident_laplace(pulse, s, 2.5).real, rel=1e-10)


# -- traces ------------------------------------------------------------------
def test_trace_constant_on_centered_sphere(pulse, sphere):
    grid = build_surface_grid(sphere, 0.1, 8, 16)
    tr = incident_trace(pulse, 1.0, grid)
    assert np.max(np.abs(tr - tr[0])) < 1e-14


def test_trace_matches_pointwise_laplace(pulse, bumpy):
    grid = build_surface_grid(bumpy, 0.2, 8, 16)
    tr = incident_trace(pulse, 1j, grid)
    radii = np.linalg.norm(grid.nodes, axis=1)
    for k in (0, 17, 63):
        assert tr[k] == pytest.approx(incident_laplace(pulse, 1j, radii[k]), abs=1e-14)
    assert np.std(np.abs(tr)) > 0          # values genuinely vary on a bumpy shape


def test_trace_rejects_obstacle_in_shell(pulse, sphere):
    # radius-1 obstacle inside the r0 = 2 hole is fine
    incident_trace(pulse, 1.0, build_surface_grid(sphere, 1.0, 8, 16))
    # an off-center pulse whose hole no longer contains the obstacle is not
    with pytest.raises(PulseConfigurationError):
        pulse_tight = ShellPulse(r0=1.05, R0=3.0, k_reg=2, center=(1.0, 0.0, 0.0))
        incident_trace(pulse_tight, 1.0, build_surface_grid(sphere, 0.3, 8, 16))


def test_trace_static_uniformity_as_scale_shrinks(pulse, bumpy):
    # s = 0: the trace is exactly the constant hole potential at every scale
    v0 = incident_laplace(pulse, 0.0, 0.0)
    for eps in (0.16, 0.04):
        grid = build_surface_grid(bumpy, eps, 8, 16)
        tr = incident_trace(pulse, 0.0, grid)
        assert np.max(np.abs(tr - v0)) < 1e-12
