import dataclasses
import math

import numpy as np
import pytest

from conftest import piecewise_laplace
from smallscat.asymptotic import (
    PointScattererModel, SingularEvaluationError, apply_S_app, density_app,
    point_scatterer_frequency, point_scatterer_time,
)
from smallscat.bem import capacitance, solve_density_with_diagnostics, assemble_single_layer
from smallscat.geometry import StarShape, build_surface_grid
from smallscat.incident import incident_laplace
from smallscat.sphere_oracle import SphereScenario, sphere_scattered_frequency

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def sphere_cap(sphere):
    return capacitance(sphere, 16, 32)


@pytest.fixture(scope="module")
def model(pulse, sphere_cap):
    return PointScattererModel(c_eps=0.1 * sphere_cap.c1, pulse=pulse)


def test_support_window(model, pulse):
    x = np.array([2.5, 0.0, 0.0])
    assert point_scatterer_time(model, 2.0, x) == 0.0          # t < |x| + r0
    assert point_scatterer_time(model, 4.49, x) == 0.0
    assert point_scatterer_time(model, 5.51, x) == 0.0         # t > |x| + R0
    assert point_scatterer_time(model, 5.0, x) != 0.0


def test_sphere_model_closed_form(model, pulse):
    # c1 = 4 pi for the unit sphere, so u_app = -(eps/|x|) t' psi(t')
    x = np.array([2.5, 0.0, 0.0])
    t = 5.0
    tp = t - 2.5
    expected = -(0.1 / 2.5) * tp * pulse.psi(tp)
    assert point_scatterer_time(model, t, x) == pytest.approx(expected, rel=1e-6)


def test_model_transform_consistency(model, pulse):
    x = np.array([2.5, 0.0, 0.0])
    rho = 2.5
    bps = [rho + pulse.r0, rho + 0.5 * (pulse.r0 + pulse.R0), rho + pulse.R0]
    for s in (1.0, 1 + 1j, 2j):
        num = piecewise_laplace(lambda t: point_scatterer_time(model, t, x), s, bps)
        assert abs(num - point_scatterer_frequency(model, s, x)) < 1e-8


def test_model_conjugate_symmetry(model):
    x = np.array([2.2, 0.4, -0.3])
    v1 = point_scatterer_frequency(model, 2.7j, x)
    v2 = point_scatterer_frequency(model, -2.7j, x)
    assert np.conj(v1) == pytest.approx(v2, abs=1e-16)


def test_model_linearity_in_amplitude(pulse, sphere_cap):
    x = np.array([2.5, 0.0, 0.0])
    m1 = PointScattererModel(c_eps=0.1 * sphere_cap.c1, pulse=pulse)
    doubled = dataclasses.replace(pulse, amplitude=2.0 * pulse.amplitude)
    m2 = PointScattererModel(c_eps=0.1 * sphere_cap.c1, pulse=doubled)
    assert point_scatterer_time(m2, 5.0, x) == pytest.approx(
        2.0 * point_scatterer_time(m1, 5.0, x), rel=1e-14)


def test_ratio_to_oracle_approaches_one(pulse, sphere_cap):
    s, r = 1j, 2.5
    devs = []
    for eps in (0.04, 0.08):
        model = PointScattererModel(c_eps=eps * sphere_cap.c1, pulse=pulse)
        oracle = sphere_scattered_frequency(SphereScenario(eps, pulse), s, r)
        ratio = point_scatterer_frequency(model, s, np.array([r, 0, 0])) / oracle
        devs.append(abs(ratio - 1.0))
        assert abs(ratio - 1.0) < 4.0 * eps
    assert devs[0] < 0.7 * devs[1]      # deviation shrinks roughly linearly


def test_singularity_guard(model):
    with pytest.raises(SingularEvaluationError):
        point_scatterer_time(model, 1.0, np.zeros(3))
    with pytest.raises(SingularEvaluationError):
        point_scatterer_frequency(model, 1.0, np.zeros(3))


# -- approximate single layer -------------------------------------------------
def test_apply_S_app_charge_identity(pulse, sphere_cap):
    # acting on the equilibrium density the approximation is exactly the
    # capacitance monopole
    eps = 0.1
    grid = build_surface_grid(StarShape.sphere(), eps, 16, 32)
    sigma_eps = sphere_cap.sigma1 / eps
    c_eps = float(np.sum(grid.weights * sigma_eps))
    x = np.array([[2.0, 0.0, 1.0]])
    rho = np.linalg.norm(x[0])
    for s in (0.0, 1j, 2.0):
        val = apply_S_app(grid, sigma_eps, s, x)[0]
        expected = c_eps * np.exp(-s * rho) / (4 * math.pi * rho)
        assert val == pytest.approx(expected, rel=1e-13)
    assert c_eps == pytest.approx(eps * sphere_cap.c1, rel=1e-9)


def test_apply_S_app_zero_density(sphere):
    grid = build_surface_grid(sphere, 0.1, 8, 16)
    assert apply_S_app(grid, np.zeros(grid.n_nodes), 1j, np.array([[2, 0, 0.0]]))[0] == 0.0


def test_density_app_sphere_formula(pulse, sphere_cap):
    eps = 0.1
    grid = build_surface_grid(StarShape.sphere(), eps, 16, 32)
    lam = density_app(grid, pulse, 1j, sphere_cap.sigma1)
    expected = -incident_laplace(pulse, 1j, 0.0) / eps
    assert np.max(np.abs(lam - expected)) < 1e-6 / eps


def test_sigma_eps_norm_scale_invariant(bumpy):
    cap = capacitance(bumpy, 12, 24)
    norms = []
    for eps in (0.05, 0.1, 0.2):
        grid = build_surface_grid(bumpy, eps, 12, 24)
        sigma_eps = cap.sigma1 / eps
        norms.append(math.sqrt(np.sum(grid.weights * sigma_eps ** 2)))
    assert np.ptp(norms) < 1e-12 * norms[0]


def test_relative_density_error_amplitude_invariant(pulse, bumpy):
    # linearity: the relative lambda error does not depend on the amplitude
    cap = capacitance(bumpy, 12, 24)
    grid = build_surface_grid(bumpy, 0.1, 12, 24)
    from smallscat.incident import incident_trace

    def rel_err(p):
        lam, _ = solve_density_with_diagnostics(assemble_single_layer(grid, 1j),
                                                -incident_trace(p, 1j, grid))
        lam_app = density_app(grid, p, 1j, cap.sigma1)
        return (math.sqrt(np.sum(grid.weights * np.abs(lam - lam_app) ** 2))
                / math.sqrt(np.sum(grid.weights * np.abs(lam) ** 2)))

    doubled = dataclasses.replace(pulse, amplitude=2.0 * pulse.amplitude)
    assert rel_err(pulse) == pytest.approx(rel_err(doubled), rel=1e-10)


def test_capacitance_ratio_scale_free(bumpy):
    # c_eps / eps computed through the direct eps-scale assembly matches c1
    cap = capacitance(bumpy, 12, 24)
    for eps in (0.1, 0.37):
        grid = build_surface_grid(bumpy, eps, 12, 24)
        sigma, _ = solve_density_with_diagnostics(assemble_single_layer(grid, 0.0),
                                                  np.ones(grid.n_nodes))
        c_eps = float(np.sum(grid.weights * sigma))
        assert abs(c_eps / eps - cap.c1) / cap.c1 < 1e-10


def test_model_requires_positive_capacitance(pulse):
    with pytest.raises(ValueError):
        PointScattererModel(c_eps=-1.0, pulse=pulse)
