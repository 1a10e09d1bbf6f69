import math

import numpy as np
import pytest
from scipy.special import sph_harm_y, spherical_in, spherical_kn

from smallscat.bem import (
    NearFieldEvaluationError, NearResonanceError, assemble_single_layer,
    boundary_projections, capacitance, evaluate_potential, exterior_dirichlet,
    get_static_core, scattered_frequency, solve_density, solve_density_with_diagnostics,
)
from smallscat.geometry import StarShape, build_surface_grid
from smallscat.incident import incident_trace
from smallscat.metrics import fit_power_law
from smallscat.sphere_oracle import SphereScenario, sphere_scattered_frequency

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def sphere_grid(sphere):
    return build_surface_grid(sphere, 1.0, 16, 32)


# -- assembly ----------------------------------------------------------------
def test_static_row_sums_mean_value_identity(sphere):
    # int_{S^2} dGamma_y / (4 pi |x-y|) = 1 on the unit sphere
    worst = []
    for res in ((12, 24), (20, 40)):
        grid = build_surface_grid(sphere, 1.0, *res)
        mat = assemble_single_layer(grid, 0.0)
        worst.append(np.max(np.abs(mat.matrix @ np.ones(grid.n_nodes) - 1.0)))
    assert worst[-1] < 1e-8
    assert worst[0] < 1e-7


def test_positive_s_shrinks_row_sums(sphere_grid):
    ones = np.ones(sphere_grid.n_nodes)
    rs0 = assemble_single_layer(sphere_grid, 0.0).matrix @ ones
    rsp = (assemble_single_layer(sphere_grid, 1.5).matrix @ ones).real
    assert np.all(rsp < rs0)


def test_matrix_conjugate_symmetry(sphere_grid):
    m_plus = assemble_single_layer(sphere_grid, 2j).matrix
    m_minus = assemble_single_layer(sphere_grid, -2j).matrix
    assert np.array_equal(np.conj(m_plus), m_minus)


def test_kernel_symmetry_up_to_correction(bumpy):
    # the blended far kernel is symmetric by construction; asymmetry of the
    # full matrix comes from the local redistribution and is bounded by its
    # quadrature tolerance, decaying with the angular separation
    grid = build_surface_grid(bumpy, 1.0, 16, 32)
    core = get_static_core(grid)
    K = core.matrix / grid.weights[None, :]
    theta_rows = np.repeat(np.arange(grid.n_theta), grid.n_phi)
    sep = np.abs(grid.theta[theta_rows][:, None] - grid.theta[theta_rows][None, :])
    asym = np.abs(K - K.T)
    # near the diagonal the correction redistributes weight within the
    # stencil (order-one in kernel units); away from it only quadrature
    # tolerance remains
    assert np.max(asym) < 0.25 * np.max(np.abs(K))
    assert np.max(asym[sep > 2.0]) < 1e-3
    assert np.max(asym[sep > 2.6]) < 1e-5


@pytest.mark.parametrize("l, m", [(1, 1), (2, -1), (3, 2), (4, 3)])
def test_sphere_harmonics_are_eigenvectors(sphere_grid, l, m):
    # S(s) Y_lm = lambda_l(s) Y_lm on the unit sphere.  A non-constant,
    # azimuth-odd density checks that the local correction reaches every
    # node of a ring with the right turn (the sine-type (2, -1) catches a
    # reversed one); s = 2i also exercises the linear correction.
    TH, PH = np.meshgrid(sphere_grid.theta, sphere_grid.phi, indexing="ij")
    y = sph_harm_y(l, abs(m), TH.ravel(), PH.ravel())
    Y = np.real(y) if m >= 0 else np.imag(y)
    for s, lam, tol in ((0.0, 1.0 / (2 * l + 1), 1e-7),
                        (2j, 2.0 / math.pi * 2j * spherical_in(l, 2j) * spherical_kn(l, 2j), 1e-4)):
        SY = assemble_single_layer(sphere_grid, s).matrix @ Y
        assert np.max(np.abs(SY - lam * Y)) < tol * np.max(np.abs(lam * Y))


@pytest.mark.parametrize("l, m", [(1, 1), (2, 2), (3, 2)])
def test_static_core_turn_equivariance(l, m):
    # sin(m phi) = cos(m (phi - pi / (2m))): the (l, -m) shape is the (l, m)
    # shape turned by pi / (2m), n_phi / (4m) grid steps, so its core is the
    # (l, m) core with every node's azimuth index turned back by that many
    n_theta, n_phi = 12, 24
    cores = [get_static_core(build_surface_grid(
        StarShape(constant=0.8, harmonics=((l, mm, 0.1),)), 0.1, n_theta, n_phi)) for mm in (m, -m)]
    k = n_phi // (4 * m)
    a, b = np.divmod(np.arange(n_theta * n_phi), n_phi)
    turned = a * n_phi + (b - k) % n_phi
    for name in ("matrix", "linear_correction", "distances"):
        want = getattr(cores[0], name)[np.ix_(turned, turned)]
        got = getattr(cores[1], name)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# -- solves ------------------------------------------------------------------
def test_equilibrium_density_constant_on_sphere(sphere):
    for res, tol in (((8, 16), 1e-7), ((16, 32), 1e-7)):
        grid = build_surface_grid(sphere, 1.0, *res)
        sigma = solve_density(assemble_single_layer(grid, 0.0), np.ones(grid.n_nodes))
        assert np.max(np.abs(sigma - 1.0)) < tol


def test_zero_rhs_gives_zero(sphere_grid):
    mat = assemble_single_layer(sphere_grid, 1j)
    lam = solve_density(mat, np.zeros(sphere_grid.n_nodes))
    assert np.all(lam == 0.0)


def test_random_rhs_residual_contract(sphere_grid):
    rng = np.random.default_rng(42)
    rhs = rng.normal(size=sphere_grid.n_nodes) + 1j * rng.normal(size=sphere_grid.n_nodes)
    mat = assemble_single_layer(sphere_grid, 1j)
    lam, diag = solve_density_with_diagnostics(mat, rhs)
    assert diag.residual < 1e-10
    assert np.linalg.norm(mat.matrix @ lam - rhs) / np.linalg.norm(rhs) < 1e-10


def test_near_resonance_detected(pulse):
    # conditioning blows up near the fictitious interior eigenfrequency
    # pi/eps and the estimate reports it
    eps = 0.16
    grid = build_surface_grid(StarShape.sphere(), eps, 16, 32)
    conds = []
    for om in math.pi / eps + np.linspace(-0.02, 0.02, 9):
        mat = assemble_single_layer(grid, 1j * om)
        try:
            _, diag = solve_density_with_diagnostics(mat, -incident_trace(pulse, 1j * om, grid))
            conds.append(diag.condition_estimate)
        except NearResonanceError as exc:
            conds.append(exc.condition_estimate or np.inf)
    assert max(conds) > 1e5


def test_degenerate_grid_rejected(sphere):
    import dataclasses
    from smallscat.bem import GridDegenerateError
    grid = build_surface_grid(sphere, 0.5, 8, 16)
    nodes = grid.nodes.copy()
    nodes[1] = nodes[0]
    broken = dataclasses.replace(grid, nodes=nodes)
    with pytest.raises(GridDegenerateError):
        assemble_single_layer(broken, 0.0)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_residual_failure_raises(sphere_grid):
    # a rank-deficient system must fail its residual check loudly
    from smallscat.bem import SingleLayerMatrix
    bad = np.zeros((sphere_grid.n_nodes, sphere_grid.n_nodes))
    bad[0, 0] = 1.0
    mat = SingleLayerMatrix(matrix=bad, s=1j, grid=sphere_grid)
    with pytest.raises(NearResonanceError):
        solve_density(mat, np.ones(sphere_grid.n_nodes))


def test_condition_estimate_moderate_on_sweep_nodes(pulse):
    # shipped scenarios keep the imaginary-axis conditioning below 1e6
    eps = 0.16
    grid = build_surface_grid(StarShape.sphere(), eps, 16, 32)
    for om in (19.5266, 19.6734, 39.2):     # nodes bracketing pi/0.16
        mat = assemble_single_layer(grid, 1j * om)
        _, diag = solve_density_with_diagnostics(mat, -incident_trace(pulse, 1j * om, grid))
        assert diag.condition_estimate < 1e6


# -- capacitance -------------------------------------------------------------
def test_sphere_capacitance(sphere):
    cap = capacitance(sphere, 24, 48)
    assert abs(cap.c1 - FOUR_PI) / FOUR_PI < 1e-4
    assert np.max(np.abs(cap.sigma1 - 1.0)) < 1e-6


def test_capacitance_scales_linearly(bumpy):
    # assemble directly at scale eps (the cross-check path) and compare to eps * c1
    eps = 0.37
    cap = capacitance(bumpy, 12, 24)
    grid = build_surface_grid(bumpy, eps, 12, 24)
    sigma_eps = solve_density(assemble_single_layer(grid, 0.0), np.ones(grid.n_nodes))
    c_eps = float(np.sum(grid.weights * sigma_eps))
    assert abs(c_eps - eps * cap.c1) / (eps * cap.c1) < 1e-10


def test_bumpy_capacitance_self_convergence(bumpy):
    coarse = capacitance(bumpy, 16, 32)
    fine = capacitance(bumpy, 32, 64)
    assert abs(coarse.c1 - fine.c1) / fine.c1 < 1e-4


# -- potentials and pipelines -------------------------------------------------
def test_equilibrated_sphere_exterior_potential(sphere):
    eps = 0.25
    grid = build_surface_grid(sphere, eps, 16, 32)
    sigma_eps = np.full(grid.n_nodes, 1.0 / eps)    # sigma1 = 1 scaled
    for rho in (1.0, 2.0, 3.0):
        val = evaluate_potential(grid, sigma_eps, 0.0, np.array([[rho, 0, 0]]))[0]
        assert val == pytest.approx(eps / rho, rel=1e-10)


def test_zero_density_zero_potential(sphere_grid):
    pts = np.array([[2.0, 0.1, 0.0]])
    assert evaluate_potential(sphere_grid, np.zeros(sphere_grid.n_nodes), 1j, pts)[0] == 0.0


def test_potential_conjugate_pair(sphere_grid):
    rng = np.random.default_rng(3)
    dens = rng.normal(size=sphere_grid.n_nodes) + 1j * rng.normal(size=sphere_grid.n_nodes)
    pts = np.array([[2.2, -0.3, 0.7]])
    v1 = evaluate_potential(sphere_grid, dens, 3j, pts)[0]
    v2 = evaluate_potential(sphere_grid, np.conj(dens), -3j, pts)[0]
    assert np.conj(v1) == pytest.approx(v2, abs=1e-15)


@pytest.mark.parametrize("s", [0.0, 1j])
def test_potential_on_empty_point_set(sphere_grid, s):
    dens = np.ones(sphere_grid.n_nodes)
    empty = evaluate_potential(sphere_grid, dens, s, np.zeros((0, 3)))
    one = evaluate_potential(sphere_grid, dens, s, np.array([[2.0, 0.0, 0.0]]))
    assert empty.shape == (0,) and empty.dtype == one.dtype


def test_near_field_evaluation_guard(sphere_grid):
    with pytest.raises(NearFieldEvaluationError):
        evaluate_potential(sphere_grid, np.ones(sphere_grid.n_nodes), 0.0,
                           np.array([[1.01, 0.0, 0.0]]))


def test_scattered_frequency_matches_oracle(pulse):
    eps = 0.1
    scn = SphereScenario(eps, pulse)
    pts = np.array([[2.5, 0.0, 0.0]])
    val = scattered_frequency(StarShape.sphere(), eps, pulse, 1.0, pts)[0]
    ref = sphere_scattered_frequency(scn, 1.0, 2.5)
    assert abs(val - ref) / abs(ref) < 1e-4


def test_scattered_frequency_linearity(pulse):
    import dataclasses
    eps = 0.1
    grid = build_surface_grid(StarShape.sphere(), eps, 12, 24)
    pts = np.array([[2.5, 0.0, 0.0]])
    v1 = scattered_frequency(StarShape.sphere(), eps, pulse, 1j, pts, grid=grid)[0]
    doubled = dataclasses.replace(pulse, amplitude=2.0 * pulse.amplitude)
    v2 = scattered_frequency(StarShape.sphere(), eps, doubled, 1j, pts, grid=grid)[0]
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_scattered_frequency_leading_order_in_eps(pulse, sphere):
    # magnitude ratio ~ 1/2 when eps halves: fit the slope across scales
    pts = np.array([[2.5, 0.0, 0.0]])
    data = []
    for eps in (0.025, 0.05, 0.1):
        val = scattered_frequency(sphere, eps, pulse, 1j, pts, n_theta=12, n_phi=24)[0]
        data.append((eps, abs(val)))
    fit = fit_power_law(data)
    assert abs(fit.slope - 1.0) < 0.1


def test_exterior_dirichlet_monopole(sphere):
    z = 1.3
    grid = build_surface_grid(sphere, 1.0, 16, 32)
    radii = np.linalg.norm(grid.nodes, axis=1)
    data = np.exp(-z * radii) / radii
    solution = exterior_dirichlet(sphere, 1.0, z, data, grid=grid)
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    expected = np.exp(-z * np.array([2.0, 3.0])) / np.array([2.0, 3.0])
    assert np.max(np.abs(solution(pts) - expected)) < 1e-6


def test_exterior_dirichlet_zero_data(sphere):
    grid = build_surface_grid(sphere, 0.5, 8, 16)
    solution = exterior_dirichlet(sphere, 0.5, 2.0, np.zeros(grid.n_nodes), grid=grid)
    assert np.all(solution(np.array([[2.0, 0, 0]])) == 0.0)


def test_exterior_dirichlet_static_limit(sphere):
    grid = build_surface_grid(sphere, 1.0, 16, 32)
    solution = exterior_dirichlet(sphere, 1.0, 1e-8, np.ones(grid.n_nodes), grid=grid)
    pts = np.array([[2.0, 0, 0], [0, 0, 3.0]])
    assert np.max(np.abs(solution(pts) - np.array([0.5, 1.0 / 3.0]))) < 1e-6


# -- projections ---------------------------------------------------------------
def test_projection_of_constant(sphere_grid):
    mean, fluct = boundary_projections(sphere_grid, np.full(sphere_grid.n_nodes, 3.7))
    assert mean == pytest.approx(3.7, rel=1e-14)
    assert np.max(np.abs(fluct)) < 1e-12


def test_projection_orthogonality_and_idempotence(sphere_grid):
    rng = np.random.default_rng(7)
    dens = rng.normal(size=sphere_grid.n_nodes)
    mean, fluct = boundary_projections(sphere_grid, dens)
    w = sphere_grid.weights
    # weighted mean of the fluctuation vanishes to machine precision
    assert abs(np.sum(w * fluct) / np.sum(w)) < 1e-13 * np.max(np.abs(dens))
    # orthogonality of the two parts in the weighted inner product
    assert abs(np.sum(w * (mean * np.conj(fluct)))) < 1e-12
    mean2, fluct2 = boundary_projections(sphere_grid, fluct)
    assert abs(mean2) < 1e-13
    assert np.allclose(fluct2, fluct, atol=1e-14)


def test_radial_trace_is_nearly_constant(pulse, sphere):
    grid = build_surface_grid(sphere, 0.1, 12, 24)
    tr = incident_trace(pulse, 1j, grid)
    mean, fluct = boundary_projections(grid, tr)
    area = np.sum(grid.weights)
    mean_norm = abs(mean) * math.sqrt(area)
    fluct_norm = math.sqrt(np.sum(grid.weights * np.abs(fluct) ** 2))
    assert fluct_norm < 1e-10 * mean_norm
