import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.special import sph_harm_y, spherical_in, spherical_kn

from smallscat import bem
from smallscat.bem import (
    NEAR_FIELD_FACTOR, RESIDUAL_TOL, NearFieldEvaluationError, NearResonanceError,
    SingleLayerMatrix, assemble_single_layer,
    boundary_projections, capacitance, dilate, evaluate_potential, exterior_field,
    get_static_core, scattered_frequency, solve_density_with_diagnostics,
)
from smallscat.geometry import ShellRegion, StarShape, build_surface_grid, shell_quadrature
from smallscat.incident import incident_trace
from smallscat.metrics import check_dilation_identity, fit_power_law
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


REMAINDER_S = [1e-7j, 0.5j, 8j, -3j, 39j, 1.0, 0.5 + 1j, 2 + 3j]


@pytest.mark.parametrize("shape_name", ["sphere", "bumpy_sphere"])
def test_remainder_matches_complex_expm1(shape_name):
    # with the static core's two matrices zeroed, the assembled matrix is the
    # remainder (e^{-sd} - 1) w_j / (4 pi d) alone; compare it with the
    # complex expm1 of the same distances
    grid = build_surface_grid(getattr(StarShape, shape_name)(), 1.0, 12, 24)
    core = get_static_core(grid)
    zero = np.zeros_like(core.matrix)
    bare = dataclasses.replace(grid)
    object.__setattr__(bare, "_static_core", dataclasses.replace(
        core, matrix=zero, linear_correction=zero))
    d = core.distances
    for s in REMAINDER_S:
        ref = np.expm1(-complex(s) * d) / (FOUR_PI * d) * grid.weights[None, :]
        np.fill_diagonal(ref, -complex(s) / FOUR_PI * grid.weights)
        got = assemble_single_layer(bare, s).matrix
        assert np.isrealobj(got) == (complex(s).imag == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the whole matrix: the remainder plus the static core's two terms
        full = ref + core.matrix + complex(s) ** 2 / (8.0 * math.pi) * core.linear_correction
        got = assemble_single_layer(grid, s).matrix
        assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))
    # cos(bd) - 1 at bd ~ 1e-7 keeps every digit of both parts: no cancellation
    small = assemble_single_layer(bare, 1e-7j).matrix
    ref = np.expm1(-1e-7j * d) / (FOUR_PI * d) * grid.weights[None, :]
    np.fill_diagonal(ref, -1e-7j / FOUR_PI * grid.weights)
    off = ~np.eye(grid.n_nodes, dtype=bool)
    assert np.max(np.abs(small.real[off] / ref.real[off] - 1.0)) < 1e-13
    assert np.max(np.abs(small.imag / ref.imag - 1.0)) < 1e-13


def _dense_node_matrix(grid, s):
    """Real and imaginary parts of the node matrix, by the remainder's
    real-arithmetic formula applied to the whole distance matrix in the
    solver's sequence of operations."""
    core = get_static_core(grid)
    d, w = core.distances, grid.weights[None, :]
    s = complex(s)
    a, b = s.real, s.imag
    if b == 0.0:
        re, im = np.expm1(-a * d), np.zeros_like(d)
    else:
        t = np.tan(-0.5 * b * d)                            # tan(-bd / 2)
        im = 2.0 / (1.0 + t * t) * t                        # -S = sin(-bd)
        re = -(t * im)                                      # C = -2t^2 / (1 + t^2)
        if a != 0.0:
            e = np.expm1(-a * d)                            # E
            re = re + re * e + e
            im = im * (e + 1.0)
    scale = w / (FOUR_PI * d)
    re = re * scale
    np.fill_diagonal(re, -a / FOUR_PI * grid.weights)
    re = re + core.matrix
    s2 = s * s / (8.0 * math.pi)
    re = re + s2.real * core.linear_correction
    if b != 0.0:
        im = im * scale
        np.fill_diagonal(im, -b / FOUR_PI * grid.weights)
    if s2.imag != 0.0:
        im = im + s2.imag * core.linear_correction
    return re, im


@pytest.mark.parametrize("res", [(6, 12), (10, 20), (12, 24), (20, 40)],
                         ids=["N72", "N200", "N288", "N800"])
@pytest.mark.parametrize("shape_name", ["sphere", "offset_bumpy_sphere"])
def test_triangle_fill_is_bit_identical_to_dense(shape_name, res):
    # the kernels are filled on the upper block triangle and mirrored: N
    # below one block, at exact multiples of it and at neither give the
    # same bits as the formula on the whole matrix
    grid = build_surface_grid(getattr(StarShape, shape_name)(), 0.16, *res)
    diff = grid.nodes[:, None, :] - grid.nodes[None, :, :]
    dense = np.sqrt(np.sum(np.square(diff), axis=-1))
    np.fill_diagonal(dense, 1.0)
    dist = get_static_core(grid).distances
    assert np.array_equal(dist, dense)
    assert np.array_equal(dist, dist.T)
    for s in REMAINDER_S:
        got = assemble_single_layer(grid, s).matrix
        re, im = _dense_node_matrix(grid, s)
        assert np.iscomplexobj(got) == (complex(s).imag != 0.0)
        assert np.array_equal(got.real, re) and np.array_equal(got.imag, im)


HARMONICS = [(1, 1), (2, -1), (3, 2), (4, 3)]


def _assert_harmonic_is_eigenvector(grid, l, m):
    # S(s) Y_lm = lambda_l(s) Y_lm on the unit sphere; s = 2i also exercises
    # the linear correction
    TH, PH = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    y = sph_harm_y(l, abs(m), TH.ravel(), PH.ravel())
    Y = np.real(y) if m >= 0 else np.imag(y)
    for s, lam, tol in ((0.0, 1.0 / (2 * l + 1), 1e-7),
                        (2j, 2.0 / math.pi * 2j * spherical_in(l, 2j) * spherical_kn(l, 2j), 1e-4)):
        SY = assemble_single_layer(grid, s).matrix @ Y
        assert np.max(np.abs(SY - lam * Y)) < tol * np.max(np.abs(lam * Y))


@pytest.mark.parametrize("l, m", HARMONICS)
def test_sphere_harmonics_are_eigenvectors(sphere_grid, l, m):
    # A non-constant, azimuth-odd density checks that the local correction
    # reaches every node of a ring with the right turn (the sine-type
    # (2, -1) catches a reversed one).
    _assert_harmonic_is_eigenvector(sphere_grid, l, m)


def test_odd_ring_length_sphere(sphere):
    # with an odd n_phi no grid azimuth lies half a turn from another, so the
    # through-pole rows' azimuthal weights are evaluated directly instead of
    # turning those of the direct rows
    cap = capacitance(sphere, 12, 25)
    assert abs(cap.c1 - FOUR_PI) / FOUR_PI < 1e-8
    grid = build_surface_grid(sphere, 1.0, 16, 33)
    for l, m in HARMONICS:
        _assert_harmonic_is_eigenvector(grid, l, m)


@pytest.mark.parametrize("n", [24, 25, 40])
def test_trig_interp_weights_match_direct_sines(n):
    # the cardinal weights sin(n u / 2) / (n tan(u / 2)) (even n) and
    # sin(n u / 2) / (n sin(u / 2)) (odd n), u = x - 2 pi c / n reduced into
    # [-pi, pi), with the sines from half-angle tangents, agree with np.sin
    # to 1e-15 absolute, beside the grid azimuths too, where both quotients
    # are of small numbers, and just below 2 pi, where an unreduced u would
    # leave n u / 2 a rounding of n ulp(2 pi)
    # (the cap's azimuths plus pi, which odd n evaluates directly for the
    # through-pole rows, reach up to 3 pi)
    grid_phi = 2.0 * math.pi * np.arange(n) / n
    x = np.concatenate([np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, 500),
                        grid_phi, grid_phi + 1e-9, grid_phi + 1e-11,
                        np.remainder(grid_phi - 1e-9, 2.0 * math.pi),
                        2.0 * math.pi - np.array([1e-9, 1e-6, 1e-3]),
                        np.random.default_rng(n + 1).uniform(2.0 * math.pi, 3.0 * math.pi, 200),
                        grid_phi[grid_phi < math.pi] + 2.0 * math.pi,
                        grid_phi[grid_phi < math.pi] + (2.0 * math.pi + 1e-9),
                        3.0 * math.pi - np.array([1e-9, 1e-6, 1e-3])])
    u = np.remainder(x[:, None] - grid_phi[None, :] + math.pi, 2.0 * math.pi) - math.pi
    den = np.tan(0.5 * u) if n % 2 == 0 else np.sin(0.5 * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.sin(0.5 * n * u) / (n * den)
    ref[np.abs(u) < 1e-12] = 1.0
    got = bem._trig_interp_weights(n, x)
    assert np.max(np.abs(got - ref)) < 1e-15


def test_local_difference_kernel_matches_decimal_reference():
    # 1/d - q_W(d^2) and exp(-d^2/W^2) against 50-digit decimal arithmetic
    # over the cap, to 1e-13 relative: near d/W = 4, u = (W/d)^2 e^{-d^2/W^2}
    # is about 1e-8, where 1 - 1/sqrt(1 + u) would cancel
    W = 0.37
    dist = W * np.concatenate([np.linspace(0.05, 5.5, 400), [3.9, 3.95, 4.0]])
    got, window = bem._local_difference_kernel(dist, W)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        Wd = decimal.Decimal(W)
        for d, g, e in zip(dist, got, window):
            dd = decimal.Decimal(d)
            ref_e = (-(dd * dd) / (Wd * Wd)).exp()
            u = Wd * Wd / (dd * dd) * ref_e
            ref = (1 - 1 / (1 + u).sqrt()) / dd
            assert abs(decimal.Decimal(g) / ref - 1) <= decimal.Decimal(1e-13)
            assert abs(decimal.Decimal(e) / ref_e - 1) <= decimal.Decimal(1e-13)


def _per_source_ring_local_part(kernels, R0, R1, T0, T1, src):
    """`bem._ring_local_part` one source ring at a time: each ring's stencil
    by broadcasting, its own kernel product and its own turn to the nodes.
    A body of revolution's kernels, one row per kind, are repeated to every
    node first."""
    n_theta, n_phi = R0.shape[1], T0.shape[1]
    if len(kernels) == 2:
        kernels = np.repeat(kernels, n_phi, axis=0)
    outside = np.setdiff1d(np.arange(n_theta), src)
    assert not R0[:, outside].any() and not R1[:, outside].any()
    k = np.arange(2 * n_phi)[:, None]
    turn = k * n_phi + (np.arange(n_phi)[None, :] - k) % n_phi
    out = np.zeros((2 * n_phi, n_theta, n_phi))
    for t in src:
        w_t = R0[:, t, None] * T0 + R1[:, t, None] * T1
        out[:, t] = np.take(kernels @ w_t, turn)
    return out.reshape(2 * n_phi, -1)


@pytest.mark.parametrize("shape_name, res, cutoff", [
    ("sphere", (12, 24), None), ("sphere", (12, 25), None), ("bumpy_sphere", (12, 24), None),
    ("offset_bumpy_sphere", (12, 24), None), ("bumpy_sphere", (12, 24), 2.0),
    ("sphere", (12, 24), 2.0)],
    ids=["sphere", "sphere-odd", "bumpy", "offset-bumpy", "bumpy-partial-cap",
         "sphere-partial-cap"])
def test_batched_local_part_matches_per_source_ring(monkeypatch, shape_name, res, cutoff):
    # the batched stencil, one GEMM and one gather give the core of a loop
    # over source rings to rounding; a cap cut at 2 window widths stops short
    # of the antipode, so some rings see fewer source rings than there are
    if cutoff is not None:
        monkeypatch.setattr(bem, "WINDOW_CUTOFF", cutoff)
    grid = build_surface_grid(getattr(StarShape, shape_name)(), 0.16, *res)
    got = bem._static_core(grid)
    n_src = []

    def reference(kernels, R0, R1, T0, T1, src):
        n_src.append(len(src))
        return _per_source_ring_local_part(kernels, R0, R1, T0, T1, src)

    monkeypatch.setattr(bem, "_ring_local_part", reference)
    want = bem._static_core(grid)
    assert (min(n_src) < grid.n_theta) == (cutoff is not None)
    for name in ("matrix", "linear_correction"):
        ref = getattr(want, name)
        assert np.max(np.abs(getattr(got, name) - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(got.distances, want.distances)


AXISYMMETRIC = {"sphere": StarShape.sphere(),
                "axisymmetric": StarShape(constant=0.8, harmonics=((2, 0, 0.1), (3, 0, -0.05)))}


@pytest.mark.parametrize("res", [(12, 24), (12, 25)], ids=["even", "odd"])
@pytest.mark.parametrize("shape_name", AXISYMMETRIC)
def test_body_of_revolution_shares_kernel_rows(monkeypatch, shape_name, res):
    # with no harmonic of m != 0 the nodes of a ring share one row per
    # kernel; a zero-coefficient (2, 1) harmonic leaves the surface as it is
    # but takes the row-per-node path, and gives the same core to rounding
    shape = AXISYMMETRIC[shape_name]
    turned = dataclasses.replace(shape, harmonics=shape.harmonics + ((2, 1, 0.0),))
    rows = []
    ring_local_part = bem._ring_local_part

    def recorded(kernels, *args):
        rows.append(len(kernels))
        return ring_local_part(kernels, *args)

    monkeypatch.setattr(bem, "_ring_local_part", recorded)
    got, want = (bem._static_core(build_surface_grid(s, 0.16, *res)) for s in (shape, turned))
    assert rows == [2] * res[0] + [2 * res[1]] * res[0]
    for name in ("matrix", "linear_correction"):
        ref = getattr(want, name)
        assert np.max(np.abs(getattr(got, name) - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(got.distances, want.distances)


@pytest.mark.parametrize("res", [(20, 40), (24, 48)])
def test_static_core_peak_memory(res):
    # beside its three N x N results, a core build holds a few row blocks
    # and one ring's stencil: its allocations peak below 6 x 8 N^2 bytes
    grid = build_surface_grid(StarShape.sphere(), 1.0, *res)
    tracemalloc.start()
    try:
        bem._static_core(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * grid.n_nodes ** 2


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


def test_static_core_depends_on_shape_relative_to_its_centre():
    # the core sees the surface only through node differences and, in the
    # cap, through r and the polar angle about each node: moving the star
    # centre moves every node alike and changes the core by rounding only
    harmonics = ((2, 0, 0.06), (3, 2, 0.03))
    cores = [get_static_core(build_surface_grid(
        StarShape(center=center, constant=0.6, harmonics=harmonics), 0.16, 12, 24))
        for center in ((0.25, 0.0, 0.0), (0.0, 0.0, 0.0))]
    for name in ("matrix", "linear_correction", "distances"):
        got, want = (getattr(core, name) for core in cores)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shape_name", ["sphere", "bumpy_sphere"])
def test_dilated_core_matches_fresh_build(shape_name):
    # the static kernel is homogeneous under x -> eps x: the scaled unit core
    # agrees with a core built on the scale-eps grid
    shape = getattr(StarShape, shape_name)()
    unit = build_surface_grid(shape, 1.0, 16, 32)
    for eps in (0.02, 0.16):
        dilated = dilate(unit, eps)
        fresh = build_surface_grid(shape, eps, 16, 32)
        assert dilated.epsilon == eps
        assert np.array_equal(dilated.nodes, fresh.nodes)
        assert np.array_equal(dilated.weights, fresh.weights)
        core, ref = get_static_core(dilated), get_static_core(fresh)
        for name in ("matrix", "linear_correction"):
            want = getattr(ref, name)
            assert np.max(np.abs(getattr(core, name) - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(np.diag(core.distances), np.ones(unit.n_nodes))
        got, want = (assemble_single_layer(g, 2j).matrix for g in (dilated, fresh))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- solves ------------------------------------------------------------------
def test_equilibrium_density_constant_on_sphere(sphere):
    for res, tol in (((8, 16), 1e-7), ((16, 32), 1e-7)):
        grid = build_surface_grid(sphere, 1.0, *res)
        sigma, _ = solve_density_with_diagnostics(assemble_single_layer(grid, 0.0),
                                                  np.ones(grid.n_nodes))
        assert np.max(np.abs(sigma - 1.0)) < tol


def test_zero_rhs_gives_zero(sphere_grid):
    mat = assemble_single_layer(sphere_grid, 1j)
    lam, _ = solve_density_with_diagnostics(mat, np.zeros(sphere_grid.n_nodes))
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
        except NearResonanceError:
            conds.append(np.inf)
    assert max(conds) > 1e5


def test_degenerate_grid_rejected(sphere):
    import dataclasses
    from smallscat.bem import GridDegenerateError
    grid = build_surface_grid(sphere, 0.5, 8, 16)
    # node 0 duplicated within its row block, and in the grid's last node
    # (N = 128 is more than one block of the static core's triangle fill)
    for copy in (1, -1):
        nodes = grid.nodes.copy()
        nodes[copy] = nodes[0]
        broken = dataclasses.replace(grid, nodes=nodes)
        with pytest.raises(GridDegenerateError):
            assemble_single_layer(broken, 0.0)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_residual_failure_raises(sphere_grid):
    # a rank-deficient system must fail its residual check loudly
    from smallscat.bem import SingleLayerMatrix
    bad = np.zeros((sphere_grid.n_nodes, sphere_grid.n_nodes))
    bad[0, 0] = 1.0
    mat = SingleLayerMatrix(matrix=bad, s=1j)
    with pytest.raises(NearResonanceError):
        solve_density_with_diagnostics(mat, np.ones(sphere_grid.n_nodes))


def test_condition_estimate_moderate_on_sweep_nodes(pulse):
    # shipped scenarios keep the imaginary-axis conditioning below 1e6
    eps = 0.16
    grid = build_surface_grid(StarShape.sphere(), eps, 16, 32)
    for om in (19.5266, 19.6734, 39.2):     # nodes bracketing pi/0.16
        mat = assemble_single_layer(grid, 1j * om)
        _, diag = solve_density_with_diagnostics(mat, -incident_trace(pulse, 1j * om, grid))
        assert diag.condition_estimate < 1e6


@pytest.mark.parametrize("s", [1j, 1.0], ids=["complex", "real"])
def test_solve_allocates_one_matrix_sized_array(pulse, s):
    # the single-precision factors are written over |A|, the one N x N array
    # a solve makes: what it allocates peaks below 1.25 x 8 N^2 bytes
    grid = build_surface_grid(StarShape.sphere(), 0.1, 20, 40)
    mat = assemble_single_layer(grid, s)
    rhs = -incident_trace(pulse, s, grid)
    tracemalloc.start()
    try:
        solve_density_with_diagnostics(mat, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * grid.n_nodes ** 2


# -- mixed-precision solve -------------------------------------------------------
@pytest.fixture
def lapack_calls(monkeypatch):
    """(routine, dtype, F-contiguous) of every getrf/getrs the solver calls."""
    calls = []
    real_get = lapack.get_lapack_funcs

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, a.dtype, a.flags.f_contiguous))
            return fn(a, *args, **kwargs)
        return wrapped

    def spying_get(names, arrays=(), dtype=None):
        funcs = real_get(names, arrays, dtype)
        return tuple(spy(n, f) if n in ("getrf", "getrs") else f for n, f in zip(names, funcs))

    monkeypatch.setattr(bem.sla, "get_lapack_funcs", spying_get)
    return calls


def _double_lu_reference(A, rhs):
    """The plain double-precision LU solve and 1-norm condition estimate."""
    getrf, getrs, gecon = lapack.get_lapack_funcs(("getrf", "getrs", "gecon"), (A, rhs))
    lu, piv, _ = getrf(A)
    x, _ = getrs(lu, piv, rhs)
    rcond, _ = gecon(lu, np.linalg.norm(A, 1), norm="1")
    return x, 1.0 / rcond


@pytest.mark.parametrize("shape_name", ["sphere", "bumpy_sphere"])
@pytest.mark.parametrize("eps", [0.02, 0.08, 0.16])
def test_mixed_solve_matches_double_lu(pulse, lapack_calls, shape_name, eps):
    grid = build_surface_grid(getattr(StarShape, shape_name)(), eps, 16, 32)
    for s in (1j, 7j, 23j, 31j, 0.5 + 3j, 0.7 - 11j, 2.0):
        mat = assemble_single_layer(grid, s)
        rhs = -incident_trace(pulse, s, grid)
        lapack_calls.clear()
        x, diag = solve_density_with_diagnostics(mat, rhs)
        ref_x, ref_cond = _double_lu_reference(mat.matrix, rhs)
        # factored in single precision only, on the F-ordered view
        assert {(name, dt.itemsize) for name, dt, _ in lapack_calls} \
            == {("getrf", mat.matrix.itemsize // 2), ("getrs", mat.matrix.itemsize // 2)}
        assert all(f_contiguous for name, _, f_contiguous in lapack_calls if name == "getrf")
        assert np.linalg.norm(x - ref_x) <= 1e-11 * np.linalg.norm(ref_x)
        assert abs(diag.condition_estimate / ref_cond - 1.0) <= 1e-3
        assert diag.condition_precision == "single"
        assert diag.residual <= 1e-14


def test_double_lu_decides_near_resonance(pulse, lapack_calls):
    # next to pi/eps the single-precision estimate exceeds the mixed limit:
    # the node is factored again in double precision, which reports the
    # estimate of the plain double LU
    eps = 0.16
    grid = build_surface_grid(StarShape.sphere(), eps, 16, 32)
    s = 1j * (math.pi / eps + 0.01)
    mat = assemble_single_layer(grid, s)
    rhs = -incident_trace(pulse, s, grid)
    x, diag = solve_density_with_diagnostics(mat, rhs)
    ref_x, ref_cond = _double_lu_reference(mat.matrix, rhs)
    assert diag.condition_estimate > bem.MIXED_CONDITION_LIMIT
    assert diag.condition_precision == "double"
    assert [(name, dt) for name, dt, _ in lapack_calls] == [
        ("getrf", np.complex64), ("getrf", np.complex128), ("getrs", np.complex128)]
    assert all(f_contiguous for name, _, f_contiguous in lapack_calls if name == "getrf")
    assert abs(diag.condition_estimate / ref_cond - 1.0) <= 1e-8
    assert np.linalg.norm(x - ref_x) <= 1e-9 * np.linalg.norm(ref_x)
    assert diag.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("mixed_limit", [bem.MIXED_CONDITION_LIMIT, np.inf])
def test_ill_conditioned_matrix_falls_back_to_double_lu(sphere_grid, lapack_calls,
                                                        monkeypatch, mixed_limit):
    # condition 1e9: refinement on single-precision factors cannot converge.
    # With the mixed limit lifted the refinement runs and gives up; either
    # way the double LU solves the system within the residual gate (the
    # data come from a unit-size solution, so the gate can be met).
    monkeypatch.setattr(bem, "MIXED_CONDITION_LIMIT", mixed_limit)
    rng = np.random.default_rng(11)
    n = sphere_grid.n_nodes
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    A = (U * np.logspace(0.0, -9.0, n)) @ V.conj().T
    rhs = A @ (rng.normal(size=n) + 1j * rng.normal(size=n))
    x, diag = solve_density_with_diagnostics(SingleLayerMatrix(matrix=A, s=1j), rhs)
    single_solves = sum(1 for name, dt, _ in lapack_calls if (name, dt) == ("getrs", np.complex64))
    assert (single_solves > 1) == (mixed_limit == np.inf)
    assert single_solves <= 1 + bem.REFINE_MAX_ITER
    assert lapack_calls[-2:] == [("getrf", np.complex128, True), ("getrs", np.complex128, True)]
    assert diag.condition_estimate > 1e8
    assert diag.condition_precision == "double"
    assert diag.residual <= RESIDUAL_TOL
    assert np.linalg.norm(A @ x - rhs) <= RESIDUAL_TOL * np.linalg.norm(rhs)


def test_real_matrix_with_complex_data_is_solved_in_real_arithmetic(sphere, lapack_calls):
    grid = build_surface_grid(sphere, 0.1, 16, 32)
    mat = assemble_single_layer(grid, 1.0)
    x1, x2, x3 = grid.nodes.T / 0.1
    rhs = np.exp(-0.3 * x1) * (1.0 + 0.5j * x2) + 0.2j * x3
    x, _ = solve_density_with_diagnostics(mat, rhs)
    assert lapack_calls and all(not np.issubdtype(dt, np.complexfloating) for _, dt, _ in lapack_calls)
    as_complex = dataclasses.replace(mat, matrix=mat.matrix.astype(complex))
    x_complex, _ = solve_density_with_diagnostics(as_complex, rhs)
    assert np.linalg.norm(x - x_complex) <= 1e-13 * np.linalg.norm(x_complex)
    # the dilation check's real-s solves: no complex factorization, same verdict
    lapack_calls.clear()
    for shape in (sphere, StarShape.bumpy_sphere()):
        assert check_dilation_identity(shape, (0.1,), (1.0,)) < 1e-10
    factored = [dt for name, dt, _ in lapack_calls if name == "getrf"]
    assert factored and all(dt == np.float32 for dt in factored)


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
    sigma_eps, _ = solve_density_with_diagnostics(assemble_single_layer(grid, 0.0),
                                                  np.ones(grid.n_nodes))
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


def test_near_field_guard_threshold(sphere_grid):
    # radially outward from a node of the unit sphere, that node stays the
    # nearest one: the guard trips just inside the threshold distance only
    threshold = NEAR_FIELD_FACTOR * sphere_grid.mesh_width()
    node = sphere_grid.nodes[5 * sphere_grid.n_phi + 3]
    dens = np.ones(sphere_grid.n_nodes)
    with pytest.raises(NearFieldEvaluationError):
        evaluate_potential(sphere_grid, dens, 1j, node[None, :] * (1.0 + threshold * (1 - 1e-9)))
    evaluate_potential(sphere_grid, dens, 1j, node[None, :] * (1.0 + threshold * (1 + 1e-9)))


def _direct_potential(grid, density, s, points):
    diff = points[:, None, :] - grid.nodes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    return (np.exp(-complex(s) * dist) / (FOUR_PI * dist)) @ (grid.weights * density)


@pytest.mark.parametrize("shape_name", ["sphere", "bumpy_sphere"])
def test_potential_matches_direct_differences(shape_name):
    shape = getattr(StarShape, shape_name)()
    rng = np.random.default_rng(7)
    shell_pts, _ = shell_quadrature(ShellRegion(2.0, 3.0), 8, 4)        # the CLI's shell
    dilation_pts = np.array([[2.0, 0.3, -0.4], [0.5, 2.2, 0.9], [-1.5, 1.0, 1.2]])
    for eps in (0.02, 0.16):
        grid = build_surface_grid(shape, eps, 12, 24)
        unit = build_surface_grid(shape, 1.0, 12, 24)
        dens = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
        for omega in (0.0, 1.0, 7.0, 40.0):
            # the dilation check's second path: unit grid, scaled points, eps s
            for g, s, pts in ((grid, 1j * omega, shell_pts),
                              (grid, 0.5 + 1j * omega, shell_pts),
                              (unit, 1j * eps * omega, dilation_pts / eps)):
                got = evaluate_potential(g, dens, s, pts)
                ref = _direct_potential(g, dens, s, pts)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    v1 = exterior_field(grid, 1j, -incident_trace(pulse, 1j, grid), pts)[0][0]
    doubled = dataclasses.replace(pulse, amplitude=2.0 * pulse.amplitude)
    v2 = exterior_field(grid, 1j, -incident_trace(doubled, 1j, grid), pts)[0][0]
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
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    values, _ = exterior_field(grid, z, data, pts)
    expected = np.exp(-z * np.array([2.0, 3.0])) / np.array([2.0, 3.0])
    assert np.max(np.abs(values - expected)) < 1e-6


def test_exterior_dirichlet_zero_data(sphere):
    grid = build_surface_grid(sphere, 0.5, 8, 16)
    values, _ = exterior_field(grid, 2.0, np.zeros(grid.n_nodes), np.array([[2.0, 0, 0]]))
    assert np.all(values == 0.0)


def test_exterior_dirichlet_static_limit(sphere):
    grid = build_surface_grid(sphere, 1.0, 16, 32)
    pts = np.array([[2.0, 0, 0], [0, 0, 3.0]])
    values, _ = exterior_field(grid, 1e-8, np.ones(grid.n_nodes), pts)
    assert np.max(np.abs(values - np.array([0.5, 1.0 / 3.0]))) < 1e-6


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
