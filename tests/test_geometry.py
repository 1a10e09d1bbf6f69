import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from smallscat.geometry import (
    ShapeInvalidError, ShellRegion, StarShape, _half_angle, build_surface_grid, gauss_panels,
    shell_quadrature,
)

SPHERE_AREA = 4.0 * math.pi


def test_sphere_area_unit_scale(sphere):
    grid = build_surface_grid(sphere, 1.0, 16, 32)
    assert abs(grid.area - SPHERE_AREA) < 1e-6


def test_sphere_area_scales_quadratically(sphere):
    grid = build_surface_grid(sphere, 0.1, 16, 32)
    assert abs(grid.area - SPHERE_AREA * 0.01) < 1e-6


def test_harmonic_perturbation_area_self_convergence():
    shape = StarShape(constant=0.8, harmonics=((2, 0, 0.1),))
    coarse = build_surface_grid(shape, 1.0, 16, 32)
    fine = build_surface_grid(shape, 1.0, 32, 64)
    assert abs(coarse.area - fine.area) < 1e-6


def test_area_self_convergence_rate(bumpy):
    areas = [build_surface_grid(bumpy, 1.0, n, 2 * n).area for n in (6, 8, 12, 16)]
    errs = [abs(a - areas[-1]) for a in areas[:-1]]
    # smooth shapes converge spectrally until the roundoff floor
    for e0, e1 in zip(errs[:-1], errs[1:]):
        assert e1 <= max(0.75 * e0, 1e-13)


def test_node_set_scales_exactly(bumpy):
    unit = build_surface_grid(bumpy, 1.0, 12, 24)
    scaled = build_surface_grid(bumpy, 0.07, 12, 24)
    assert np.array_equal(scaled.nodes, 0.07 * unit.nodes)
    assert np.array_equal(scaled.weights, 0.07 ** 2 * unit.weights)


def test_weights_positive(bumpy):
    grid = build_surface_grid(bumpy, 0.3, 16, 32)
    assert np.all(grid.weights > 0)


def test_grid_preconditions(sphere):
    with pytest.raises(ValueError):
        build_surface_grid(sphere, 0.0, 8, 16)
    with pytest.raises(ValueError):
        build_surface_grid(sphere, 1.5, 8, 16)
    with pytest.raises(ValueError):
        build_surface_grid(sphere, 0.5, 3, 16)


def test_shape_invariants_enforced():
    with pytest.raises(ShapeInvalidError):
        StarShape(constant=0.2, harmonics=((2, 0, 1.0),))     # r dips negative
    with pytest.raises(ShapeInvalidError):
        StarShape(constant=1.2)                               # exceeds unit ball
    with pytest.raises(ShapeInvalidError):
        StarShape(center=(0.9, 0, 0), constant=0.5)           # center + r > 1
    with pytest.raises(ShapeInvalidError):
        StarShape(constant=0.8, harmonics=((2, 3, 0.1),))     # |m| > l
    with pytest.raises(ShapeInvalidError):
        StarShape(constant=0.8, harmonics=((2.5, 0, 0.1),))   # l not an integer


def test_unit_ball_check_uses_euclidean_center_norm():
    # max-norm 0.3 + 0.7 = 1 would pass; the surface reaches |x| = 1.124
    with pytest.raises(ShapeInvalidError, match="unit ball"):
        StarShape(center=(0.3, 0.3, 0.0), constant=0.7)


def test_shapes_compare_hash_and_print_exactly():
    assert StarShape.sphere() == StarShape.sphere()
    assert hash(StarShape.bumpy_sphere()) == hash(StarShape.bumpy_sphere())
    # numpy inputs are stored as plain numbers, so equal shapes print alike
    a = StarShape(center=np.array([0.1, 0.0, 0.0]), constant=np.float64(0.5),
                  harmonics=((np.int64(2), 0, np.float64(0.01)),))
    b = StarShape(center=[0.1, 0, 0], constant=0.5, harmonics=((2, 0, 0.01),))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == ("StarShape(center=(0.1, 0.0, 0.0), constant=0.5, "
                                  "harmonics=((2, 0, 0.01),))")
    # a centre 1e-12 away is another shape, and prints as one
    near = StarShape(center=(0.1 + 1e-12, 0.0, 0.0), constant=0.5, harmonics=((2, 0, 0.01),))
    assert near != a and repr(near) != repr(a)


def test_shipped_shapes_valid():
    for shape in (StarShape.sphere(), StarShape.bumpy_sphere(),
                  StarShape.offset_bumpy_sphere()):
        th = np.linspace(1e-3, math.pi - 1e-3, 101)
        ph = np.linspace(0, 2 * math.pi, 201)
        r = shape.radial(th[:, None], ph[None, :])
        assert np.min(r) >= 0.5 or shape is not StarShape.bumpy_sphere()
        assert np.min(r) > 0
        assert np.linalg.norm(shape.center) + np.max(r) <= 1.0 + 1e-12


def test_radial_derivatives_match_finite_differences(bumpy):
    th, ph = 1.1, 2.3
    r, rt, rp = bumpy.radial_derivatives(th, ph)
    h = 1e-6
    assert abs(rt - (bumpy.radial(th + h, ph) - bumpy.radial(th - h, ph)) / (2 * h)) < 1e-8
    assert abs(rp - (bumpy.radial(th, ph + h) - bumpy.radial(th, ph - h)) / (2 * h)) < 1e-8


def test_harmonic_values_on_broadcast_angles():
    # sine-type (m < 0), zonal and cosine-type harmonics, called as the static
    # core calls it: one theta per cloud point, one azimuth row per node
    harmonics = ((1, -1, 0.03), (2, -2, 0.02), (3, -1, 0.02), (2, 0, 0.04),
                 (3, 2, 0.03), (4, 3, 0.02))
    shape = StarShape(constant=0.7, harmonics=harmonics)
    th = np.linspace(0.05, math.pi - 0.05, 37)
    ph = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (11, 37))
    r, rt, rp = shape.radial_derivatives(th, ph)
    assert r.shape == rt.shape == rp.shape == (11, 37)

    # direct formula: scipy's complex harmonic at every (theta, phi) point
    TH, PH = np.broadcast_arrays(th, ph)
    ref = [np.full(TH.shape, 0.7), np.zeros(TH.shape), np.zeros(TH.shape)]
    for (l, m, c) in harmonics:
        y, dy = sph_harm_y(l, abs(m), TH, PH, diff_n=1)
        scale = 1.0 if m == 0 else math.sqrt(2.0) * (-1.0) ** m
        part = np.imag if m < 0 else np.real
        for acc, v in zip(ref, (y, dy[..., 0], dy[..., 1])):
            acc += c * scale * part(v)
    for got, want in zip((r, rt, rp), ref):
        assert np.max(np.abs(got - want)) < 1e-14

    h = 1e-6
    assert np.max(np.abs(rt - (shape.radial(th + h, ph) - shape.radial(th - h, ph)) / (2 * h))) < 1e-8
    assert np.max(np.abs(rp - (shape.radial(th, ph + h) - shape.radial(th, ph - h)) / (2 * h))) < 1e-8


def test_half_angle_keeps_relative_accuracy():
    # sin x and 1 - cos x from tan(x / 2) against libm, to 1e-15 relative:
    # from 1e-12 to 200, and beside every odd multiple of pi / 2 and every
    # multiple of pi up to 200, where one of the two, or tan itself, is small
    # or near a pole.  2 sin^2(x / 2) is the reference for 1 - cos x, which
    # libm's cos cannot give near x = 2 pi k
    x = np.concatenate([np.logspace(-12, math.log10(200.0), 4001),
                        np.random.default_rng(3).uniform(0.0, 200.0, 4000)])
    for k in range(1, 128):
        c = 0.5 * math.pi * k
        x = np.append(x, [c, np.nextafter(c, 0.0), np.nextafter(c, np.inf),
                          c - 1e-9, c + 1e-9, c - 1e-6, c + 1e-6])
    x = np.concatenate([x, -x])
    sin, vers = _half_angle(x)
    ref_sin = np.array([math.sin(v) for v in x])
    ref_vers = np.array([2.0 * math.sin(0.5 * v) ** 2 for v in x])
    assert np.max(np.abs(sin / ref_sin - 1.0)) < 1e-15
    assert np.max(np.abs(vers / ref_vers - 1.0)) < 1e-15
    assert np.max(np.abs((1.0 - vers) - np.array([math.cos(v) for v in x]))) < 1e-15
    # scalars in, 0-d arrays out
    s, v = _half_angle(0.3)
    assert s.shape == v.shape == ()
    assert math.isclose(s, math.sin(0.3), rel_tol=1e-15)
    assert math.isclose(1.0 - v, math.cos(0.3), rel_tol=1e-15)


# -- composite Gauss rule ----------------------------------------------------
@pytest.mark.parametrize("n", [1, 3, 8])
def test_gauss_panels_exact_to_degree_2n_minus_1(n):
    # unequal panels, one of them of zero width: every polynomial of degree
    # 2n - 1 is integrated exactly over [edges[0], edges[-1]]
    edges = np.array([-0.7, -0.2, -0.2, 0.9, 2.6])
    nodes, weights = gauss_panels(edges, n)
    assert nodes.shape == weights.shape == (n * (len(edges) - 1),)
    rng = np.random.default_rng(n)
    poly = np.polynomial.Polynomial(rng.standard_normal(2 * n))
    exact = poly.integ()(edges[-1]) - poly.integ()(edges[0])
    assert np.sum(weights * poly(nodes)) == pytest.approx(exact, rel=1e-13, abs=1e-13)
    # panel by panel, too: each panel's n nodes lie inside it
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        panel = slice(k * n, (k + 1) * n)
        assert np.all((nodes[panel] >= a) & (nodes[panel] <= b))
        assert np.sum(weights[panel]) == pytest.approx(b - a, abs=1e-15)


# -- shell quadrature --------------------------------------------------------
def test_shell_volume():
    region = ShellRegion(2.0, 3.0)
    _, w = shell_quadrature(region, 12, 8)
    assert abs(np.sum(w) - 4.0 * math.pi / 3.0 * 19.0) < 1e-8


def test_shell_degenerate_empty():
    # a shell needs outer > inner: an empty shell has no rule and no norm
    with pytest.raises(ValueError, match="outer > inner"):
        ShellRegion(2.0, 2.0)


def test_shell_constant_integrand():
    region = ShellRegion(2.0, 2.5)
    pts, w = shell_quadrature(region, 6, 4)
    assert np.sum(w * np.ones(len(pts))) == pytest.approx(region.volume, rel=1e-12)


def test_shell_region_invariants():
    with pytest.raises(ValueError):
        ShellRegion(3.0, 2.0)
    with pytest.raises(ValueError):
        ShellRegion(0.5, 2.0)
