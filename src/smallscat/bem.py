"""Frequency-domain exterior Dirichlet solver via the single-layer BIE.

Nystrom discretization on the product grid of `geometry.build_surface_grid`.
The kernel exp(-s|x-y|) / (4 pi |x-y|) is split into

    static part     1 / (4 pi |x-y|)          (weakly singular)
    remainder       (exp(-s|x-y|) - 1) / (4 pi |x-y|)   (entire in |x-y|)

The remainder is assembled with plain product weights, in real arithmetic
with one formula for every s = a + ib:

    exp(-sd) - 1 = (1 + E)(C - iS) + E,
    E = expm1(-a d),  C = cos(bd) - 1 = -2t^2 / (1 + t^2),
    S = sin(bd) = 2t / (1 + t^2),  t = tan(bd / 2),

written straight into the real and imaginary parts of the matrix (E is
skipped on the imaginary axis, C and S for real s, which keep a real
matrix).  Neither form subtracts, so C loses no digits however small |b| d
is.  Both come from one tan (`geometry._half_angle`): numpy 2.4 evaluates
float64 tan, exp and expm1 in SIMD but sin and cos in scalar libm, at
about 1.5 ns an element for tan against 18 ns for sin (2-vCPU Intel Xeon),
and the two sines over the distances were most of a node's assembly.
The node distances are symmetric to the bit, so the remainder is computed
on the upper block triangle only and mirrored (`_fill_symmetric`) before
the column weights w_j / (4 pi d) make the matrix non-symmetric; the
static core's far part is filled the same way.  Every entry goes through
the same operations as on the whole matrix, so the matrices are those of
a full fill, bit for bit.  The static part is
assembled once per grid ("static core") with a singularity correction: the
kernel is blended into a long-range piece that is smooth in the squared
distance (spectral under the plain product rule) and a localized singular
piece integrated per collocation node in rotated polar coordinates (the
polar Jacobian cancels the 1/|x-y| singularity).  The far part takes the
squared node distances from three contiguous coordinate differences and
one exponential exp(-d^2/W^2) per node pair, shared by the blend and the
windowed |x-y| kernel; it is bit-identical to a full fill.  Within the cap
a point at polar angle gamma about node x_b, at radius r_q, lies at

    |y - x_b| = eps sqrt((r_q - r_b)^2 + r_q r_b 4 sin^2(gamma / 2))

(the law of cosines in the star's frame: the centre cancels, and nothing
cancels near the node), and the density is reconstructed from grid values
by trigonometric interpolation along each phi-ring and barycentric
Lagrange interpolation across theta-rings (through-pole continuation
handled by reflection).  A reflected row is read half a turn away, so for
even n_phi its azimuthal weights are those of the direct rows rolled by
n_phi / 2; odd n_phi evaluates them directly.  The nodes of a theta-ring
share one such stencil through the azimuthal turn, so it is built once per
ring: the stencils of all the source rings the cap reaches come from one
batched rank-2 product, meet the ring's kernels in one GEMM and are turned
to each node by one flat gather.  On a body of revolution (every harmonic
of order m = 0, the sphere included) r does not depend on phi, so the
nodes of a ring share their cloud kernels as well: those are evaluated for
the ring's first node only, and the GEMM multiplies 2 kernel rows where
any other shape multiplies 2 n_phi (a 16x32 sphere core takes 35-41 ms
against 82-116 ms with a row per node, a bumpy one 74-76 ms; 2-vCPU Intel
Xeon, one OpenBLAS thread, best of 5).  This local part agrees with
Cartesian cap distances and directly evaluated weights to rounding, not to
the bit.
The same pass builds a second correction matrix for the kernel |x-y|,
which repairs the remainder's leading odd term s^2 |x-y| / 2 at every
frequency for free.

The static kernel is homogeneous under the dilation x -> eps x, and so is
the window width: the scale-eps core is the unit core with `matrix` times
eps, `linear_correction` times eps^3 and `distances` times eps, which
`dilate` attaches to the dilated grid.  The dilation check never uses it: a
scaled core would make its two solution paths one computation, so it builds
each scale's core from its own grid.

Solves are dense LU with a residual check and a reciprocal-condition
estimate; imaginary-axis conditioning is surfaced, never regularized.  The
LU is mixed-precision (the scheme of LAPACK's zcgesv): the matrix is
factored in single precision, its condition estimated from those factors,
and the solution refined against the double-precision matrix until its
backward error is at double-precision level.  The single-precision factors
are written over |A|, the float64 array its norms are taken from, so a
solve makes no other N x N array for them and no caller holds scratch.
When the estimate exceeds MIXED_CONDITION_LIMIT or refinement does not
converge, the matrix is factored again in double precision, so an
ill-conditioned node is solved, and its condition estimated, on
double-precision factors.  A solve is rejected (NearResonanceError) only by
its residual check or an exactly singular pivot; the condition estimate is
recorded, never gated on.  A real matrix with complex data is solved in real
arithmetic, with the real and imaginary parts as two right-hand sides.

Off-surface evaluation takes point-node distances from the Gram form
|x|^2 + |y|^2 - 2 x.y (one BLAS product, clamped at 0) and the kernel in
the same real form e^{-ad}(cos bd - i sin bd), with sin bd and
1 - cos bd from one tan(bd / 2), for the same reason.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .geometry import StarShape, SurfaceGrid, _half_angle, build_surface_grid, gauss_panels
from .incident import ShellPulse, incident_trace

logger = logging.getLogger(__name__)

# Singularity-blending knobs.  The static kernel is split as
#     1/d = [1/d - q_W(d^2)] + q_W(d^2),
#     q_W(t) = (t + W^2 exp(-t / W^2))^(-1/2),
# with W a few physical grid spacings.  q_W depends on the squared distance
# only, hence is C-infinity on the surface and integrates spectrally under
# the plain product rule; the bracket decays like exp(-d^2/W^2) and is
# integrated over a local cap in rotated polar coordinates by composite
# Gauss rules of fixed order 8 with panels no wider than the window.
WINDOW_FACTOR = 3.0
WINDOW_CUTOFF = 6.5          # cap radius, in units of the window width
N_GAMMA = 8
N_ALPHA = 16
STENCIL_MARGIN = 2

RESIDUAL_TOL = 1e-10
# the single-precision LU serves while its condition estimate stays at or
# below this, with at most LAPACK's ITERMAX refinement steps; otherwise the
# double-precision LU solves
MIXED_CONDITION_LIMIT = 1e5
REFINE_MAX_ITER = 30
NEAR_FIELD_FACTOR = 2.0


class GridDegenerateError(ValueError):
    """Grid contains coincident distinct nodes."""


class NearResonanceError(RuntimeError):
    """Dense solve failed its residual check (likely near a resonance)."""


class NearFieldEvaluationError(ValueError):
    """Evaluation point too close to the surface for plain quadrature."""


# ---------------------------------------------------------------------------
# Static core: singular-corrected Nystrom matrix for 1 / (4 pi |x-y|)
# ---------------------------------------------------------------------------
@dataclass
class _StaticCore:
    matrix: np.ndarray          # (N, N) real: corrected static kernel 1/(4 pi d)
    linear_correction: np.ndarray   # (N, N) real: correction for the kernel d
    distances: np.ndarray       # (N, N) real: node distances, unit diagonal


def _window_width(grid: SurfaceGrid) -> float:
    """Blending width: WINDOW_FACTOR times the coarsest physical spacing."""
    h = max(math.pi / grid.n_theta, 2.0 * math.pi / grid.n_phi)
    metric = grid.jacobian / grid.radial_values      # sqrt(r^2 + r_t^2 + (r_p/sin)^2)
    return WINDOW_FACTOR * h * grid.epsilon * float(np.max(metric))


def _local_difference_kernel(dist: np.ndarray, W: float) -> tuple[np.ndarray, np.ndarray]:
    """1/d - q_W(d^2) (without 1/4pi) and the window exp(-d^2/W^2).

    With u = (W/d)^2 exp(-d^2/W^2), 1 - 1/sqrt(1+u) is taken as
    u / (sqrt(1+u) (1 + sqrt(1+u))), which does not cancel however small u is.
    """
    W2 = W * W
    window = np.exp(-(dist * dist) / W2)
    u = (W2 / (dist * dist)) * window
    root = np.sqrt(1.0 + u)
    return u / (root * (1.0 + root)) / dist, window


def _trig_interp_weights(n: int, x: np.ndarray) -> np.ndarray:
    """Cardinal weights of trigonometric interpolation on the uniform grid
    x_b = 2 pi b / n, evaluated at azimuths x in [0, 3 pi).  Returns
    (len(x), n)."""
    b = 2.0 * math.pi * np.arange(n) / n
    # the weights are 2 pi-periodic in u = x - b: reduced into [-pi, pi), a
    # u near +-2 pi does not leave n u / 2 a rounding of n ulp(2 pi).  On
    # x in [0, 3 pi), x - b + pi lies in (-pi, 4 pi), where one conditional
    # 2 pi shift each way is np.remainder(x - b + pi, 2 pi) to the bit
    u = x[:, None] - b[None, :] + math.pi
    np.subtract(u, 2.0 * math.pi, out=u, where=u >= 2.0 * math.pi)
    np.add(u, 2.0 * math.pi, out=u, where=u < 0.0)
    u -= math.pi
    small = np.abs(u) < 1e-12
    den = np.tan(0.5 * u) if n % 2 == 0 else _half_angle(0.5 * u)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _half_angle(0.5 * n * u)[0] / (n * den)
    out[small] = 1.0
    return out


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)            # w_k = 1 / prod_{j != k} (x_k - x_j)
    w = 1.0 / np.prod(d, axis=1)
    return w / np.max(np.abs(w))


def _barycentric_eval_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lagrange cardinal functions l_k(x), shape (len(x), len(nodes))."""
    w = _barycentric_weights(nodes)
    diff = x[:, None] - nodes[None, :]
    exact = np.abs(diff) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w[None, :] / diff
    terms[exact] = 0.0
    denom = np.sum(terms, axis=1)
    out = terms / denom[:, None]
    hit = exact.any(axis=1)
    out[hit] = 0.0
    out[exact] = 1.0
    return out


def _extended_theta(grid: SurfaceGrid):
    """Signed polar grid continued through both poles by reflection.

    Returns (theta_ext ascending, row index into the real grid, pi-shift flag).
    """
    nt = grid.n_theta
    th = grid.theta
    below = -th[::-1]                       # rows reflected through theta = 0
    above = 2.0 * math.pi - th[::-1]        # rows reflected through theta = pi
    theta_ext = np.concatenate([below, th, above])
    rows = np.concatenate([np.arange(nt)[::-1], np.arange(nt), np.arange(nt)[::-1]])
    flags = np.concatenate([np.ones(nt, bool), np.zeros(nt, bool), np.ones(nt, bool)])
    return theta_ext, rows, flags


def _ring_local_part(kernels: np.ndarray, R0: np.ndarray, R1: np.ndarray,
                     T0: np.ndarray, T1: np.ndarray, src: np.ndarray) -> np.ndarray:
    """A theta-ring's local correction rows, shape (2 n_phi, n_theta n_phi).

    Source ring t's stencil is R0[:, t] T0 + R1[:, t] T1, of shape (nq, n_phi).
    Those of the rings `src` (the others are zero) come from one batched
    rank-2 product and meet the ring's stacked kernels in one GEMM.  The
    kernels hold each kind's row per node, (2 n_phi, nq), or, on a body of
    revolution, one row per kind that every node shares, (2, nq).  Output
    row k is node b = k mod n_phi of kind k // n_phi, which reads source
    column (c - b) mod n_phi of its kernel row: one flat gather turns the
    product to every node.
    """
    n_theta, n_src, n_phi = R0.shape[1], len(src), T0.shape[1]
    stencil = np.matmul(np.stack([R0[:, src], R1[:, src]], 2),
                        np.stack([T0, T1], 1))                      # (nq, n_src, n_phi)
    product = kernels @ stencil.reshape(len(stencil), -1)
    del stencil             # a core build's largest temporary, freed before the gather
    k = np.arange(2 * n_phi)[:, None, None]
    row = k // (2 * n_phi // len(kernels))      # k, or k // n_phi for shared rows
    turn = (row * n_src + np.arange(n_src)[:, None]) * n_phi + (np.arange(n_phi) - k) % n_phi
    out = np.zeros((2 * n_phi, n_theta, n_phi))
    out[:, src] = np.take(product, turn)
    return out.reshape(2 * n_phi, -1)


def _fill_symmetric(fill, *arrays: np.ndarray) -> None:
    """Fill symmetric N x N `arrays` from their upper block triangle.

    `fill(block)` writes `block` = rows lo:hi, columns lo: of every array,
    for row blocks of 100; each finished block is then mirrored into the
    lower triangle, so an entry off the diagonal blocks is computed once
    per node pair.  The diagonal 100 x 100 blocks are computed whole.
    """
    n = arrays[0].shape[0]
    for lo in range(0, n, 100):
        hi = min(n, lo + 100)
        fill(np.s_[lo:hi, lo:])
        for a in arrays:
            a[hi:, lo:hi] = a[lo:hi, hi:].T


def _static_core(grid: SurfaceGrid) -> _StaticCore:
    N = grid.n_nodes
    W = _window_width(grid)
    eps2 = grid.epsilon ** 2
    W2 = W * W

    # --- far part: plain product weights on the smooth long-range kernel.
    # linear_correction accumulates [local polar - plain product] for the
    # windowed kernel eta d; the frequency kernel's odd term s^2 d / 2
    # carries the same cone singularity as 1/d and is corrected with it.
    # The kernels are symmetric in the node pair: filled on the upper block
    # triangle, then weighted by column.
    matrix = np.empty((N, N))
    cmat = np.empty((N, N))
    dist = np.empty((N, N))
    x, y, z = (np.ascontiguousarray(grid.nodes[:, k]) for k in range(3))

    def far(block):
        rows, cols = block
        # d2 = (dx^2 + dy^2) + dz^2 from contiguous coordinate differences
        d2 = np.square(x[rows, None] - x[None, cols])
        for coord in (y, z):
            diff = coord[rows, None] - coord[None, cols]
            d2 += np.square(diff, out=diff)
        # the block's columns start at its first row: every unordered pair
        # of nodes is checked in the block of the lower-numbered one
        if np.min(d2 + np.eye(*d2.shape)) <= 0.0:
            raise GridDegenerateError("coincident distinct grid nodes")
        np.sqrt(d2, out=dist[block])
        # one exponential serves q_W(d^2) and the windowed kernel d
        e = np.exp(-d2 / W2)
        matrix[block] = 1.0 / np.sqrt(d2 + W2 * e)
        cmat[block] = -e * dist[block]

    _fill_symmetric(far, matrix, cmat, dist)
    matrix *= grid.weights[None, :]
    matrix /= 4.0 * math.pi
    cmat *= grid.weights[None, :]
    np.fill_diagonal(dist, 1.0)

    # --- local part: rotated polar integration with grid interpolation ---
    r_min = float(np.min(grid.radial_values))
    chord_cut = min(2.0, WINDOW_CUTOFF * W / (grid.epsilon * r_min))
    gamma_max = 2.0 * math.asin(min(1.0, 0.5 * chord_cut))
    gamma_w = W / (grid.epsilon * r_min)            # window width in polar angle
    n_panels = max(2, math.ceil(gamma_max / gamma_w))
    gam, wgam = gauss_panels(np.linspace(0.0, gamma_max, n_panels + 1), N_GAMMA)
    alpha = 2.0 * math.pi * np.arange(N_ALPHA) / N_ALPHA
    w_alpha = 2.0 * math.pi / N_ALPHA

    GG, AA = np.meshgrid(gam, alpha, indexing="ij")
    gq = GG.ravel()
    pole_dirs = np.stack([np.sin(gq) * np.cos(AA.ravel()),
                          np.sin(gq) * np.sin(AA.ravel()),
                          np.cos(gq)], axis=1)                    # (nq, 3)
    wq = (np.outer(wgam, np.full(N_ALPHA, w_alpha)).ravel()) * np.sin(gq)
    # squared unit chord 4 sin^2(gamma/2) between a node's direction and
    # its cloud points' directions
    chord2 = np.square(2.0 * np.sin(0.5 * gq))

    theta_ext, ext_rows, ext_flags = _extended_theta(grid)
    span = gamma_max + STENCIL_MARGIN * np.max(np.diff(grid.theta))
    n_theta, n_phi = grid.n_theta, grid.n_phi
    fold_ext = (ext_rows[:, None] == np.arange(n_theta)[None, :]).astype(float)
    # All nodes of a theta-ring share one interpolation stencil through the
    # azimuthal turn: theta* is ring-invariant and phi* shifts by the node
    # azimuth, so the stencil is built once per ring at phi = 0 and each
    # source ring's share reaches node b with its phi-columns turned by b.
    # On a body of revolution (no harmonic with m != 0) r does not depend on
    # phi, so the nodes of a ring share their cloud kernels too: they are
    # evaluated for the ring's first node only.
    axisymmetric = all(m == 0 for (_, m, _) in grid.shape.harmonics)
    node_phi = grid.phi[:1] if axisymmetric else grid.phi
    for a in range(n_theta):
        th_a = grid.theta[a]
        ct, st = math.cos(th_a), math.sin(th_a)
        # rotation R_y(theta_a): cloud for the (a, phi=0) node
        ydirs0 = np.stack([ct * pole_dirs[:, 0] + st * pole_dirs[:, 2],
                           pole_dirs[:, 1],
                           -st * pole_dirs[:, 0] + ct * pole_dirs[:, 2]], axis=1)
        th_q = np.arccos(np.clip(ydirs0[:, 2], -1.0, 1.0))
        ph_q0 = np.arctan2(ydirs0[:, 1], ydirs0[:, 0]) % (2.0 * math.pi)

        lo = np.searchsorted(theta_ext, th_a - span)
        hi = np.searchsorted(theta_ext, th_a + span)
        flags = ext_flags[lo:hi]
        fold = fold_ext[lo:hi]
        L = _barycentric_eval_matrix(theta_ext[lo:hi], th_q)       # (nq, n_rows)
        # barycentric weights folded onto the real rings (reflected rows: T1)
        R0 = L[:, ~flags] @ fold[~flags]                           # (nq, n_theta)
        R1 = L[:, flags] @ fold[flags]
        T0 = _trig_interp_weights(n_phi, ph_q0)                    # (nq, n_phi)
        # x + pi - 2 pi c / n = x - 2 pi (c - n/2) / n: for even n the
        # reflected rows' weights are T0 turned by half a revolution
        T1 = (np.roll(T0, n_phi // 2, axis=1) if n_phi % 2 == 0
              else _trig_interp_weights(n_phi, ph_q0 + math.pi))

        # ph_q0 + phi lies in [0, 4 pi): one conditional subtract is the
        # remainder modulo 2 pi, exactly (Sterbenz)
        ph_q = ph_q0[None, :] + node_phi[:, None]
        np.subtract(ph_q, 2.0 * math.pi, out=ph_q, where=ph_q >= 2.0 * math.pi)
        # theta is ring-invariant: each harmonic's Legendre factor is
        # evaluated once on the (nq,) cloud and turned in phi by broadcasting
        r_q, rt_q, rp_q = grid.shape.radial_derivatives(th_q, ph_q)   # (len(node_phi), nq)
        rp_over = rp_q / np.maximum(np.sin(th_q), 1e-300)
        jac_q = r_q * np.sqrt(r_q ** 2 + rt_q ** 2 + rp_over ** 2)

        # |y_q - x_b| by the law of cosines in the star's own frame: the
        # centre cancels, and nothing cancels near the node
        node_slice = slice(a * n_phi, (a + 1) * n_phi)
        r_b = grid.radial_values[node_slice][:len(node_phi), None]
        dist_q = grid.epsilon * np.sqrt(np.square(r_q - r_b) + r_q * r_b * chord2)
        base = wq[None, :] * jac_q * eps2
        difference, window = _local_difference_kernel(dist_q, W)
        kernels = np.concatenate([base * difference / (4.0 * math.pi),
                                  base * window * dist_q])          # (2 len(node_phi), nq)

        # only the source rings the span reaches: a partial cap pays for no
        # zero stencils
        part = _ring_local_part(kernels, R0, R1, T0, T1, np.flatnonzero(fold.any(axis=0)))
        matrix[node_slice] += part[:n_phi]
        cmat[node_slice] += part[n_phi:]

    return _StaticCore(matrix=matrix, linear_correction=cmat, distances=dist)


def get_static_core(grid: SurfaceGrid) -> _StaticCore:
    """Static-kernel Nystrom matrix and node distances, computed once per
    grid and cached on it."""
    core = getattr(grid, "_static_core", None)
    if core is None:
        core = _static_core(grid)
        object.__setattr__(grid, "_static_core", core)
    return core


def dilate(grid: SurfaceGrid, eps: float) -> SurfaceGrid:
    """The grid dilated by eps, with its static core scaled from `grid`'s.

    Nodes are eps times `grid.nodes` and weights eps^2 times `grid.weights`;
    from a unit-scale grid both are bit-identical to
    `build_surface_grid(shape, eps, ...)`.  The core of `grid` (built here if
    it has none) is attached with `matrix` times eps, `linear_correction`
    times eps^3 and `distances` times eps, its diagonal kept at 1.
    """
    core = get_static_core(grid)
    dilated = replace(grid, epsilon=grid.epsilon * eps, nodes=eps * grid.nodes,
                      weights=(eps * eps) * grid.weights)
    dist = core.distances * eps
    np.fill_diagonal(dist, 1.0)
    object.__setattr__(dilated, "_static_core", _StaticCore(
        matrix=core.matrix * eps, linear_correction=core.linear_correction * eps ** 3,
        distances=dist))
    return dilated


# ---------------------------------------------------------------------------
# Assembly and solves
# ---------------------------------------------------------------------------
@dataclass
class SingleLayerMatrix:
    """Dense Nystrom matrix of the single-layer trace operator at frequency s."""

    matrix: np.ndarray
    s: complex


@dataclass(frozen=True)
class SolveDiagnostics:
    residual: float
    condition_estimate: float
    # the factors condition_estimate comes from: "single" or "double"
    # (`_lu_solve_with_cond`), None when no factorization was made
    condition_precision: str | None


def assemble_single_layer(grid: SurfaceGrid, s: complex) -> SingleLayerMatrix:
    """Nystrom matrix for phi -> int_Gamma exp(-s|x-y|)/(4 pi |x-y|) phi dGamma."""
    core = get_static_core(grid)
    s = complex(s)
    if s == 0:
        return SingleLayerMatrix(matrix=core.matrix.copy(), s=s)
    a, b = s.real, s.imag
    dist = core.distances
    # the remainder e^{-sd} - 1 = (1 + E)(C - iS) + E in real arithmetic,
    # C and S from one tan(bd / 2), which is SIMD where sin is scalar libm
    # (module docstring); symmetric in the node pair: written straight into
    # the returned matrix on its upper block triangle and mirrored.  `tmp`
    # is the one other N x N array the solving thread holds: E's scratch
    # here, then the column scaling
    mat = np.empty(dist.shape, dtype=float if b == 0.0 else complex)
    re, im = mat.real, (mat.imag if b != 0.0 else None)
    tmp = np.empty(dist.shape)

    def remainder(block):
        d, r, e = dist[block], re[block], tmp[block]
        if b == 0.0:                                # C = S = 0: the remainder is E
            np.multiply(-a, d, out=r)
            np.expm1(r, out=r)
            return
        i = im[block]
        np.multiply(-b, d, out=r)
        minus_s, v = _half_angle(r)                 # -S, and -C = 1 - cos bd
        np.negative(v, out=r)                       # C
        if a == 0.0:
            np.copyto(i, minus_s)
            return
        np.multiply(-a, d, out=e)
        np.expm1(e, out=e)                          # E
        np.multiply(r, e, out=i)                    # C E, with im as scratch
        r += i
        r += e
        e += 1.0                                    # 1 + E
        np.multiply(minus_s, e, out=i)

    _fill_symmetric(remainder, mat)
    # kernel scaling w_j / (4 pi d); the diagonal carries the remainder's
    # limit -s w_j / (4 pi)
    np.multiply(4.0 * math.pi, dist, out=tmp)
    np.divide(grid.weights[None, :], tmp, out=tmp)
    re *= tmp
    np.fill_diagonal(re, -a / (4.0 * math.pi) * grid.weights)
    if im is not None:
        im *= tmp
        np.fill_diagonal(im, -b / (4.0 * math.pi) * grid.weights)
    re += core.matrix
    # the remainder's odd expansion term s^2 d / (8 pi) is cone-singular at
    # the diagonal; re-route it through the precomputed local correction
    s2 = s * s / (8.0 * math.pi)
    np.multiply(s2.real, core.linear_correction, out=tmp)
    re += tmp
    if s2.imag != 0.0:
        np.multiply(s2.imag, core.linear_correction, out=tmp)
        im += tmp
    return SingleLayerMatrix(matrix=mat, s=s)


def _condition(gecon, lu, norm1: float) -> float:
    """1-norm condition estimate of A from the LU factors of A^T (the
    infinity norm of A^T is the 1-norm of A)."""
    rcond, info = gecon(lu, norm1, norm="I")
    return float("inf") if (info != 0 or rcond == 0.0) else 1.0 / float(rcond)


def _refine(A, B, lu, piv, getrs, norm_inf: float):
    """Iterative refinement on single-precision factors of A^T.

    Returns (X, B - A X) once every column meets zcgesv's backward-error
    test ||r||_max <= ||x||_max ||A||_inf eps sqrt(N), or None when
    REFINE_MAX_ITER refinement steps do not get there.  Each correction is
    solved for the residual scaled to unit size, so a small right-hand side
    does not underflow in single precision.
    """
    tol = norm_inf * (0.5 * np.finfo(float).eps) * math.sqrt(A.shape[0])
    X = np.zeros(B.shape, dtype=A.dtype)
    R = B
    for _ in range(1 + REFINE_MAX_ITER):
        scale = np.max(np.abs(R), axis=0)
        scale[scale == 0.0] = 1.0
        D, info = getrs(lu, piv, (R / scale).astype(lu.dtype), trans=1)
        if info != 0:
            return None
        X += D * scale
        R = B - A @ X
        r_max = np.max(np.abs(R), axis=0)
        if not np.all(np.isfinite(r_max)):
            return None
        if np.all(r_max <= tol * np.max(np.abs(X), axis=0)):
            return X, R
    return None


def _lu_solve_with_cond(A: np.ndarray, B: np.ndarray):
    """Solve A X = B (B of A's dtype, shape (N, k)) by mixed-precision LU.

    Returns X, the residual B - A X, the 1-norm condition estimate of A and
    the precision, "single" or "double", of the factors it comes from.
    A is factored in single precision, in the buffer of |A| that the norms
    need anyway, so the solve makes no other N x N array for its factors,
    and X is refined to double-precision backward error (`_refine`).  The
    double-precision LU is used instead when the single-precision estimate
    exceeds MIXED_CONDITION_LIMIT or refinement does not converge, so an
    ill-conditioned matrix is solved on double-precision factors.
    Both precisions factor the F-ordered view A.T (no transposing copy) and
    solve with trans=1.

    Raises np.linalg.LinAlgError when the double-precision factorization
    finds an exactly singular pivot.  No finiteness scan: the caller's
    residual check rejects whatever non-finite input produces.
    """
    absA = np.abs(A)
    norm1, norm_inf = float(absA.sum(axis=0).max()), float(absA.sum(axis=1).max())
    # |A|'s float64 words hold a complex64 copy of A, or a float32 one in
    # their first half
    single = np.complex64 if np.iscomplexobj(A) else np.float32
    work = absA.reshape(-1).view(single)[:A.size].reshape(A.shape)
    np.copyto(work, A)
    getrf, getrs, gecon = sla.get_lapack_funcs(("getrf", "getrs", "gecon"), (work,))
    lu, piv, info = getrf(work.T, overwrite_a=True)
    if info == 0:
        cond = _condition(gecon, lu, norm1)
        if cond <= MIXED_CONDITION_LIMIT:
            refined = _refine(A, B, lu, piv, getrs, norm_inf)
            if refined is not None:
                return (*refined, cond, "single")
    del lu, work, absA      # the single-precision factors are freed here
    getrf, getrs, gecon = sla.get_lapack_funcs(("getrf", "getrs", "gecon"), (A,))
    lu, piv, info = getrf(A.T)
    if info != 0:
        raise np.linalg.LinAlgError(f"getrf info={info}")
    X, info = getrs(lu, piv, B, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"getrs info={info}")
    return X, B - A @ X, _condition(gecon, lu, norm1), "double"


def solve_density_with_diagnostics(mat: SingleLayerMatrix, rhs: np.ndarray):
    """Direct dense solve with residual verification and condition estimate.

    Returns the density lambda, with ||mat lambda - rhs|| <= RESIDUAL_TOL
    ||rhs||, and its SolveDiagnostics.  A real matrix with complex data is
    solved in real arithmetic, with the real and imaginary parts as two
    right-hand sides.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != mat.matrix.shape[:1]:
        raise ValueError(f"rhs length {rhs.shape} does not match grid {mat.matrix.shape[:1]}")
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), SolveDiagnostics(residual=0.0, condition_estimate=0.0,
                                                    condition_precision=None)
    A = mat.matrix
    split = np.isrealobj(A) and np.iscomplexobj(rhs)
    B = np.stack([rhs.real, rhs.imag], axis=1) if split else rhs[:, None].astype(A.dtype)
    try:
        X, R, cond, precision = _lu_solve_with_cond(A, B)
    except np.linalg.LinAlgError as exc:
        raise NearResonanceError(f"factorization breakdown at s={mat.s}") from exc
    x = X[:, 0] + 1j * X[:, 1] if split else X[:, 0]
    residual = float(np.linalg.norm(R) / rhs_norm)
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise NearResonanceError(
            f"solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} at s={mat.s} "
            f"(condition estimate {cond:.3e})")
    logger.debug("solve s=%s residual=%.3e cond=%.3e", mat.s, residual, cond)
    return x, SolveDiagnostics(residual=residual, condition_estimate=cond,
                               condition_precision=precision)


# ---------------------------------------------------------------------------
# Capacitance
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CapacitanceResult:
    """Unit-scale capacitance c1 and its equilibrium density sigma1."""

    c1: float
    sigma1: np.ndarray

    def __post_init__(self):
        if self.c1 <= 0:
            raise ValueError("capacitance must be positive")


def capacitance(shape: StarShape, n_theta: int = 24, n_phi: int = 48) -> CapacitanceResult:
    """Solve the static equilibrium problem S0 sigma1 = 1 at unit scale.

    The scale-eps capacitance is eps * c1 (exact dilation identity of the
    static single layer).
    """
    grid = build_surface_grid(shape, 1.0, n_theta, n_phi)
    sigma = _equilibrium_density(grid)
    c1 = float(np.sum(grid.weights * sigma))
    return CapacitanceResult(c1=c1, sigma1=sigma)


def _equilibrium_density(grid: SurfaceGrid) -> np.ndarray:
    """Density sigma with S0 sigma = 1 on the grid."""
    sigma, _ = solve_density_with_diagnostics(assemble_single_layer(grid, 0.0),
                                              np.ones(grid.n_nodes))
    return sigma


# ---------------------------------------------------------------------------
# Off-surface evaluation and the exterior field
# ---------------------------------------------------------------------------
def evaluate_potential(grid: SurfaceGrid, density: np.ndarray, s: complex,
                       points: np.ndarray) -> np.ndarray:
    """Single-layer potential of a node density at off-surface points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # Gram-form distances |x|^2 + |y|^2 - 2 x.y: one BLAS product instead
    # of a (P, N, 3) difference array
    nodes = grid.nodes
    dist = points @ (-2.0 * nodes).T
    dist += np.einsum("ij,ij->i", points, points)[:, None]
    dist += np.einsum("ij,ij->i", nodes, nodes)[None, :]
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    min_dist = float(np.min(dist, initial=np.inf))     # no points: no guard
    threshold = NEAR_FIELD_FACTOR * grid.mesh_width()
    if min_dist < threshold:
        raise NearFieldEvaluationError(
            f"evaluation point at distance {min_dist:.3e} from the surface "
            f"(need >= {threshold:.3e}); use a refined grid or move the point")
    s = complex(s)
    a, b = s.real, s.imag
    # kernel e^{-ad} (cos bd - i sin bd) / (4 pi d) in real arithmetic,
    # cos bd and sin bd from one SIMD tan(bd / 2), not two scalar libm calls
    amp = np.divide(1.0 / (4.0 * math.pi), dist)
    if a != 0.0:
        amp *= np.exp(-a * dist)
    if b == 0.0:
        kern = amp
    else:
        kern = np.empty(dist.shape, dtype=complex)
        np.multiply(-b, dist, out=dist)             # the phase -bd
        minus_sin, vers = _half_angle(dist)
        np.subtract(1.0, vers, out=kern.real)       # cos bd
        kern.real *= amp
        np.multiply(minus_sin, amp, out=kern.imag)
    return kern @ (grid.weights * density)


def exterior_field(grid: SurfaceGrid, s: complex, data: np.ndarray, points: np.ndarray):
    """Exterior Dirichlet field at frequency s: the single-layer density with
    trace `data` on the grid nodes, radiated to the off-surface points.

    Returns (values, SolveDiagnostics).  Defined for any complex s off the
    discrete resonance set (Re s > 0 always safe).
    """
    mat = assemble_single_layer(grid, s)
    density, diag = solve_density_with_diagnostics(mat, data)
    return evaluate_potential(grid, density, s, points), diag


def scattered_frequency(shape: StarShape, epsilon: float, pulse: ShellPulse,
                        s: complex, points: np.ndarray, *,
                        n_theta: int = 20, n_phi: int = 40) -> np.ndarray:
    """Laplace-domain scattered field u_hat_sc(s, x) at the given points, on
    a fresh grid: the exterior field of the negated incident trace (sound-soft).
    """
    grid = build_surface_grid(shape, epsilon, n_theta, n_phi)
    values, _ = exterior_field(grid, s, -incident_trace(pulse, s, grid), points)
    return values


def boundary_projections(grid: SurfaceGrid, density: np.ndarray):
    """Split a density into its weighted mean and zero-mean fluctuation.

    The discrete L2(Gamma^eps) orthogonality of the two parts is exact.
    """
    density = np.asarray(density)
    if density.shape != (grid.n_nodes,):
        raise ValueError("density length does not match the grid")
    mean = np.sum(grid.weights * density) / np.sum(grid.weights)
    return mean, density - mean
