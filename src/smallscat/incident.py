"""Exact incident field for radial shell-supported initial data.

The configuration is u0 = 0, v0(x) = psi(|x|) with the polynomial bump

    psi(rho) = A * ((rho - r0) * (R0 - rho))^(k_reg + 1)   on [r0, R0],

zero outside.  Because psi is polynomial on its support, the time-domain
field has an exact closed form: with h(rho) = rho * psi(|rho|) odd-extended
and H(x) = int_0^x h,

    u_inc(t, r) = (H(|r + t|) - H(|r - t|)) / (2 r),      u_inc(t, 0) = t psi(t).

The Laplace-domain field is the shell average of the free kernel
exp(-s|x-y|) / (4 pi |x-y|).  Splitting the shell at rho = r gives, with
c = clip(r, r0, R0),

    u_hat(s, r) = exp(-s r) / r * int_{r0}^{c} h(rho) sinh(s rho) / s d rho
                  + sinh(s r) / (s r) * int_{c}^{R0} h(rho) exp(-s rho) d rho,

evaluated by Gauss-Legendre quadrature on the panels [r0, c] and [c, R0].
Both integrals depend on r only through c, so every radius inside the hole
(the whole obstacle trace) shares one quadrature; sinh has no cancellation
near s = 0 or r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .geometry import SurfaceGrid, gauss_panels


class PulseConfigurationError(ValueError):
    """Obstacle/pulse geometry violates the separation preconditions."""


@dataclass(frozen=True)
class ShellPulse:
    """Radial initial data v0 = psi(|x - center|) supported in a shell.

    The profile is radial about its own center (default: the origin, where
    the obstacle family contracts).  An off-origin center puts the obstacle
    in generic position within the field (nonzero gradient at the origin).
    Every field is stored as plain Python numbers, so pulses compare, hash
    and print exactly.
    """

    r0: float = 2.0
    R0: float = 3.0
    k_reg: int = 7
    amplitude: float | None = None     # None -> normalized so max psi = 1
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.R0 > self.r0 > 1.0):
            raise PulseConfigurationError(f"need R0 > r0 > 1, got r0={self.r0}, R0={self.R0}")
        if self.k_reg < 0 or self.k_reg != int(self.k_reg):
            raise PulseConfigurationError(f"k_reg must be an integer >= 0, got {self.k_reg}")
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,):
            raise PulseConfigurationError(f"center must be a 3-vector, got {center.shape}")
        object.__setattr__(self, "center", tuple(center.tolist()))
        for name, kind in (("r0", float), ("R0", float), ("k_reg", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if self.amplitude is None:
            width = 0.5 * (self.R0 - self.r0)
            object.__setattr__(self, "amplitude", width ** (-2 * (self.k_reg + 1)))
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def origin_distance(self) -> float:
        """Distance from the pulse center to the contraction point x = 0."""
        return float(np.linalg.norm(self.center_array))

    @property
    def _center(self) -> float:
        return 0.5 * (self.r0 + self.R0)

    # Polynomials are kept in the shifted variable xi = rho - (r0+R0)/2;
    # the monomial basis in rho itself is catastrophically ill-conditioned
    # at degree ~2 k_reg.
    @property
    def _psi_poly(self) -> Polynomial:
        return _pulse_polys(self.r0, self.R0, self.k_reg, self.amplitude)[0]

    @property
    def _h_poly(self) -> Polynomial:
        """h in the shifted variable: h(rho) = rho * psi(rho) on the support."""
        return _pulse_polys(self.r0, self.R0, self.k_reg, self.amplitude)[1]

    @property
    def _h_antideriv(self) -> Polynomial:
        return _pulse_polys(self.r0, self.R0, self.k_reg, self.amplitude)[2]

    def _h_values(self, rho):
        """rho * psi(rho) for rho already inside the support."""
        return self._h_poly(np.asarray(rho, dtype=float) - self._center)

    def psi(self, rho):
        """Profile psi(rho), zero outside [r0, R0]."""
        rho = np.asarray(rho, dtype=float)
        inside = (rho >= self.r0) & (rho <= self.R0)
        out = np.zeros(rho.shape)
        out[inside] = self._psi_poly(rho[inside] - self._center)
        return out if out.ndim else float(out)

    def psi_derivative(self, rho, order: int = 1):
        rho = np.asarray(rho, dtype=float)
        p = self._psi_poly.deriv(order)
        inside = (rho >= self.r0) & (rho <= self.R0)
        out = np.zeros(rho.shape)
        out[inside] = p(rho[inside] - self._center)
        return out if out.ndim else float(out)


@lru_cache(maxsize=16)
def _pulse_polys(r0: float, R0: float, k_reg: int, amplitude: float):
    half = 0.5 * (R0 - r0)
    center = 0.5 * (R0 + r0)
    base = Polynomial([half * half, 0.0, -1.0])        # (w - xi)(w + xi)
    psi = amplitude * base ** (k_reg + 1)
    h = Polynomial([center, 1.0]) * psi                # rho = xi + center
    return psi, h, h.integ()


def _h_cumulative(pulse: ShellPulse, x: np.ndarray) -> np.ndarray:
    """H(x) = int_0^x h(rho) d rho for x >= 0 (h vanishes off [r0, R0])."""
    P = pulse._h_antideriv
    lo = P(pulse.r0 - pulse._center)
    xc = np.clip(x, pulse.r0, pulse.R0) - pulse._center
    return P(xc) - lo


def incident_time(pulse: ShellPulse, t, r):
    """u_inc(t, |x| = r): closed-form spherical-means solution.

    Vanishes identically before arrival (t < r0 - r and t < r - R0) and
    after passage (t > r + R0), by exact polynomial support arithmetic.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    t, r = np.broadcast_arrays(t, r)
    out = np.empty(t.shape)
    # below ~1e-6 the H-difference cancels in floats; the origin limit is
    # accurate to O(r^2) there
    at_origin = r < 1e-6
    if np.any(at_origin):
        tv = t[at_origin]
        out[at_origin] = tv * pulse.psi(tv)
    rest = ~at_origin
    if np.any(rest):
        tv, rv = t[rest], r[rest]
        out[rest] = (_h_cumulative(pulse, np.abs(rv + tv))
                     - _h_cumulative(pulse, np.abs(rv - tv))) / (2.0 * rv)
    return out if out.ndim else float(out)


@lru_cache(maxsize=32)
def _laplace_rule(r0: float, c: float, R0: float, n: int):
    """The n-point Gauss rule on the panels [r0, c] and [c, R0] (nodes
    0..n-1 and n..2n-1), cached and read-only like gauss_legendre."""
    rho, wq = gauss_panels((r0, c, R0), n)
    rho.flags.writeable = wq.flags.writeable = False
    return rho, wq


def _laplace_quad_order(pulse: ShellPulse, s: complex) -> int:
    # resolve the oscillation/decay of exp(-s rho) over the shell width
    return 48 + int(0.75 * abs(s) * (pulse.R0 - pulse.r0))


def _sinhc(x):
    """sinh(x) / x, with its limit 1 at x = 0."""
    x = np.asarray(x, dtype=complex)
    safe = np.where(x == 0, 1.0, x)
    return np.where(x == 0, 1.0, np.sinh(safe) / safe)


def incident_laplace(pulse: ShellPulse, s: complex, r):
    """Laplace transform u_hat(s, |x| = r) of the incident field.

    Valid for any complex s with |Re s| * (r + R0) <= 700; beyond that
    sinh (or, for Re s < 0, the transform itself) overflows, and a
    ValueError is raised.  r may be a scalar or an array of radii.
    """
    r = np.asarray(r, dtype=float)
    s = complex(s)
    if abs(s.real) * (np.max(r, initial=0.0) + pulse.R0) > 700.0:
        raise ValueError(f"|Re s| * (r + R0) exceeds 700 at s = {s}: the transform overflows")
    n = _laplace_quad_order(pulse, s)
    c, which = np.unique(np.clip(r, pulse.r0, pulse.R0), return_inverse=True)
    inner = np.empty(c.shape, dtype=complex)
    outer = np.empty(c.shape, dtype=complex)
    for k, ck in enumerate(c):
        rho, wq = _laplace_rule(pulse.r0, float(ck), pulse.R0, n)
        hw = wq * pulse._h_values(rho)
        inner[k] = np.sum(hw[:n] * rho[:n] * _sinhc(s * rho[:n]))
        outer[k] = np.sum(hw[n:] * np.exp(-s * rho[n:]))
    inner, outer = inner[which].reshape(r.shape), outer[which].reshape(r.shape)
    # inner vanishes exactly wherever r <= r0, so clamping the divisor
    # there only avoids 0/0 at the origin
    out = np.exp(-s * r) / np.maximum(r, pulse.r0) * inner + _sinhc(s * r) * outer
    if s.imag == 0.0:
        out = out.real
    return out.item() if out.ndim == 0 else out


def incident_trace(pulse: ShellPulse, s: complex, grid: SurfaceGrid) -> np.ndarray:
    """Trace of u_hat(s, .) on the grid nodes (the data driving the BIE).

    Evaluates at |node - data center|; the obstacle must sit strictly
    inside the source shell's hole.
    """
    radii = np.linalg.norm(grid.nodes - pulse.center_array[None, :], axis=1)
    if np.max(radii) >= pulse.r0:
        raise PulseConfigurationError(
            f"obstacle intersects the source shell: max node distance {np.max(radii):.4f} >= r0 = {pulse.r0}"
        )
    return np.asarray(incident_laplace(pulse, s, radii), dtype=complex)
