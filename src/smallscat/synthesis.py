"""Time-domain scattered field by imaginary-axis frequency synthesis.

The scattered field is sampled at s = i omega on a composite Gauss grid
over [0, Omega_max] (one dense solve per node; the nodes are independent
and are solved on a thread pool) and inverted with

    u(t, x) = (1/pi) Re int_0^Omega exp(i omega t) u_hat(i omega, x) d omega,

using the conjugate symmetry u_hat(-i omega) = conj(u_hat(i omega)) of real
signals.  Every panel is integrated Filon-style: the samples it holds are
fitted by their Legendre interpolant, whose oscillatory moments
int P_k(x) exp(i kappa x) dx = 2 i^k j_k(kappa) are exact spherical Bessel
values for every kappa, t = 0 included, so accuracy is uniform in t.  For
smooth compactly supported C^k data the integrand decays like
omega^-(k+1), which makes the truncated imaginary-axis synthesis converge
without any contour preconditioning.
"""

from __future__ import annotations

import hashlib
import logging
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import spherical_jn

from .bem import exterior_field, get_static_core
from .geometry import StarShape, build_surface_grid, gauss_panels
from .incident import ShellPulse, incident_trace

logger = logging.getLogger(__name__)

GL_PER_PANEL = 8
TAIL_WARN_RATIO = 1e-4


# name and sha256 of every *.py file of the package, read once at import so
# that each table is keyed on the code this process runs
_SOURCE_DIGEST = hashlib.sha256(repr([
    (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
    for path in sorted(Path(__file__).parent.glob("*.py"))]).encode()).hexdigest()


@dataclass(frozen=True)
class ScatteringScenario:
    """Obstacle + pulse + BEM resolution: everything a sweep needs."""

    shape: StarShape
    epsilon: float
    pulse: ShellPulse
    n_theta: int = 20
    n_phi: int = 40

    def __post_init__(self):
        # plain numbers: equal scenarios have one repr, so one content hash
        for name, kind in (("epsilon", float), ("n_theta", int), ("n_phi", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    def content_hash(self, omega_max: float, n_omega: int) -> str:
        """Key of this scenario's table on the grid of
        build_frequency_grid(omega_max, n_omega): the scenario's exact repr
        (every field, floats by exact repr), the grid's panel edges and node
        count, and the package source digest."""
        nodes, _, edges = build_frequency_grid(omega_max, n_omega)
        desc = (self, tuple(edges.tolist()), len(nodes), _SOURCE_DIGEST)
        return hashlib.sha256(repr(desc).encode()).hexdigest()[:12]


@dataclass
class FrequencyTable:
    """Sampled integrand u_hat_sc(i omega_j, x_k) of the synthesis integral.

    omegas are the composite Gauss nodes, in panel order.  panel_edges
    record the composite structure the Filon inversion fits on; weights are
    the Gauss weights (gauss_panels on panel_edges), kept for callers that
    compare tables, and are not used by the inversion.
    """

    omegas: np.ndarray           # (n,)
    weights: np.ndarray          # (n,)
    panel_edges: np.ndarray      # (n_panels + 1,)
    points: np.ndarray           # (P, 3)
    values: np.ndarray           # (n, P) complex
    scenario_hash: str

    def __post_init__(self):
        n, p = self.values.shape
        n_panels = len(self.panel_edges) - 1
        if (self.omegas.shape != (n,) or self.points.shape != (p, 3)
                or n_panels < 1 or n % n_panels):
            raise ValueError("frequency table dimensions are inconsistent")
        at_zero = self.omegas == 0.0
        if np.any(at_zero):
            imag = np.max(np.abs(self.values[at_zero].imag))
            if imag > 1e-10 * max(np.max(np.abs(self.values)), 1e-300):
                raise ValueError("values at omega = 0 must be real for radial data")

    @property
    def n_panels(self) -> int:
        return len(self.panel_edges) - 1

    def save_csv(self, path) -> None:
        with _new_file(path) as fh:
            fh.write(f"# scenario={self.scenario_hash}\n")
            fh.write(f"# points={_points_digest(self.points)}\n")
            fh.write(f"# panel_edges={','.join(f'{e:.17g}' for e in self.panel_edges)}\n")
            fh.write("omega,point_index,re,im\n")
            n, p = self.values.shape
            re_im = np.stack([self.values.real, self.values.imag], axis=-1).reshape(n, 2 * p)
            _write_blocks(fh, self.omegas, re_im, 2)

    @staticmethod
    def load_csv(path, points: np.ndarray) -> "FrequencyTable":
        points = np.asarray(points, dtype=float)
        with open(path) as fh:
            scenario_hash = _header_value(fh.readline(), "scenario", path)
            if _header_value(fh.readline(), "points", path) != _points_digest(points):
                raise ValueError(f"{path}: stored observation points differ from the "
                                 f"requested ones")
            edges_text = _header_value(fh.readline(), "panel_edges", path)
            fh.readline()
            with warnings.catch_warnings():     # a header-only file is rejected below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, 4)
        panel_edges = np.array([float(v) for v in edges_text.split(",")])
        p = points.shape[0]
        n = len(data) // p
        block = data[:n * p].reshape(n, p, 4)
        if (n == 0 or len(data) != n * p or np.any(block[:, :, 1] != np.arange(p))
                or np.any(block[:, :, 0] != block[:, :1, 0])):
            raise ValueError(f"{path}: rows do not form a complete omega-major block "
                             f"of {p} points per node")
        n_panels = len(panel_edges) - 1
        if n_panels < 1 or n % n_panels:
            raise ValueError(f"{path}: {len(panel_edges)} panel edges do not split "
                             f"{n} nodes into whole panels")
        omegas = block[:, 0, 0].copy()
        values = block[:, :, 2] + 1j * block[:, :, 3]
        _, weights = gauss_panels(panel_edges, n // n_panels)
        return FrequencyTable(omegas=omegas, weights=weights, panel_edges=panel_edges,
                              points=points, values=values, scenario_hash=scenario_hash)


@dataclass
class TimeSeries:
    """Synthesized real field values on a time grid x observation points."""

    times: np.ndarray            # (T,)
    values: np.ndarray           # (T, P) real
    scenario_hash: str = ""

    def save_csv(self, path) -> None:
        with _new_file(path) as fh:
            fh.write(f"# scenario={self.scenario_hash}\n")
            fh.write("t,point_index,value\n")
            _write_blocks(fh, self.times, self.values, 1)


def _new_file(path):
    """path opened for writing as a new file: the old directory entry, if
    any, is unlinked first, and a symlink is replaced rather than written
    through.

    Truncating a file the previous run wrote makes ext4 (auto_da_alloc)
    flush it on close, and the next truncate waits for that writeback;
    renaming over the file stalls the same way, a fresh inode does not.  A
    write that is interrupted leaves no file or a partial one: load_csv
    rejects a partial table, and the CLI's table cache re-sweeps it.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "w")


def _write_blocks(fh, keys, fields, per_point: int) -> None:
    """CSV rows `key,k,f1,...` for every key and point k, numbers as %.17g.

    fields[j] holds key j's `per_point` numbers for each point in turn.  Each
    key is formatted once and its block written with one % template.
    """
    n_points = fields.shape[1] // per_point
    tails = [f",{k}" + ",%.17g" * per_point + "\n" for k in range(n_points)]
    if not tails:
        return
    for key, row in zip(keys, fields):
        head = f"{key:.17g}"
        fh.write((head + head.join(tails)) % tuple(row.tolist()))


def _header_value(line: str, key: str, path) -> str:
    """The value of a `# key=value` table header line."""
    prefix = f"# {key}="
    line = line.strip()
    if not line.startswith(prefix):
        raise ValueError(f"{path}: expected a '{prefix}' header line, got {line!r}")
    return line[len(prefix):]


def _points_digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=float).tobytes()).hexdigest()[:12]


def build_frequency_grid(omega_max: float, n_omega: int):
    """Composite Gauss panels: nodes, weights, edges.  n_omega is rounded up
    to a multiple of the panel order."""
    n_panels = max(1, math.ceil(n_omega / GL_PER_PANEL))
    edges = np.linspace(0.0, omega_max, n_panels + 1)
    return (*gauss_panels(edges, GL_PER_PANEL), edges)


def frequency_sweep(scenario: ScatteringScenario, points: np.ndarray,
                    omega_max: float = 40.0, n_omega: int = 400,
                    workers: int = 1) -> FrequencyTable:
    """Sample u_hat_sc(i omega, x) on the composite frequency grid.

    One dense solve per node; `workers` nodes are solved at once on pool
    threads (numpy and LAPACK release the GIL), one worker's on the calling
    thread, and the results come back in node order whatever the worker
    count.  The threads share the grid and its static core and nothing else:
    each solve factors in memory of its own (`bem._lu_solve_with_cond`).
    Every node is solved where the Gauss rule puts it.  A node whose solve
    fails its residual check raises NearResonanceError, which names s, and
    the nodes not yet started are cancelled.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise ValueError("frequency_sweep needs at least one observation point")
    nodes, weights, edges = build_frequency_grid(omega_max, n_omega)
    grid = build_surface_grid(scenario.shape, scenario.epsilon,
                              scenario.n_theta, scenario.n_phi)

    def solve(omega: float):
        s = 1j * omega
        return exterior_field(grid, s, -incident_trace(scenario.pulse, s, grid), points)

    # the static core is built once, before any node starts.  One worker is
    # the calling thread: glibc returns a pool thread's malloc arena to the
    # system only once its free top reaches twice the mmap threshold, so a
    # one-thread pool kept each sweep's freed node matrices beside the
    # caller's heap
    get_static_core(grid)
    if workers == 1:
        rows, diags = zip(*map(solve, nodes.tolist()))
    else:
        with ThreadPoolExecutor(workers) as pool:
            rows, diags = zip(*pool.map(solve, nodes.tolist()))
    values = np.array(rows)
    worst = max(diags, key=lambda diag: diag.condition_estimate)
    logger.info("sweep eps=%.3g: %d nodes, worst condition estimate %.3e (%s-precision factors)",
                scenario.epsilon, len(nodes), worst.condition_estimate, worst.condition_precision)

    tail = np.max(np.abs(values[-GL_PER_PANEL:]))
    peak = float(np.max(np.abs(values)))
    if peak > 0 and tail > TAIL_WARN_RATIO * peak:
        warnings.warn(
            f"frequency tail not resolved: last-panel magnitude {tail:.2e} vs peak {peak:.2e}; "
            f"increase omega_max", stacklevel=2)

    return FrequencyTable(omegas=nodes, weights=weights, panel_edges=edges,
                          points=points, values=values,
                          scenario_hash=scenario.content_hash(omega_max, n_omega))


# -- inversion ---------------------------------------------------------------
def _panel_legendre_coeffs(x_nodes: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Legendre coefficients of the degree-(n-1) interpolant through
    (x_nodes, vals); exact projection when the nodes are the Gauss points."""
    V = np.polynomial.legendre.legvander(x_nodes, len(x_nodes) - 1)
    return np.linalg.solve(V, vals)


def inverse_transform(table: FrequencyTable, times) -> TimeSeries:
    """Synthesize u(t, x) = (1/pi) Re int_0^Omega e^{i omega t} u_hat d omega.

    Each panel contributes the exact Legendre-Bessel moments of the
    interpolant through the nodes it holds.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n_per = len(table.omegas) // table.n_panels
    acc = np.zeros((len(times), table.points.shape[0]), dtype=complex)

    for p in range(table.n_panels):
        a, b = table.panel_edges[p], table.panel_edges[p + 1]
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        sl = slice(p * n_per, (p + 1) * n_per)
        coeffs = _panel_legendre_coeffs((table.omegas[sl] - c) / h, table.values[sl])
        kappa = h * times                                         # (T,)
        moments = np.stack([2.0 * (1j ** k) * spherical_jn(k, kappa)
                            for k in range(n_per)], axis=1)       # (T, n_per)
        acc += np.exp(1j * c * times)[:, None] * (h * (moments @ coeffs))

    # conjugate extension: the omega < 0 half contributes the exact conjugate.
    # The real part is taken after the complex division: acc.real / pi rounds
    # differently in the last bit, and stored series would change with it
    return TimeSeries(times, (acc / math.pi).real, table.scenario_hash)
