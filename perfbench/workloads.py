"""The benchmark's three workloads, driven through the public smallscat API.

Each workload has a set-up (inputs, oracle references, warm-up), a timed
``run`` and an untimed ``check`` that applies the correctness gates.  Calls
into the program go through module attributes (``synthesis.frequency_sweep``
and so on) so that a traced pass, which swaps those attributes for timing
wrappers, sees every call.

Why these three:

* ``sweep``: the acceptance fixture's four scales, eps = 0.02 .. 0.16, on a
  sphere at 20x40.  Per-node work (trace, assembly, LU, evaluation)
  dominates, and eps * omega spans [0, 6.4], so a solver switch keyed on it
  has nodes on both sides, and reuse across scales has several scales to win
  on.
* ``static-checks``: the ``capacitance`` and ``checks`` CLI commands on
  configs/asymptotic.cfg.  Twenty-six fresh grids each build a static core,
  and the solves are few, small and often real.  Static-core or grid reuse
  must move this one.
* ``resynth``: exact oracle tables written and read as CSV, inverted and
  fed to the point-scatterer model and both theorem fits.  No BEM call is
  timed, so a BEM optimisation must leave it unchanged.

The seed rotates the shell observation rule rigidly in ``sweep`` and
``resynth``: the sphere oracles depend on |x| only, so they stay exact and
the cost is unchanged.  ``static-checks`` has fixed CLI inputs.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial.transform import Rotation

from smallscat import asymptotic, bem, cli, config, geometry, metrics, synthesis
from smallscat.bem import NearResonanceError
from smallscat.sphere_oracle import SphereScenario, sphere_scattered_frequency, \
    sphere_scattered_time

ROOT = Path(__file__).resolve().parent.parent
ASYMPTOTIC_CFG = ROOT / "configs" / "asymptotic.cfg"

SWEEP_EPSILONS = (0.02, 0.04, 0.08, 0.16)
SWEEP_NODES_PER_SCALE = 16        # two 8-point Gauss panels on [0, 40]
WORKERS = 1


@dataclass
class Outcome:
    """Checked result of one pass: operations and gate verdicts."""

    attempted: int
    failed: int
    oracle_err: float
    gate_errors: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    unit_of_work: str
    seed_effect: str
    setup: Callable
    run: Callable
    check: Callable


def _shell_rule(cfg, seed: int):
    """The CLI's shell observation rule, rigidly rotated by the seed."""
    pts, weights = geometry.shell_quadrature(cfg.shell, cli.SHELL_N_R, cli.SHELL_N_ANG)
    rotation = Rotation.random(random_state=seed).as_matrix()
    return pts @ rotation.T, weights


def _warm_up(cfg) -> None:
    """One BEM node at the shipped resolution, so the first timed pass does
    not pay for lazily initialised state (BLAS threads, LAPACK wrappers,
    quadrature caches).  Builds its own grid: nothing carries over."""
    bem.scattered_frequency(cfg.shape, 0.08, cfg.pulse, 8j, np.array([[2.5, 0.0, 0.0]]),
                            n_theta=cfg.n_theta, n_phi=cfg.n_phi)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
@dataclass
class SweepState:
    cfg: object
    points: np.ndarray
    radii: np.ndarray
    n_omega: int
    requested: np.ndarray
    scenarios: list
    oracle: dict


def _sphere_frequency(eps, pulse, omegas, radii) -> np.ndarray:
    scn = SphereScenario(eps, pulse)
    return np.array([sphere_scattered_frequency(scn, 1j * om, radii) for om in omegas])


def sweep_setup(seed: int, work_dir: Path, nodes_per_scale: int = SWEEP_NODES_PER_SCALE):
    cfg = config.default_config()
    points, _ = _shell_rule(cfg, seed)
    radii = np.linalg.norm(points, axis=1)
    requested, _, _ = synthesis.build_frequency_grid(cfg.omega_max, nodes_per_scale)
    scenarios = [synthesis.ScatteringScenario(cfg.shape, eps, cfg.pulse,
                                              n_theta=cfg.n_theta, n_phi=cfg.n_phi)
                 for eps in SWEEP_EPSILONS]
    oracle = {eps: _sphere_frequency(eps, cfg.pulse, requested, radii) for eps in SWEEP_EPSILONS}
    _warm_up(cfg)
    return SweepState(cfg, points, radii, nodes_per_scale, requested, scenarios, oracle)


def sweep_run(state: SweepState):
    tables, exhausted = {}, 0
    for scn in state.scenarios:
        try:
            tables[scn.epsilon] = synthesis.frequency_sweep(
                scn, state.points, state.cfg.omega_max, state.n_omega, workers=WORKERS)
        except NearResonanceError:
            # a node that exhausts its nudges ends its scale's sweep
            exhausted += 1
    return tables, exhausted


def sweep_check(state: SweepState, raw) -> Outcome:
    tables, exhausted = raw
    out = Outcome(attempted=len(state.requested) * len(state.scenarios), failed=exhausted,
                  oracle_err=0.0)
    for eps, table in tables.items():
        ref = state.oracle[eps].copy()
        moved = table.omegas != state.requested
        if np.any(moved):
            ref[moved] = _sphere_frequency(eps, state.cfg.pulse, table.omegas[moved], state.radii)
        err = float(np.max(np.abs(table.values - ref)) / np.max(np.abs(ref)))
        out.oracle_err = max(out.oracle_err, err)
        if not err <= cli.TOL_ORACLE_FREQ:
            out.gate_errors.append(f"eps={eps:g}: frequency oracle error {err:.3e} "
                                   f"> {cli.TOL_ORACLE_FREQ}")
    return out


# ---------------------------------------------------------------------------
# static-checks
# ---------------------------------------------------------------------------
CHECK_COMMANDS = ("capacitance", "checks")
EXPECTED_VERDICTS = 8


@dataclass
class ChecksState:
    cfg: object
    out_dir: Path


def checks_setup(seed: int, work_dir: Path):
    cfg = config.parse_config_file(ASYMPTOTIC_CFG)
    if cfg.workers != WORKERS:
        raise RuntimeError(f"{ASYMPTOTIC_CFG} sets workers = {cfg.workers}, expected {WORKERS}")
    _warm_up(cfg)
    return ChecksState(cfg, work_dir / "checks")


def checks_run(state: ChecksState):
    # run_command creates the output directory; check() removes it, so
    # every pass starts from an empty one
    manifests = [cli.run_command(name, state.cfg, state.out_dir) for name in CHECK_COMMANDS]
    return [c for m in manifests for c in m.checks]


def checks_check(state: ChecksState, verdicts) -> Outcome:
    with open(state.out_dir / "capacitance.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    shutil.rmtree(state.out_dir)
    failed = [c for c in verdicts if not c.passed]
    out = Outcome(attempted=len(verdicts), failed=len(failed),
                  oracle_err=float(rows[-1]["rel_error"]))
    out.gate_errors += [f"{c.name}: FAIL ({c.detail})" for c in failed]
    if len(verdicts) != EXPECTED_VERDICTS:
        out.gate_errors.append(f"{len(verdicts)} verdicts, expected {EXPECTED_VERDICTS}")
    return out


# ---------------------------------------------------------------------------
# resynth
# ---------------------------------------------------------------------------
@dataclass
class ResynthState:
    cfg: object
    work_dir: Path
    points: np.ndarray
    weights: np.ndarray
    tables: dict
    c1: float
    times: np.ndarray
    i_t0: int
    exact: dict


def resynth_setup(seed: int, work_dir: Path):
    cfg = config.parse_config_file(ASYMPTOTIC_CFG)
    points, weights = _shell_rule(cfg, seed)
    radii = np.linalg.norm(points, axis=1)
    omegas, quad_weights, edges = synthesis.build_frequency_grid(cfg.omega_max, cfg.n_omega)
    tables = {eps: synthesis.FrequencyTable(
        omegas=omegas, weights=quad_weights, panel_edges=edges, points=points,
        values=_sphere_frequency(eps, cfg.pulse, omegas, radii),
        scenario_hash=f"sphere-oracle-eps{eps:g}") for eps in cfg.epsilons}
    c1 = bem.capacitance(cfg.shape).c1
    work_dir.mkdir(parents=True, exist_ok=True)
    # the time grid of cmd_synthesize
    times = np.union1d(np.linspace(0.0, cfg.t_max, cfg.n_t), [cfg.t0])
    exact = {eps: sphere_scattered_time(SphereScenario(eps, cfg.pulse),
                                        times[:, None], radii[None, :])
             for eps in cfg.epsilons}
    return ResynthState(cfg, work_dir, points, weights, tables, c1, times,
                        int(np.argmin(np.abs(times - cfg.t0))), exact)


def resynth_run(state: ResynthState):
    loaded, series, field_t0, error_t0 = {}, {}, [], []
    for eps, table in state.tables.items():
        path = state.work_dir / f"freq_table_eps{eps:g}.csv"
        table.save_csv(path)
        loaded[eps] = synthesis.FrequencyTable.load_csv(path, state.points)
        u_sc = synthesis.inverse_transform(loaded[eps], state.times).values
        model = asymptotic.PointScattererModel(c_eps=eps * state.c1, pulse=state.cfg.pulse)
        u_app = np.stack([asymptotic.point_scatterer_time(model, t, state.points)
                          for t in state.times])
        field_norms = np.sqrt(u_sc ** 2 @ state.weights)
        error_norms = np.sqrt((u_app - u_sc) ** 2 @ state.weights)
        series[eps] = u_sc
        field_t0.append((eps, float(field_norms[state.i_t0])))
        error_t0.append((eps, float(error_norms[state.i_t0])))
    fits = {"theorem1_slope": metrics.fit_power_law(field_t0),
            "theorem2_slope": metrics.fit_power_law(error_t0)}
    return loaded, series, fits


def resynth_check(state: ResynthState, raw) -> Outcome:
    loaded, series, fits = raw
    out = Outcome(attempted=len(state.tables), failed=0, oracle_err=0.0)
    for eps, table in state.tables.items():
        back = loaded[eps]
        errors = []
        if not (np.array_equal(back.omegas, table.omegas)
                and np.array_equal(back.values, table.values)
                and np.array_equal(back.weights, table.weights)
                and np.array_equal(back.panel_edges, table.panel_edges)
                and back.scenario_hash == table.scenario_hash):
            errors.append(f"eps={eps:g}: CSV round trip is not bit-exact")
        exact = state.exact[eps]
        peak = float(np.max(np.abs(exact)))
        err = float(np.max(np.abs(series[eps] - exact))) / peak
        out.oracle_err = max(out.oracle_err, err)
        if not err <= cli.TOL_ORACLE_TIME:
            errors.append(f"eps={eps:g}: time oracle error {err:.3e} x peak "
                          f"> {cli.TOL_ORACLE_TIME}")
        out.failed += bool(errors)
        out.gate_errors += errors
    for name, fit in fits.items():
        if not fit.within(*cli.SLOPE_WINDOWS[name]):
            out.gate_errors.append(f"{name}: slope {fit.slope:.4f}, residual "
                                   f"{fit.max_residual:.4f} outside {cli.SLOPE_WINDOWS[name]}")
    return out


WORKLOADS = {
    "sweep": Workload("sweep", "frequency nodes", "rotates the shell observation rule",
                      sweep_setup, sweep_run, sweep_check),
    "static-checks": Workload("static-checks", "CLI verdicts",
                              "none: the CLI inputs are fixed", checks_setup,
                              checks_run, checks_check),
    "resynth": Workload("resynth", "frequency tables", "rotates the shell observation rule",
                        resynth_setup, resynth_run, resynth_check),
}

# smallest inputs that still exercise every layer of a workload
MIN_SIZE = {"sweep": {"nodes_per_scale": 8}, "static-checks": {}, "resynth": {}}
