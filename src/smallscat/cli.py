"""Config-driven experiment runner.

Subcommands reproduce the scaling and extinction claims at desk scale:

    capacitance     equilibrium solve + refinement study
    oracle-compare  BEM vs the analytic sphere oracle (frequency and time)
    sweep           frequency tables per obstacle scale (CSV)
    synthesize      time series from the tables (CSV)
    theorem1        field-magnitude scaling O(eps) + Huygens tail check
    theorem2        model-error scaling O(eps^2) + tail check
    checks          dilation / projection / density / kernel-difference
    all             everything above

Exit code 0 iff every executed acceptance check passes.  Each run writes a
MANIFEST listing emitted files, stage wall-clock times, and check results.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bem, metrics
from .asymptotic import PointScattererModel, point_scatterer_time
from .config import ConfigError, ExperimentConfig, default_config, parse_config_file
from .geometry import StarShape, build_surface_grid, shell_quadrature
from .incident import incident_trace
from .metrics import ScalingFit, fit_power_law, shell_l2_norm_of_values
from .sphere_oracle import SphereScenario, sphere_scattered_frequency, sphere_scattered_time
from .synthesis import FrequencyTable, ScatteringScenario, _new_file, frequency_sweep, \
    inverse_transform

logger = logging.getLogger(__name__)

SHELL_N_R = 8
SHELL_N_ANG = 4
CAPACITANCE_STUDY = ((6, 12), (8, 16), (12, 24), (16, 32), (24, 48))
ORACLE_RESOLUTIONS = ((12, 24), (16, 32), (20, 40))
ORACLE_FREQUENCIES = (0.0, 1j, 4j)
ORACLE_RADIUS = 2.5
ORACLE_EPS = 0.1

TOL_CAPACITANCE = 1e-4
TOL_ORACLE_FREQ = 1e-4
TOL_ORACLE_TIME = 1e-2
TOL_DILATION = 1e-10
TAIL_RATIO_LIMIT = 1e-3
# (target slope, slope window, max log-residual); the residual guard keeps
# fits through curved data from passing on slope alone
SLOPE_WINDOWS = {
    "theorem1_slope": (1.0, 0.10, 0.05),
    "theorem2_slope": (2.0, 0.15, 0.05),
    "projection_mean_slope": (1.0, 0.15, 0.05),
    "projection_fluctuation_slope": (2.0, 0.20, 0.05),
    "density_expansion_slope": (1.0, 0.20, 0.05),
    "kernel_difference_slope": (2.0, 0.20, 0.05),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class RunManifest:
    """The record of one run: every file it writes in out_dir, the wall time
    of each stage and every check verdict."""

    config_hash: str
    command: str
    out_dir: Path
    files: list = field(default_factory=list)
    timings: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def add_file(self, path: Path):
        self.files.append(str(path))

    def write_csv(self, name: str, header: str, rows) -> None:
        """Write out_dir/name, floats as %.17g under a `# config=` line, and
        list it."""
        path = self.out_dir / name
        with _new_file(path) as fh:
            fh.write(f"# config={self.config_hash}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
        self.add_file(path)

    @contextmanager
    def stage(self, name: str):
        """Record the wall time of the block as stage name."""
        t0 = time.perf_counter()
        yield
        self.timings.append((name, time.perf_counter() - t0))

    def add_check(self, name: str, passed, detail: str) -> bool:
        """Record a verdict and return it."""
        check = CheckResult(name, bool(passed), detail)
        self.checks.append(check)
        logger.info("check %s: %s (%s)", name, "PASS" if check.passed else "FAIL", detail)
        return check.passed

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write(self) -> Path:
        path = self.out_dir / "MANIFEST"
        with _new_file(path) as fh:
            fh.write(f"config_hash: {self.config_hash}\n")
            fh.write(f"command: {self.command}\n")
            fh.write("files:\n")
            for f in self.files:
                fh.write(f"  - {f}\n")
            fh.write("wall_clock_seconds:\n")
            for stage, sec in self.timings:
                fh.write(f"  {stage}: {sec:.2f}\n")
            fh.write("checks:\n")
            for c in self.checks:
                fh.write(f"  {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})\n")
            fh.write(f"overall: {'PASS' if self.all_passed else 'FAIL'}\n")
        return path


def _fit_check(manifest: RunManifest, name: str, fit: ScalingFit) -> bool:
    """Record whether fit lies in the SLOPE_WINDOWS entry for name; return it."""
    target, slope_tol, resid_tol = SLOPE_WINDOWS[name]
    return manifest.add_check(
        name, fit.within(target, slope_tol, resid_tol),
        f"slope={fit.slope:.4f} target={target}+-{slope_tol} residual={fit.max_residual:.4f}")


# ---------------------------------------------------------------------------
# capacitance
# ---------------------------------------------------------------------------
def cmd_capacitance(config: ExperimentConfig, manifest: RunManifest):
    rows = []
    results = []
    for (nt, np_) in CAPACITANCE_STUDY:
        with manifest.stage(f"capacitance_{nt}x{np_}"):
            t0, cpu0 = time.perf_counter(), time.process_time()
            cap = bem.capacitance(config.shape, nt, np_)
            dt, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        results.append(cap)
        rows.append([nt, np_, cap.c1, float(np.min(cap.sigma1)), float(np.max(cap.sigma1)), dt])
    # bumpy shapes are measured against their finest solve (self-convergence)
    reference = (4.0 * math.pi * config.shape.constant if config.shape.is_sphere
                 else results[-1].c1)
    errors = [abs(r.c1 - reference) / abs(reference) for r in results]
    manifest.write_csv("capacitance.csv",
                       "n_theta,n_phi,c1,sigma_min,sigma_max,seconds,rel_error",
                       [row + [err] for row, err in zip(rows, errors)])

    manifest.add_check(
        "capacitance_value", errors[-1] <= TOL_CAPACITANCE,
        f"c1={results[-1].c1:.8f} rel_err={errors[-1]:.3e} tol={TOL_CAPACITANCE}")
    # gated on the process CPU time of the finest solve (BLAS threads add to
    # it), not wall time, so the verdict does not follow machine load
    manifest.add_check("capacitance_runtime", cpu < 5.0, f"{cpu:.2f}s CPU at 24x48 (< 5 s)")
    # the singular scheme is spectrally exact for the shipped smooth shapes:
    # errors sit at a ~1e-9 roundoff floor, so decrease is only required
    # above it
    floor = 5e-9
    monotone = all(errors[i + 1] <= max(1.05 * errors[i], floor) for i in range(len(errors) - 1))
    manifest.add_check(
        "capacitance_refinement", monotone,
        "errors " + " ".join(f"{e:.2e}" for e in errors) + f" (non-increasing above {floor:.0e} floor)")
    return results


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------
def cmd_oracle_compare(config: ExperimentConfig, manifest: RunManifest):
    pulse = config.pulse
    scn = SphereScenario(ORACLE_EPS, pulse)
    shape = StarShape.sphere()
    point = np.array([[ORACLE_RADIUS, 0.0, 0.0]])

    rows = []
    for (nt, np_) in ORACLE_RESOLUTIONS:
        grid = build_surface_grid(shape, ORACLE_EPS, nt, np_)
        for s in ORACLE_FREQUENCIES:
            values, _ = bem.exterior_field(grid, s, -incident_trace(pulse, s, grid), point)
            val = values[0]
            ref = sphere_scattered_frequency(scn, s, ORACLE_RADIUS)
            rel = abs(val - ref) / abs(ref)
            rows.append([nt, np_, complex(s).imag, val.real, val.imag, ref.real, ref.imag, rel])
    worst_final = max(row[-1] for row in rows[-len(ORACLE_FREQUENCIES):])   # finest grid
    manifest.write_csv("oracle_compare_frequency.csv",
                       "n_theta,n_phi,omega,bem_re,bem_im,oracle_re,oracle_im,rel_error", rows)
    manifest.add_check(
        "oracle_frequency", worst_final <= TOL_ORACLE_FREQ,
        f"worst rel error {worst_final:.3e} at {ORACLE_RESOLUTIONS[-1]} (tol {TOL_ORACLE_FREQ})")

    with manifest.stage("oracle_time_domain"):
        scenario = ScatteringScenario(shape, ORACLE_EPS, pulse,
                                      n_theta=config.n_theta, n_phi=config.n_phi)
        table = frequency_sweep(scenario, point, config.omega_max, config.n_omega,
                                workers=config.workers)
        times = np.linspace(0.0, config.t_max, config.n_t)
        series = inverse_transform(table, times)
        exact = np.array([sphere_scattered_time(scn, t, ORACLE_RADIUS) for t in times])
        peak = float(np.max(np.abs(exact)))
        err = float(np.max(np.abs(series.values[:, 0] - exact)))
    manifest.write_csv("oracle_compare_time.csv", "t,synthesized,exact",
                       [[t, v, e] for t, v, e in zip(times, series.values[:, 0], exact)])
    manifest.add_check(
        "oracle_time_domain", err <= TOL_ORACLE_TIME * peak,
        f"max-in-time error {err:.3e} vs {TOL_ORACLE_TIME} x peak {peak:.3e}")


# ---------------------------------------------------------------------------
# sweep / synthesize
# ---------------------------------------------------------------------------
def _observation_rule(config: ExperimentConfig):
    return shell_quadrature(config.shell, SHELL_N_R, SHELL_N_ANG)


def _synthesis_times(config: ExperimentConfig) -> np.ndarray:
    return np.union1d(np.linspace(0.0, config.t_max, config.n_t), [config.t0])


def _tail_window(config: ExperimentConfig, times: np.ndarray) -> np.ndarray:
    """The times the tail checks look at: from t* + 0.5 on."""
    return times >= config.t_star + 0.5


def _cached_table(path: Path, points: np.ndarray, key: str) -> FrequencyTable | None:
    """The table stored at path for these observation points, if its key is key."""
    if not path.exists():
        return None
    try:
        cached = FrequencyTable.load_csv(path, points)
    except ValueError as exc:
        logger.info("stale table %s (%s); recomputing", path.name, exc)
        return None
    if cached.scenario_hash != key:
        logger.info("stale table %s: key mismatch (stored %s, expected %s), recomputing",
                    path.name, cached.scenario_hash, key)
        return None
    logger.info("reusing table %s (scenario %s)", path.name, key)
    return cached


def cmd_sweep(config: ExperimentConfig, manifest: RunManifest) -> dict:
    """One frequency table per scale; reuses an on-disk table of the same key."""
    pts, _ = _observation_rule(config)
    tables = {}
    for eps in config.epsilons:
        scenario = ScatteringScenario(config.shape, eps, config.pulse,
                                      n_theta=config.n_theta, n_phi=config.n_phi)
        path = manifest.out_dir / f"freq_table_eps{eps:g}.csv"
        table = _cached_table(path, pts, scenario.content_hash(config.omega_max, config.n_omega))
        if table is None:
            with manifest.stage(f"sweep_eps_{eps:g}"):
                table = frequency_sweep(scenario, pts, config.omega_max, config.n_omega,
                                        workers=config.workers)
            table.save_csv(path)
        manifest.add_file(path)
        tables[eps] = table
    return tables


def cmd_synthesize(config: ExperimentConfig, manifest: RunManifest):
    tables = cmd_sweep(config, manifest)
    times = _synthesis_times(config)
    series = {}
    for eps, table in tables.items():
        ts = inverse_transform(table, times)
        path = manifest.out_dir / f"timeseries_eps{eps:g}.csv"
        ts.save_csv(path)
        manifest.add_file(path)
        series[eps] = ts
    return tables, series


# ---------------------------------------------------------------------------
# theorem commands
# ---------------------------------------------------------------------------
def _norm_scaling(config: ExperimentConfig, manifest: RunManifest, prepared, quantity,
                  name: str, header: str, tail_check: str, tail_label: str):
    """Shell-norm history of quantity(eps, times, u_sc) per scale: its value
    at t0 is fitted against eps, and its largest value after t* + 0.5 is
    compared with the peak field norm before t*."""
    _, weights = _observation_rule(config)
    if prepared is None:
        prepared = cmd_synthesize(config, manifest)
    _, series = prepared
    times = next(iter(series.values())).times
    i_t0 = int(np.argmin(np.abs(times - config.t0)))
    pre = times <= config.t_star
    post = _tail_window(config, times)

    rows, points, tail_ratios = [], [], []
    for eps in config.epsilons:
        u_sc = series[eps].values
        norms = shell_l2_norm_of_values(quantity(eps, times, u_sc), weights)
        field_norms = shell_l2_norm_of_values(u_sc, weights)
        peak, tail = float(np.max(field_norms[pre])), float(np.max(norms[post]))
        rows.append([eps, float(norms[i_t0]), peak, tail, tail / peak])
        points.append((eps, float(norms[i_t0])))
        tail_ratios.append(tail / peak)
    fit = fit_power_law(points)
    manifest.write_csv(f"{name}.csv", header, rows)
    _fit_check(manifest, f"{name}_slope", fit)
    worst = max(tail_ratios)
    manifest.add_check(tail_check, worst < TAIL_RATIO_LIMIT,
                       f"worst post-t* {tail_label} {worst:.2e} (< {TAIL_RATIO_LIMIT})")
    return fit, rows


def cmd_theorem1(config: ExperimentConfig, manifest: RunManifest, prepared=None):
    """Field scaling ||u_sc(t0)|| ~ eps and tail extinction after t*."""
    return _norm_scaling(config, manifest, prepared,
                         lambda eps, times, u_sc: u_sc, "theorem1",
                         "eps,norm_t0,pre_peak,post_tail,tail_ratio",
                         "huygens_tail", "tail/peak")


def cmd_theorem2(config: ExperimentConfig, manifest: RunManifest, prepared=None,
                 c1: float | None = None):
    """Model-error scaling ||u_app - u_sc||(t0) ~ eps^2 and the same tail check."""
    pts, _ = _observation_rule(config)
    if c1 is None:
        c1 = bem.capacitance(config.shape, *CAPACITANCE_STUDY[-1]).c1

    def model_error(eps, times, u_sc):
        model = PointScattererModel(c_eps=eps * c1, pulse=config.pulse)
        return np.stack([point_scatterer_time(model, t, pts) for t in times]) - u_sc

    return _norm_scaling(config, manifest, prepared, model_error, "theorem2",
                         "eps,error_norm_t0,field_pre_peak,post_tail,tail_ratio",
                         "theorem2_tail", "error tail/field peak")


# ---------------------------------------------------------------------------
# proposition checks
# ---------------------------------------------------------------------------
def cmd_checks(config: ExperimentConfig, manifest: RunManifest):
    bumpy = StarShape.bumpy_sphere()
    fits = {}

    with manifest.stage("check_dilation"):
        worst = max(metrics.check_dilation_identity(shape, (0.1, 0.25), (1.0, 2j))
                    for shape in (StarShape.sphere(), bumpy))
    manifest.add_check("dilation_identity", worst < TOL_DILATION,
                       f"max relative mismatch {worst:.2e} (< {TOL_DILATION})")
    with manifest.stage("check_projection"):
        fits["projection_mean"], fits["projection_fluctuation"] = \
            metrics.check_projection_scaling(bumpy, config.pulse, 1j, config.epsilons,
                                             config.n_theta, config.n_phi)
    with manifest.stage("check_density"):
        fits["density_expansion"] = metrics.check_density_expansion(
            bumpy, config.pulse, 1j, config.epsilons, config.n_theta, config.n_phi)
    with manifest.stage("check_kernel"):
        fits["kernel_difference"] = metrics.check_kernel_difference(
            StarShape.offset_bumpy_sphere(), config.epsilons, 1j, config.shell,
            config.n_theta, config.n_phi)

    manifest.write_csv(
        "checks.csv", "check_name,slope,intercept,max_residual,pass",
        [(name, fit.slope, fit.intercept, fit.max_residual,
          "pass" if _fit_check(manifest, f"{name}_slope", fit) else "fail")
         for name, fit in fits.items()])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def cmd_all(config: ExperimentConfig, manifest: RunManifest):
    caps = cmd_capacitance(config, manifest)
    cmd_oracle_compare(config, manifest)
    cmd_checks(config, manifest)
    prepared = cmd_synthesize(config, manifest)
    cmd_theorem1(config, manifest, prepared=prepared)
    cmd_theorem2(config, manifest, prepared=prepared, c1=caps[-1].c1)


COMMANDS = {
    "capacitance": cmd_capacitance,
    "oracle-compare": cmd_oracle_compare,
    "sweep": cmd_sweep,
    "synthesize": cmd_synthesize,
    "theorem1": cmd_theorem1,
    "theorem2": cmd_theorem2,
    "checks": cmd_checks,
    "all": cmd_all,
}


def run_command(name: str, config: ExperimentConfig, out_dir) -> RunManifest:
    # reject, before any work, a config whose fits the command could not form
    if name in ("theorem1", "theorem2", "checks", "all") and len(config.epsilons) < 2:
        raise ConfigError(f"key 'epsilons': '{name}' fits a power law in eps and needs "
                          f"at least two scales, got {config.epsilons}")
    if name in ("theorem1", "theorem2", "all") and \
            not np.any(_tail_window(config, _synthesis_times(config))):
        raise ConfigError(f"key 'time.t_max': '{name}' needs times from t* + 0.5 = "
                          f"{config.t_star + 0.5:g} on, got t_max = {config.t_max:g}")
    if name in ("oracle-compare", "all") and config.pulse.origin_distance != 0.0:
        raise ConfigError(f"key 'pulse.center': '{name}' needs an origin-centred pulse")
    manifest = RunManifest(config.config_hash(), name, Path(out_dir))
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    with manifest.stage("total"):
        COMMANDS[name](config, manifest)
    logger.info("manifest written to %s (overall %s)", manifest.write(),
                "PASS" if manifest.all_passed else "FAIL")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smallscat",
        description="Desk-scale verification of point-scatterer asymptotics "
                    "for sound-soft wave scattering by a small obstacle.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="config file path")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="frequency nodes solved at once, on threads")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = parse_config_file(args.config) if args.config else default_config()
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("key 'workers' must be >= 1")
            config = replace(config, workers=args.workers)
        out_dir = args.out if args.out else config.output_dir
        manifest = run_command(args.command, config, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for check in manifest.checks:
        print(f"{check.name}: {'PASS' if check.passed else 'FAIL'} ({check.detail})")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
