"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.

Criteria 4 and 5 are asserted exactly as stated and are expected to fail:
the stated snapshot time t0 = 5.5 truncates the scattered pulse at the
outer shell radius (slope drops to ~0.54), and the eps = 0.16 endpoint of
the pinned sweep carries enough next-order curvature to push the error
fit's log-residual above 0.05.  Both effects are reproduced by the exact
monopole solution (see "Known parameter pitfalls" in README.md); companion
tests verify the underlying scaling claims in well-posed configurations and
pass.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from smallscat import bem, metrics
from smallscat.asymptotic import PointScattererModel, point_scatterer_time
from smallscat.config import default_config
from smallscat.geometry import StarShape, build_surface_grid, shell_quadrature
from smallscat.incident import incident_laplace, incident_time, incident_trace
from smallscat.metrics import fit_power_law
from smallscat.sphere_oracle import (
    SphereScenario, sphere_scattered_frequency, sphere_scattered_time,
)
from smallscat.synthesis import ScatteringScenario, frequency_sweep, inverse_transform

CONFIG = default_config()
EPS_SWEEP = CONFIG.epsilons
T_STATED = 5.5          # criterion as written
T_INSIDE = 5.0          # reflected pulse fully inside the shell


def _report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def theorem_data(pulse):
    """Default-scenario sweeps for all scales plus the shell norm histories."""
    pts, w = shell_quadrature(CONFIG.shell, 8, 4)
    times = np.linspace(0.0, CONFIG.t_max, CONFIG.n_t)
    cap = bem.capacitance(CONFIG.shape, 24, 48)
    data = {"points": pts, "weights": w, "times": times, "c1": cap.c1, "cap": cap}
    i_stated = int(np.argmin(np.abs(times - T_STATED)))
    i_inside = int(np.argmin(np.abs(times - T_INSIDE)))
    pre = times <= CONFIG.t_star
    post = times >= CONFIG.t_star + 0.5

    per_eps = {}
    for eps in EPS_SWEEP:
        t0 = time.time()
        scn = ScatteringScenario(CONFIG.shape, eps, pulse,
                                 n_theta=CONFIG.n_theta, n_phi=CONFIG.n_phi)
        table = frequency_sweep(scn, pts, CONFIG.omega_max, CONFIG.n_omega)
        series = inverse_transform(table, times)
        model = PointScattererModel(c_eps=eps * cap.c1, pulse=pulse)
        u_app = np.stack([point_scatterer_time(model, t, pts) for t in times])
        err = u_app - series.values
        norms = np.sqrt(series.values ** 2 @ w)
        err_norms = np.sqrt(err ** 2 @ w)
        per_eps[eps] = {
            "wall": time.time() - t0,
            "norm_stated": float(norms[i_stated]),
            "norm_inside": float(norms[i_inside]),
            "err_stated": float(err_norms[i_stated]),
            "err_inside": float(err_norms[i_inside]),
            "peak": float(np.max(norms[pre])),
            "tail": float(np.max(norms[post])),
        }
    data["per_eps"] = per_eps
    data["sweep_wall"] = sum(v["wall"] for v in per_eps.values())
    return data


# -- criterion 1: capacitance --------------------------------------------------
def test_criterion_01_capacitance(sphere):
    start = time.time()
    cap = bem.capacitance(sphere, 24, 48)
    wall = time.time() - start
    rel = abs(cap.c1 - 4 * math.pi) / (4 * math.pi)
    errors = []
    for res in ((6, 12), (12, 24), (24, 48)):
        errors.append(abs(bem.capacitance(sphere, *res).c1 - 4 * math.pi) / (4 * math.pi))
    floor = 5e-9
    monotone = all(errors[i + 1] <= max(1.05 * errors[i], floor) for i in range(len(errors) - 1))
    ok = rel < 1e-4 and wall < 5.0 and monotone
    assert _report("1 (capacitance)", ok,
                   f"c1 rel err {rel:.2e} (tol 1e-4), {wall:.2f}s (< 5 s), "
                   f"refinement errors {['%.1e' % e for e in errors]}")


# -- criterion 2: frequency oracle ----------------------------------------------
def test_criterion_02_frequency_oracle(pulse):
    eps = 0.1
    scn = SphereScenario(eps, pulse)
    grid = build_surface_grid(StarShape.sphere(), eps, 20, 40)
    point = np.array([[2.5, 0.0, 0.0]])
    worst = 0.0
    for s in (0.0, 1j, 4j):
        val = bem.exterior_field(grid, s, -incident_trace(pulse, s, grid), point)[0][0]
        ref = sphere_scattered_frequency(scn, s, 2.5)
        worst = max(worst, abs(val - ref) / abs(ref))
    ok = worst < 1e-4
    assert _report("2 (frequency oracle)", ok,
                   f"worst relative error {worst:.2e} at s in {{0, i, 4i}} (tol 1e-4)")


# -- criterion 3: time-domain oracle ---------------------------------------------
def test_criterion_03_time_oracle(pulse):
    eps = 0.1
    scn = ScatteringScenario(StarShape.sphere(), eps, pulse,
                             n_theta=CONFIG.n_theta, n_phi=CONFIG.n_phi)
    point = np.array([[2.5, 0.0, 0.0]])
    table = frequency_sweep(scn, point, CONFIG.omega_max, CONFIG.n_omega)
    times = np.linspace(0.0, 10.0, 201)
    series = inverse_transform(table, times)
    oracle = SphereScenario(eps, pulse)
    exact = np.array([sphere_scattered_time(oracle, t, 2.5) for t in times])
    peak = float(np.max(np.abs(exact)))
    err = float(np.max(np.abs(series.values[:, 0] - exact)))
    ok = err < 1e-2 * peak
    assert _report("3 (time-domain oracle)", ok,
                   f"max-in-time error {err:.2e} vs 1e-2 x peak {peak:.2e}")


# -- criteria 4 and 5: scaling laws ------------------------------------------------
def test_criterion_04_field_scaling_as_stated(theorem_data):
    fit = fit_power_law([(e, theorem_data["per_eps"][e]["norm_stated"]) for e in EPS_SWEEP])
    ok = abs(fit.slope - 1.0) <= 0.1 and fit.max_residual < 0.05
    _report("4 (field scaling, stated t0=5.5)", ok,
            f"slope {fit.slope:.4f} (target 1.0+-0.1), residual {fit.max_residual:.4f} (< 0.05)")
    assert ok, (
        f"unattainable as stated: slope {fit.slope:.4f}, residual {fit.max_residual:.4f}. "
        "At t0 = 5.5 the outer shell radius truncates the scattered pulse "
        "mid-waveform; the exact monopole solution gives slope 0.536 / "
        "residual 0.133 for these parameters (README, Known parameter pitfalls). "
        "The companion test verifies the Theorem-2.1 scaling at t0 = 5.0.")


def test_criterion_04_companion_field_scaling(theorem_data):
    fit = fit_power_law([(e, theorem_data["per_eps"][e]["norm_inside"]) for e in EPS_SWEEP])
    ok = abs(fit.slope - 1.0) <= 0.1 and fit.max_residual < 0.05
    assert _report("4c (field scaling, pulse inside shell, t0=5.0)", ok,
                   f"slope {fit.slope:.4f} (target 1.0+-0.1), residual {fit.max_residual:.4f}")


def test_criterion_05_error_scaling_as_stated(theorem_data):
    fit = fit_power_law([(e, theorem_data["per_eps"][e]["err_stated"]) for e in EPS_SWEEP])
    ok = abs(fit.slope - 2.0) <= 0.15 and fit.max_residual < 0.05
    _report("5 (model-error scaling, stated t0=5.5)", ok,
            f"slope {fit.slope:.4f} (target 2.0+-0.15), residual {fit.max_residual:.4f} (< 0.05)")
    assert ok, (
        f"unattainable as stated: slope {fit.slope:.4f}, residual {fit.max_residual:.4f}. "
        "The eps = 0.16 endpoint of the pinned sweep sits in the next-order "
        "regime of this sharply peaked pulse; the exact solution gives "
        "residual 0.074 at t0 = 5.5 and 0.057 at t0 = 5.0 (README, Known parameter pitfalls). "
        "The companion test verifies the Theorem-3.1 scaling on {0.02..0.08}.")


def test_criterion_05_companion_error_scaling(theorem_data):
    subset = [e for e in EPS_SWEEP if e <= 0.08]
    fit = fit_power_law([(e, theorem_data["per_eps"][e]["err_inside"]) for e in subset])
    ok = abs(fit.slope - 2.0) <= 0.15 and fit.max_residual < 0.05
    assert _report("5c (model-error scaling, eps <= 0.08, t0=5.0)", ok,
                   f"slope {fit.slope:.4f} (target 2.0+-0.15), residual {fit.max_residual:.4f}")


# -- criterion 6: Huygens extinction ------------------------------------------------
def test_criterion_06_huygens_tail(theorem_data):
    ratios = {e: theorem_data["per_eps"][e]["tail"] / theorem_data["per_eps"][e]["peak"]
              for e in EPS_SWEEP}
    worst = max(ratios.values())
    ok = worst < 1e-3
    assert _report("6 (Huygens extinction)", ok,
                   f"worst post-t* tail/peak {worst:.2e} over eps sweep (< 1e-3)")


def test_criterion_06_runtime(theorem_data):
    wall = theorem_data["sweep_wall"]
    ok = wall < 900.0
    assert _report("4/5/6 runtime (full sweep)", ok, f"{wall:.0f}s for the eps sweep (< 900 s)")


# -- criterion 7: dilation identity --------------------------------------------------
def test_criterion_07_dilation(sphere, bumpy):
    worst = max(metrics.check_dilation_identity(shape, (0.1, 0.25), (1.0, 2j))
                for shape in (sphere, bumpy))
    ok = worst < 1e-10
    assert _report("7 (dilation identity)", ok,
                   f"max relative mismatch {worst:.2e} over shapes x (0.1, 0.25) x (1, 2i)")


# -- criterion 8: projection scalings ---------------------------------------------
def test_criterion_08_projection_scalings(pulse, bumpy):
    mean_fit, fluct_fit = metrics.check_projection_scaling(
        bumpy, pulse, 1j, EPS_SWEEP, CONFIG.n_theta, CONFIG.n_phi)
    ok = abs(mean_fit.slope - 1.0) <= 0.15 and abs(fluct_fit.slope - 2.0) <= 0.2
    assert _report("8 (projection scalings)", ok,
                   f"mean slope {mean_fit.slope:.4f} (1.0+-0.15), "
                   f"fluctuation slope {fluct_fit.slope:.4f} (2.0+-0.2)")


# -- criterion 9: density expansion ---------------------------------------------
def test_criterion_09_density_expansion(pulse, bumpy):
    fit = metrics.check_density_expansion(bumpy, pulse, 1j, EPS_SWEEP,
                                          CONFIG.n_theta, CONFIG.n_phi)
    ok = abs(fit.slope - 1.0) <= 0.2
    assert _report("9 (density expansion)", ok, f"slope {fit.slope:.4f} (target 1.0+-0.2)")


# -- criterion 10: kernel difference -----------------------------------------------
def test_criterion_10_kernel_difference():
    fit = metrics.check_kernel_difference(StarShape.offset_bumpy_sphere(), EPS_SWEEP, 1j,
                                          CONFIG.shell, CONFIG.n_theta, CONFIG.n_phi)
    ok = abs(fit.slope - 2.0) <= 0.2
    assert _report("10 (kernel difference)", ok, f"slope {fit.slope:.4f} (target 2.0+-0.2)")


# -- criterion 11: consistency suite ------------------------------------------------
def test_criterion_11_consistency(pulse, theorem_data):
    """Transform consistencies at 1e-8 plus a bundle of exact identities.

    The remaining [TRIVIAL] spec examples are asserted across the module
    test files; this bundle re-checks the cross-module ones."""
    from conftest import numerical_incident_laplace, piecewise_laplace

    failures = []

    # incident transform at 1e-8 on a (s, r) grid
    for s in (0.5, 1.0, 1 + 2j):
        for r in (0.0, 2.5, 3.5):
            d = abs(incident_laplace(pulse, s, r) - numerical_incident_laplace(pulse, s, r))
            if d > 1e-8:
                failures.append(f"incident transform s={s} r={r}: {d:.1e}")

    # sphere oracle transform at 1e-8
    scn = SphereScenario(0.1, pulse)
    base = 2.5 - 0.1
    bps = [base, base + pulse.r0 - 0.1, base + 2.5, base + pulse.R0 + 0.1]
    for s in (1.0, 2j):
        d = abs(piecewise_laplace(lambda t: sphere_scattered_time(scn, t, 2.5), s, bps)
                - sphere_scattered_frequency(scn, s, 2.5))
        if d > 1e-8:
            failures.append(f"oracle transform s={s}: {d:.1e}")

    # model transform at 1e-8
    cap = theorem_data["cap"]
    model = PointScattererModel(c_eps=0.1 * cap.c1, pulse=pulse)
    x = np.array([2.5, 0.0, 0.0])
    mbps = [2.5 + pulse.r0, 5.0, 2.5 + pulse.R0]
    from smallscat.asymptotic import point_scatterer_frequency
    for s in (1.0, 2j):
        d = abs(piecewise_laplace(lambda t: point_scatterer_time(model, t, x), s, mbps)
                - point_scatterer_frequency(model, s, x))
        if d > 1e-8:
            failures.append(f"model transform s={s}: {d:.1e}")

    # exact identities
    if incident_time(pulse, 0.0, 2.5) != 0.0:
        failures.append("u_inc(0, r) != 0")
    if incident_time(pulse, 10.0, 2.5) != 0.0:
        failures.append("Huygens support violated")
    if sphere_scattered_time(scn, 10.0, 2.5) != 0.0:
        failures.append("oracle extinction violated")
    if point_scatterer_time(model, 5.51 + 1e-9, x) != 0.0:
        failures.append("model support violated")

    ok = not failures
    assert _report("11 (consistency suite)", ok,
                   "all transform checks at 1e-8 and exact identities hold"
                   if ok else "; ".join(failures))
