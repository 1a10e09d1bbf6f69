import dataclasses
import gc
import logging
import math
import os
import re
import threading
import weakref

import numpy as np
import pytest
from scipy.special import spherical_jn

from conftest import field_variants
from smallscat import bem, synthesis
from smallscat.asymptotic import PointScattererModel, point_scatterer_time
from smallscat.bem import NearResonanceError, capacitance
from smallscat.cli import _cached_table, _observation_rule
from smallscat.config import default_config
from smallscat.geometry import StarShape, gauss_panels
from smallscat.incident import ShellPulse
from smallscat.sphere_oracle import (
    SphereScenario, sphere_scattered_frequency, sphere_scattered_time,
)
from smallscat.synthesis import (
    FrequencyTable, ScatteringScenario, TimeSeries, build_frequency_grid,
    frequency_sweep, inverse_transform,
)

EPS = 0.1


@pytest.fixture(scope="module")
def scenario(pulse):
    # light resolution: module tests exercise the machinery, the acceptance
    # suite runs the full defaults
    return ScatteringScenario(StarShape.sphere(), EPS, pulse, n_theta=12, n_phi=24)


@pytest.fixture(scope="module")
def oracle(pulse):
    return SphereScenario(EPS, pulse)


@pytest.fixture(scope="module")
def point():
    return np.array([[2.5, 0.0, 0.0]])


@pytest.fixture(scope="module")
def table(scenario, point):
    return frequency_sweep(scenario, point, omega_max=40.0, n_omega=200)


def test_frequency_grid_structure():
    nodes, weights, edges = build_frequency_grid(40.0, 400)
    assert len(nodes) == 400 and len(edges) == 51
    assert np.all(np.diff(nodes) > 0) and nodes[0] > 0.0
    assert np.sum(weights) == pytest.approx(40.0, rel=1e-13)


@pytest.mark.parametrize("omega_max, n_omega", [(40.0, 400), (10.0, 16), (40.0, 16)])
def test_frequency_grid_is_the_composite_gauss_rule(omega_max, n_omega):
    nodes, weights, edges = build_frequency_grid(omega_max, n_omega)
    assert np.array_equal(edges, np.linspace(0.0, omega_max, len(edges)))
    panel_nodes, panel_weights = gauss_panels(edges, synthesis.GL_PER_PANEL)
    assert np.array_equal(nodes, panel_nodes) and np.array_equal(weights, panel_weights)
    # reference: the map written out panel by panel, as stored tables were
    # built; the same operations in the same order give the same bits
    x, w = np.polynomial.legendre.leggauss(synthesis.GL_PER_PANEL)
    panels = list(zip(edges[:-1], edges[1:]))
    assert np.array_equal(nodes, np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x
                                                 for a, b in panels]))
    assert np.array_equal(weights, np.concatenate([0.5 * (b - a) * w for a, b in panels]))


def test_loaded_table_weights_are_the_grid_weights(table, tmp_path):
    # load_csv rebuilds the weights from the stored panel edges
    path = tmp_path / "table.csv"
    table.save_csv(path)
    loaded = FrequencyTable.load_csv(path, table.points)
    _, weights, edges = build_frequency_grid(40.0, 200)
    assert np.array_equal(loaded.panel_edges, edges)
    assert np.array_equal(loaded.weights, weights) and np.array_equal(table.weights, weights)
    assert np.array_equal(loaded.weights, gauss_panels(edges, synthesis.GL_PER_PANEL)[1])


def test_table_matches_oracle_columnwise(table, oracle):
    ref = np.array([sphere_scattered_frequency(oracle, 1j * om, 2.5)
                    for om in table.omegas])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(table.values[:, 0] - ref)) < 1e-4 * scale


def test_zero_amplitude_gives_zero_table(pulse, point):
    silent = dataclasses.replace(pulse, amplitude=0.0)
    scn = ScatteringScenario(StarShape.sphere(), EPS, silent, n_theta=8, n_phi=16)
    t = frequency_sweep(scn, point, omega_max=10.0, n_omega=16)
    assert np.all(t.values == 0.0)


def test_table_stores_nonnegative_frequencies_only(table):
    # the conjugate extension is applied during inversion, never stored
    assert np.all(table.omegas >= 0.0)


def test_synthesis_matches_oracle_in_time(table, oracle):
    times = np.linspace(0.0, 10.0, 201)
    series = inverse_transform(table, times)
    exact = np.array([sphere_scattered_time(oracle, t, 2.5) for t in times])
    peak = np.max(np.abs(exact))
    assert np.max(np.abs(series.values[:, 0] - exact)) < 1e-2 * peak


def test_initial_value_below_noise_floor(table):
    series = inverse_transform(table, np.array([0.0]))
    peak_series = inverse_transform(table, np.linspace(4.0, 6.0, 41))
    peak = np.max(np.abs(peak_series.values))
    assert abs(series.values[0, 0]) < 1e-3 * peak


def test_causality_below_noise_floor(table, pulse):
    # first possible arrival at r = 2.5 is (r - eps) + (r0 - eps)
    arrival = (2.5 - EPS) + (pulse.r0 - EPS)
    times = np.linspace(0.0, arrival - 0.1, 30)
    series = inverse_transform(table, times)
    peak = np.max(np.abs(inverse_transform(table, np.linspace(4, 6, 41)).values))
    assert np.max(np.abs(series.values)) < 1e-3 * peak


def test_inversion_linearity(table):
    times = np.linspace(0.0, 8.0, 33)
    doubled = FrequencyTable(
        omegas=table.omegas, weights=table.weights, panel_edges=table.panel_edges,
        points=table.points, values=2.0 * table.values,
        scenario_hash=table.scenario_hash)
    a = inverse_transform(table, times)
    b = inverse_transform(doubled, times)
    assert np.array_equal(b.values, 2.0 * a.values)


def test_plancherel_identity(table):
    times = np.linspace(0.0, 10.0, 2001)
    series = inverse_transform(table, times)
    energy_t = np.trapezoid(series.values[:, 0] ** 2, times)
    energy_w = np.sum(table.weights * np.abs(table.values[:, 0]) ** 2) / np.pi
    assert abs(energy_t - energy_w) < 0.02 * energy_w


@pytest.mark.parametrize("edges", [build_frequency_grid(40.0, 400)[2], np.array([0.0, 3.0, 10.0, 17.0])],
                         ids=["shipped-grid", "three-widths"])
def test_shared_moments_match_per_panel_moments(edges):
    # the moments 2 i^k j_k(h t) tabulated once per distinct half-width h
    # give the series of a loop that evaluates them on every panel, to the bit
    omegas, weights = gauss_panels(edges, synthesis.GL_PER_PANEL)
    rng = np.random.default_rng(5)
    values = rng.standard_normal((len(omegas), 2)) + 1j * rng.standard_normal((len(omegas), 2))
    table = FrequencyTable(omegas=omegas, weights=weights, panel_edges=edges,
                           points=np.zeros((2, 3)), values=values, scenario_hash="random")
    times = np.linspace(0.0, 12.0, 97)
    n_per = synthesis.GL_PER_PANEL
    acc = np.zeros((len(times), 2), dtype=complex)
    for p in range(len(edges) - 1):
        a, b = edges[p], edges[p + 1]
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        sl = slice(p * n_per, (p + 1) * n_per)
        coeffs = synthesis._panel_legendre_coeffs((omegas[sl] - c) / h, values[sl])
        moments = np.stack([2.0 * (1j ** k) * spherical_jn(k, h * times)
                            for k in range(n_per)], axis=1)
        acc += np.exp(1j * c * times)[:, None] * (h * (moments @ coeffs))
    assert np.array_equal(inverse_transform(table, times).values, (acc / math.pi).real)


def model_error(table, times, c1, pulse, eps):
    """e = u_app - u_sc on the table's points: exact model minus synthesis."""
    model = PointScattererModel(c_eps=eps * c1, pulse=pulse)
    u_app = np.stack([point_scatterer_time(model, t, table.points) for t in times])
    return u_app - inverse_transform(table, times).values


def test_synthesize_error_closed_form(table, oracle, pulse, sphere):
    cap = capacitance(sphere, 16, 32)
    times = np.linspace(0.0, 10.0, 101)
    err = model_error(table, times, cap.c1, pulse, EPS)
    # closed form: e = (eps/r)[g_eps(t - r + eps) - g_0(t - r)]
    model = PointScattererModel(c_eps=EPS * cap.c1, pulse=pulse)
    exact = np.array([
        point_scatterer_time(model, t, table.points)[0]
        - sphere_scattered_time(oracle, t, 2.5) for t in times])
    peak = np.max(np.abs(np.array([sphere_scattered_time(oracle, t, 2.5) for t in times])))
    assert np.max(np.abs(err[:, 0] - exact)) < 1e-2 * peak


def test_error_vanishes_with_scale(pulse, point, sphere):
    cap = capacitance(sphere, 12, 24)
    times = np.linspace(4.0, 6.0, 21)
    norms = []
    for eps in (0.1, 0.05):
        scn = ScatteringScenario(StarShape.sphere(), eps, pulse, n_theta=8, n_phi=16)
        table = frequency_sweep(scn, point, omega_max=40.0, n_omega=96)
        norms.append(np.max(np.abs(model_error(table, times, cap.c1, pulse, eps))))
    assert norms[1] < 0.5 * norms[0]


def test_post_extinction_error_equals_field(scenario, table, oracle, pulse, sphere):
    # beyond t* + 2 eps the model term is identically zero, so e = -u_sc and
    # both sit below the synthesis noise floor
    cap = capacitance(sphere, 12, 24)
    model = PointScattererModel(c_eps=EPS * cap.c1, pulse=pulse)
    t_ext = 2.5 + pulse.R0 + 2 * EPS
    times = np.linspace(t_ext + 0.1, 10.0, 25)
    for t in times:
        assert point_scatterer_time(model, t, table.points)[0] == 0.0
    u = inverse_transform(table, times)
    peak = np.max(np.abs(inverse_transform(table, np.linspace(4, 6, 41)).values))
    assert np.max(np.abs(u.values)) < 1e-3 * peak


def test_table_row_is_scattered_frequency(table, scenario, point):
    # the sweep's node and scattered_frequency share one exterior-field path
    for j in (0, 57, 199):
        value = bem.scattered_frequency(scenario.shape, scenario.epsilon, scenario.pulse,
                                        1j * table.omegas[j], point,
                                        n_theta=scenario.n_theta, n_phi=scenario.n_phi)
        assert np.array_equal(table.values[j], value)


def test_table_csv_roundtrip(table, tmp_path):
    path = tmp_path / "table.csv"
    table.save_csv(path)
    loaded = FrequencyTable.load_csv(path, table.points)
    assert loaded.scenario_hash == table.scenario_hash
    assert np.allclose(loaded.omegas, table.omegas, rtol=0, atol=0)
    assert np.allclose(loaded.values, table.values, rtol=0, atol=0)
    # byte-stable rewrite
    path2 = tmp_path / "table2.csv"
    loaded.save_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_block_writer_matches_row_writer(tmp_path):
    # reference: the one-row-at-a-time writer the block writer replaced
    rng = np.random.default_rng(5)
    omegas = np.array([0.0, 1e-300, 0.37, 1e300])
    values = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    values[0] = [0.0, -0.0, -1e300 + 1e-300j]
    values[1] = [complex(-0.0, -0.0), -2.5 - 1e-300j, 1e300 - 0.0j]
    points = rng.normal(size=(3, 3))
    tab = FrequencyTable(omegas=omegas, weights=np.ones(4), panel_edges=np.array([0.0, 1.0]),
                         points=points, values=values, scenario_hash="h")
    tab.save_csv(tmp_path / "table.csv")
    rows = [f"{om:.17g},{k},{v.real:.17g},{v.imag:.17g}\n"
            for om, row in zip(omegas, values) for k, v in enumerate(row)]
    text = (tmp_path / "table.csv").read_text()
    assert text.split("omega,point_index,re,im\n", 1)[1] == "".join(rows)

    series = TimeSeries(times=-omegas, values=values.real, scenario_hash="h")
    series.save_csv(tmp_path / "series.csv")
    rows = [f"{t:.17g},{k},{v:.17g}\n"
            for t, row in zip(-omegas, values.real) for k, v in enumerate(row)]
    assert (tmp_path / "series.csv").read_text() == "# scenario=h\nt,point_index,value\n" + "".join(rows)


def test_table_save_replaces_the_file(table, tmp_path):
    # a hard link holds the old inode: it keeps the old bytes only if the
    # save creates a new file instead of truncating the old one
    path, link = tmp_path / "table.csv", tmp_path / "link.csv"
    table.save_csv(path)
    old = path.read_bytes()
    os.link(path, link)
    short = dataclasses.replace(table, omegas=table.omegas[:8], weights=table.weights[:8],
                                panel_edges=table.panel_edges[:2], values=table.values[:8])
    short.save_csv(path)
    assert link.read_bytes() == old
    short.save_csv(tmp_path / "fresh.csv")
    assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    loaded = FrequencyTable.load_csv(path, table.points)
    assert np.array_equal(loaded.omegas, short.omegas)
    assert np.array_equal(loaded.values, short.values)


def test_series_save_replaces_the_file(tmp_path):
    series = TimeSeries(times=np.linspace(0.0, 1.0, 5),
                        values=np.random.default_rng(3).normal(size=(5, 2)), scenario_hash="h")
    path, link, target = tmp_path / "series.csv", tmp_path / "link.csv", tmp_path / "target.csv"
    path.write_text("old series\n")
    os.link(path, link)
    target.write_text("old target\n")
    (tmp_path / "symlink.csv").symlink_to(target)
    series.save_csv(path)
    series.save_csv(tmp_path / "symlink.csv")
    series.save_csv(tmp_path / "fresh.csv")
    assert link.read_text() == "old series\n"
    assert target.read_text() == "old target\n"         # replaced, not written through
    assert not (tmp_path / "symlink.csv").is_symlink()
    fresh = (tmp_path / "fresh.csv").read_bytes()
    assert path.read_bytes() == fresh == (tmp_path / "symlink.csv").read_bytes()


def test_table_of_other_points_rejected_from_its_header(table, tmp_path):
    # the points digest is compared before the body is parsed: a body that
    # is not numbers at all still gets the points error
    path = tmp_path / "table.csv"
    table.save_csv(path)
    head = path.read_text().splitlines(keepends=True)[:4]
    path.write_text("".join(head) + "not,a,number,row\n")
    with pytest.raises(ValueError, match="observation points differ"):
        FrequencyTable.load_csv(path, table.points + 1.0)


def test_truncated_table_is_rejected(table, tmp_path):
    path = tmp_path / "table.csv"
    table.save_csv(path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(ValueError):
        FrequencyTable.load_csv(path, table.points)


def test_header_only_table_is_rejected(table, tmp_path):
    path = tmp_path / "table.csv"
    table.save_csv(path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))
    with pytest.raises(ValueError, match="omega-major block"):
        FrequencyTable.load_csv(path, table.points)


def test_cached_table_recomputes_truncated_table(scenario, tmp_path):
    # two points per node: dropping the last row leaves every omega present
    nodes, weights, edges = build_frequency_grid(10.0, 16)
    points = np.array([[2.5, 0.0, 0.0], [0.0, 3.0, 0.0]])
    values = np.outer(np.exp(-1j * nodes), [1.0, 0.5])
    key = scenario.content_hash(10.0, 16)
    full = FrequencyTable(omegas=nodes, weights=weights, panel_edges=edges, points=points,
                          values=values, scenario_hash=key)
    path = tmp_path / "table.csv"
    full.save_csv(path)
    assert _cached_table(path, points, key) is not None
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(ValueError, match="omega-major block"):
        FrequencyTable.load_csv(path, points)
    assert _cached_table(path, points, key) is None


@pytest.mark.parametrize("text", [
    "",
    "omega,point_index,re,im\n0,0,1.0,0.0\n",
    "# scenario=abc\nomega,point_index,re,im\n0,0,1.0,0.0\n"],
    ids=["empty", "no-header", "partial-header"])
def test_broken_table_file_is_rejected(scenario, point, tmp_path, text):
    # what a run killed while writing a table can leave behind: the loader
    # names the file, and the cache re-sweeps instead of crashing
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="table.csv"):
        FrequencyTable.load_csv(path, point)
    assert _cached_table(path, point, scenario.content_hash(10.0, 16)) is None


@pytest.mark.parametrize("edges", ["0", "0,5,7.5,10"], ids=["no-panel", "uneven-panels"])
def test_table_with_unusable_panel_edges_is_rejected(scenario, tmp_path, edges):
    # a 16-node table whose header holds one edge, or three panels: the
    # loader rejects it before building weights, and the cache re-sweeps
    nodes, weights, grid_edges = build_frequency_grid(10.0, 16)
    points = np.array([[2.5, 0.0, 0.0]])
    key = scenario.content_hash(10.0, 16)
    path = tmp_path / "table.csv"
    FrequencyTable(omegas=nodes, weights=weights, panel_edges=grid_edges, points=points,
                   values=np.exp(-1j * nodes)[:, None], scenario_hash=key).save_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("# panel_edges=")
    path.write_text("".join(lines[:2] + [f"# panel_edges={edges}\n"] + lines[3:]))
    with pytest.raises(ValueError, match="panel edges"):
        FrequencyTable.load_csv(path, points)
    assert _cached_table(path, points, key) is None


def test_source_digest_covers_every_module(package_digest):
    # the digest read at import is the one computed here over the package
    # directory, so it covers every *.py file in it, by name and bytes
    assert synthesis._SOURCE_DIGEST == package_digest()
    modules = {name for name in os.listdir(os.path.dirname(synthesis.__file__))
               if name.endswith(".py")}
    assert {"bem.py", "incident.py", "geometry.py", "synthesis.py"} <= modules


@pytest.mark.parametrize("module, name", [
    ("bem", "WINDOW_FACTOR"), ("bem", "WINDOW_CUTOFF"), ("bem", "N_GAMMA"),
    ("bem", "N_ALPHA"), ("bem", "STENCIL_MARGIN"), ("bem", "RESIDUAL_TOL"),
    ("bem", "MIXED_CONDITION_LIMIT"), ("bem", "REFINE_MAX_ITER"),
    ("synthesis", "GL_PER_PANEL")])
def test_cached_table_keyed_on_solver_constants(scenario, tmp_path, caplog, monkeypatch,
                                                package_digest, module, name):
    # a table stamped before an edit of the constant's literal is re-swept
    nodes, weights, edges = build_frequency_grid(10.0, 16)
    points = np.array([[2.5, 0.0, 0.0]])
    FrequencyTable(omegas=nodes, weights=weights, panel_edges=edges, points=points,
                   values=np.exp(-1j * nodes)[:, None],
                   scenario_hash=scenario.content_hash(10.0, 16)).save_csv(tmp_path / "table.csv")
    with open(os.path.join(os.path.dirname(synthesis.__file__), f"{module}.py")) as fh:
        line = re.search(rf"^{name} = .*$", fh.read(), re.M).group(0)
    edited = line.replace(" = ", " = 2 * ", 1)
    monkeypatch.setattr(synthesis, "_SOURCE_DIGEST",
                        package_digest((f"{module}.py", line.encode(), edited.encode())))
    with caplog.at_level(logging.INFO, logger="smallscat.cli"):
        assert _cached_table(tmp_path / "table.csv", points,
                             scenario.content_hash(10.0, 16)) is None
    assert any("key mismatch" in rec.message for rec in caplog.records)


def test_table_hash_covers_constants_added_later(scenario, monkeypatch, package_digest):
    # no hand-kept list: a solver constant added to the source keys the tables too
    before = scenario.content_hash(10.0, 16)
    monkeypatch.setattr(synthesis, "_SOURCE_DIGEST", package_digest(
        ("bem.py", b"RESIDUAL_TOL = ", b"NEW_SOLVER_TOL = 1e-3\nRESIDUAL_TOL = ")))
    assert scenario.content_hash(10.0, 16) != before


def test_table_key_changes_with_every_field(pulse):
    # every field of the scenario and of the shape and pulse it holds keys
    # the table: no hand-kept list can miss one
    base = ScatteringScenario(StarShape.bumpy_sphere(), EPS, pulse, n_theta=12, n_phi=24)
    keys = {path: changed.content_hash(10.0, 16) for path, changed in field_variants(base)}
    assert {"shape.harmonics", "pulse.k_reg", "epsilon"} <= set(keys)
    assert len(set(keys.values()) | {base.content_hash(10.0, 16)}) == len(keys) + 1


def test_equal_scenarios_share_one_key():
    # numpy scalars are stored as plain numbers, so a scenario equal to
    # another has its key too
    plain = ScatteringScenario(StarShape.sphere(), 0.1, ShellPulse(), n_theta=12, n_phi=24)
    mixed = ScatteringScenario(StarShape.sphere(), np.float64(0.1), ShellPulse(),
                               n_theta=np.int64(12), n_phi=np.int32(24))
    assert mixed == plain and repr(mixed) == repr(plain)
    assert mixed.content_hash(10.0, 16) == plain.content_hash(10.0, 16)
    hash(ScatteringScenario(StarShape.sphere(), 0.1, ShellPulse(center=[0.5, 0, 0])))


def test_table_key_is_the_frequency_grid_not_its_request(scenario):
    # n_omega rounds up to whole panels: requests of one grid share a key
    assert scenario.content_hash(40.0, 397) == scenario.content_hash(40.0, 400)
    assert scenario.content_hash(40.0, 400) != scenario.content_hash(40.0, 408)
    assert scenario.content_hash(40.0, 400) != scenario.content_hash(20.0, 400)


def test_inversion_fits_the_nodes_used(oracle):
    # an exact table whose node 7 has moved by half the smallest node gap,
    # onto the edge of panel 0: the fit through the nodes used stays exact
    nodes, weights, edges = build_frequency_grid(40.0, 400)
    nodes[7] += 0.5 * np.min(np.diff(nodes))
    values = np.array([sphere_scattered_frequency(oracle, 1j * om, 2.5) for om in nodes])
    moved = FrequencyTable(omegas=nodes, weights=weights, panel_edges=edges,
                           points=np.array([[2.5, 0.0, 0.0]]), values=values[:, None],
                           scenario_hash="oracle")
    times = np.linspace(0.0, 10.0, 201)
    exact = sphere_scattered_time(oracle, times, 2.5)
    err = np.max(np.abs(inverse_transform(moved, times).values[:, 0] - exact))
    assert err <= 1e-5 * np.max(np.abs(exact))


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
@pytest.mark.parametrize("eps, omega", [(0.08, 24.718667), (0.16, 28.326626)])
def test_ill_conditioned_node_is_solved_in_place(pulse, monkeypatch, eps, omega):
    # the worst-conditioned node of the 400-node 20x40 sphere sweep at eps,
    # with a condition estimate above 1e6: solved where the Gauss rule puts
    # it, on double-precision factors, it matches the exact field at the
    # CLI's shell points to 1e-7 of the peak of the scale's table
    config = default_config()
    points, _ = _observation_rule(config)
    radii = np.linalg.norm(points, axis=1)
    nodes, weights, edges = build_frequency_grid(config.omega_max, config.n_omega)
    j = int(np.argmin(np.abs(nodes - omega)))
    assert nodes[j] == pytest.approx(omega, abs=1e-6)
    # a one-node sweep: the node alone in its panel
    panel = j // synthesis.GL_PER_PANEL
    monkeypatch.setattr(synthesis, "build_frequency_grid",
                        lambda *args: (nodes[j:j + 1], weights[j:j + 1], edges[panel:panel + 2]))
    real_field = synthesis.exterior_field
    diags = []

    def recording_field(*args):
        values, diag = real_field(*args)
        diags.append(diag)
        return values, diag

    monkeypatch.setattr(synthesis, "exterior_field", recording_field)
    scn = ScatteringScenario(StarShape.sphere(), eps, pulse, n_theta=20, n_phi=40)
    table = frequency_sweep(scn, points, config.omega_max, config.n_omega)
    assert table.omegas.tolist() == [nodes[j]]
    assert len(diags) == 1 and diags[0].condition_estimate > 1e6
    assert diags[0].condition_precision == "double"
    oracle = SphereScenario(eps, pulse)
    peak = max(np.max(np.abs(sphere_scattered_frequency(oracle, 1j * om, radii)))
               for om in nodes)
    exact = sphere_scattered_frequency(oracle, 1j * nodes[j], radii)
    assert np.max(np.abs(table.values[0] - exact)) <= 1e-7 * peak


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_ill_conditioned_nodes_stay_on_the_grid(pulse, point, monkeypatch):
    # a condition estimate, however large, neither moves a node nor costs
    # it a second solve
    real_solve = bem.solve_density_with_diagnostics
    solved = []

    def ill_conditioned_solve(mat, rhs):
        solved.append(mat.s)
        x, diag = real_solve(mat, rhs)
        return x, dataclasses.replace(diag, condition_estimate=1e12)

    monkeypatch.setattr(bem, "solve_density_with_diagnostics", ill_conditioned_solve)
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    table = frequency_sweep(scn, point, omega_max=10.0, n_omega=16)
    nodes = build_frequency_grid(10.0, 16)[0]
    assert np.array_equal(table.omegas, nodes)
    assert solved == [1j * om for om in nodes.tolist()]


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
@pytest.mark.parametrize("mixed_limit, precision", [(bem.MIXED_CONDITION_LIMIT, "single"),
                                                    (1.0, "double")],
                         ids=["single", "double"])
def test_sweep_logs_the_precision_of_its_worst_condition(pulse, point, caplog, monkeypatch,
                                                         mixed_limit, precision):
    # well-conditioned nodes keep their single-precision factors; with the
    # mixed limit below every node's condition, double-precision ones decide
    monkeypatch.setattr(bem, "MIXED_CONDITION_LIMIT", mixed_limit)
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    with caplog.at_level(logging.INFO, logger="smallscat.synthesis"):
        frequency_sweep(scn, point, omega_max=10.0, n_omega=8)
    assert [rec.message.endswith(f"({precision}-precision factors)") for rec in caplog.records
            if "worst condition estimate" in rec.message] == [True]


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_worker_count_invariance(pulse, point):
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    t1 = frequency_sweep(scn, point, omega_max=10.0, n_omega=24, workers=1)
    t2 = frequency_sweep(scn, point, omega_max=10.0, n_omega=24, workers=2)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(t1.omegas, t2.omegas)


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_one_worker_sweeps_on_the_calling_thread(pulse, point, monkeypatch):
    # no pool thread, and so no second malloc arena, for a one-worker sweep
    real_solve = bem.solve_density_with_diagnostics
    threads = set()

    def recording_solve(mat, rhs):
        threads.add(threading.get_ident())
        return real_solve(mat, rhs)

    monkeypatch.setattr(bem, "solve_density_with_diagnostics", recording_solve)
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    frequency_sweep(scn, point, omega_max=10.0, n_omega=8, workers=1)
    assert threads == {threading.get_ident()}
    threads.clear()
    frequency_sweep(scn, point, omega_max=10.0, n_omega=8, workers=2)
    assert threading.get_ident() not in threads


def test_empty_point_set_rejected_before_any_solve(scenario, monkeypatch):
    def solve(*args):
        raise AssertionError("a node was solved")

    monkeypatch.setattr(synthesis, "exterior_field", solve)
    with pytest.raises(ValueError, match="at least one observation point"):
        frequency_sweep(scenario, np.zeros((0, 3)), 10.0, 8)


def test_tail_warning_when_underresolved(pulse, point):
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    with pytest.warns(UserWarning, match="tail"):
        frequency_sweep(scn, point, omega_max=4.0, n_omega=16)


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_sweep_releases_worker_state(pulse, point, monkeypatch):
    # the grid a sweep builds, with its static core, is freed when the sweep
    # ends, whether it finishes or raises
    real_grid = synthesis.build_surface_grid
    grids = []

    def recording_grid(*args):
        grid = real_grid(*args)
        grids.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(synthesis, "build_surface_grid", recording_grid)
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    frequency_sweep(scn, point, omega_max=10.0, n_omega=8)
    gc.collect()
    assert len(grids) == 1 and grids[0]() is None
    # every node fails its residual check, so the sweep raises mid-loop
    monkeypatch.setattr(bem, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NearResonanceError):
        frequency_sweep(scn, point, omega_max=10.0, n_omega=8)
    gc.collect()
    assert len(grids) == 2 and grids[1]() is None


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_failed_node_cancels_pending_nodes(pulse, point, monkeypatch):
    # every node fails its residual check: the first failure leaves the
    # sweep, naming its s, and the nodes no worker has started are never
    # solved
    real_solve = bem.solve_density_with_diagnostics
    calls = []

    def counting_solve(mat, rhs):
        calls.append(None)
        return real_solve(mat, rhs)

    monkeypatch.setattr(bem, "solve_density_with_diagnostics", counting_solve)
    monkeypatch.setattr(bem, "RESIDUAL_TOL", 0.0)
    scn = ScatteringScenario(StarShape.sphere(), 0.1, pulse, n_theta=8, n_phi=16)
    with pytest.raises(NearResonanceError, match=r"at s=[0-9.]+j"):
        frequency_sweep(scn, point, omega_max=10.0, n_omega=80, workers=2)
    assert 1 <= len(calls) < 80
