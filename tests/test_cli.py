import dataclasses
import itertools
import logging
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import field_variants
from smallscat import bem, cli, synthesis
from smallscat.cli import RunManifest, cmd_capacitance, main, run_command
from smallscat.config import (
    ConfigError, ExperimentConfig, default_config, parse_config_file, parse_config_text,
)
from smallscat.geometry import StarShape

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_CONFIG = """
# coarse settings: exercises plumbing, not accuracy
epsilons = 0.1
freq.omega_max = 10.0
freq.n_omega = 16
time.t_max = 8.0
time.n_t = 17
bem.n_theta = 8
bem.n_phi = 16
"""


# -- config parsing ------------------------------------------------------------
def test_default_config_matches_scenario_defaults():
    cfg = default_config()
    assert cfg.pulse.r0 == 2.0 and cfg.pulse.R0 == 3.0 and cfg.pulse.k_reg == 7
    assert cfg.epsilons == (0.02, 0.04, 0.08, 0.16)
    assert cfg.shell.inner == 2.0 and cfg.shell.outer == 3.0
    assert cfg.omega_max == 40.0 and cfg.n_omega == 400
    assert cfg.t_star == 6.0 and cfg.t0 == 5.5
    assert (cfg.n_theta, cfg.n_phi) == (20, 40)
    assert cfg.shape.is_sphere


def test_parse_harmonics_shape():
    cfg = parse_config_text("shape.constant = 0.8\nshape.coeffs = (2, 0, 0.1); (3, 2, 0.05)\n")
    assert cfg.shape == StarShape.bumpy_sphere()
    assert not cfg.shape.is_sphere
    # without coeffs the shape is a sphere of radius shape.constant
    assert parse_config_text("shape.constant = 0.5\n").shape == StarShape.sphere(0.5)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="freq.idontexist"):
        parse_config_text("freq.idontexist = 3\n")


def test_empty_epsilons_rejected():
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config_text("epsilons = \n")


@pytest.mark.parametrize("text", ["0.02, 0.0", "-0.05, 0.02"])
def test_non_positive_epsilons_rejected(tmp_path, capsys, text):
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config_text(f"epsilons = {text}\n")
    cfg = tmp_path / "scales.cfg"
    cfg.write_text(f"epsilons = {text}\n")
    assert main(["checks", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_eps_separation_guard():
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config_text("epsilons = 0.6\n")


def test_invalid_number_diagnostic():
    with pytest.raises(ConfigError, match="pulse.r0"):
        parse_config_text("pulse.r0 = two\n")


def test_bad_shape_kind():
    # the kind is read from shape.coeffs: a `shape` key is no longer accepted
    for kind in ("cube", "sphere"):
        with pytest.raises(ConfigError, match="unknown configuration key 'shape'"):
            parse_config_text(f"shape = {kind}\n")


def test_config_hash_stable_under_reserialization():
    a = parse_config_text("workers = 1\nbem.n_theta = 20\n")
    b = parse_config_text("bem.n_theta = 20\nworkers = 1\n")
    assert a.config_hash() == b.config_hash()
    c = parse_config_text("bem.n_theta = 24\n")
    assert c.config_hash() != a.config_hash()


def test_config_hash_keys_parsed_values():
    # a number keys the run by its value, not by how the file spells it
    assert parse_config_text("shape.constant = 1\n").config_hash() == \
        parse_config_text("shape.constant = 1.0\n").config_hash() == \
        default_config().config_hash()
    bumpy = "shape.constant = 0.8\nshape.coeffs = (2, 0, 0.10)\n"
    assert parse_config_text(bumpy).config_hash() == \
        parse_config_text(bumpy.replace("0.8", ".80").replace("0.10", "1e-1")).config_hash()
    assert parse_config_text("time.t0 = 5.0\n").config_hash() != \
        default_config().config_hash()


def test_config_hash_ignores_where_and_how_fast(tmp_path):
    # workers and output_dir set in the file or on the command line stamp
    # the same `# config=` line, and so does a run with neither set
    lines = []
    for extra, args in (
            (f"workers = 2\noutput_dir = {tmp_path / 'a'}\n", []),
            ("", ["--workers", "2", "--out", str(tmp_path / "b")]),
            ("", ["--out", str(tmp_path / "c")])):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(extra)
        assert main(["capacitance", "--config", str(cfg)] + args) == 0
        name = args[-1] if args else tmp_path / "a"
        lines.append((Path(name) / "capacitance.csv").read_text().splitlines()[0])
    assert lines[0].startswith("# config=") and len(set(lines)) == 1


def test_config_hash_changes_with_every_field():
    # every field of the config and of the shape, pulse and shell it holds,
    # bar output_dir and workers, keys the run
    base = dataclasses.replace(default_config(), shape=StarShape.bumpy_sphere())
    keys = {path: changed.config_hash() for path, changed in field_variants(base)}
    assert {"shape.center", "pulse.amplitude", "shell.outer", "n_phi"} <= set(keys)
    assert len(set(keys.values()) | {base.config_hash()}) == len(keys) + 1
    elsewhere = dataclasses.replace(base, output_dir="elsewhere", workers=4)
    assert elsewhere == base and elsewhere.config_hash() == base.config_hash()


def test_default_cfg_is_the_default_config():
    # the file's header says it matches the built-in defaults
    parsed = parse_config_file(CONFIGS / "default.cfg")
    assert parsed == default_config() and repr(parsed) == repr(default_config())


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name)
def test_every_shipped_config_parses(path):
    assert isinstance(parse_config_file(path), ExperimentConfig)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file("/nonexistent/path.cfg")


# -- commands -------------------------------------------------------------------
def test_cmd_capacitance_default(tmp_path):
    cfg = default_config()
    manifest = RunManifest(cfg.config_hash(), "capacitance", tmp_path)
    results = cmd_capacitance(cfg, manifest)
    assert abs(results[-1].c1 - 4 * math.pi) / (4 * math.pi) < 1e-4
    assert manifest.all_passed
    rows = (tmp_path / "capacitance.csv").read_text().strip().splitlines()
    assert rows[0] == f"# config={cfg.config_hash()}"
    assert rows[1] == "n_theta,n_phi,c1,sigma_min,sigma_max,seconds,rel_error"
    assert len(rows) == 7


def test_capacitance_runtime_gates_on_cpu_time(tmp_path, monkeypatch):
    # a wall clock that jumps 10 s per reading, as on a host shared with
    # other jobs; the verdict reads CPU time, the CSV still records wall time
    clock = itertools.count(0.0, 10.0)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    cfg = default_config()
    manifest = RunManifest(cfg.config_hash(), "capacitance", tmp_path)
    cmd_capacitance(cfg, manifest)
    check = next(c for c in manifest.checks if c.name == "capacitance_runtime")
    assert check.passed and "CPU" in check.detail
    rows = (tmp_path / "capacitance.csv").read_text().strip().splitlines()[2:]
    assert all(float(row.split(",")[5]) >= 10.0 for row in rows)


def test_cmd_checks_default(tmp_path):
    manifest = run_command("checks", default_config(), tmp_path)
    assert manifest.all_passed, [c for c in manifest.checks if not c.passed]
    body = (tmp_path / "checks.csv").read_text().strip().splitlines()
    assert body[0].startswith("# config=")
    assert body[1] == "check_name,slope,intercept,max_residual,pass"
    assert all(line.endswith(",pass") for line in body[2:])
    text = (tmp_path / "MANIFEST").read_text()
    stages = text.split("wall_clock_seconds:\n")[1].split("checks:\n")[0]
    assert [line.split(":")[0].strip() for line in stages.splitlines()] == [
        "check_dilation", "check_projection", "check_density", "check_kernel", "total"]


def test_cmd_all_solves_each_capacitance_once(tmp_path, monkeypatch):
    # a harmonic shape's theorem-2 capacitance is the study's finest solve
    cfg = parse_config_text("shape.constant = 0.8\nshape.coeffs = (2, 0, 0.10); (3, 2, 0.05)\n")
    assert not cfg.shape.is_sphere
    real_capacitance = bem.capacitance
    calls, results = [], []

    def spy(shape, *resolution):
        calls.append(resolution)
        results.append(real_capacitance(shape, *resolution))
        return results[-1]

    monkeypatch.setattr(bem, "capacitance", spy)
    for stage in ("cmd_oracle_compare", "cmd_checks", "cmd_theorem1"):
        monkeypatch.setattr(cli, stage, lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "cmd_synthesize", lambda *args: "prepared")
    theorem2 = {}
    monkeypatch.setattr(cli, "cmd_theorem2", lambda *args, **kwargs: theorem2.update(kwargs))
    manifest = RunManifest(cfg.config_hash(), "all", tmp_path)
    cli.cmd_all(cfg, manifest)
    assert calls == list(cli.CAPACITANCE_STUDY)
    assert theorem2["prepared"] == "prepared"
    assert theorem2["c1"] == results[-1].c1


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_theorem2_alone_uses_the_studys_finest_capacitance(tmp_path, monkeypatch):
    # run alone, theorem 2 solves c1 at the resolution `all` takes it from:
    # the capacitance study's finest entry
    monkeypatch.setattr(cli, "CAPACITANCE_STUDY", ((6, 12), (10, 20)))
    real_capacitance = bem.capacitance
    calls = []

    def spy(shape, *resolution):
        calls.append(resolution)
        return real_capacitance(shape, *resolution)

    monkeypatch.setattr(bem, "capacitance", spy)
    cfg = parse_config_text(TINY_CONFIG.replace("epsilons = 0.1", "epsilons = 0.1, 0.2"))
    run_command("theorem2", cfg, tmp_path)
    assert calls == [(10, 20)]


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_sweep_outputs_deterministic(tmp_path):
    cfg = parse_config_text(TINY_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_command("sweep", cfg, out_a)
    run_command("sweep", cfg, out_b)
    fa = out_a / "freq_table_eps0.1.csv"
    fb = out_b / "freq_table_eps0.1.csv"
    assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_synthesize_reuses_matching_table(tmp_path, caplog):
    import logging
    cfg = parse_config_text(TINY_CONFIG)
    run_command("sweep", cfg, tmp_path)
    with caplog.at_level(logging.INFO, logger="smallscat.cli"):
        run_command("synthesize", cfg, tmp_path)
    assert any("reusing table" in rec.message for rec in caplog.records)
    series = (tmp_path / "timeseries_eps0.1.csv").read_text().splitlines()
    assert series[1] == "t,point_index,value"


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_synthesize_recomputes_table_of_other_grid(tmp_path, caplog):
    run_command("sweep", parse_config_text(TINY_CONFIG), tmp_path)
    wider = parse_config_text(TINY_CONFIG + "freq.omega_max = 20.0\n")
    with caplog.at_level(logging.INFO, logger="smallscat.cli"):
        run_command("synthesize", wider, tmp_path)
    messages = [rec.message for rec in caplog.records]
    assert not any("reusing table" in m for m in messages)
    assert any("key mismatch" in m for m in messages)


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_synthesize_recomputes_table_of_other_solver_constants(tmp_path, caplog, monkeypatch,
                                                               package_digest):
    # the table was stamped before an edit of RESIDUAL_TOL in bem.py
    cfg = parse_config_text(TINY_CONFIG)
    run_command("sweep", cfg, tmp_path)
    monkeypatch.setattr(synthesis, "_SOURCE_DIGEST", package_digest(
        ("bem.py", b"RESIDUAL_TOL = 1e-10", b"RESIDUAL_TOL = 1e-9")))
    with caplog.at_level(logging.INFO, logger="smallscat.cli"):
        run_command("synthesize", cfg, tmp_path)
    messages = [rec.message for rec in caplog.records]
    assert not any("reusing table" in m for m in messages)
    assert any("key mismatch" in m for m in messages)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="smallscat.cli"):
        run_command("synthesize", cfg, tmp_path)       # the re-swept table is reused
    assert any("reusing table" in rec.message for rec in caplog.records)


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_manifest_lists_every_file_written(tmp_path):
    manifest = run_command("synthesize", parse_config_text(TINY_CONFIG), tmp_path)
    text = (tmp_path / "MANIFEST").read_text()
    written = sorted(p for p in tmp_path.iterdir() if p.name != "MANIFEST")
    assert len(written) == 2
    assert sorted(map(Path, manifest.files)) == written
    assert all(f"  - {p}\n" in text for p in written)


@pytest.mark.filterwarnings("ignore:frequency tail not resolved")
def test_manifest_lists_reused_tables(tmp_path):
    # a second run into the same directory reads its tables from disk; its
    # record still names every table its time series came from
    cfg = parse_config_text(TINY_CONFIG.replace("epsilons = 0.1", "epsilons = 0.1, 0.2"))
    run_command("synthesize", cfg, tmp_path)
    manifest = run_command("synthesize", cfg, tmp_path)
    assert not any(name.startswith("sweep_eps") for name, _ in manifest.timings)
    tables = sorted(tmp_path.glob("freq_table_eps*.csv"))
    assert len(tables) == 2
    assert sorted(map(Path, manifest.files)) == sorted(tables + list(tmp_path.glob("timeseries_*")))
    text = (tmp_path / "MANIFEST").read_text()
    assert all(f"  - {p}\n" in text for p in tables)


def test_write_csv_replaces_the_file(tmp_path):
    # a hard link holds the old inode: it keeps the old bytes only if the
    # write creates a new file instead of truncating the old one
    path = tmp_path / "rows.csv"
    path.write_text("old rows, longer than the new ones\n")
    os.link(path, tmp_path / "link.csv")
    RunManifest("h", "capacitance", tmp_path).write_csv("rows.csv", "n,x", [[1, 0.1], [2, -0.0]])
    assert (tmp_path / "link.csv").read_text() == "old rows, longer than the new ones\n"
    assert path.read_bytes() == b"# config=h\nn,x\n1,0.10000000000000001\n2,-0\n"


def test_manifest_write_replaces_the_file(tmp_path):
    (tmp_path / "MANIFEST").write_text("old manifest\n")
    os.link(tmp_path / "MANIFEST", tmp_path / "link")
    manifest = RunManifest("h", "checks", tmp_path)
    manifest.timings.append(("total", 1.234))
    manifest.add_check("dilation_identity", True, "ok")
    path = manifest.write()
    assert (tmp_path / "link").read_text() == "old manifest\n"
    assert path.read_bytes() == (b"config_hash: h\ncommand: checks\nfiles:\n"
                                 b"wall_clock_seconds:\n  total: 1.23\n"
                                 b"checks:\n  dilation_identity: PASS (ok)\noverall: PASS\n")


def test_manifest_lists_files_and_checks(tmp_path):
    cfg = parse_config_text(TINY_CONFIG)
    manifest = run_command("capacitance", cfg, tmp_path)
    text = (tmp_path / "MANIFEST").read_text()
    assert f"config_hash: {cfg.config_hash()}" in text
    for f in manifest.files:
        assert Path(f).name in text
    assert "overall: PASS" in text
    assert not (tmp_path / "plot_results.py").exists()


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["capacitance", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err

    assert main(["capacitance", "--out", str(tmp_path / "ok")]) == 0
    out = capsys.readouterr().out
    assert "capacitance_value: PASS" in out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_below_one_rejected(tmp_path, capsys, workers):
    assert main(["sweep", "--workers", workers, "--out", str(tmp_path)]) == 2
    assert "key 'workers' must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_shape_and_pulse_validation_become_config_errors():
    from smallscat.config import parse_config_text
    with pytest.raises(ConfigError, match="invalid shape"):
        parse_config_text("shape.constant = 1.5\n")       # exceeds the unit ball
    with pytest.raises(ConfigError, match="pulse"):
        parse_config_text("pulse.r0 = 0.5\n")
    with pytest.raises(ConfigError, match="shell"):
        parse_config_text("shell.r_ff = 0.2\n")


@pytest.mark.parametrize("key", ["shape.center", "pulse.center"])
@pytest.mark.parametrize("value", ["0.1, 0", "0.1, 0, 0, 0"])
def test_center_of_other_length_names_its_key(key, value):
    # the shape and pulse constructors check the length; the error names the key
    from smallscat.config import parse_config_text
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"{key} = {value}\n")


def test_degenerate_shell_rejected(tmp_path, capsys):
    # an empty shell rule used to crash the sweep in evaluate_potential
    with pytest.raises(ConfigError, match="shell.R_ff"):
        parse_config_text("shell.r_ff = 2.5\nshell.R_ff = 2.5\n")
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(TINY_CONFIG + "shell.r_ff = 2.5\nshell.R_ff = 2.5\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "shell.R_ff" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, key", [
    # t* = R0 + R_ff = 6, so no time is left for the tail window t >= t* + 0.5
    ("theorem1", "epsilons = 0.05, 0.1\ntime.t_max = 6.0\n", "time.t_max"),
    ("theorem2", "epsilons = 0.05, 0.1\ntime.t_max = 6.0\n", "time.t_max"),
    ("all", "epsilons = 0.05, 0.1\ntime.t_max = 6.0\n", "time.t_max"),
    # one scale: no slope to fit
    ("checks", "epsilons = 0.04\n", "epsilons"),
    ("theorem1", "epsilons = 0.04\n", "epsilons"),
    ("all", "epsilons = 0.04\n", "epsilons"),
    # a repeated scale: two points of the fit on one abscissa
    ("theorem2", "epsilons = 0.02, 0.02\n", "epsilons"),
    ("checks", "epsilons = 0.02, 0.04, 0.02\n", "epsilons")])
def test_unfittable_config_rejected_before_any_work(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "unfittable.cfg"
    cfg.write_text(TINY_CONFIG + text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.glob("freq_table_*.csv"))


def test_pulse_center_outside_hole_rejected(tmp_path, capsys):
    # the obstacle must sit in the pulse's hole: |center| + max eps < r0
    with pytest.raises(ConfigError, match="pulse.center"):
        parse_config_text("pulse.center = 1.9, 0, 0\n")
    cfg = tmp_path / "far.cfg"
    cfg.write_text(TINY_CONFIG + "pulse.center = 2.5, 0, 0\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "pulse.center" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle-compare", "all"])
def test_off_centre_pulse_rejected_before_any_work(tmp_path, capsys, command):
    # the sphere oracle needs an origin-centred pulse; `all` used to run the
    # capacitance study and write capacitance.csv before it found out
    cfg = tmp_path / "offset.cfg"
    cfg.write_text("epsilons = 0.05, 0.1\npulse.center = 0.3, 0, 0\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "pulse.center" in capsys.readouterr().err
    assert not any(out.iterdir())
