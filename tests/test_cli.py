"""Command-line surface: config parsing, schemas, byte-determinism, exit codes."""

import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conftest import run_cli
from covcon import bounds, cli, experiments
from covcon.bounds import DEFAULT_CONFIG
from covcon.cli import (
    CSV_HEADER,
    RunConfig,
    parse_config,
    read_results_csv,
    render_plot_svg,
    resolve_workers,
    results_csv_text,
)
from covcon.errors import ConfigError, NumericalError
from covcon.experiments import ExperimentGrid
from covcon.linalg import operator_deviation
from covcon.sampler import EnsembleSpec, SampleMatrix, load_matrix, save_matrix

SMALL_CELLS = (("gaussian", 4, 16), ("gaussian", 4, 64), ("gaussian", 4, 256))


def _schema(name):
    path = resources.files("covcon") / "schemas" / name
    return json.loads(path.read_text())


def _validate(doc, schema_name):
    jsonschema.validate(doc, _schema(schema_name))


def small_config(output_dir):
    grid = ExperimentGrid(
        cells=SMALL_CELLS,
        trials_per_cell=10,
        master_seed=experiments.VERIFICATION_MASTER_SEED,
        bound_config=DEFAULT_CONFIG,
    )
    return RunConfig(grid=grid, output_dir=str(output_dir), emit=frozenset({"csv", "json", "svg"}), parallelism=1)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    out_dir = base / "out"
    config = small_config(out_dir)
    config_path = base / "run.ini"
    config_path.write_text(config.to_text())
    proc = run_cli(["experiment", "--config", str(config_path)])
    assert proc.returncode == 0, proc.stderr
    return {"dir": out_dir, "config_path": config_path, "config": config, "stderr": proc.stderr}


# --- config parsing ----------------------------------------------------------


def test_config_round_trip(tmp_path):
    config = small_config(tmp_path / "out")
    parsed = parse_config(config.to_text())
    assert parsed == config
    assert parsed.grid.bound_config == DEFAULT_CONFIG  # repr floats survive


def test_config_accepts_hex_seed(tmp_path):
    text = small_config(tmp_path).to_text().replace("master_seed = 32343", "master_seed = 0x7E57")
    assert parse_config(text).grid.master_seed == 0x7E57


def test_config_strictness(tmp_path):
    base = small_config(tmp_path).to_text()
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(base.replace("[grid]", "[grid]\nextra = 1"))
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config(base + "\n[plotting]\nstyle = dark\n")
    with pytest.raises(ConfigError, match="missing keys"):
        parse_config(base.replace("trials_per_cell = 10\n", ""))
    with pytest.raises(ConfigError, match="missing config section"):
        parse_config("[grid]\ncells = gaussian:2:4\ntrials_per_cell = 1\nmaster_seed = 0\n")
    with pytest.raises(ConfigError, match="emit"):
        parse_config(base.replace("emit = csv, json, svg", "emit = csv, pdf"))
    with pytest.raises(ConfigError, match="parallelism"):
        parse_config(base.replace("parallelism = 1", "parallelism = none"))
    with pytest.raises(ConfigError, match="parallelism"):
        parse_config(base.replace("parallelism = 1", "parallelism = 0"))
    with pytest.raises(ConfigError, match="family:n:N"):
        parse_config(base.replace("gaussian:4:16", "gaussian-4-16"))
    with pytest.raises(ConfigError, match="line"):
        parse_config("[grid\ncells = gaussian:2:4\n")


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("COVCON_THREADS", raising=False)
    assert resolve_workers(3) == 3
    assert resolve_workers("auto") >= 1
    # "auto" counts the CPUs this process may run on, not all the host has.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert resolve_workers("auto") == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert resolve_workers("auto") == 64
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert resolve_workers("auto") == 1
    monkeypatch.setenv("COVCON_THREADS", "4")
    assert resolve_workers(1) == 4
    monkeypatch.setenv("COVCON_THREADS", "zero")
    with pytest.raises(ConfigError):
        resolve_workers(1)
    monkeypatch.setenv("COVCON_THREADS", "0")
    with pytest.raises(ConfigError):
        resolve_workers(1)


# --- sample / deviation round trips ------------------------------------------


def test_sample_writes_deterministic_binary(tmp_path):
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["sample", "--family", "gaussian", "--n", "3", "--N", "7", "--seed", "0xFEED"]
    assert run_cli(args + ["--out", str(out1)]).returncode == 0
    assert run_cli(args + ["--out", str(out2)]).returncode == 0
    blob = out1.read_bytes()
    assert blob[:4] == b"CVCN"
    assert blob == out2.read_bytes()
    mat = load_matrix(out1)
    assert mat.spec == EnsembleSpec("gaussian", 3, 7, 0xFEED)


def test_sample_lp_flag_and_token_agree(tmp_path):
    via_flag, via_token = tmp_path / "f.bin", tmp_path / "t.bin"
    base = ["sample", "--n", "2", "--N", "5", "--seed", "9"]
    assert run_cli(base + ["--family", "lp_ball", "--p", "1.5", "--out", str(via_flag)]).returncode == 0
    assert run_cli(base + ["--family", "lp_ball(1.5)", "--out", str(via_token)]).returncode == 0
    assert via_flag.read_bytes() == via_token.read_bytes()
    both = run_cli(base + ["--family", "lp_ball(1.5)", "--p", "1.0", "--out", str(via_flag)])
    assert both.returncode == 2
    missing = run_cli(base + ["--family", "lp_ball", "--out", str(via_flag)])
    assert missing.returncode == 2


def test_deviation_identity_oracle(tmp_path):
    # Orthogonal rows of squared length 2 make AA^T/N exactly the identity.
    path = tmp_path / "id.bin"
    entries = np.array([[1.0, 1.0], [1.0, -1.0]])
    mat = SampleMatrix(entries=entries, spec=EnsembleSpec("gaussian", 2, 2, 0))
    save_matrix(mat, path)
    proc = run_cli(["deviation", "--matrix", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "deviation_report.json")
    assert doc["deviation"] == 0.0
    assert doc["lambda_min"] == doc["lambda_max"] == 2.0


def test_deviation_row_oracle(tmp_path):
    # Entries (2, 0) in one row: AA^T/N = 2, deviation 1.
    path = tmp_path / "row.bin"
    save_matrix(
        SampleMatrix(entries=np.array([[2.0, 0.0]]), spec=EnsembleSpec("gaussian", 1, 2, 0)), path
    )
    doc = json.loads(run_cli(["deviation", "--matrix", str(path)]).stdout)
    assert doc["deviation"] == 1.0
    assert doc["lambda_max"] == 4.0


def test_deviation_cli_matches_library(tmp_path):
    path = tmp_path / "m.bin"
    run_cli(["sample", "--family", "euclidean_ball", "--n", "4", "--N", "50", "--seed", "5", "--out", str(path)])
    doc = json.loads(run_cli(["deviation", "--matrix", str(path)]).stdout)
    assert doc == operator_deviation(load_matrix(path)).to_json_dict()


# --- stdout JSON schemas -----------------------------------------------------


def test_psi1_command_schema(tmp_path):
    path = tmp_path / "m.bin"
    run_cli(["sample", "--family", "gaussian", "--n", "4", "--N", "200", "--seed", "3", "--out", str(path)])
    proc = run_cli(["psi1", "--matrix", str(path), "--directions", "8"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "psi1.json")
    assert doc["directions"] == 8 and doc["n"] == 4 and doc["N"] == 200 and doc["seed"] == 3
    assert doc["psi1"] > 0.0


def test_amnorm_command_schema(tmp_path):
    path = tmp_path / "m.bin"
    run_cli(["sample", "--family", "gaussian", "--n", "3", "--N", "16", "--seed", "2", "--out", str(path)])
    exact = json.loads(run_cli(["amnorm", "--matrix", str(path), "--mode", "exact"]).stdout)
    _validate(exact, "amnorm.json")
    assert exact["m_values"] == [1, 2, 4, 8, 16]
    assert "certificates" in exact
    greedy = json.loads(run_cli(["amnorm", "--matrix", str(path)]).stdout)
    _validate(greedy, "amnorm.json")
    assert "certificates" not in greedy


def test_net_command_schema():
    proc = run_cli(["net", "--n", "2", "--epsilon", "0.5"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "net.json")
    assert doc["size"] == len(doc["points"]) >= 2


def test_bounds_command_schema():
    proc = run_cli(["bounds", "--n", "8", "--N", "128"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "bounds.json")
    _validate(doc["config"], "bound_config.json")
    assert doc["config"] == DEFAULT_CONFIG.to_json_dict()
    assert {r["name"] for r in doc["reports"]} >= {"theorem1_rhs", "corollary_interval"}
    overridden = json.loads(run_cli(["bounds", "--n", "8", "--N", "128", "--psi", "2.0", "--K", "0.5"]).stdout)
    assert overridden["config"]["psi"] == 2.0
    assert overridden["config"]["K"] == 1.0  # clamped


# --- the experiment bundle ---------------------------------------------------


def test_bundle_files_and_schemas(small_run):
    out = small_run["dir"]
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bounds_check.json", "config.ini", "plot.svg", "results.csv", "scaling.json"]
    for name in names:
        assert f"wrote {out / name}" in small_run["stderr"]
    _validate(json.loads((out / "scaling.json").read_text()), "scaling.json")
    _validate(json.loads((out / "bounds_check.json").read_text()), "bounds_check.json")
    assert parse_config((out / "config.ini").read_text()) == small_run["config"]


def test_bundle_csv_layout(small_run):
    lines = (small_run["dir"] / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 10
    first = lines[1].split(",")
    assert first[:4] == ["gaussian", "4", "16", "0"]
    assert int(first[4]) == experiments.derive_seed(experiments.VERIFICATION_MASTER_SEED, 0, 0)


def test_bundle_rerun_is_byte_identical(small_run, tmp_path):
    rerun_dir = tmp_path / "rerun"
    config = small_config(rerun_dir)
    config_path = tmp_path / "run.ini"
    config_path.write_text(config.to_text())
    proc = run_cli(["experiment", "--config", str(config_path)], env_extra={"COVCON_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    for name in ("results.csv", "scaling.json", "bounds_check.json", "plot.svg"):
        assert (rerun_dir / name).read_bytes() == (small_run["dir"] / name).read_bytes()


def test_bundle_respects_emit_subset(tmp_path):
    out_dir = tmp_path / "csv_only"
    config = RunConfig(
        grid=ExperimentGrid(
            cells=(("gaussian", 2, 8), ("gaussian", 2, 16), ("gaussian", 2, 32)),
            trials_per_cell=10,
            master_seed=1,
            bound_config=DEFAULT_CONFIG,
        ),
        output_dir=str(out_dir),
        emit=frozenset({"csv"}),
        parallelism=1,
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(config.to_text())
    assert run_cli(["experiment", "--config", str(config_path)]).returncode == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["config.ini", "results.csv"]


def test_read_results_round_trips(small_run):
    results = read_results_csv(small_run["dir"] / "results.csv")
    assert results_csv_text(results) == (small_run["dir"] / "results.csv").read_text()
    assert [res.cell for res in results] == list(SMALL_CELLS)


def test_fit_command_matches_library(small_run):
    proc = run_cli(["fit", "--results", str(small_run["dir"] / "results.csv")])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "scaling.json")
    fit = experiments.scaling_fit(read_results_csv(small_run["dir"] / "results.csv"))
    assert doc == fit.to_json_dict()
    assert doc == json.loads((small_run["dir"] / "scaling.json").read_text())


# --- plot --------------------------------------------------------------------


def test_plot_structure(small_run, tmp_path):
    out = tmp_path / "plot.svg"
    proc = run_cli(["plot", "--results", str(small_run["dir"] / "results.csv"), "--out", str(out)])
    assert proc.returncode == 0
    svg = out.read_text()
    assert svg == (small_run["dir"] / "plot.svg").read_text()
    assert svg.count("<polyline") == 1  # the slope-1/2 reference line
    assert svg.count("<circle") == 3
    assert svg.count("beta=") == 3
    assert "fit slope" in svg and "reference slope 0.500" in svg
    assert svg.count("<path") == 2  # fitted line and envelope


def test_plot_rejects_degenerate_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    proc = run_cli(["plot", "--results", str(empty), "--out", str(tmp_path / "x.svg")])
    assert proc.returncode == 2


def test_render_plot_svg_is_pure(small_run):
    results = read_results_csv(small_run["dir"] / "results.csv")
    fit = experiments.scaling_fit(results)
    a = render_plot_svg(results, fit, DEFAULT_CONFIG)
    b = render_plot_svg(results, fit, DEFAULT_CONFIG)
    assert a == b


# --- exit codes --------------------------------------------------------------


def test_cli_import_defers_qmc_and_quad():
    # scipy.stats (for qmc.Sobol) loads on the first net call, not at
    # start-up; scipy.integrate is never imported.
    code = "import sys, covcon.cli; print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exit_code_validation_errors(tmp_path):
    assert run_cli(["sample", "--family", "cauchy", "--n", "2", "--N", "4", "--seed", "0",
                    "--out", str(tmp_path / "x.bin")]).returncode == 2
    assert run_cli(["net", "--n", "9", "--epsilon", "0.5"]).returncode == 2
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[grid\ncells = gaussian:2:4\n")
    assert run_cli(["experiment", "--config", str(bad_config)]).returncode == 2
    header_only = tmp_path / "h.csv"
    header_only.write_text(CSV_HEADER + "\n")
    assert run_cli(["fit", "--results", str(header_only)]).returncode == 2


def test_exit_code_io_errors(tmp_path):
    assert run_cli(["deviation", "--matrix", str(tmp_path / "missing.bin")]).returncode == 3
    target = tmp_path / "no_such_dir" / "x.bin"
    assert run_cli(["sample", "--family", "gaussian", "--n", "2", "--N", "4", "--seed", "0",
                    "--out", str(target)]).returncode == 3


def test_exit_code_argparse_errors():
    proc = run_cli(["sample", "--family", "gaussian", "--n", "2", "--N", "4", "--seed", "-1",
                    "--out", "x.bin"])
    assert proc.returncode == 2
    assert run_cli(["unknown-command"]).returncode == 2


def test_exit_code_numerical_failure(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.bin"
    save_matrix(
        SampleMatrix(entries=np.eye(2), spec=EnsembleSpec("gaussian", 2, 2, 0)), path
    )

    def blow_up(_matrix):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli, "operator_deviation", blow_up)
    assert cli.main(["deviation", "--matrix", str(path)]) == 4
    assert "did not converge" in capsys.readouterr().err
