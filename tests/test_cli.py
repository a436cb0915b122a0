"""Command-line surface: config parsing, schemas, byte-determinism, exit codes."""

import dataclasses
import json
import math
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import child_env, run_cli
from covcon import bounds, cli, experiments, linalg
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
from covcon.errors import ConfigError, ContractError, NumericalError
from covcon.experiments import ExperimentGrid
from covcon.linalg import operator_deviation
from covcon.sampler import FAMILIES, EnsembleSpec, SampleMatrix, sample_ensemble

SMALL_CELLS = (("gaussian", 4, 16), ("gaussian", 4, 64), ("gaussian", 4, 256))


def _schema(name):
    path = resources.files("covcon") / "schemas" / name
    return json.loads(path.read_text())


def _validate(doc, schema_name):
    jsonschema.validate(doc, _schema(schema_name))


def small_config(output_dir, parallelism=1):
    grid = ExperimentGrid(
        cells=SMALL_CELLS,
        trials_per_cell=10,
        master_seed=experiments.VERIFICATION_MASTER_SEED,
        bound_config=DEFAULT_CONFIG,
    )
    return RunConfig(
        grid=grid, output_dir=str(output_dir), emit=frozenset({"csv", "json", "svg"}), parallelism=parallelism
    )


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
    # Every accepted emit subset and parallelism, and an inner space.
    choices = ("csv", "json", "svg")
    for mask in range(1, 8):
        emit = frozenset(c for i, c in enumerate(choices) if mask >> i & 1)
        for parallelism in (1, "auto"):
            config = dataclasses.replace(small_config(tmp_path / "a b"), emit=emit, parallelism=parallelism)
            assert parse_config(config.to_text()) == config


def test_readme_example_config_has_the_default_constants():
    # README's example INI is the documented way to set the constants; it
    # must parse and name DEFAULT_CONFIG exactly.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    cfg = parse_config(block).grid.bound_config
    for f in dataclasses.fields(DEFAULT_CONFIG):
        assert getattr(cfg, f.name) == getattr(DEFAULT_CONFIG, f.name), f.name


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
    for bad in ("none", "0", "2.5", "True"):
        with pytest.raises(ConfigError, match="parallelism"):
            parse_config(base.replace("parallelism = 1", f"parallelism = {bad}"))
    with pytest.raises(ConfigError, match="family:n:N"):
        parse_config(base.replace("gaussian:4:16", "gaussian-4-16"))
    with pytest.raises(ConfigError, match="'gaussian:4:x': dimensions must be integers"):
        parse_config(base.replace("gaussian:4:16", "gaussian:4:x"))
    with pytest.raises(ConfigError, match="line"):
        parse_config("[grid\ncells = gaussian:2:4\n")
    for blank in ("", "  "):
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config(base.replace(f"output_dir = {tmp_path}", f"output_dir = {blank}"))
        with pytest.raises(ConfigError, match="output_dir"):
            small_config(blank)


def test_run_config_checks_its_own_fields(tmp_path):
    # A config built in code obeys the rules a parsed one does.
    good = small_config(tmp_path)
    bad_fields = [
        {"emit": frozenset({"pdf"})},
        {"emit": frozenset()},
        {"emit": ["csv"]},
        {"emit": None},
        {"output_dir": " out"},
        {"output_dir": "a\nb"},
        {"parallelism": 0},
    ]
    for bad in bad_fields:
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be"):
            dataclasses.replace(good, **bad)


def test_empty_output_dir_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    path = tmp_path / "run.ini"
    path.write_text(small_config(tmp_path).to_text().replace(f"output_dir = {tmp_path}", "output_dir = "))
    ran = []
    monkeypatch.setattr(experiments, "run_grid", lambda *args, **kwargs: ran.append(args))
    assert cli.main(["experiment", "--config", str(path)]) == 2
    assert ran == []
    assert "output_dir" in capsys.readouterr().err


def test_resolve_workers(monkeypatch, tmp_path):
    assert resolve_workers(3) == 3
    for bad in (2.5, True, 0):
        with pytest.raises(ContractError, match="parallelism must be a positive integer"):
            resolve_workers(bad)
        with pytest.raises(ContractError, match="parallelism must be a positive integer"):
            small_config(tmp_path, parallelism=bad)
    assert resolve_workers("auto") >= 1
    # "auto" counts the CPUs this process may run on, not all the host has.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert resolve_workers("auto") == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert resolve_workers("auto") == 64
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert resolve_workers("auto") == 1


# --- sample and deviation ----------------------------------------------------


def test_sample_writes_deterministic_binary(tmp_path):
    # The .npy export is written to the name given, with no suffix added.
    out1, out2 = tmp_path / "a.npy", tmp_path / "b"
    args = ["sample", "--family", "gaussian", "--n", "3", "--N", "7", "--seed", "0xFEED"]
    assert run_cli(args + ["--out", str(out1)]).returncode == 0
    assert run_cli(args + ["--out", str(out2)]).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert np.array_equal(np.load(out1), sample_ensemble(EnsembleSpec("gaussian", 3, 7, 0xFEED)).entries)


def test_sample_lp_flag_and_token_agree(tmp_path):
    # The exponent is given in the family token, as in config cells.
    out = tmp_path / "t.npy"
    base = ["sample", "--n", "2", "--N", "5", "--seed", "9"]
    assert run_cli(base + ["--family", "lp_ball(1.5)", "--out", str(out)]).returncode == 0
    assert np.array_equal(np.load(out), sample_ensemble(EnsembleSpec("lp_ball", 2, 5, 9, p=1.5)).entries)
    missing = run_cli(base + ["--family", "lp_ball", "--out", str(tmp_path / "m.npy")])
    assert missing.returncode == 2
    assert "lp_ball requires the exponent p" in missing.stderr
    assert not (tmp_path / "m.npy").exists()


def test_cli_seed_takes_the_integer_rule(tmp_path, capsys):
    # --seed reads any int() base; the spec refuses a seed out of range, as
    # it refuses a bad --n or --N, before any file is opened.
    out = tmp_path / "m.npy"
    spec = ["--family", "gaussian", "--n", "2", "--N", "4", "--seed"]
    for argv in (["deviation", *spec, "-1"], ["sample", *spec, "-1", "--out", str(out)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: seed must be an unsigned 64-bit integer, got -1" in captured.err
    assert not out.exists()
    assert cli.main(["deviation", *spec, "0x7E57"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == operator_deviation(sample_ensemble(EnsembleSpec("gaussian", 2, 4, 0x7E57))).to_json_dict()


def test_deviation_identity_oracle():
    # Orthogonal rows of squared length 2 make AA^T/N exactly the identity.
    doc = operator_deviation(SampleMatrix(entries=np.array([[1.0, 1.0], [1.0, -1.0]]))).to_json_dict()
    _validate(doc, "deviation_report.json")
    assert doc["deviation"] == 0.0
    assert doc["lambda_min"] == doc["lambda_max"] == 2.0


def test_trial_zero_report_carries_psi_hat_and_validates():
    # psi_hat is set on each cell's trial 0 only; Record omits it elsewhere.
    (res,) = experiments.run_grid(ExperimentGrid((("gaussian", 3, 20),), 2, 9, DEFAULT_CONFIG))
    first, second = (r.to_json_dict() for r in res.reports)
    for doc in (first, second):
        _validate(doc, "deviation_report.json")
    assert first["psi_hat"] == res.summary.psi_hat > 0.0
    assert "psi_hat" not in second


def test_deviation_row_oracle():
    # Entries (2, 0) in one row: AA^T/N = 2, deviation 1.
    doc = operator_deviation(SampleMatrix(entries=np.array([[2.0, 0.0]]))).to_json_dict()
    assert doc["deviation"] == 1.0
    assert doc["lambda_max"] == 4.0


def test_deviation_cli_matches_library():
    for family in FAMILIES:
        p = 1.5 if family == "lp_ball" else None
        token = family if p is None else f"{family}({p})"
        proc = run_cli(["deviation", "--family", token, "--n", "4", "--N", "50", "--seed", "5"])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        _validate(doc, "deviation_report.json")
        assert doc == operator_deviation(sample_ensemble(EnsembleSpec(family, 4, 50, 5, p))).to_json_dict(), token


# --- stdout JSON schemas -----------------------------------------------------


def test_psi1_command_schema():
    proc = run_cli(["psi1", "--family", "gaussian", "--n", "4", "--N", "200", "--seed", "3", "--directions", "8"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "psi1.json")
    assert doc["directions"] == 8 and doc["n"] == 4 and doc["N"] == 200 and doc["seed"] == 3
    assert doc["psi1"] > 0.0


def test_psi1_help_states_the_column_budget(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["psi1", "-h"])
    assert info.value.code == 0
    assert "on the first 65,536 columns at most" in " ".join(capsys.readouterr().out.split())


def test_psi1_command_matches_the_bundle_past_the_column_budget():
    # A cell wider than statistics.PSI_SAMPLE_COLUMNS: the command on its
    # trial-0 spec prints the psi_hat of run_grid, and N stays the spec's.
    grid = ExperimentGrid((("gaussian", 2, 70_000),), 1, experiments.VERIFICATION_MASTER_SEED, DEFAULT_CONFIG)
    (result,) = experiments.run_grid(grid)
    seed = experiments.derive_seed(grid.master_seed, 0, 0)
    proc = run_cli(["psi1", "--family", "gaussian", "--n", "2", "--N", "70000", "--seed", str(seed), "--directions", "16"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["psi1"] == result.summary.psi_hat
    assert doc["N"] == 70_000


def test_amnorm_command_schema():
    spec = ["--family", "gaussian", "--n", "3", "--N", "16", "--seed", "2"]
    exact = json.loads(run_cli(["amnorm", *spec, "--mode", "exact"]).stdout)
    _validate(exact, "amnorm.json")
    assert exact["m_values"] == [1, 2, 4, 8, 16]
    assert "certificates" in exact
    greedy = json.loads(run_cli(["amnorm", *spec]).stdout)
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
    # A grid of tall cells has no Remark 2 rows, but the key is still written.
    assert json.loads((out / "bounds_check.json").read_text())["remark2"] == []


def test_bundle_checks_tall_and_wide_cells_apart(tmp_path):
    # Tall cells (n <= N) get the exceedance and sandwich checks, wide cells
    # (N < n) the Remark 2 checks, each list in grid order.
    cells = (("gaussian", 4, 16), ("gaussian", 16, 8), ("gaussian", 4, 64), ("gaussian", 8, 256), ("gaussian", 12, 6))
    grid = ExperimentGrid(cells, 10, experiments.VERIFICATION_MASTER_SEED, DEFAULT_CONFIG)
    config = RunConfig(grid=grid, output_dir=str(tmp_path / "out"), emit=frozenset({"json"}), parallelism=1)
    config_path = tmp_path / "run.ini"
    config_path.write_text(config.to_text())
    proc = run_cli(["experiment", "--config", str(config_path)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "out" / "bounds_check.json").read_text())
    _validate(doc, "bounds_check.json")
    tall = [[f, n, N] for f, n, N in cells if n <= N]
    assert [[c["family"], c["n"], c["N"]] for c in doc["exceedance"]] == tall
    assert [[c["family"], c["n"], c["N"]] for c in doc["sandwich"]] == tall
    assert [[c["family"], c["n"], c["N"]] for c in doc["remark2"]] == [["gaussian", 16, 8], ["gaussian", 12, 6]]


def test_bounds_check_schema_requires_every_record_field():
    # The schema's required keys follow the records, so a field cannot be
    # added or dropped on one side only.
    grid = ExperimentGrid((("gaussian", 2, 8), ("gaussian", 8, 2)), 10, 7, DEFAULT_CONFIG)
    tall, wide = experiments.run_grid(grid)
    records = {
        "exceedance": experiments.failure_rate([tall], DEFAULT_CONFIG)[0],
        "sandwich": experiments.bai_yin_sandwich([tall], DEFAULT_CONFIG)[0],
        "remark2": experiments.remark2_checks([wide], DEFAULT_CONFIG)[0],
    }
    schema = _schema("bounds_check.json")
    for key, record in records.items():
        assert schema["properties"][key]["items"]["required"] == list(record.to_json_dict()), key


def test_bundle_csv_layout(small_run):
    lines = (small_run["dir"] / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 10
    first = lines[1].split(",")
    assert first[:4] == ["gaussian", "4", "16", "0"]
    assert int(first[4]) == experiments.derive_seed(experiments.VERIFICATION_MASTER_SEED, 0, 0)


def test_bundle_rerun_is_byte_identical(small_run, tmp_path):
    rerun_dir = tmp_path / "rerun"
    config = small_config(rerun_dir, parallelism=2)
    config_path = tmp_path / "run.ini"
    config_path.write_text(config.to_text())
    proc = run_cli(["experiment", "--config", str(config_path)])
    assert proc.returncode == 0, proc.stderr
    for name in ("results.csv", "scaling.json", "bounds_check.json", "plot.svg"):
        assert (rerun_dir / name).read_bytes() == (small_run["dir"] / name).read_bytes()


def test_bundle_identical_across_blas_threads(tmp_path):
    # The Gram products and eigensolves go through OpenBLAS; its thread count
    # must not reach the bytes.  Cells are large enough for threaded gemm.
    grid = ExperimentGrid(
        cells=(("gaussian", 64, 4096), ("exponential_product", 32, 8192), ("euclidean_ball", 16, 2048)),
        trials_per_cell=10,
        master_seed=experiments.VERIFICATION_MASTER_SEED,
        bound_config=DEFAULT_CONFIG,
    )
    bundles = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas{threads}"
        config_path = tmp_path / f"run{threads}.ini"
        config = RunConfig(grid=grid, output_dir=str(out_dir), emit=frozenset({"csv", "json", "svg"}), parallelism=1)
        config_path.write_text(config.to_text())
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = run_cli(["experiment", "--config", str(config_path)], env_extra=env)
        assert proc.returncode == 0, proc.stderr
        bundles.append(out_dir)
    for name in ("results.csv", "scaling.json", "bounds_check.json", "plot.svg"):
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name


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
    # The bundle holds every file; only write_bundle reads emit.
    every = dataclasses.replace(config, emit=frozenset({"csv", "json", "svg"}))
    assert cli.run_bundle(config).svg_text == cli.run_bundle(every).svg_text
    assert not (out_dir / "plot.svg").exists()


def test_read_results_round_trips(small_run, tmp_path):
    path = small_run["dir"] / "results.csv"
    results = read_results_csv(path)
    assert results_csv_text(results) == path.read_text()
    assert [res.cell for res in results] == list(SMALL_CELLS)
    # psi_hat travels in the CSV, so the rows rebuild the run and its checks.
    assert results == experiments.run_grid(small_run["config"].grid)
    assert cli.bounds_check_json(results, DEFAULT_CONFIG) == (small_run["dir"] / "bounds_check.json").read_text()
    # psi_hat is trial 0's alone: missing there, or on a later trial, is refused.
    header, *rows = path.read_text().splitlines(keepends=True)
    psi = rows[0].rsplit(",", 1)[1]
    bad = tmp_path / "bad.csv"
    cases = [
        ([rows[0].rsplit(",", 1)[0] + ",\n", *rows[1:]], "line 2, column psi_hat: trial 0 has no value"),
        ([rows[0], rows[1].rstrip("\n") + psi, *rows[2:]], "line 3, column psi_hat: trial 1 has one; only trial 0 does"),
    ]
    for body, message in cases:
        bad.write_text(header + "".join(body))
        with pytest.raises(ContractError, match=f"^{re.escape('results CSV ' + message)}$"):
            read_results_csv(bad)


def test_fit_command_matches_library(small_run):
    proc = run_cli(["fit", "--results", str(small_run["dir"] / "results.csv")])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    _validate(doc, "scaling.json")
    fit = experiments.scaling_fit(read_results_csv(small_run["dir"] / "results.csv"))
    assert doc == fit.to_json_dict()
    assert doc == json.loads((small_run["dir"] / "scaling.json").read_text())


def test_fit_refuses_a_bad_header_or_row_length(small_run, tmp_path):
    header, *rows = (small_run["dir"] / "results.csv").read_text().splitlines(keepends=True)
    path = tmp_path / "bad.csv"
    short_row = rows[0].rsplit(",", 1)[0] + "\n"
    width = len(CSV_HEADER.split(","))
    cases = [
        ("family,n,N\n" + "".join(rows), "unexpected results CSV header: ['family', 'n', 'N']"),
        (header + short_row + "".join(rows[1:]), f"results CSV row has {width - 1} fields, expected {width}"),
    ]
    for text, message in cases:
        path.write_text(text)
        proc = run_cli(["fit", "--results", str(path)])
        assert proc.returncode == 2
        assert f"error: {message}" in proc.stderr


def test_fit_refuses_trial_rows_out_of_order(small_run, tmp_path):
    # Each cell's rows must read trial 0, 1, 2, ... in order.  Five copies of
    # a row appended to a 10-trial run would otherwise fit a 15-trial cell.
    header, *rows = (small_run["dir"] / "results.csv").read_text().splitlines(keepends=True)
    path = tmp_path / "bad.csv"
    for bad in (rows + rows[-1:] * 5, rows[1:], [rows[1], rows[0], *rows[2:]]):
        path.write_text(header + "".join(bad))
        with pytest.raises(ContractError, match=r"results CSV cell \(gaussian, 4, (16|256)\): trial '\d+', expected"):
            read_results_csv(path)
    path.write_text(header + "".join(rows + rows[-1:] * 5))
    proc = run_cli(["fit", "--results", str(path)])
    assert proc.returncode == 2
    assert "trial '9', expected 10" in proc.stderr


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


def test_plot_and_bounds_read_the_constants_of_a_config(tmp_path):
    # A bundle run with twice C_main: plot --config redraws its plot.svg byte
    # for byte, and bounds --config doubles the deviation envelope.
    doubled = dataclasses.replace(DEFAULT_CONFIG, C_main=2.0 * DEFAULT_CONFIG.C_main)
    config = small_config(tmp_path / "out")
    config = dataclasses.replace(config, grid=dataclasses.replace(config.grid, bound_config=doubled))
    config_path = tmp_path / "run.ini"
    config_path.write_text(config.to_text())
    assert cli.main(["experiment", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    plot = ["plot", "--results", str(out / "results.csv"), "--out", str(tmp_path / "p.svg")]
    assert cli.main(plot + ["--config", str(out / "config.ini")]) == 0
    assert (tmp_path / "p.svg").read_bytes() == (out / "plot.svg").read_bytes()
    assert cli.main(plot) == 0
    assert (tmp_path / "p.svg").read_bytes() != (out / "plot.svg").read_bytes()

    def rhs(*extra):
        proc = run_cli(["bounds", "--n", "16", "--N", "1024", *extra])
        assert proc.returncode == 0, proc.stderr
        return {r["name"]: r["value"] for r in json.loads(proc.stdout)["reports"]}["theorem1_rhs"]

    assert rhs("--config", str(out / "config.ini")) == 2.0 * rhs()


def test_plot_rejects_degenerate_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    proc = run_cli(["plot", "--results", str(empty), "--out", str(tmp_path / "x.svg")])
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "extra", [["--psi", "1e200"], ["--K", "1e160"], ["--psi", "1e80"]], ids=["psi_1e200", "K_1e160", "psi_1e80"]
)
def test_plot_refuses_constants_whose_envelopes_overflow(small_run, tmp_path, capsys, extra):
    out = tmp_path / "p.svg"
    argv = ["plot", "--results", str(small_run["dir"] / "results.csv"), "--out", str(out), *extra]
    assert cli.main(argv) == 2
    psi, K = (1.0, float(extra[1])) if extra[0] == "--K" else (float(extra[1]), 1.0)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an envelope formula overflows float64 at psi = {psi!r}, K = {K!r}\n"
    assert not out.exists()


def test_fit_and_plot_refuse_a_non_finite_csv_value(small_run, tmp_path, capsys):
    # covcon never writes a non-finite value, a non-integer n, a seed
    # outside [0, 2^64 - 1], a family EnsembleSpec refuses or a
    # boundedness_ratio other than the one of its row's n, N and
    # max_col_norm, so a results CSV holding one was edited; line 5 is the
    # fourth data row.
    header, *rows = (small_run["dir"] / "results.csv").read_text().splitlines(keepends=True)
    columns = CSV_HEADER.split(",")
    max_col_norm = float(rows[3].split(",")[columns.index("max_col_norm")])
    k = repr(float(linalg.boundedness_ratio(4, 16, max_col_norm)))
    cases = {
        ("deviation", "inf"): "inf is not finite",
        ("n", "x"): "invalid literal for int() with base 10: 'x'",
        ("seed", "-3"): "seed must be an unsigned 64-bit integer, got -3",
        ("lambda_max", "abc"): "could not convert string to float: 'abc'",
        ("family", "no_such_family"): "unknown family token 'no_such_family'",
        ("family", "lp_ball(0.5)"): "lp_ball requires p >= 1, got 0.5",
        ("boundedness_ratio", "0.5"): f"0.5 is not boundedness_ratio(n, N, max_col_norm) = {k}",
    }
    for i, ((column, text), reason) in enumerate(cases.items()):
        fields = rows[3].split(",")
        fields[columns.index(column)] = text
        path, out = tmp_path / f"{i}.csv", tmp_path / "p.svg"
        path.write_text(header + "".join(rows[:3]) + ",".join(fields) + "".join(rows[4:]))
        message = f"results CSV line 5, column {column}: {reason}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            read_results_csv(path)
        for argv in (["fit", "--results", str(path)], ["plot", "--results", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


def test_render_plot_svg_is_pure(small_run):
    results = read_results_csv(small_run["dir"] / "results.csv")
    fit = experiments.scaling_fit(results)
    a = render_plot_svg(results, fit, DEFAULT_CONFIG)
    b = render_plot_svg(results, fit, DEFAULT_CONFIG)
    assert a == b


# --- exit codes --------------------------------------------------------------


def test_cli_import_defers_qmc_and_quad():
    # Neither start-up nor a net call imports scipy.stats (the net's cloud
    # comes from covcon's Philox streams), and scipy.integrate is never
    # imported.
    code = (
        "import sys, covcon.cli\n"
        "loaded = lambda: [m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules]\n"
        "print(loaded())\n"
        "assert covcon.cli.main(['net', '--n', '3', '--epsilon', '0.33']) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads("\n".join(lines[1:-1]))["size"] > 0
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_cli_starts_without_scipy_or_a_process_pool(tmp_path):
    # Start-up and every command that draws no sample (bounds, fit, plot,
    # --help, a config error) load numpy and the standard library only:
    # scipy.special loads at the first draw, and a run on more than one
    # worker loads no process pool.
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(results_csv_text(experiments.run_grid(small_config(tmp_path).grid)))
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[grid\ncells = gaussian:2:4\n")
    code = (
        "import contextlib, io, sys\n"
        "from covcon import bounds, cli, experiments\n"
        "heavy = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing'))\n"
        "print(heavy())\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes.append(cli.main(['bounds', '--n', '4', '--N', '16', '--m', '2', '--B', '3']))\n"
        f"    codes.append(cli.main(['fit', '--results', {str(csv_path)!r}]))\n"
        f"    codes.append(cli.main(['plot', '--results', {str(csv_path)!r}, '--out', {str(tmp_path / 'p.svg')!r}]))\n"
        f"    codes.append(cli.main(['experiment', '--config', {str(bad_config)!r}]))\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(codes)\n"
        "print(heavy())\n"
        f"codes = [cli.main(['sample', '--family', 'gaussian', '--n', '2', '--N', '4', '--seed', '0', "
        f"'--out', {str(tmp_path / 'm.npy')!r}])]\n"
        "print(codes, 'scipy.special' in sys.modules)\n"
        "grid = experiments.ExperimentGrid((('gaussian', 4, 16), ('gaussian', 4, 64)), 3, 7, bounds.DEFAULT_CONFIG)\n"
        "one, two = (cli.results_csv_text(experiments.run_grid(grid, workers=w)) for w in (1, 2))\n"
        "print(one == two, len(one.splitlines()))\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 2, 0]", "[]", "[0] True", "True 7", "[]"]


def test_exit_code_validation_errors(tmp_path):
    assert run_cli(["sample", "--family", "cauchy", "--n", "2", "--N", "4", "--seed", "0",
                    "--out", str(tmp_path / "x.npy")]).returncode == 2
    assert run_cli(["net", "--n", "9", "--epsilon", "0.5"]).returncode == 2
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[grid\ncells = gaussian:2:4\n")
    assert run_cli(["experiment", "--config", str(bad_config)]).returncode == 2
    header_only = tmp_path / "h.csv"
    header_only.write_text(CSV_HEADER + "\n")
    assert run_cli(["fit", "--results", str(header_only)]).returncode == 2


def test_non_finite_constants_exit_2(tmp_path, capsys):
    config = tmp_path / "inf.ini"
    text = small_config(tmp_path / "out").to_text()
    config.write_text(text.replace(f"C_main = {DEFAULT_CONFIG.C_main!r}", "C_main = inf"))
    assert cli.main(["experiment", "--config", str(config)]) == 2
    assert "C_main must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.main(["bounds", "--n", "8", "--N", "64", "--psi", "inf"]) == 2
    assert "psi must be finite, got inf" in capsys.readouterr().err
    assert cli.main(["bounds", "--n", "4", "--N", "16", "--K", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "K must be finite, got nan" in captured.err


@pytest.mark.parametrize(
    "option, value, name",
    [
        ("--B", "inf", "B"),
        ("--B", "nan", "B"),
        ("--theta", "inf", "theta"),
        ("--max-col-norm", "inf", "max_col_norm"),
        ("--max-col-norm", "-1", "max_col_norm"),
        ("--theta", "-1", "theta"),
    ],
)
def test_bounds_refuses_non_finite_and_negative_inputs(capsys, option, value, name):
    # A tall shape, and a wide one that evaluates no Bernstein tail.
    for n, N in (("8", "64"), ("64", "8")):
        assert cli.main(["bounds", "--n", n, "--N", N, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be" in captured.err


@pytest.mark.parametrize(
    "extra, code, message",
    [
        (["--psi", "0"], 0, None),
        (["--psi", "0", "--theta", "0.5"], 0, None),
        (["--psi", "1e80"], 2, "error: an envelope formula overflows float64 at psi = 1e+80, K = 1.0"),
        (["--psi", "1e200"], 2, "error: an envelope formula overflows float64 at psi = 1e+200, K = 1.0"),
        (["--K", "1e154"], 2, "error: remark2_dev must be finite and >= 0, got inf"),
    ],
    ids=["psi_0", "psi_0_theta", "psi_1e80", "psi_1e200", "K_1e154"],
)
def test_bounds_at_extreme_constants_exits_cleanly(capsys, extra, code, message):
    assert cli.main(["bounds", "--n", "4", "--N", "16", *extra]) == code
    captured = capsys.readouterr()
    if message is None:
        names = [r["name"] for r in json.loads(captured.out)["reports"]]
        # At psi = 0 the default theta is 0, where the tail's exponent is 0/0.
        assert ("bernstein_tail" in names) == ("--theta" in extra)
    else:
        assert captured.out == "" and captured.err.strip() == message


def test_json_output_refuses_non_finite_floats():
    with pytest.raises(ValueError):
        cli._dump_json({"value": math.inf})


def test_experiment_refuses_a_bad_cell_before_any_trial(tmp_path, capsys):
    text = small_config(tmp_path / "out").to_text()
    config = tmp_path / "bad_cell.ini"
    config.write_text(text.replace("gaussian:4:256", "gaussian:4:256, lp_ball:4:100"))
    assert cli.main(["experiment", "--config", str(config)]) == 2
    assert "cell (lp_ball, 4, 100): lp_ball requires the exponent p" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_unfittable_grid_is_refused_at_parse(tmp_path, capsys):
    base = small_config(tmp_path / "out").to_text()
    with pytest.raises(ConfigError, match="got 5 trials"):
        parse_config(base.replace("trials_per_cell = 10", "trials_per_cell = 5"))
    two_ratios = base.replace("gaussian:4:256", "gaussian:8:32")
    with pytest.raises(ConfigError, match=r"ratios \[0.0625, 0.25\]"):
        parse_config(two_ratios)
    config = tmp_path / "two_ratios.ini"
    config.write_text(two_ratios)
    assert cli.main(["experiment", "--config", str(config)]) == 2
    assert "distinct n/N ratios" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_refuses_overflowing_constants_before_any_trial(tmp_path, capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(experiments, "_trial_report", lambda *job: trials.append(job))
    config = tmp_path / "huge_psi.ini"
    config.write_text(small_config(tmp_path / "out").to_text().replace("psi = 1.0\n", "psi = 1e200\n"))
    assert cli.main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: an envelope formula overflows float64 at psi = 1e+200, K = 1.0\n"
    assert trials == [] and not (tmp_path / "out").exists()


def test_experiment_refuses_an_over_budget_cell_before_any_trial(tmp_path, capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(experiments, "_trial_report", lambda *job: trials.append(job))
    config = tmp_path / "huge_cell.ini"
    config.write_text(small_config(tmp_path / "out").to_text().replace("gaussian:4:256", "gaussian:4:256, gaussian:64:1048576"))
    assert cli.main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: cell (gaussian, 64, 1048576): n*N = 67108864 exceeds the sample budget of 33554432 entries\n"
    )
    assert trials == [] and not (tmp_path / "out").exists()


def test_main_alone_prints_one_document_per_json_command(small_run, tmp_path, capsys):
    # All nine subcommands, in process: a JSON command's stdout is exactly one
    # document, and a command that writes files prints nothing to stdout.
    spec = ["--family", "gaussian", "--n", "4", "--N", "16", "--seed", "3"]
    results = str(small_run["dir"] / "results.csv")
    config = tmp_path / "run.ini"
    config.write_text(small_config(tmp_path / "out").to_text())
    json_commands = [
        ["deviation", *spec],
        ["psi1", *spec],
        ["amnorm", *spec],
        ["net", "--n", "3", "--epsilon", "0.5"],
        ["bounds", "--n", "4", "--N", "16"],
        ["fit", "--results", results],
    ]
    file_commands = [
        ["sample", *spec, "--out", str(tmp_path / "a.npy")],
        ["experiment", "--config", str(config)],
        ["plot", "--results", results, "--out", str(tmp_path / "p.svg")],
    ]
    assert len({argv[0] for argv in json_commands + file_commands}) == 9
    for argv in json_commands:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == cli._dump_json(json.loads(out))
    for argv in file_commands:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == ""
    assert (tmp_path / "a.npy").is_file() and (tmp_path / "out" / "results.csv").is_file()
    assert (tmp_path / "p.svg").is_file()


def test_exit_code_io_errors(tmp_path):
    assert run_cli(["fit", "--results", str(tmp_path / "missing.csv")]).returncode == 3
    target = tmp_path / "no_such_dir" / "x.npy"
    assert run_cli(["sample", "--family", "gaussian", "--n", "2", "--N", "4", "--seed", "0",
                    "--out", str(target)]).returncode == 3


def test_exit_code_argparse_errors():
    proc = run_cli(["sample", "--family", "gaussian", "--n", "2", "--N", "4", "--seed", "x",
                    "--out", "x.npy"])
    assert proc.returncode == 2
    assert "argument --seed: invalid" in proc.stderr
    assert run_cli(["unknown-command"]).returncode == 2


def test_exit_code_numerical_failure(monkeypatch, capsys):
    def blow_up(_matrix):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli, "operator_deviation", blow_up)
    assert cli.main(["deviation", "--family", "gaussian", "--n", "2", "--N", "2", "--seed", "0"]) == 4
    assert "did not converge" in capsys.readouterr().err
