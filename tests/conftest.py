"""Shared fixtures: the verification-seed experiment bundle and family grids.

The heavyweight runs are session-scoped so the acceptance tests can share
them.  Everything here uses the verification master seed, which is disjoint
from the calibration seed that froze the default constants.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from covcon import bounds, experiments
from covcon.cli import RunConfig
from covcon.experiments import ExperimentGrid

VERIFICATION_CELLS = tuple(
    ("gaussian", n, N) for n in (16, 32, 64) for N in (256, 1024, 4096)
)


def verification_grid(family: str = "gaussian", trials: int = 50) -> ExperimentGrid:
    cells = tuple((family, n, N) for _, n, N in VERIFICATION_CELLS)
    return ExperimentGrid(
        cells=cells,
        trials_per_cell=trials,
        master_seed=experiments.VERIFICATION_MASTER_SEED,
        bound_config=bounds.DEFAULT_CONFIG,
    )


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(env_extra=None) -> dict:
    """This environment with the repository's src first on PYTHONPATH, so a
    child interpreter imports the covcon under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.update(env_extra or {})
    return env


def run_cli(args, env_extra=None, cwd=None):
    """Run the CLI in a subprocess; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "covcon.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(env_extra),
        cwd=cwd,
    )


def write_verification_config(path, output_dir, parallelism=1) -> RunConfig:
    config = RunConfig(
        grid=verification_grid(),
        output_dir=str(output_dir),
        emit=frozenset({"csv", "json", "svg"}),
        parallelism=parallelism,
    )
    path.write_text(config.to_text())
    return config


@pytest.fixture(scope="session")
def verification_run(tmp_path_factory):
    """CLI experiment bundle for the gaussian verification grid, 8 workers."""
    base = tmp_path_factory.mktemp("verification")
    config_path = base / "run.ini"
    out_dir = base / "out"
    write_verification_config(config_path, out_dir, parallelism=8)
    start = time.monotonic()
    proc = run_cli(["experiment", "--config", str(config_path)])
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    return {"dir": out_dir, "config_path": config_path, "elapsed": elapsed}


@pytest.fixture(scope="session")
def family_results():
    """Library-level verification-grid results for the non-gaussian families,
    plus the wall-clock time the two runs took."""
    out = {}
    start = time.monotonic()
    for family in ("euclidean_ball", "exponential_product"):
        out[family] = experiments.run_grid(verification_grid(family), workers=1)
    return out, time.monotonic() - start
