"""Golden bytes: SHA-256 of every serialised output on small fixed inputs.

The bundle texts of a small experiment and the JSON documents of each result
record are hashed in-process.  A change to how records are written must
leave every hash alone.  A format change that moves no trial value, such as
a new per-trial field or CSV column, updates only the hashes it moves, with
no recalibration.  A change that moves a trial's output on purpose updates
these hashes together with the refrozen constants in bounds.DEFAULT_CONFIG.
Either records old -> new in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from covcon import bounds, experiments, statistics
from covcon.bounds import DEFAULT_CONFIG
from covcon.cli import RunConfig, _dump_json, bounds_check_json, read_results_csv, run_bundle
from covcon.experiments import ExperimentGrid
from covcon.linalg import operator_deviation
from covcon.sampler import EnsembleSpec, sample_ensemble

# Three tall cells and one wide cell (N < n), which gets the Remark 2 checks.
GRID = ExperimentGrid(
    cells=(("gaussian", 4, 16), ("gaussian", 4, 64), ("gaussian", 8, 256), ("gaussian", 16, 8)),
    trials_per_cell=10,
    master_seed=experiments.VERIFICATION_MASTER_SEED,
    bound_config=DEFAULT_CONFIG,
)

BUNDLE_SHA256 = {
    "config_text": "8d60266c43b6ae0385a713d5a647a263f5d58d78b1b8ef19bd937b309ed90cdd",
    "csv_text": "cfa4cd5eb755317cc7e45bfebca7237f7b3a0e6e16a88d4dda0a97d2953309dd",
    "scaling_text": "ef85ac12f0ca6aae7678c7dd287a0108d68a7415b031895ff67579441d12feef",
    "bounds_check_text": "430529fed76fbe8b397f959ae0e8a9308e4ef1474667567f63f999763305c323",
    "svg_text": "cb176222aed58c7aba3703b61421aa17a9fb12196f6d5c7709b2dfb4b7d29927",
}

RECORD_SHA256 = {
    "deviation": "c9fc71007987bf7741344c0dc9c5b05d215542ef76a9620d351c3a676b809c06",
    "amnorm_exact": "fdcb1537dee9e83d6ef9df415c6fa2b000de2e877038946839d140ba7b81c406",
    "amnorm_greedy": "80338d0119b95cbfe99f4422b565af5a557b2baaf1c21f0fd9ed0ac21bbc0cc5",
    "net": "52ccd2801ce0b81324bcddaefa6e997c82b559de537171b666f933dded591c2d",
    "bounds": "95961a25ad3a5b62777f9fa1338c86015e95a922a8bdd0115783b65afd2c6c26",
    "truncation_split": "c9d89a30e21371583970361a079931c6bdf128de7b5e0e79689f85dfc9f5e2fd",
    "cell_result": "88f6f793de6353612d14b01dd44e713cd87345d9f535e966a5dd2762deb7eb82",
    "remark2": "34b6a6c369d661c5c76d52498f102639a1b0ffdf82742f2412e1a2dfa8308716",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def record_docs() -> dict:
    A = sample_ensemble(EnsembleSpec(family="gaussian", n=4, N=12, seed=7))
    x = np.full(4, 0.5)
    wide = ExperimentGrid(
        cells=(("gaussian", 12, 6),),
        trials_per_cell=10,
        master_seed=experiments.VERIFICATION_MASTER_SEED,
        bound_config=DEFAULT_CONFIG,
    )
    reports = bounds.evaluate_all(DEFAULT_CONFIG, 8, 64, max_col_norm=3.5)
    return {
        "deviation": operator_deviation(A).to_json_dict(),
        "amnorm_exact": statistics.sparse_norm_profile(A, mode="exact").to_json_dict(),
        "amnorm_greedy": statistics.sparse_norm_profile(A, mode="greedy").to_json_dict(),
        "net": statistics.build_net(2, 0.5).to_json_dict(),
        "bounds": {
            "config": DEFAULT_CONFIG.to_json_dict(),
            "reports": [r.to_json_dict() for r in reports],
        },
        "truncation_split": statistics.truncation_split(A, x, 1.0).to_json_dict(),
        "cell_result": experiments.run_grid(GRID)[0].to_json_dict(),
        "remark2": [c.to_json_dict() for c in experiments.remark2_checks(experiments.run_grid(wide), DEFAULT_CONFIG)],
    }


def test_bundle_bytes_are_pinned():
    config = RunConfig(grid=GRID, output_dir="out", emit=frozenset({"csv", "json", "svg"}), parallelism=1)
    bundle = run_bundle(config, workers=1)
    got = {name: _sha(getattr(bundle, name)) for name in BUNDLE_SHA256}
    assert got == BUNDLE_SHA256


def test_bundle_csv_rebuilds_the_run(tmp_path):
    # psi_hat travels in the CSV, so its rows rebuild the run and its
    # bounds_check.json, the wide cell's Remark 2 checks included.
    config = RunConfig(grid=GRID, output_dir="out", emit=frozenset({"csv", "json", "svg"}), parallelism=1)
    bundle = run_bundle(config, workers=1)
    path = tmp_path / "results.csv"
    path.write_text(bundle.csv_text)
    results = read_results_csv(path)
    assert results == experiments.run_grid(GRID)
    assert bounds_check_json(results, DEFAULT_CONFIG) == bundle.bounds_check_text


@pytest.mark.parametrize("name", sorted(RECORD_SHA256))
def test_record_json_is_pinned(record_docs, name):
    assert _sha(_dump_json(record_docs[name])) == RECORD_SHA256[name]
