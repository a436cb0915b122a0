"""Grid driver: seed derivation, order independence, fits, and envelope checks."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from covcon import bounds, experiments, rng, sampler, statistics
from covcon.bounds import DEFAULT_CONFIG, BoundConfig, main_probability_budget, theorem1_rhs
from covcon.errors import ContractError, NumericalError, RegimeError, ResourceError
from covcon.experiments import (
    CALIBRATION_MASTER_SEED,
    VERIFICATION_MASTER_SEED,
    CellResult,
    CellSummary,
    ExperimentGrid,
    bai_yin_sandwich,
    calibrate_constants,
    derive_seed,
    failure_rate,
    remark2_checks,
    run_grid,
    scaling_fit,
    summarize_reports,
)
from covcon.linalg import DeviationReport
from covcon.sampler import EnsembleSpec, sample_ensemble
from covcon.statistics import psi1_ensemble


def _grid(cells, trials=10, master=VERIFICATION_MASTER_SEED, cfg=DEFAULT_CONFIG):
    return ExperimentGrid(cells=tuple(cells), trials_per_cell=trials, master_seed=master, bound_config=cfg)


def _fake_result(n, N, deviation, trials=10):
    reports = tuple(
        DeviationReport(
            n=n,
            N=N,
            lambda_min=0.0,
            lambda_max=N * (1.0 + deviation),
            deviation=deviation,
            max_col_norm=1.0,
            boundedness_ratio=1.0,
            seed=t,
        )
        for t in range(trials)
    )
    summary = CellSummary(
        mean_deviation=deviation,
        median_deviation=deviation,
        max_deviation=deviation,
        psi_hat=1.0,
        k_hat=1.0,
    )
    return CellResult(cell=("gaussian", n, N), reports=reports, summary=summary)


# --- seed derivation ---------------------------------------------------------


def test_derive_seed_matches_mix_oracle():
    assert derive_seed(0, 0, 0) == 0xE220A8397B1DCDAF  # SplitMix64 step of 0
    mask = (1 << 64) - 1
    for master, ci, ti in ((0xDEADBEEF, 3, 17), (mask, mask, mask), (1, 0, 1)):
        mixed = master ^ ((ci * 0x9E3779B97F4A7C15) & mask) ^ ((ti * 0xBF58476D1CE4E5B9) & mask)
        assert derive_seed(master, ci, ti) == rng.splitmix64(mixed)


def test_derive_seed_collision_free_at_scale():
    ci = np.arange(1_000, dtype=np.uint64)
    ti = np.arange(1_000, dtype=np.uint64)
    with np.errstate(over="ignore"):
        spread_c = ci * np.uint64(0x9E3779B97F4A7C15)
        spread_t = ti * np.uint64(0xBF58476D1CE4E5B9)
        mixed = (np.uint64(VERIFICATION_MASTER_SEED) ^ spread_c[:, None]) ^ spread_t[None, :]
    seeds = rng.splitmix64(mixed.ravel())
    assert len(np.unique(seeds)) == 1_000_000


def test_derive_seed_validation():
    with pytest.raises(ContractError):
        derive_seed(-1, 0, 0)
    with pytest.raises(ContractError):
        derive_seed(0, 1 << 64, 0)
    with pytest.raises(ContractError):
        derive_seed(0, 0, -5)
    for bad in (1.5, True):  # bool is an int subclass
        with pytest.raises(ContractError):
            derive_seed(bad, 0, 0)
        with pytest.raises(ContractError):
            derive_seed(0, bad, 0)
        with pytest.raises(ContractError):
            derive_seed(0, 0, bad)


def test_master_seed_namespaces_disjoint():
    assert CALIBRATION_MASTER_SEED != VERIFICATION_MASTER_SEED
    assert derive_seed(CALIBRATION_MASTER_SEED, 0, 0) != derive_seed(VERIFICATION_MASTER_SEED, 0, 0)


# --- grid validation ---------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ContractError):
        _grid([])
    with pytest.raises(ContractError):
        _grid([("gaussian", 2, 4)], trials=0)
    with pytest.raises(ContractError):
        _grid([("gaussian", 2, 4)], master=1 << 64)
    for bad in (2.5, 2.0, True):  # bool is an int subclass
        with pytest.raises(ContractError):
            _grid([("gaussian", 2, 8)], trials=bad)
    for bad in (7.5, 7.0, True):
        with pytest.raises(ContractError):
            _grid([("gaussian", 2, 8)], master=bad)
    with pytest.raises(ContractError):
        _grid([("cauchy", 2, 4)])
    with pytest.raises(ContractError):
        _grid([("gaussian", 0, 4)])
    g = _grid([["gaussian", 2, 4]])  # lists are coerced to tuples
    assert g.cells == (("gaussian", 2, 4),)
    for bad in (2.5, True, 0):
        with pytest.raises(ContractError, match="workers must be a positive integer"):
            run_grid(_grid([("gaussian", 2, 4)], trials=1), workers=bad)


@pytest.mark.parametrize(
    "cell, reason",
    [
        (("lp_ball", 4, 100), "lp_ball requires the exponent p"),
        (("lp_ball(0.5)", 4, 100), "lp_ball requires p >= 1"),
        (("lp_ball(nan)", 4, 100), "lp_ball requires p >= 1"),
        (("gaussian", 0, 100), "n must be a positive integer"),
        (("gaussian", 2.7, 8.9), "n must be a positive integer"),
        (("gaussian", True, 8), "n must be a positive integer"),
        (("gaussian", 4, 16), "repeats an earlier cell"),
        (("gaussian(2)", 4, 100), "gaussian takes no exponent, got p=2.0"),
    ],
)
def test_grid_validates_cells_as_ensemble_specs(cell, reason):
    # A cell is refused when the grid is built, not when its first trial
    # runs, and the error names the cell.
    with pytest.raises(ContractError) as info:
        _grid([("gaussian", 4, 16), cell])
    assert str(info.value).startswith(f"cell ({cell[0]}, {cell[1]}, {cell[2]}): {reason}")


def test_grid_refuses_an_over_budget_cell_when_built(monkeypatch):
    # The 64 x 2^20 cell is refused before any trial of the cells before it
    # runs, as the ResourceError sample_ensemble would raise, naming the cell.
    cells = (("gaussian", 16, 256), ("gaussian", 16, 1024), ("gaussian", 64, 1 << 20))
    message = r"^cell \(gaussian, 64, 1048576\): n\*N = 67108864 exceeds the sample budget of 33554432 entries$"
    with pytest.raises(ResourceError, match=message):
        ExperimentGrid(cells, 10, 1, DEFAULT_CONFIG)
    monkeypatch.setattr(sampler, "MAX_ELEMENTS", 16 * 256)  # read at call time
    with pytest.raises(ResourceError, match=r"^cell \(gaussian, 16, 1024\): n\*N = 16384 exceeds"):
        _grid(cells[:2])


def test_grid_spec_is_the_trial_ensemble():
    grid = _grid([("gaussian", 4, 16), ("lp_ball(1.5)", 4, 100)])
    assert grid.spec(1, 7) == EnsembleSpec("lp_ball", 4, 100, 7, p=1.5)
    assert grid.spec(0, 3) == EnsembleSpec("gaussian", 4, 16, 3)


# --- running cells -----------------------------------------------------------


def test_grid_cell_is_reproducible():
    grid = _grid([("gaussian", 4, 32), ("euclidean_ball", 4, 32)], trials=12)
    first = run_grid(grid)[1]
    second = run_grid(grid)[1]
    assert first == second
    assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
        second.to_json_dict(), sort_keys=True
    )
    assert first.cell == ("euclidean_ball", 4, 32)
    assert len(first.reports) == 12
    seeds = {r.seed for r in first.reports}
    assert len(seeds) == 12
    assert first.reports[0].seed == derive_seed(grid.master_seed, 1, 0)


def test_psi_hat_reads_a_fixed_column_budget():
    # A cell wider than the budget measures psi_1 on its first
    # PSI_SAMPLE_COLUMNS columns, with the probes of the trial's own seed.
    grid = _grid([("gaussian", 2, 70_000), ("gaussian", 2, 300)], trials=1)
    wide, narrow = run_grid(grid)
    k = statistics.PSI_SAMPLE_COLUMNS
    assert k == 65_536
    for ci, (result, N) in enumerate(((wide, k), (narrow, 300))):
        A = sample_ensemble(EnsembleSpec("gaussian", 2, N, derive_seed(grid.master_seed, ci, 0)))
        assert result.summary.psi_hat == psi1_ensemble(A, experiments.PSI_PROBE_DIRECTIONS)
    # psi1_ensemble applies the budget itself, so the whole trial-0 matrix
    # gives the bundle's value too.
    full = sample_ensemble(grid.spec(0, derive_seed(grid.master_seed, 0, 0)))
    assert wide.summary.psi_hat == psi1_ensemble(full, experiments.PSI_PROBE_DIRECTIONS)


def test_worker_count_does_not_change_results():
    grid = _grid([("gaussian", 3, 24), ("exponential_product", 3, 24)], trials=8)
    assert run_grid(grid, workers=1) == run_grid(grid, workers=3)


def test_thread_pool_matches_serial_for_every_family():
    # A fresh interpreter, so the first scipy.special import (lp_ball's draw,
    # every normal) happens inside the pool's threads.
    code = (
        "import sys\n"
        "from covcon import bounds, experiments\n"
        "cells = [('gaussian', 3, 24), ('euclidean_ball', 4, 16), ('exponential_product', 3, 40),\n"
        "         ('lp_ball(1.5)', 4, 24), ('rademacher_control', 3, 24)]\n"
        "grid = experiments.ExperimentGrid(tuple(cells), 6, 7, bounds.DEFAULT_CONFIG)\n"
        "print('scipy.special' in sys.modules)\n"
        "five, two, one = (experiments.run_grid(grid, workers=w) for w in (5, 2, 1))\n"
        "print(five == one, two == one, len(one))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True True 5"]


def test_each_trial_samples_once(monkeypatch):
    # psi_hat comes from the trial-0 job's own matrix, not a second draw.
    grid = _grid([("gaussian", 3, 24), ("euclidean_ball", 3, 24)], trials=4)
    drawn = []
    sample = experiments.sample_ensemble
    monkeypatch.setattr(experiments, "sample_ensemble", lambda spec: drawn.append(spec.seed) or sample(spec))
    results = run_grid(grid)
    assert sorted(drawn) == sorted(r.seed for res in results for r in res.reports)


class _CodedNumericalError(NumericalError):
    def __init__(self, code, detail):
        super().__init__(f"[{code}] {detail}")


class _SizedResourceError(ResourceError):
    def __init__(self, size, limit):
        super().__init__(f"{size} > {limit}")


@pytest.mark.parametrize(
    "error, base",
    [(_CodedNumericalError(7, "no convergence"), NumericalError), (_SizedResourceError(9, 8), ContractError)],
)
def test_trial_failure_names_cell_and_trial(monkeypatch, error, base):
    # Error types whose constructors take other arguments are re-raised as
    # their covcon base class, with the original chained.
    grid = _grid([("gaussian", 3, 24), ("gaussian", 3, 48)], trials=3)
    real = experiments.operator_deviation

    def fail_cell_1_trial_2(A):
        if A.seed == derive_seed(grid.master_seed, 1, 2):
            raise error
        return real(A)

    monkeypatch.setattr(experiments, "operator_deviation", fail_cell_1_trial_2)
    for workers in (1, 2):
        with pytest.raises(base, match=r"cell 1 trial 2: ") as info:
            run_grid(grid, workers=workers)
        assert type(info.value) is base
        assert info.value.__cause__ is error


def test_summary_recomputable_from_reports():
    grid = _grid([("gaussian", 6, 96)], trials=15)
    res = run_grid(grid)[0]
    again = summarize_reports(res.reports)
    assert again == res.summary
    devs = sorted(r.deviation for r in res.reports)
    assert res.summary.max_deviation == devs[-1]
    assert res.summary.median_deviation == devs[7]
    assert res.summary.k_hat == max(r.boundedness_ratio for r in res.reports)


def test_wide_cell_summary_skips_exceedance():
    grid = _grid([("gaussian", 8, 4)], trials=10)
    res = run_grid(grid)[0]
    assert all(r.deviation >= 1.0 for r in res.reports)


def test_median_deviation_tracks_sqrt_beta():
    grid = _grid([("gaussian", 16, 1024)], trials=50)
    res = run_grid(grid)[0]
    root_beta = math.sqrt(16.0 / 1024.0)
    assert 1.0 * root_beta <= res.summary.median_deviation <= 4.0 * root_beta


# --- scaling fit -------------------------------------------------------------


def test_scaling_fit_recovers_exact_power_law():
    results = [_fake_result(1, N, 2.0 * math.sqrt(1.0 / N)) for N in (4, 16, 64)]
    fit = scaling_fit(results)
    assert math.isclose(fit.exponent, 0.5, abs_tol=1e-12)
    assert math.isclose(fit.log_constant, math.log(2.0), abs_tol=1e-12)
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.beta_values == (0.25, 0.0625, 1.0 / 64.0)


def test_scaling_fit_flat_response():
    results = [_fake_result(1, N, 0.7) for N in (4, 16, 64)]
    fit = scaling_fit(results)
    assert math.isclose(fit.exponent, 0.0, abs_tol=1e-12)
    assert fit.r_squared == 1.0


def test_scaling_fit_requirements():
    with pytest.raises(ContractError):
        scaling_fit([])
    with pytest.raises(ContractError):
        scaling_fit([_fake_result(1, N, 0.5, trials=9) for N in (4, 16, 64)])
    with pytest.raises(ContractError):
        scaling_fit([_fake_result(1, 4, 0.5), _fake_result(1, 16, 0.4), _fake_result(2, 8, 0.45)])
    bad = [_fake_result(1, 4, 0.5), _fake_result(1, 16, 0.4), _fake_result(1, 64, 0.0)]
    with pytest.raises(ContractError):
        scaling_fit(bad)


# --- envelope checks ---------------------------------------------------------


def _with_cmain(value):
    return BoundConfig(**{**DEFAULT_CONFIG.to_json_dict(), "C_main": value})


def test_failure_rate_extremes_and_monotonicity():
    grid = _grid([("gaussian", 8, 256)], trials=20)
    results = run_grid(grid)
    loose = failure_rate(results, _with_cmain(1e3))[0]
    assert loose.exceedance_fraction == 0.0 and loose.passed is True
    # An envelope this small is beaten by every trial; the budget at n = 8 is
    # below 1, so the check must fail.
    tight = failure_rate(results, _with_cmain(1e-300))[0]
    assert tight.exceedance_fraction == 1.0 and tight.passed is False
    assert tight.budget == main_probability_budget(DEFAULT_CONFIG, 8) < 1.0
    fracs = [
        failure_rate(results, _with_cmain(c))[0].exceedance_fraction for c in (1e-300, 0.1, 1.0, 1e3)
    ]
    assert fracs == sorted(fracs, reverse=True)


def test_failure_rate_raises_on_wide_cells():
    # The deviation envelope holds for n <= N only; wide cells get the
    # Remark 2 checks instead.
    with pytest.raises(RegimeError):
        failure_rate([_fake_result(8, 4, 0.5)], DEFAULT_CONFIG)


def test_sandwich_is_equivalent_to_deviation_check():
    grid = _grid([("gaussian", 8, 128), ("euclidean_ball", 4, 64)], trials=20)
    results = run_grid(grid)
    checks = bai_yin_sandwich(results, DEFAULT_CONFIG)
    for res, check in zip(results, checks):
        _, n, N = res.cell
        eff = DEFAULT_CONFIG.with_hypothesis(res.summary.psi_hat, res.summary.k_hat)
        rhs = theorem1_rhs(eff, n, N)
        expected = tuple(r.deviation <= rhs for r in res.reports)
        assert check.trial_outcomes == expected
        assert check.fraction_holding == sum(expected) / 20
        assert check.passed == (check.fraction_holding >= 1.0 - check.budget)


def test_remark2_checks():
    grid = _grid([("gaussian", 12, 3), ("gaussian", 16, 2)], trials=10)
    checks = remark2_checks(run_grid(grid), DEFAULT_CONFIG)
    assert [c.cell for c in checks] == list(grid.cells)
    for check in checks:
        assert check.dev_bound_exceeds_one
        assert all(check.norm_outcomes)
        assert all(check.dev_outcomes)
        assert check.passed


def test_remark2_single_column_identity():
    # With N = 1 the Gram matrix is rank one: the operator norm is exactly the
    # single column's length.
    grid = _grid([("gaussian", 5, 1)], trials=10)
    res = run_grid(grid)[0]
    for r in res.reports:
        assert math.isclose(math.sqrt(r.lambda_max), r.max_col_norm, rel_tol=1e-10)


def test_calibration_reproduces_default_config():
    # The frozen constants are a pure function of the calibration seed.  The
    # sparse-norm requirement is 0 there (A_m < 6 max|X_i| at every
    # calibration shape), so the greedy heuristic cannot move C_old.
    cfg, details = calibrate_constants()
    assert cfg == DEFAULT_CONFIG
    assert details["thmold_requirement"] == 0.0


def test_calibration_fits_the_bounds_envelopes(monkeypatch):
    # C_main is fitted against bounds.theorem1_rhs and bounds.remark2_bounds
    # themselves: doubling both envelopes halves it, exactly in binary.
    cfg, _ = calibrate_constants(trials=5)
    rhs, remark2 = bounds.theorem1_rhs, bounds.remark2_bounds
    monkeypatch.setattr(bounds, "theorem1_rhs", lambda *args: 2.0 * rhs(*args))
    monkeypatch.setattr(bounds, "remark2_bounds", lambda *args: tuple(2.0 * v for v in remark2(*args)))
    doubled, _ = calibrate_constants(trials=5)
    assert doubled.C_main == cfg.C_main / 2.0


def test_calibration_reads_the_expected_excess_from_the_spec(monkeypatch):
    # C2's requirement is the closed-form tail of each family's row, so the
    # calibration draws no sample-backed truncation split.
    calls = []
    split = statistics.truncation_split
    monkeypatch.setattr(statistics, "truncation_split", lambda *args, **kw: calls.append(args) or split(*args, **kw))
    _, details = calibrate_constants(trials=5)
    assert calls == []
    assert details["master_seed"] == CALIBRATION_MASTER_SEED
