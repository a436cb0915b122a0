"""Seeded Monte Carlo driver over (family, n, N) grids.

Each trial draws one sample matrix, measures its spectral deviation, and the
per-cell results feed three kinds of checks: the sqrt(n/N) scaling-law fit,
exceedance rates against the deviation envelope, and the eigenvalue sandwich.
The wide regime (N < n) gets its own runner comparing the operator norm and
deviation against their dimension-driven envelopes.

Reproducibility contract: every trial's seed is derived up front from
(master_seed, cell_index, trial_index) by a pure 64-bit mix, so results are
independent of execution order and worker count.  Parallelism is per trial;
collection is canonicalized by (cell_index, trial_index) before any
aggregation.

calibrate_constants performs the one-time fit of the absolute envelope
constants on a dedicated calibration grid; the frozen numbers live in
bounds.DEFAULT_CONFIG and are validated against a disjoint verification seed
so the calibration never certifies itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds, rng, statistics
from .bounds import BoundConfig
from .errors import ContractError, NumericalError, RegimeError
from .linalg import DeviationReport, operator_deviation
from .sampler import EnsembleSpec, parse_family_token, sample_ensemble

__all__ = [
    "CALIBRATION_MASTER_SEED",
    "VERIFICATION_MASTER_SEED",
    "PSI_PROBE_DIRECTIONS",
    "ExperimentGrid",
    "CellSummary",
    "CellResult",
    "ScalingFit",
    "ExceedanceCheck",
    "SandwichCheck",
    "Remark2Check",
    "derive_seed",
    "run_cell",
    "run_grid",
    "summarize_reports",
    "scaling_fit",
    "failure_rate",
    "bai_yin_sandwich",
    "remark2_run",
    "calibrate_constants",
]

#: Master seed used for the one-time constant calibration.
CALIBRATION_MASTER_SEED = 0xCA11B8A7E
#: Disjoint master seed for verification runs; never used during calibration.
VERIFICATION_MASTER_SEED = 0x7E57
#: Number of pseudo-random probe directions pooled with the coordinate basis
#: when measuring the empirical psi_1 constant of a cell.
PSI_PROBE_DIRECTIONS = 16

_MASK = (1 << 64) - 1
_CELL_MULT = 0x9E3779B97F4A7C15
_TRIAL_MULT = 0xBF58476D1CE4E5B9


def derive_seed(master: int, cell_index: int, trial_index: int) -> int:
    """Per-trial seed: SplitMix64 step of master XOR odd-multiplier-spread
    cell and trial indices.  Pure, order-free, bit-exact across platforms."""
    for name, value in (("master", master), ("cell_index", cell_index), ("trial_index", trial_index)):
        if not 0 <= value <= _MASK:
            raise ContractError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    mixed = master ^ ((cell_index * _CELL_MULT) & _MASK) ^ ((trial_index * _TRIAL_MULT) & _MASK)
    return rng.splitmix64(mixed)


@dataclass(frozen=True)
class ExperimentGrid:
    """A list of (family_token, n, N) cells sharing one trial count, master
    seed, and bound configuration."""

    cells: tuple[tuple[str, int, int], ...]
    trials_per_cell: int
    master_seed: int
    bound_config: BoundConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple((str(f), int(n), int(N)) for f, n, N in self.cells))
        if not self.cells:
            raise ContractError("grid must contain at least one cell")
        if self.trials_per_cell < 1:
            raise ContractError(f"trials_per_cell must be >= 1, got {self.trials_per_cell}")
        if not 0 <= self.master_seed <= _MASK:
            raise ContractError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}")
        for token, n, N in self.cells:
            parse_family_token(token)
            if n < 1 or N < 1:
                raise ContractError(f"cell ({token}, {n}, {N}) has nonpositive dimensions")


@dataclass(frozen=True)
class CellSummary:
    """Aggregates of one cell's trials.  exceedance_count counts trials whose
    deviation strictly exceeds the envelope evaluated with the measured
    hypothesis constants; it is None in the wide regime (n > N) where the
    envelope does not apply."""

    mean_deviation: float
    median_deviation: float
    max_deviation: float
    psi_hat: float
    k_hat: float
    exceedance_count: int | None

    def to_json_dict(self) -> dict:
        return {
            "mean_deviation": self.mean_deviation,
            "median_deviation": self.median_deviation,
            "max_deviation": self.max_deviation,
            "psi_hat": self.psi_hat,
            "k_hat": self.k_hat,
            "exceedance_count": self.exceedance_count,
        }


@dataclass(frozen=True)
class CellResult:
    cell: tuple[str, int, int]
    reports: tuple[DeviationReport, ...]
    summary: CellSummary

    def to_json_dict(self) -> dict:
        family, n, N = self.cell
        return {
            "family": family,
            "n": n,
            "N": N,
            "reports": [r.to_json_dict() for r in self.reports],
            "summary": self.summary.to_json_dict(),
        }


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of ln(mean deviation) against ln(n/N) across cells."""

    exponent: float
    log_constant: float
    r_squared: float
    beta_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ContractError(f"r_squared must lie in [0, 1], got {self.r_squared!r}")

    def to_json_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "log_constant": self.log_constant,
            "r_squared": self.r_squared,
            "beta_values": list(self.beta_values),
        }


@dataclass(frozen=True)
class ExceedanceCheck:
    """Fraction of a cell's trials beating the deviation envelope, against
    the clamped probability budget.  Wide cells are skipped with a note."""

    cell: tuple[str, int, int]
    exceedance_fraction: float | None
    budget: float
    passed: bool | None
    note: str = ""

    def to_json_dict(self) -> dict:
        family, n, N = self.cell
        return {
            "family": family,
            "n": n,
            "N": N,
            "exceedance_fraction": self.exceedance_fraction,
            "budget": self.budget,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class SandwichCheck:
    """Per-trial eigenvalue sandwich 1 -+ rhs for lambda/N, per cell."""

    cell: tuple[str, int, int]
    trial_outcomes: tuple[bool, ...]
    fraction_holding: float
    budget: float
    passed: bool

    def to_json_dict(self) -> dict:
        family, n, N = self.cell
        return {
            "family": family,
            "n": n,
            "N": N,
            "trial_outcomes": [bool(b) for b in self.trial_outcomes],
            "fraction_holding": self.fraction_holding,
            "budget": self.budget,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Remark2Check:
    """Wide-regime (N < n) per-cell check of the norm and deviation envelopes.

    dev_bound_exceeds_one records the internal consistency requirement that
    the deviation envelope exceed 1 (the deviation is >= 1 whenever the Gram
    matrix is rank deficient)."""

    cell: tuple[str, int, int]
    norm_bound: float
    dev_bound: float
    norm_outcomes: tuple[bool, ...]
    dev_outcomes: tuple[bool, ...]
    dev_bound_exceeds_one: bool
    passed: bool

    def to_json_dict(self) -> dict:
        family, n, N = self.cell
        return {
            "family": family,
            "n": n,
            "N": N,
            "norm_bound": self.norm_bound,
            "dev_bound": self.dev_bound,
            "norm_outcomes": [bool(b) for b in self.norm_outcomes],
            "dev_outcomes": [bool(b) for b in self.dev_outcomes],
            "dev_bound_exceeds_one": self.dev_bound_exceeds_one,
            "passed": self.passed,
        }


def _trial_report(ci: int, ti: int, token: str, n: int, N: int, seed: int) -> tuple[DeviationReport, float | None]:
    """One full trial: sample the ensemble and measure its spectral deviation.
    Trial 0 of each cell also measures the cell's empirical psi_1 constant on
    the same matrix; other trials return None for it.

    A failure is re-raised as its nearest base error class, naming the cell
    and trial: a subclass may take other constructor arguments, and a pool
    worker's exception is rebuilt in the parent from its message alone."""
    try:
        family, p = parse_family_token(token)
        A = sample_ensemble(EnsembleSpec(family=family, n=n, N=N, seed=seed, p=p))
        psi_hat = statistics.psi1_ensemble(A, PSI_PROBE_DIRECTIONS) if ti == 0 else None
        return operator_deviation(A), psi_hat
    except (ContractError, RuntimeError) as exc:
        base = next(cls for cls in (ContractError, NumericalError, RuntimeError) if isinstance(exc, cls))
        raise base(f"cell {ci} trial {ti}: {exc}") from exc


def summarize_reports(
    cell: tuple[str, int, int],
    reports: tuple[DeviationReport, ...],
    psi_hat: float,
    cfg: BoundConfig,
) -> CellSummary:
    """Recompute the summary aggregates from the trial reports (psi_hat is
    measured from the trial-0 matrix and passed through)."""
    _, n, N = cell
    devs = np.array([r.deviation for r in reports])
    k_hat = max(r.boundedness_ratio for r in reports)
    if n <= N:
        eff = cfg.with_hypothesis(psi_hat, k_hat)
        rhs = bounds.theorem1_rhs(eff, n, N)
        exceedance = int(np.count_nonzero(devs > rhs))
    else:
        exceedance = None
    return CellSummary(
        mean_deviation=float(devs.mean()),
        median_deviation=float(np.median(devs)),
        max_deviation=float(devs.max()),
        psi_hat=psi_hat,
        k_hat=k_hat,
        exceedance_count=exceedance,
    )


def _run_cells(grid: ExperimentGrid, cell_indices: list[int], workers: int) -> list[CellResult]:
    """Run every (cell, trial) job in one flat pool and summarize each cell.
    Reports are canonically ordered by trial index regardless of schedule,
    and psi_hat is the one measured by each cell's trial-0 job."""
    T = grid.trials_per_cell
    jobs = [
        (ci, ti, *grid.cells[ci], derive_seed(grid.master_seed, ci, ti))
        for ci in cell_indices
        for ti in range(T)
    ]
    if workers <= 1 or len(jobs) == 1:
        flat = [_trial_report(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(jobs) // (workers * 4))
            flat = list(pool.map(_trial_report, *zip(*jobs), chunksize=chunk))
    results = []
    for k, ci in enumerate(cell_indices):
        cell_jobs = flat[k * T : (k + 1) * T]
        reports = tuple(rep for rep, _ in cell_jobs)
        psi_hat = cell_jobs[0][1]
        summary = summarize_reports(grid.cells[ci], reports, psi_hat, grid.bound_config)
        results.append(CellResult(cell=grid.cells[ci], reports=reports, summary=summary))
    return results


def run_cell(grid: ExperimentGrid, cell_index: int, workers: int = 1) -> CellResult:
    """Run all trials of one cell; the result is a pure function of the grid
    and the index, independent of worker count."""
    if not 0 <= cell_index < len(grid.cells):
        raise ContractError(f"cell_index {cell_index} out of range for {len(grid.cells)} cells")
    return _run_cells(grid, [cell_index], workers)[0]


def run_grid(grid: ExperimentGrid, workers: int = 1) -> list[CellResult]:
    """Run every cell; one flat trial pool, results in cell order."""
    return _run_cells(grid, list(range(len(grid.cells))), workers)


def scaling_fit(results: list[CellResult]) -> ScalingFit:
    """Least-squares slope of ln(mean deviation) against ln(n/N).

    Requires at least 3 distinct n/N ratios, each cell with >= 10 trials.
    A flat response (zero variance in the means) fits a constant exactly, so
    its r_squared is reported as 1."""
    if not results:
        raise ContractError("scaling_fit needs at least one cell result")
    betas, ys = [], []
    for res in results:
        _, n, N = res.cell
        if len(res.reports) < 10:
            raise ContractError(f"cell {res.cell} has {len(res.reports)} trials; the fit needs >= 10")
        mean_dev = res.summary.mean_deviation
        if not mean_dev > 0.0:
            raise ContractError(f"cell {res.cell} has nonpositive mean deviation {mean_dev!r}")
        betas.append(n / N)
        ys.append(math.log(mean_dev))
    if len(set(betas)) < 3:
        raise ContractError(f"fit needs >= 3 distinct n/N ratios, got {sorted(set(betas))}")
    x = np.log(np.array(betas))
    y = np.array(ys)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((residuals**2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        exponent=slope,
        log_constant=intercept,
        r_squared=min(1.0, max(0.0, r2)),
        beta_values=tuple(betas),
    )


def _effective(cfg: BoundConfig, res: CellResult) -> BoundConfig:
    """cfg's absolute constants with the cell's measured hypothesis constants."""
    return cfg.with_hypothesis(res.summary.psi_hat, res.summary.k_hat)


def failure_rate(results: list[CellResult], cfg: BoundConfig) -> list[ExceedanceCheck]:
    """Per-cell fraction of trials whose deviation strictly exceeds the
    envelope, compared to the clamped budget min{1, 2 exp(-c_prob sqrt(n))}.

    The hypothesis constants (psi, K) in cfg are replaced per cell by the
    measured psi_hat / k_hat; cfg supplies the absolute constants.  Wide
    cells (n > N) are outside the envelope's regime and are skipped."""
    checks = []
    for res in results:
        _, n, N = res.cell
        budget = bounds.main_probability_budget(cfg, n)
        if n > N:
            checks.append(
                ExceedanceCheck(
                    cell=res.cell,
                    exceedance_fraction=None,
                    budget=budget,
                    passed=None,
                    note="wide regime (N < n): envelope not applicable",
                )
            )
            continue
        rhs = bounds.theorem1_rhs(_effective(cfg, res), n, N)
        count = sum(1 for r in res.reports if r.deviation > rhs)
        frac = count / len(res.reports)
        checks.append(
            ExceedanceCheck(
                cell=res.cell,
                exceedance_fraction=frac,
                budget=budget,
                passed=frac <= budget,
            )
        )
    return checks


def bai_yin_sandwich(results: list[CellResult], cfg: BoundConfig) -> list[SandwichCheck]:
    """Per-trial check of 1 - rhs <= lambda_min/N <= lambda_max/N <= 1 + rhs.

    Hypothesis constants are the cell's measured values, as in failure_rate.
    A cell passes when the holding fraction is at least 1 - budget."""
    checks = []
    for res in results:
        _, n, N = res.cell
        lo, hi = bounds.corollary_interval(_effective(cfg, res), n, N)
        outcomes = tuple(
            lo <= r.lambda_min / N and r.lambda_max / N <= hi for r in res.reports
        )
        frac = sum(outcomes) / len(outcomes)
        budget = bounds.main_probability_budget(cfg, n)
        checks.append(
            SandwichCheck(
                cell=res.cell,
                trial_outcomes=outcomes,
                fraction_holding=frac,
                budget=budget,
                passed=frac >= 1.0 - budget,
            )
        )
    return checks


def remark2_run(grid: ExperimentGrid, cfg: BoundConfig, workers: int = 1) -> list[Remark2Check]:
    """Wide-regime driver: every cell must have N < n.  Per trial, the
    operator norm sqrt(lambda_max) is checked against C(psi+K) sqrt(n) and
    the deviation against C(psi+K)^2 n/N, with measured hypothesis
    constants."""
    for token, n, N in grid.cells:
        if N >= n:
            raise RegimeError(f"cell ({token}, {n}, {N}) has N >= n; this runner is for the wide regime")
    checks = []
    for res in run_grid(grid, workers=workers):
        _, n, N = res.cell
        norm_bound, dev_bound = bounds.remark2_bounds(_effective(cfg, res), n, N)
        norms = [math.sqrt(r.lambda_max) for r in res.reports]
        norm_outcomes = tuple(v <= norm_bound for v in norms)
        dev_outcomes = tuple(r.deviation <= dev_bound for r in res.reports)
        checks.append(
            Remark2Check(
                cell=res.cell,
                norm_bound=norm_bound,
                dev_bound=dev_bound,
                norm_outcomes=norm_outcomes,
                dev_outcomes=dev_outcomes,
                dev_bound_exceeds_one=dev_bound > 1.0,
                passed=all(norm_outcomes) and all(dev_outcomes) and dev_bound > 1.0,
            )
        )
    return checks


# --- one-time constant calibration ------------------------------------------

#: ln^2(5R) / sqrt(R) over R = N/n >= 1/5 is maximized at R = e^4/5; this is
#: its maximum, used to make the theta constant cover every admissible shape.
_SHAPE_FACTOR_MAX = 16.0 * math.sqrt(5.0) / math.e**2

_CAL_TALL = tuple(("gaussian", n, N) for n in (16, 32, 64) for N in (192, 768, 3072))
_CAL_WIDE = (("gaussian", 64, 16), ("gaussian", 96, 24), ("gaussian", 128, 32))
_CAL_FAMILIES = ("gaussian", "euclidean_ball", "exponential_product")


def calibrate_constants(
    master_seed: int = CALIBRATION_MASTER_SEED,
    trials: int = 200,
    workers: int = 1,
) -> tuple[BoundConfig, dict]:
    """Fit the absolute envelope constants on the calibration grid.

    Procedure (all hypothesis constants measured per cell, never assumed):

      C_main   1.05 x the largest of: per-tall-cell 99th percentile of
               deviation / ((psi+K)^2 sqrt(n/N)); per-wide-cell max of
               norm / ((psi+K) sqrt(n)) and deviation N / ((psi+K)^2 n).
      c_prob   largest c on a 0.05 grid with min{1, 2 exp(-c sqrt(n))} >=
               20 max(exceedance fraction, 1/T) in every tall cell.  The
               factor 20 keeps the budget clear of binomial noise when a
               disjoint verification run re-measures the rate with only a
               few dozen trials per cell.
      C1       1.1 x max over families and probe directions of the fourth
               moment of the projection divided by psi_hat^4.
      C2       1.1 x max over families and truncation levels of the analytic
               expected excess divided by psi_hat^2 exp(-B/psi_hat).
      C_old    max of C2, 0.25, and 1.1 x the sparse-norm requirement
               (A_m - 6 max|X_i|) / (psi t max{sqrt(m) ln(2N/m), sqrt(n)})
               over families and support sizes.
      C3       1.05 x max(sqrt(8 C1 ln 7), (64/3) ln 7 C_old S) with S the
               shape-factor maximum, making both strict inequalities of the
               Bernstein-vs-net condition hold for every admissible (n, N).
      t        1 (smallest admissible value).

    Returns the frozen config (psi = K = 1 placeholders) and a detail dict
    of the intermediate maxima.
    """
    base = bounds.DEFAULT_CONFIG
    tall_grid = ExperimentGrid(_CAL_TALL, trials, master_seed, base)
    wide_grid = ExperimentGrid(_CAL_WIDE, trials, master_seed, base)
    tall = run_grid(tall_grid, workers=workers)
    wide = run_grid(wide_grid, workers=workers)

    tall_req = 0.0
    for res in tall:
        _, n, N = res.cell
        scale = (res.summary.psi_hat + max(1.0, res.summary.k_hat)) ** 2 * math.sqrt(n / N)
        ratios = np.array([r.deviation for r in res.reports]) / scale
        tall_req = max(tall_req, float(np.percentile(ratios, 99.0)))
    wide_req = 0.0
    for res in wide:
        _, n, N = res.cell
        s = res.summary.psi_hat + max(1.0, res.summary.k_hat)
        for r in res.reports:
            wide_req = max(wide_req, math.sqrt(r.lambda_max) / (s * math.sqrt(n)))
            wide_req = max(wide_req, r.deviation * N / (s * s * n))
    C_main = 1.05 * max(tall_req, wide_req)

    cfg_main = bounds.BoundConfig(
        psi=1.0, K=1.0, C_main=C_main, c_prob=1.0, C1=1.0, C2=1.0, C3=1.0, C_old=1.0
    )
    worst = [(c.cell[1], max(c.exceedance_fraction, 1.0 / trials)) for c in failure_rate(tall, cfg_main)]
    c_prob = 0.05
    for c in reversed([round(0.05 * k, 2) for k in range(1, 21)]):
        if all(min(1.0, 2.0 * math.exp(-c * math.sqrt(n))) >= 20.0 * f for n, f in worst):
            c_prob = c
            break

    moment_req = 0.0
    excess_req = 0.0
    thmold_req = 0.0
    B_grid = [0.25 * k for k in range(17)]
    for fi, family in enumerate(_CAL_FAMILIES):
        seed = derive_seed(master_seed, 1000 + fi, 0)
        A = sample_ensemble(EnsembleSpec(family=family, n=16, N=4096, seed=seed))
        psi_hat = statistics.psi1_ensemble(A, PSI_PROBE_DIRECTIONS)
        probes = np.vstack([np.eye(16), statistics.probe_directions(16, 8, seed)])
        proj = probes @ A.entries
        moment_req = max(moment_req, float((proj**4).mean(axis=1).max()) / psi_hat**4)
        e1 = np.zeros(16)
        e1[0] = 1.0
        for B in B_grid:
            s3 = statistics.truncation_split(A, e1, B, psi=psi_hat).s3
            excess_req = max(excess_req, s3 / (psi_hat**2 * math.exp(-B / psi_hat)))
        for n_s, N_s in ((8, 64), (16, 128)):
            seed_s = derive_seed(master_seed, 2000 + fi, n_s)
            A_s = sample_ensemble(EnsembleSpec(family=family, n=n_s, N=N_s, seed=seed_s))
            psi_s = statistics.psi1_ensemble(A_s, PSI_PROBE_DIRECTIONS)
            profile = statistics.sparse_norm_profile(A_s, mode="greedy")
            mcn = A_s.max_column_norm()
            for m, a_m in zip(profile.m_values, profile.a_m):
                core = max(math.sqrt(m) * math.log(2.0 * N_s / m), math.sqrt(n_s))
                thmold_req = max(thmold_req, (a_m - 6.0 * mcn) / (psi_s * core))
    C1 = 1.1 * moment_req
    C2 = 1.1 * excess_req
    C_old = max(C2, 0.25, 1.1 * thmold_req)
    C3 = 1.05 * max(
        math.sqrt(8.0 * C1 * math.log(7.0)),
        (64.0 / 3.0) * math.log(7.0) * C_old * _SHAPE_FACTOR_MAX,
    )

    cfg = bounds.BoundConfig(
        psi=1.0, K=1.0, C_main=C_main, c_prob=c_prob, C1=C1, C2=C2, C3=C3, C_old=C_old, t=1.0
    )
    for token, n, N in _CAL_TALL:
        B = bounds.choose_B(cfg, n, N)
        theta = bounds.choose_theta(cfg, n, N)
        first, second = bounds.cond3_holds(theta, N, B, cfg, n)
        if not (first and second):
            raise ContractError(f"calibrated theta fails the Bernstein-vs-net condition at ({n}, {N})")
        if bounds.s3_envelope(cfg, B) > cfg.C_old * cfg.psi**2 * n / N:
            raise ContractError(f"expected-excess chain broken at ({n}, {N})")
    details = {
        "tall_requirement": tall_req,
        "wide_requirement": wide_req,
        "worst_exceedance": max(f for _, f in worst),
        "moment_requirement": moment_req,
        "excess_requirement": excess_req,
        "thmold_requirement": thmold_req,
        "trials": trials,
        "master_seed": master_seed,
    }
    return cfg, details
