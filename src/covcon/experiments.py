"""Seeded Monte Carlo driver over (family, n, N) grids.

Each trial draws one sample matrix, measures its spectral deviation, and the
per-cell results feed pure check functions: the sqrt(n/N) scaling-law fit,
and, for tall cells (n <= N), exceedance rates against the deviation envelope
and the eigenvalue sandwich; for wide cells (N < n), Remark 2's operator-norm
and deviation envelopes.

Reproducibility contract: every trial's seed is derived up front from
(master_seed, cell_index, trial_index) by a pure 64-bit mix, so results are
independent of execution order and worker count.  Parallelism is per trial,
on a thread pool; collection is canonicalized by (cell_index, trial_index)
before any aggregation.

calibrate_constants performs the one-time fit of the absolute envelope
constants on a dedicated calibration grid; the frozen numbers live in
bounds.DEFAULT_CONFIG and are validated against a disjoint verification seed
so the calibration never certifies itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, rng, statistics
from .bounds import BoundConfig
from .errors import U64_MAX, ContractError, NumericalError, require_int
from .linalg import DeviationReport, operator_deviation
from .records import Record
from .sampler import EnsembleSpec, parse_family_token, require_budget, sample_ensemble

__all__ = [
    "CALIBRATION_MASTER_SEED",
    "VERIFICATION_MASTER_SEED",
    "PSI_PROBE_DIRECTIONS",
    "FIT_MIN_TRIALS",
    "FIT_MIN_RATIOS",
    "ExperimentGrid",
    "CellSummary",
    "CellResult",
    "ScalingFit",
    "ExceedanceCheck",
    "SandwichCheck",
    "Remark2Check",
    "derive_seed",
    "run_grid",
    "summarize_reports",
    "scaling_fit",
    "failure_rate",
    "bai_yin_sandwich",
    "remark2_checks",
    "calibrate_constants",
]

#: Master seed used for the one-time constant calibration.
CALIBRATION_MASTER_SEED = 0xCA11B8A7E
#: Disjoint master seed for verification runs; never used during calibration.
VERIFICATION_MASTER_SEED = 0x7E57
#: Number of pseudo-random probe directions pooled with the coordinate basis
#: when measuring the empirical psi_1 constant of a cell.
PSI_PROBE_DIRECTIONS = 16
#: Least trials per cell and distinct n/N ratios that scaling_fit accepts.
FIT_MIN_TRIALS = 10
FIT_MIN_RATIOS = 3

_CELL_MULT = 0x9E3779B97F4A7C15
_TRIAL_MULT = 0xBF58476D1CE4E5B9


def derive_seed(master: int, cell_index: int, trial_index: int) -> int:
    """Per-trial seed: SplitMix64 step of master XOR odd-multiplier-spread
    cell and trial indices.  Pure, order-free, bit-exact across platforms."""
    for name, value in (("master", master), ("cell_index", cell_index), ("trial_index", trial_index)):
        require_int(name, value, 0, U64_MAX)
    mixed = master ^ ((cell_index * _CELL_MULT) & U64_MAX) ^ ((trial_index * _TRIAL_MULT) & U64_MAX)
    return rng.splitmix64(mixed)


@dataclass(frozen=True)
class ExperimentGrid:
    """A list of (family_token, n, N) cells sharing one trial count, master
    seed, and bound configuration.  Each cell is validated once, as the
    EnsembleSpec its trials draw from, within the sample budget, and no cell
    may repeat: a results CSV is keyed by (family, n, N)."""

    cells: tuple[tuple[str, int, int], ...]
    trials_per_cell: int
    master_seed: int
    bound_config: BoundConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(cell) for cell in self.cells))
        if not self.cells:
            raise ContractError("grid must contain at least one cell")
        require_int("trials_per_cell", self.trials_per_cell)
        require_int("master_seed", self.master_seed, 0, U64_MAX)
        for ci, (token, n, N) in enumerate(self.cells):
            # Streamed trials (ROADMAP item 1) lift the sample budget and must delete this check.
            require_budget(self.spec(ci, 0), f"cell ({token}, {n}, {N}): ")
            if self.cells.index((token, n, N)) < ci:
                raise ContractError(f"cell ({token}, {n}, {N}): repeats an earlier cell")

    def spec(self, cell_index: int, seed: int) -> EnsembleSpec:
        """The ensemble cell `cell_index` draws with `seed`; an error names the cell."""
        token, n, N = self.cells[cell_index]
        try:
            family, p = parse_family_token(token)
            return EnsembleSpec(family=family, n=n, N=N, seed=seed, p=p)
        except ContractError as exc:
            raise ContractError(f"cell ({token}, {n}, {N}): {exc}") from exc


@dataclass(frozen=True)
class CellSummary(Record):
    """Aggregates of one cell's trials.  Exceedances of the envelope are
    counted by failure_rate, against the constants it is given."""

    mean_deviation: float
    median_deviation: float
    max_deviation: float
    psi_hat: float
    k_hat: float


@dataclass(frozen=True)
class CellResult(Record):
    cell: tuple[str, int, int]
    reports: tuple[DeviationReport, ...]
    summary: CellSummary


@dataclass(frozen=True)
class ScalingFit(Record):
    """OLS fit of ln(mean deviation) against ln(n/N) across cells."""

    exponent: float
    log_constant: float
    r_squared: float
    beta_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ContractError(f"r_squared must lie in [0, 1], got {self.r_squared!r}")


@dataclass(frozen=True)
class ExceedanceCheck(Record):
    """Fraction of a cell's trials beating the deviation envelope, against
    the clamped probability budget."""

    cell: tuple[str, int, int]
    exceedance_fraction: float
    budget: float
    passed: bool


@dataclass(frozen=True)
class SandwichCheck(Record):
    """Per-trial eigenvalue sandwich 1 -+ rhs for lambda/N, per cell."""

    cell: tuple[str, int, int]
    trial_outcomes: tuple[bool, ...]
    fraction_holding: float
    budget: float
    passed: bool


@dataclass(frozen=True)
class Remark2Check(Record):
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


def _trial_report(ci: int, ti: int, spec: EnsembleSpec) -> DeviationReport:
    """One full trial: sample the ensemble and measure its spectral deviation.
    Trial 0 of each cell also records the cell's empirical psi_1 constant,
    `statistics.psi1_ensemble` of the same matrix with probes seeded by the
    trial's seed (it reads its own column budget), as the report's psi_hat.

    A failure is re-raised as its nearest base error class, naming the cell
    and trial, since a subclass may take other constructor arguments."""
    try:
        A = sample_ensemble(spec)
        report = operator_deviation(A)
        return replace(report, psi_hat=statistics.psi1_ensemble(A, PSI_PROBE_DIRECTIONS)) if ti == 0 else report
    except (ContractError, RuntimeError) as exc:
        base = next(cls for cls in (ContractError, NumericalError, RuntimeError) if isinstance(exc, cls))
        raise base(f"cell {ci} trial {ti}: {exc}") from exc


def summarize_reports(reports: tuple[DeviationReport, ...]) -> CellSummary:
    """Recompute the summary aggregates from the trial reports; psi_hat is trial 0's."""
    devs = np.array([r.deviation for r in reports])
    return CellSummary(
        mean_deviation=float(devs.mean()),
        median_deviation=float(np.median(devs)),
        max_deviation=float(devs.max()),
        psi_hat=reports[0].psi_hat,
        k_hat=max(r.boundedness_ratio for r in reports),
    )


def run_grid(grid: ExperimentGrid, workers: int = 1) -> list[CellResult]:
    """Run every (cell, trial) job in one flat thread pool (the heavy calls
    release the GIL), or serially on one worker; results in cell order.
    Each trial's seed comes from its cell and trial index, and reports are
    ordered by trial index, so the result is independent of worker count."""
    require_int("workers", workers)
    T = grid.trials_per_cell
    jobs = [
        (ci, ti, grid.spec(ci, derive_seed(grid.master_seed, ci, ti)))
        for ci in range(len(grid.cells))
        for ti in range(T)
    ]
    if workers <= 1 or len(jobs) == 1:
        flat = [_trial_report(*job) for job in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_trial_report, *zip(*jobs)))
    per_cell = [tuple(flat[ci * T : (ci + 1) * T]) for ci in range(len(grid.cells))]
    return [CellResult(cell=cell, reports=r, summary=summarize_reports(r)) for cell, r in zip(grid.cells, per_cell)]


def scaling_fit(results: list[CellResult]) -> ScalingFit:
    """Least-squares slope of ln(mean deviation) against ln(n/N).

    Requires at least FIT_MIN_RATIOS distinct n/N ratios, each cell with at
    least FIT_MIN_TRIALS trials.
    A flat response (zero variance in the means) fits a constant exactly, so
    its r_squared is reported as 1."""
    if not results:
        raise ContractError("scaling_fit needs at least one cell result")
    betas, ys = [], []
    for res in results:
        _, n, N = res.cell
        if len(res.reports) < FIT_MIN_TRIALS:
            raise ContractError(f"cell {res.cell} has {len(res.reports)} trials; the fit needs >= {FIT_MIN_TRIALS}")
        mean_dev = res.summary.mean_deviation
        if not mean_dev > 0.0:
            raise ContractError(f"cell {res.cell} has nonpositive mean deviation {mean_dev!r}")
        betas.append(n / N)
        ys.append(math.log(mean_dev))
    if len(set(betas)) < FIT_MIN_RATIOS:
        raise ContractError(f"fit needs >= {FIT_MIN_RATIOS} distinct n/N ratios, got {sorted(set(betas))}")
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
    measured psi_hat / k_hat; cfg supplies the absolute constants.  A wide
    cell (n > N) raises RegimeError: the envelope applies to n <= N."""
    checks = []
    for res in results:
        _, n, N = res.cell
        budget = bounds.main_probability_budget(cfg, n)
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


def remark2_checks(results: list[CellResult], cfg: BoundConfig) -> list[Remark2Check]:
    """Per-trial check of the wide-regime (N < n) envelopes: the operator
    norm sqrt(lambda_max) against C(psi+K) sqrt(n) and the deviation against
    C(psi+K)^2 n/N, with measured hypothesis constants as in failure_rate."""
    checks = []
    for res in results:
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


def calibrate_constants(trials: int = 200) -> tuple[BoundConfig, dict]:
    """Fit the absolute envelope constants on the calibration grid, under CALIBRATION_MASTER_SEED.

    Each requirement is a measurement divided by its `bounds` envelope at
    unit absolute constants (C_main = c_prob = C1 = C2 = C3 = C_old = t = 1),
    with the hypothesis constants measured per cell, never assumed:

      C_main   1.05 x the largest of: per-tall-cell 99th percentile of
               deviation / theorem1_rhs; per-wide-cell max of norm and
               deviation over the two remark2_bounds envelopes.
      c_prob   largest c on a 0.05 grid whose main_probability_budget is
               >= 20 max(exceedance fraction, 1/T) in every tall cell.  The
               factor 20 keeps the budget clear of binomial noise when a
               disjoint verification run re-measures the rate with only a
               few dozen trials per cell.
      C1       1.1 x max over families and probe directions of the fourth
               moment of the projection divided by psi_hat^4.
      C2       1.1 x max over families and truncation levels of the closed-form
               expected excess along e_1, `EnsembleSpec.tail_excess`, over s3_envelope.
      C_old    max of C2, 0.25, and 1.1 x the sparse-norm requirement
               (A_m - 6 max|X_i|) / thmold_bound(max|X_i| = 0) over families
               and support sizes.
      C3       1.05 x max(sqrt(8 C1 ln 7), (64/3) ln 7 C_old S) with S the
               shape-factor maximum, making both strict inequalities of the
               Bernstein-vs-net condition hold for every admissible (n, N).
      t        1 (smallest admissible value).

    Returns the frozen config (psi = K = 1 placeholders) and a detail dict
    of the intermediate maxima.
    """
    base = bounds.DEFAULT_CONFIG
    unit = replace(base, C_main=1.0, c_prob=1.0, C1=1.0, C2=1.0, C3=1.0, C_old=1.0, t=1.0)
    tall = run_grid(ExperimentGrid(_CAL_TALL, trials, CALIBRATION_MASTER_SEED, base))
    wide = run_grid(ExperimentGrid(_CAL_WIDE, trials, CALIBRATION_MASTER_SEED, base))

    tall_req = 0.0
    for res in tall:
        rhs = bounds.theorem1_rhs(_effective(unit, res), *res.cell[1:])
        ratios = np.array([r.deviation for r in res.reports]) / rhs
        tall_req = max(tall_req, float(np.percentile(ratios, 99.0)))
    wide_req = 0.0
    for res in wide:
        norm_bound, dev_bound = bounds.remark2_bounds(_effective(unit, res), *res.cell[1:])
        for r in res.reports:
            wide_req = max(wide_req, math.sqrt(r.lambda_max) / norm_bound, r.deviation / dev_bound)
    C_main = 1.05 * max(tall_req, wide_req)

    cfg_main = replace(unit, C_main=C_main)
    worst = [(c.cell[1], max(c.exceedance_fraction, 1.0 / trials)) for c in failure_rate(tall, cfg_main)]
    c_prob = 0.05
    for c in reversed([round(0.05 * k, 2) for k in range(1, 21)]):
        if all(bounds.main_probability_budget(replace(unit, c_prob=c), n) >= 20.0 * f for n, f in worst):
            c_prob = c
            break

    moment_req = 0.0
    excess_req = 0.0
    thmold_req = 0.0
    B_grid = [0.25 * k for k in range(17)]
    for fi, family in enumerate(_CAL_FAMILIES):
        seed = derive_seed(CALIBRATION_MASTER_SEED, 1000 + fi, 0)
        spec = EnsembleSpec(family=family, n=16, N=4096, seed=seed)
        A = sample_ensemble(spec)
        psi_hat = statistics.psi1_ensemble(A, PSI_PROBE_DIRECTIONS)
        probes = np.vstack([np.eye(16), statistics.probe_directions(16, 8, seed)])
        proj = probes @ A.entries
        moment_req = max(moment_req, float((proj**4).mean(axis=1).max()) / psi_hat**4)
        cfg_hat = unit.with_hypothesis(psi_hat, 1.0)
        for B in B_grid:
            excess_req = max(excess_req, spec.tail_excess(np.eye(16)[0], B) / bounds.s3_envelope(cfg_hat, B))
        for n_s, N_s in ((8, 64), (16, 128)):
            seed_s = derive_seed(CALIBRATION_MASTER_SEED, 2000 + fi, n_s)
            A_s = sample_ensemble(EnsembleSpec(family=family, n=n_s, N=N_s, seed=seed_s))
            cfg_s = unit.with_hypothesis(statistics.psi1_ensemble(A_s, PSI_PROBE_DIRECTIONS), 1.0)
            profile = statistics.sparse_norm_profile(A_s, mode="greedy")
            mcn = A_s.max_column_norm()
            for m, a_m in zip(profile.m_values, profile.a_m):
                envelope = bounds.thmold_bound(cfg_s, int(m), n_s, N_s, 0.0)
                thmold_req = max(thmold_req, (a_m - 6.0 * mcn) / envelope)
    C1 = 1.1 * moment_req
    C2 = 1.1 * excess_req
    C_old = max(C2, 0.25, 1.1 * thmold_req)
    C3 = 1.05 * max(
        math.sqrt(8.0 * C1 * math.log(7.0)),
        (64.0 / 3.0) * math.log(7.0) * C_old * _SHAPE_FACTOR_MAX,
    )

    cfg = replace(unit, C_main=C_main, c_prob=c_prob, C1=C1, C2=C2, C3=C3, C_old=C_old)
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
        "master_seed": CALIBRATION_MASTER_SEED,
    }
    return cfg, details
