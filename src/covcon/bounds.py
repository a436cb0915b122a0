"""Closed-form concentration envelopes as pure functions of explicit constants.

Every absolute constant that the theory leaves unspecified is a field of
BoundConfig, never a hard-coded number inside a formula.  The shipped
DEFAULT_CONFIG values were frozen from a seeded gaussian calibration run
(master seed 0xCA11B8A7E; see experiments.calibrate_constants, which
regenerates them); acceptance checks run against a disjoint verification
seed so the calibration cannot certify itself.

The formulas:

    theorem1_rhs        C_main (psi+K)^2 sqrt(n/N)          -- deviation envelope, n <= N
    corollary_interval  1 -+ theorem1_rhs                   -- eigenvalue sandwich for lambda/N
    remark2_bounds      (C_main (psi+K) sqrt(n),
                         C_main (psi+K)^2 n/N)              -- norm/deviation envelopes, N < n
    thmold_bound        C_old psi t max{sqrt(m) ln(2N/m), sqrt(n)} + 6 max|X_i|
    bernstein_tail      exp(-theta^2 N / (2 (C1 psi^4 + B^2 theta / 3)))
    cond3_holds         theta^2 N > 8 C1 psi^4 n ln 7  and  theta N > (8/3) B^2 n ln 7
    choose_B            2 sqrt(2 C_old) psi ln(5N/n)
    choose_theta        C3 psi^2 sqrt(n/N)
    s3_envelope         C2 psi^2 exp(-B/psi)
    net_cardinality_log n ln 7

Probability budgets (2 exp(-c_prob sqrt(n)) for the main bound,
exp(-t sqrt(n)) for the sparse-norm envelope) are clamped to [0, 1] only at
the reporting layer; raw formula values are preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any

from .errors import ContractError, RegimeError, require_int
from .records import Record

__all__ = [
    "BoundConfig",
    "BoundReport",
    "DEFAULT_CONFIG",
    "theorem1_rhs",
    "corollary_interval",
    "thmold_bound",
    "bernstein_tail",
    "cond3_holds",
    "choose_B",
    "choose_theta",
    "s3_envelope",
    "remark2_bounds",
    "net_cardinality_log",
    "pigeonhole_consistent",
    "evaluate_all",
]

_LN7 = math.log(7.0)


@dataclass(frozen=True)
class BoundConfig(Record):
    """Hypothesis constants (psi, K) and absolute constants of the envelopes.

    psi     uniform sub-exponential (psi_1) constant of the projections
    K       column-norm boundedness constant (>= 1)
    C_main  constant of the main deviation envelope
    c_prob  exponent constant of the probability budget 2 exp(-c sqrt(n))
    C1      variance constant: Var of a truncated squared projection <= C1 psi^4
    C2      constant of the expected-excess envelope C2 psi^2 exp(-B/psi)
    C3      constant of the theta choice (large enough to satisfy cond3)
    C_old   constant of the sparse-norm envelope (>= C2)
    t       sparse-norm envelope parameter (>= 1; budget exp(-t sqrt(n)))

    A psi or K for which psi**4 or (psi + K)**2, the largest powers any
    envelope formula takes, overflows float64 is refused.
    """

    psi: float
    K: float
    C_main: float
    c_prob: float
    C1: float
    C2: float
    C3: float
    C_old: float
    t: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ContractError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not self.psi >= 0.0:
            raise ContractError(f"psi must be >= 0, got {self.psi!r}")
        if not self.K >= 1.0:
            raise ContractError(f"K must be >= 1, got {self.K!r}")
        for name in ("C_main", "c_prob", "C1", "C2", "C3", "C_old"):
            if not getattr(self, name) > 0.0:
                raise ContractError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.C_old < self.C2:
            raise ContractError(f"C_old = {self.C_old!r} must be >= C2 = {self.C2!r}")
        if not self.t >= 1.0:
            raise ContractError(f"t must be >= 1, got {self.t!r}")
        try:
            self.psi**4, (self.psi + self.K) ** 2
        except OverflowError:
            raise ContractError(f"an envelope formula overflows float64 at psi = {self.psi!r}, K = {self.K!r}") from None

    def with_hypothesis(self, psi: float, K: float) -> "BoundConfig":
        """Same absolute constants, measured hypothesis constants (K < 1 is raised to 1)."""
        return replace(self, psi=psi, K=1.0 if K < 1.0 else K)


@dataclass(frozen=True)
class BoundReport(Record):
    """One evaluated formula with its attached exceptional-probability term."""

    name: str
    inputs: dict[str, Any]
    value: float
    probability_budget: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < math.inf:
            raise ContractError(f"{self.name} must be finite and >= 0, got {self.value!r}")
        if not 0.0 <= self.probability_budget <= 1.0:
            raise ContractError(
                f"probability budget must be clamped to [0, 1], got {self.probability_budget!r}"
            )


def main_probability_budget(cfg: BoundConfig, n: int) -> float:
    """min{1, 2 exp(-c_prob sqrt(n))}, the main bound's failure budget."""
    return min(1.0, 2.0 * math.exp(-cfg.c_prob * math.sqrt(n)))


def _check_shape(n: int, N: int) -> None:
    require_int("n", n)
    require_int("N", N)


def theorem1_rhs(cfg: BoundConfig, n: int, N: int) -> float:
    """Deviation envelope C_main (psi+K)^2 sqrt(n/N) for the tall regime n <= N."""
    _check_shape(n, N)
    if n > N:
        raise RegimeError(f"n={n} > N={N}: the deviation envelope applies to n <= N; use remark2_bounds")
    return cfg.C_main * (cfg.psi + cfg.K) ** 2 * math.sqrt(n / N)


def corollary_interval(cfg: BoundConfig, n: int, N: int) -> tuple[float, float]:
    """(1 - rhs, 1 + rhs): the sandwich for lambda_min/N and lambda_max/N.

    The lower end is reported raw (it goes negative once rhs > 1)."""
    rhs = theorem1_rhs(cfg, n, N)
    return 1.0 - rhs, 1.0 + rhs


def thmold_bound(cfg: BoundConfig, m: int, n: int, N: int, max_col_norm: float) -> float:
    """Sparse-norm envelope C_old psi t max{sqrt(m) ln(2N/m), sqrt(n)} + 6 max|X_i|."""
    _check_shape(n, N)
    require_int("m", m, 1, N)
    if not 0.0 <= max_col_norm < math.inf:
        raise ContractError(f"max_col_norm must be finite and >= 0, got {max_col_norm!r}")
    core = max(math.sqrt(m) * math.log(2.0 * N / m), math.sqrt(n))
    return cfg.C_old * cfg.psi * cfg.t * core + 6.0 * max_col_norm


def bernstein_tail(theta: float, N: int, cfg: BoundConfig, B: float) -> float:
    """exp(-theta^2 N / (2 (C1 psi^4 + B^2 theta/3))): tail of the truncated sum;
    0 where the denominator is 0 (psi = B = 0), as the exponent is -inf there."""
    if not 0.0 < theta < math.inf:
        raise ContractError(f"theta must be finite and positive, got {theta!r}")
    if not B >= 0.0:
        raise ContractError(f"B must be >= 0, got {B!r}")
    denom = 2.0 * (cfg.C1 * cfg.psi**4 + B * B * theta / 3.0)
    return math.exp(-theta * theta * N / denom) if denom > 0.0 else 0.0


def cond3_holds(theta: float, N: int, B: float, cfg: BoundConfig, n: int) -> tuple[bool, bool]:
    """The two strict inequalities making the Bernstein tail beat the net size:
    theta^2 N > 8 C1 psi^4 n ln 7  and  theta N > (8/3) B^2 n ln 7."""
    if not (0.0 <= theta < math.inf and B >= 0.0):
        raise ContractError(f"cond3 needs a finite theta >= 0 and B >= 0, got theta={theta!r}, B={B!r}")
    first = theta * theta * N > 8.0 * cfg.C1 * cfg.psi**4 * n * _LN7
    second = theta * N > (8.0 / 3.0) * B * B * n * _LN7
    return first, second


def choose_B(cfg: BoundConfig, n: int, N: int) -> float:
    """Truncation level 2 sqrt(2 C_old) psi ln(5N/n)."""
    _check_shape(n, N)
    if 5.0 * N < n:
        raise RegimeError(f"choose_B needs ln(5N/n) >= 0, got n={n}, N={N}")
    return 2.0 * math.sqrt(2.0 * cfg.C_old) * cfg.psi * math.log(5.0 * N / n)


def choose_theta(cfg: BoundConfig, n: int, N: int) -> float:
    """Bernstein deviation level C3 psi^2 sqrt(n/N)."""
    _check_shape(n, N)
    return cfg.C3 * cfg.psi**2 * math.sqrt(n / N)


def s3_envelope(cfg: BoundConfig, B: float) -> float:
    """Expected-excess envelope C2 psi^2 exp(-B/psi)."""
    if not B >= 0.0:
        raise ContractError(f"B must be >= 0, got {B!r}")
    if cfg.psi == 0.0:
        return 0.0
    return cfg.C2 * cfg.psi**2 * math.exp(-B / cfg.psi)


def remark2_bounds(cfg: BoundConfig, n: int, N: int) -> tuple[float, float]:
    """(norm envelope C_main (psi+K) sqrt(n), deviation envelope
    C_main (psi+K)^2 n/N) for the wide regime N < n.

    The formulas remain valid (if loose) for n <= N."""
    _check_shape(n, N)
    s = cfg.psi + cfg.K
    return cfg.C_main * s * math.sqrt(n), cfg.C_main * s * s * n / N


def net_cardinality_log(n: int) -> float:
    """log of the (1/3)-net cardinality bound 7^n, i.e. n ln 7."""
    require_int("n", n)
    return n * _LN7


def pigeonhole_consistent(cfg: BoundConfig, B: float, m: int, big_m: float, n: int, N: int) -> bool:
    """Whether B^2 m <= C_old (M + psi^2 m ln^2(2N/m)) — the envelope-side
    counterpart of the pigeonhole bound on |E_B|."""
    _check_shape(n, N)
    require_int("m", m, 1, N)
    if not (B >= 0.0 and big_m >= 0.0):
        raise ContractError(f"B and M must be >= 0, got B={B!r}, M={big_m!r}")
    rhs = cfg.C_old * (big_m + cfg.psi**2 * m * math.log(2.0 * N / m) ** 2)
    return B * B * m <= rhs


#: Constants frozen from the seeded calibration run
#: experiments.calibrate_constants(), under CALIBRATION_MASTER_SEED = 0xCA11B8A7E
#: with 200 trials per cell; rerunning it reproduces these values bit-for-bit
#: (see its docstring for the fitting procedure).  psi and K are placeholders (1.0):
#: real runs substitute measured values via BoundConfig.with_hypothesis.
DEFAULT_CONFIG = BoundConfig(
    psi=1.0,
    K=1.0,
    C_main=0.5430897976748112,
    c_prob=0.35,
    C1=1.746519898641664,
    C2=0.6578493393141283,
    C3=138.83957173769883,
    C_old=0.6578493393141283,
    t=1.0,
)


def evaluate_all(
    cfg: BoundConfig,
    n: int,
    N: int,
    m: int | None = None,
    B: float | None = None,
    theta: float | None = None,
    max_col_norm: float = 0.0,
) -> list[BoundReport]:
    """Evaluate every applicable formula; used by the CLI `bounds` command.

    B and theta default to their chosen values choose_B / choose_theta when
    the regime admits them; m defaults to min(n, N).  A non-finite B or
    theta and a theta <= 0 are refused up front; thmold_bound refuses a
    non-finite or negative max_col_norm.
    """
    _check_shape(n, N)
    for name, value in (("B", B), ("theta", theta)):
        if value is not None and not math.isfinite(value):
            raise ContractError(f"{name} must be finite, got {value!r}")
    if theta is not None and not theta > 0.0:
        raise ContractError(f"theta must be positive, got {theta!r}")
    budget_main = main_probability_budget(cfg, n)
    budget_old = min(1.0, math.exp(-cfg.t * math.sqrt(n)))
    if m is None:
        m = min(n, N)
    reports: list[BoundReport] = []

    def add(name: str, inputs: dict, value: float, budget: float) -> None:
        reports.append(BoundReport(name=name, inputs=inputs, value=value, probability_budget=budget))

    if n <= N:
        rhs = theorem1_rhs(cfg, n, N)
        add("theorem1_rhs", {"n": n, "N": N}, rhs, budget_main)
        lo, hi = corollary_interval(cfg, n, N)
        # lo may be negative and is reported unclamped in the inputs echo;
        # the report's value is the (nonnegative) half-width.
        add("corollary_interval", {"n": n, "N": N, "lo": lo, "hi": hi}, rhs, budget_main)
    norm_bound, dev_bound = remark2_bounds(cfg, n, N)
    add("remark2_norm", {"n": n, "N": N}, norm_bound, budget_main)
    add("remark2_dev", {"n": n, "N": N}, dev_bound, budget_main)
    add(
        "thmold_bound",
        {"m": m, "n": n, "N": N, "max_col_norm": max_col_norm},
        thmold_bound(cfg, m, n, N, max_col_norm),
        budget_old,
    )
    if B is None and 5.0 * N >= n:
        B = choose_B(cfg, n, N)
    if theta is None:
        theta = choose_theta(cfg, n, N)
    if B is not None:
        add("choose_B", {"n": n, "N": N}, B, 0.0)
        add("s3_envelope", {"B": B}, s3_envelope(cfg, B), 0.0)
        if theta > 0.0:  # at theta = 0 (psi = 0) the exponent is 0/0
            tail = bernstein_tail(theta, N, cfg, B)
            add("bernstein_tail", {"theta": theta, "N": N, "B": B}, tail, min(1.0, tail))
        c1, c2 = cond3_holds(theta, N, B, cfg, n)
        add("cond3_first", {"theta": theta, "N": N, "B": B, "n": n}, float(c1), 0.0)
        add("cond3_second", {"theta": theta, "N": N, "B": B, "n": n}, float(c2), 0.0)
    add("choose_theta", {"n": n, "N": N}, theta, 0.0)
    add("net_cardinality_log", {"n": n}, net_cardinality_log(n), 0.0)
    return reports
