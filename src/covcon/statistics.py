"""Hypothesis-side estimators: psi_1 norms, sparse operator norms, sphere
nets, and the truncation decomposition of the deviation.

These measure the hypotheses of the concentration bounds (the
sub-exponential constant psi, the sparse norms A_m; the column-norm ratio
behind K is `linalg.boundedness_ratio`) and reproduce the internal
decomposition S(x) <= S1 + S2 + S3 used to control the deviation, so each
analytic step can be checked on sampled data.

psi_1 (sub-exponential Orlicz) norm of a scalar Y:

    ||Y||_{psi_1} = inf{ C > 0 : E exp(|Y|/C) <= 2 }.

The empirical version replaces E by the mean over T samples Y_j, and the
infimum is the root of g(s) = logsumexp_j(|Y_j| s) - ln(2T) in s = 1/C.  The
solve runs on samples scaled to unit maximum, b_j = |Y_j| / max|Y|, and maps
back by C = max|Y| / s, so subnormal and near-overflow samples solve alike.
The row maximum of b s is then s itself, so g and g' come from one exp pass
per step with no search for the maximum.  g is convex and increasing, so
Newton's method started to the right of the root converges monotonically;
each step also brackets the root (tangent root above, chord root below).
Finite-sample estimates are downward biased (they see no tail beyond the
sample); treat them as lower bounds and report sample sizes.

``scipy.special`` loads on first use, inside the closed-form truncation
tails (see rng).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from . import rng, sampler
from .errors import (
    U64_MAX,
    AnalyticUnavailableError,
    ContractError,
    EnumerationBudgetError,
    NumericalError,
    ResourceError,
    require_int,
)
from .linalg import gram_covariance, matrix_norm
from .records import Record
# Unused here, but perfbench/tracing.py wraps covcon.statistics.sample_ensemble.
from .sampler import SampleMatrix, sample_ensemble

__all__ = [
    "Psi1Estimate",
    "SparseNormProfile",
    "TruncationSplit",
    "SphereNet",
    "psi1_estimate",
    "psi1_ensemble",
    "sparse_norm",
    "sparse_norm_profile",
    "truncation_split",
    "direction_deviation",
    "build_net",
    "net_sup_deviation",
    "net_covering_radius_probe",
]

#: Leading columns of a matrix that psi1_ensemble reads: psi is a property of
#: the law, so every cell gets the same sample size and bias.
PSI_SAMPLE_COLUMNS = 1 << 16

#: Subset budget for exact sparse-norm enumeration.
EXACT_ENUMERATION_BUDGET = 1_000_000

#: Relative width of the psi_1 bracket at which the root search stops.
_PSI1_REL_TOL = 1e-13
_PSI1_MAX_ITER = 110

#: Truncated power iteration for greedy sparse norms: starting vectors and
#: power steps per start.
_POWER_STARTS = 256
_POWER_ITERS = 60


@dataclass(frozen=True)
class Psi1Estimate:
    """Empirical psi_1 norm with its terminal root bracket."""

    value: float
    sample_size: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class SparseNormProfile(Record):
    """Estimates of A_m = sup{|Az| : z unit, m-sparse} over a geometric m grid."""

    m_values: np.ndarray
    a_m: np.ndarray
    mode: str
    certificates: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class TruncationSplit(Record):
    """Decomposition of the one-direction deviation at truncation level B.

    s1: |mean over i of (min(|<X_i,x>|, B)^2 - E min(...)^2)|
    s2: (1/N) sum over E_B of (<X_i,x>^2 - B^2), the empirical excess
    s3: the expectation analogue of s2
    e_b_indices: E_B(x) = {i : |<X_i,x>| >= B}
    big_m: max{psi^2 n, max_i |X_i|^2}
    """

    B: float
    x: np.ndarray
    s1: float
    s2: float
    s3: float
    e_b_indices: np.ndarray
    m_observed: int
    big_m: float
    expectation: str


@dataclass(frozen=True)
class SphereNet(Record):
    """Greedy maximal epsilon-separated point set on the unit sphere."""

    n: int
    epsilon: float
    points: np.ndarray

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "size": len(self.points)}


# --- psi_1 estimation --------------------------------------------------------


def _psi1_rows(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise empirical psi_1 values for a nonempty (d, T) array.

    Solves mean_j exp(|a_ij| s) = 2 per row for s = 1/C (see the module
    docstring).  Returns (values, lo, hi) in C; all-zero rows get value 0
    with a degenerate bracket.  Raises NumericalError when a value exceeds
    the float64 range.
    """
    a = np.abs(np.asarray(arr, dtype=np.float64))
    amax = a.max(axis=1)
    # NaN and inf propagate through max, so this checks every entry.
    if not np.isfinite(amax).all():
        raise ContractError("samples contain non-finite values")
    d, T = a.shape
    lo = np.zeros(d)
    hi = np.zeros(d)
    live = np.flatnonzero(amax)
    if live.size:
        scale = amax[live]
        b = a if live.size == d else a[live]
        b /= scale[:, None]
        lower, upper = _psi1_newton(b, math.log(2.0 * T))
        with np.errstate(over="ignore"):
            lo[live], hi[live] = scale / upper, scale / lower
        if not np.isfinite(hi).all():
            raise NumericalError("the psi_1 constant of the samples overflows float64")
    return lo + 0.5 * (hi - lo), lo, hi


def logsumexp(b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log sum_j exp(b_ij s_i) and its derivative in s_i, for
    nonnegative rows b whose maximum is exactly 1 and s > 0.

    The row maximum of b s is then s itself, so one exp pass over
    e = exp(b s - s) gives both: the log-sum-exp s + log sum e and the slope
    sum b e / sum e.
    """
    e = b * s[:, None]
    e -= s[:, None]
    np.exp(e, out=e)
    total = e.sum(axis=1)
    return s + np.log(total), np.einsum("ij,ij->i", b, e) / total


def _psi1_newton(b: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Bracket [lower, upper] in s of the root of g(s) = logsumexp(b s) -
    target, per row of a nonnegative array scaled to row maximum 1.

    The solve is scale-free: the root lies in [ln 2, target] whatever the
    sample scale, and the caller maps it to C = amax/s.  Newton starts at
    s = target, where the largest term alone makes g >= 0.  g is convex and
    increasing with g(0) = -ln 2, so every tangent root lies at or above the
    root and the chord root between a point with g <= 0 and one with g >= 0
    lies at or below it.  A row stops once that bracket is relatively
    narrower than _PSI1_REL_TOL (the same relative width in C), and is not
    updated after.  Each step makes one `logsumexp` call, one exp pass over
    the data for g and g' together.
    """
    rows = b.shape[0]
    s_left = np.zeros(rows)  # g(s_left) <= 0
    g_left = np.full(rows, -math.log(2.0))
    s_right = np.full(rows, target)  # g(s_right) >= 0; evaluated first
    g_right = np.zeros(rows)
    s = s_right
    lower = np.zeros(rows)
    upper = np.zeros(rows)
    active = np.ones(rows, dtype=bool)
    for _ in range(_PSI1_MAX_ITER):
        lse, slope = logsumexp(b, s)  # slope = g'(s) > 0
        g = lse - target
        right = g >= 0.0
        s_left, g_left = np.where(right, s_left, s), np.where(right, g_left, g)
        s_right, g_right = np.where(right, s, s_right), np.where(right, g, g_right)
        tangent = np.minimum(s - g / slope, s_right)
        rise = g_right - g_left
        safe = np.where(rise > 0.0, rise, 1.0)
        chord = np.where(rise > 0.0, s_left - g_left * (s_right - s_left) / safe, s_right)
        # Both ends are exact bounds in exact arithmetic; rounding near the
        # root can cross them, which closes the bracket.
        chord = np.minimum(chord, tangent)
        lower = np.where(active, chord, lower)
        upper = np.where(active, tangent, upper)
        active &= ~(upper - lower <= _PSI1_REL_TOL * upper)
        if not active.any():
            break
        # Newton steps from the right; a tangent from a point left of the
        # root can land beyond the known right end, so bisect instead.
        s = np.where(tangent < s_right, tangent, 0.5 * (chord + tangent))
    return lower, upper


def psi1_estimate(samples: np.ndarray) -> Psi1Estimate:
    """Empirical psi_1 norm of a scalar sample (0 for the all-zero sample)."""
    a = np.asarray(samples, dtype=np.float64).ravel()
    if a.size == 0:
        raise ContractError("psi1_estimate requires a nonempty sample")
    value, lo, hi = _psi1_rows(a[None, :])
    return Psi1Estimate(
        value=float(value[0]),
        sample_size=int(a.size),
        bracket=(float(lo[0]), float(hi[0])),
    )


def probe_directions(n: int, count: int, seed: int) -> np.ndarray:
    """`count` deterministic pseudo-random unit vectors in R^n (rows)."""
    g = rng.normal_columns(seed, range(count), rng.TAG_PROBES, n).T
    return g / np.linalg.norm(g, axis=1)[:, None]


def psi1_ensemble(A: SampleMatrix, directions: int) -> float:
    """Max empirical psi_1 of <X_i, y> over basis + random probe directions.

    Projections are pooled across the first min(N, PSI_SAMPLE_COLUMNS) columns
    of A (i.i.d.; a view, not a copy), and the probe set is the n coordinate
    directions plus `directions` pseudo-random unit vectors derived from the
    matrix seed.  A probed sup is a lower bound on the uniform psi_1 constant.
    """
    require_int("directions", directions, 0)
    probes = np.vstack([np.eye(A.n), probe_directions(A.n, directions, A.seed)])
    proj = probes @ A.entries[:, :PSI_SAMPLE_COLUMNS]
    values, _, _ = _psi1_rows(proj)
    return float(values.max())


# --- sparse operator norms ---------------------------------------------------


def _lambda_max_bounds(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds on the largest eigenvalue of each matrix in a
    (b, k, k) batch of PSD matrices, from t_6 = tr M^6 and t_8 = tr M^8.

    Each matrix is divided by its trace first, so its eigenvalues lie in
    [0, 1] and no power overflows.  t_8 >= lambda_max^8 gives the upper
    bound t_8^(1/8); t_8 / t_6 is a lambda^6-weighted mean of lambda^2, so
    its square root is a lower bound.  Zero matrices get (0, 0).
    """
    trace = np.trace(gram, axis1=1, axis2=2)
    scale = np.where(trace > 0.0, trace, 1.0)
    g = gram / scale[:, None, None]
    g2 = np.matmul(g, g)
    g4 = np.matmul(g2, g2)
    t6 = np.einsum("bij,bij->b", g2, g4)
    t8 = np.einsum("bij,bij->b", g4, g4)
    lower = np.sqrt(t8 / np.where(t6 > 0.0, t6, 1.0)) * scale
    return lower, t8**0.125 * scale


#: Relative slack of the pruning test, far above the rounding of the bounds
#: and of eigvalsh.
_PRUNE_SLACK = 1e-9

#: Entries per block (32 MiB of float64) of the exact search, the greedy net pass and the probe.
_BLOCK_ENTRIES = 1 << 22


def _sparse_norm_exact(A: SampleMatrix, m: int) -> tuple[float, tuple[int, ...]]:
    """Enumerate all m-column supports; return (A_m, optimal support).

    The squared norm on a support is lambda_max of its Gram matrix M.  Per
    chunk of supports in lexicographic order, `_lambda_max_bounds` brackets
    every lambda_max, and eigvalsh runs only on the supports whose upper
    bound reaches the floor: the larger of the best value so far and the
    chunk's largest lower bound.  A pruned support lies strictly below the
    floor, so it can neither hold nor tie the maximum, and the value and
    certificate (the first support in lexicographic order that attains the
    maximum) are those of a full scan: eigvalsh sees the same matrices, only
    fewer.
    """
    N = A.N
    total = math.comb(N, m)
    if total > EXACT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"binom({N}, {m}) = {total} supports exceed the exact budget "
            f"{EXACT_ENUMERATION_BUDGET}; use mode='greedy'"
        )
    e = A.entries
    combos = combinations(range(N), m)
    best = -np.inf
    best_support: tuple[int, ...] = ()
    chunk_size = max(1, min(4096, _BLOCK_ENTRIES // (A.n * m)))
    while True:
        idx = np.fromiter(chain.from_iterable(islice(combos, chunk_size)), dtype=np.intp).reshape(-1, m)
        if not idx.size:
            break
        sub = np.ascontiguousarray(e[:, idx.ravel()].reshape(A.n, len(idx), m).transpose(1, 0, 2))
        # The smaller-side Gram; its top eigenvalue is the squared norm.
        gram = sub.transpose(0, 2, 1) @ sub if m <= A.n else sub @ sub.transpose(0, 2, 1)
        lower, upper = _lambda_max_bounds(gram)
        floor = max(best, float(lower.max()))
        keep = np.flatnonzero(upper >= floor * (1.0 - _PRUNE_SLACK))
        if not keep.size:
            continue
        vals = np.linalg.eigvalsh(gram[keep])[:, -1]
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_support = tuple(idx[keep[k]].tolist())
    return float(np.sqrt(max(best, 0.0))), best_support


def _thresholded_power(e: np.ndarray, ms: list[int], seed: int) -> tuple[list[float], np.ndarray]:
    """Lower bounds on A_m for each m in ms (1 < m < N) by truncated power
    iteration (Yuan & Zhang, JMLR 2013): power steps on e^T e, each followed
    by hard thresholding to the m largest coordinates, from _POWER_STARTS
    deterministic pseudo-random starts (start k is TAG_SEARCH stream k).
    Returns them with the final m-sparse unit vectors (column block k for ms[k]).

    All sizes run on the same starts as one (N, len(ms) * starts) batch, one
    product per step.  A column keeps its support unselected while its m
    support entries all exceed every other entry: the top m are then unique,
    and argpartition, which partitions each column on its own, would return
    them.  So the values are those of one m at a time, bit for bit."""
    N = e.shape[1]
    starts = rng.normal_columns(seed, range(_POWER_STARTS), rng.TAG_SEARCH, N)  # (N, starts)
    sizes = np.repeat(ms, _POWER_STARTS)
    w = np.tile(starts, len(ms))
    keep = np.zeros(w.shape, dtype=bool)
    for step in range(_POWER_ITERS + 1):
        if step:
            w = e.T @ (e @ w)
        a = np.abs(w)
        moved = ((a > (a * ~keep).max(axis=0)).sum(axis=0) != sizes).reshape(len(ms), -1)
        for k, m in enumerate(ms):
            cols = np.flatnonzero(moved[k]) + k * _POWER_STARTS
            if cols.size:
                drop = np.argpartition(a[:, cols], N - m - 1, axis=0)[: N - m]
                keep[:, cols] = True
                keep[drop, cols] = False
        w *= keep
        norms = np.linalg.norm(w, axis=0)
        norms[norms == 0.0] = 1.0
        w /= norms
    return np.linalg.norm(e @ w, axis=0).reshape(len(ms), -1).max(axis=1).tolist(), w


def _sparse_norms(A: SampleMatrix, ms: list[int], mode: str) -> list[tuple[float, tuple[int, ...]]]:
    """(A_m, support attaining it) for each m in ms; the support is () where
    greedy mode has no certificate.  m = 1 and m = N are exact in both modes,
    and greedy mode searches every other m in one `_thresholded_power` call.

    The search runs on the entries scaled by the power of two 2^-k that puts
    max|e| in [1/2, 1), so neither squares nor power steps under- or
    overflow, and the value scales back exactly.  The spec is kept: greedy
    start vectors are seeded by A.seed."""
    if mode not in ("exact", "greedy"):
        raise ContractError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    # |e|_F^2 bounds every sub-Gram entry and eigenvalue, so once it is
    # finite no search below can overflow.
    if not math.isfinite(float(np.vdot(A.entries, A.entries))):
        raise ContractError("the squared Frobenius norm of the entries overflows float64")
    k = int(np.frexp(np.abs(A.entries).max())[1])
    A = SampleMatrix(np.ldexp(A.entries, -k), spec=A.spec)
    interior = [m for m in ms if 1 < m < A.N] if mode == "greedy" else []
    greedy = dict(zip(interior, _thresholded_power(A.entries, interior, A.seed)[0] if interior else ()))
    out = []
    for m in ms:
        if m == 1:
            norms = A.column_norms()
            j = int(np.argmax(norms))
            value, support = norms[j], (j,)
        elif m == A.N:
            value, support = matrix_norm(A), tuple(range(A.N))
        elif mode == "exact":
            value, support = _sparse_norm_exact(A, m)
        else:
            value, support = greedy[m], ()
        out.append((float(np.ldexp(value, k)), support))
    return out


def sparse_norm(A: SampleMatrix, m: int, mode: str = "exact") -> float:
    """A_m, the operator norm restricted to m-sparse unit vectors.

    Exact mode enumerates supports (the m-sparse sup over a fixed support is
    the top singular value of that column-submatrix); greedy mode runs
    truncated power iteration, always a lower bound.  The endpoints m = 1
    (max column norm) and m = N (operator norm) are exact identities in both
    modes.
    """
    require_int("m", m, 1, A.N)
    return _sparse_norms(A, [m], mode)[0][0]


def sparse_norm_profile(A: SampleMatrix, mode: str = "greedy") -> SparseNormProfile:
    """A_m over the geometric grid m in {1, 2, 4, ..., N}, monotone by
    cumulative max (U_m grows with m, so A_m must be nondecreasing)."""
    ms: list[int] = []
    m = 1
    while m < A.N:
        ms.append(m)
        m *= 2
    ms.append(A.N)
    values, certificates = zip(*_sparse_norms(A, ms, mode))
    a_m = np.maximum.accumulate(np.asarray(values))
    return SparseNormProfile(
        m_values=np.asarray(ms, dtype=np.int64),
        a_m=a_m,
        mode=mode,
        certificates=certificates if mode == "exact" else None,
    )


# --- truncation decomposition ------------------------------------------------


def _truncated_moments(proj: np.ndarray, B: float) -> tuple[np.ndarray, float, float]:
    """E_B = {i : |p_i| >= B}, the mean of min(|p|, B)^2, and
    sum over E_B of (p_i^2 - B^2) / len(p); at B = inf, E_B is empty."""
    absp = np.abs(proj)
    e_b = np.nonzero(absp >= B)[0].astype(np.int64)
    trunc_sq = float(np.mean(np.minimum(absp, B) ** 2))
    excess = float(np.sum(proj[e_b] ** 2 - B * B)) / proj.size
    return e_b, trunc_sq, excess


def _unit_direction(A: SampleMatrix, x: np.ndarray) -> np.ndarray:
    """x as a flat float64 vector, refused unless it is a unit vector in R^n."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != A.n:
        raise ContractError(f"direction has dimension {x.size}, matrix has n={A.n}")
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-12:
        raise ContractError(f"direction must be a unit vector (|x| = {np.linalg.norm(x)!r})")
    return x


def direction_deviation(A: SampleMatrix, x: np.ndarray) -> float:
    """S(x) = |(1/N) sum <X_i, x>^2 - 1|, the deviation along a unit direction."""
    proj = _unit_direction(A, x) @ A.entries
    return abs(float(np.mean(proj**2)) - 1.0)


def truncation_split(
    A: SampleMatrix,
    x: np.ndarray,
    B: float,
    expectation: str = "analytic_isotropic",
    fresh_T: int = 100_000,
    psi: float | None = None,
) -> TruncationSplit:
    """Split the one-direction deviation at truncation level B.

    The expectation terms come either from the closed-form tail of the
    family's row in `sampler._FAMILY_TABLE` (`analytic_isotropic`, through
    `EnsembleSpec.tail_excess`; AnalyticUnavailableError where the row has
    none or it does not cover x; a B whose square overflows has an empty
    tail, s3 = 0) or from only the `fresh_T` projections of a fresh sample
    drawn from the matrix seed in a separate counter namespace, projected
    block by block as `sampler.column_blocks` yields it, so at any n and in
    bounded memory.  They obey the truncated-moment rule of the sample's
    terms, divided by their second moment, so the truncated and excess parts
    sum to 1 (the isotropic value) up to rounding and the recombination
    inequality S(x) <= s1 + s2 + s3 holds to rounding.

    `psi` enters only the big_m field (M = max{psi^2 n, max|X_i|^2}); when
    omitted it is `psi1_ensemble` of the matrix along basis directions.
    """
    x = _unit_direction(A, x)
    if not (B >= 0.0):
        raise ContractError(f"truncation level B must be >= 0, got {B!r}")
    if expectation not in ("analytic_isotropic", "fresh_sample"):
        raise ContractError(f"unknown expectation mode {expectation!r}")

    e_b, trunc_sq, s2 = _truncated_moments(x @ A.entries, B)
    if expectation == "analytic_isotropic":
        if A.spec is None:
            raise AnalyticUnavailableError("both expectation modes need the generating spec; this matrix has none")
        s3 = float(A.spec.tail_excess(x, B)) if math.isfinite(B * B) else 0.0
        expected_trunc_sq = 1.0 - s3
    else:
        if A.spec is None:
            raise ContractError("both expectation modes need the generating spec; this matrix has none")
        require_int("fresh_T", fresh_T)
        if fresh_T > sampler.MAX_ELEMENTS:
            raise ResourceError(f"fresh_T = {fresh_T} exceeds the sample budget of {sampler.MAX_ELEMENTS} entries")
        blocks = sampler.column_blocks(replace(A.spec, N=fresh_T), rng.TAG_FRESH)
        fp = np.concatenate([x @ block for block in blocks])
        m2 = float(np.mean(fp**2))
        if m2 == 0.0:
            raise ContractError("fresh sample has zero second moment along x")
        expected_trunc_sq, s3 = (value / m2 for value in _truncated_moments(fp, B)[1:])
    s1 = abs(trunc_sq - expected_trunc_sq)

    if psi is None:
        psi = psi1_ensemble(A, 0)
    big_m = max(psi * psi * A.n, A.max_column_norm() ** 2)

    return TruncationSplit(
        B=float(B),
        x=x.copy(),
        s1=s1,
        s2=s2,
        s3=s3,
        e_b_indices=e_b,
        m_observed=int(e_b.size),
        big_m=float(big_m),
        expectation=expectation,
    )


# --- sphere nets -------------------------------------------------------------

#: log2 of the candidate cloud's size, by dimension.
_NET_LOG2_CLOUD = {2: 13, 3: 16, 4: 17, 5: 16, 6: 16, 7: 16, 8: 16}

#: Largest dimension whose net is completed from convex-hull facets; one
#: n = 6 hull already takes several seconds.
_HULL_REPAIR_MAX_N = 5


def _greedy_extend(accepted: np.ndarray, cands: np.ndarray, eps_sq: float) -> np.ndarray:
    """The accepted rows followed, in order, by every candidate farther than
    epsilon from all rows accepted before it (squared chord distance
    2 - 2<a, b> > eps_sq).  Blocks stay small, as each row is also checked
    against its block's fresh rows."""
    while len(cands):
        part, cands = np.split(cands, [min(1024, _BLOCK_ENTRIES // len(accepted))])
        base_min = 2.0 - 2.0 * np.max(part @ accepted.T, axis=1)
        fresh: list[int] = []
        for j in range(len(part)):
            d2 = base_min[j]
            if fresh and d2 > eps_sq:
                d2 = min(d2, 2.0 - 2.0 * np.max(part[fresh] @ part[j]))
            if d2 > eps_sq:
                fresh.append(j)
        accepted = np.concatenate([accepted, part[fresh]])
    return accepted


@lru_cache(maxsize=32)
def _net_points_cached(n: int, epsilon: float) -> np.ndarray:
    """The net's points, read-only: the cache hands out this array itself."""
    if n == 1:
        points = np.array([[1.0], [-1.0]])
        points.flags.writeable = False
        return points
    g = rng.normal_columns(0, range(1 << _NET_LOG2_CLOUD[n]), rng.TAG_NET, n).T
    cands = g / np.linalg.norm(g, axis=1)[:, None]

    eps_sq = epsilon * epsilon
    accepted = _greedy_extend(cands[:1], cands[1:], eps_sq)
    if n <= _HULL_REPAIR_MAX_N:
        from scipy.spatial import ConvexHull

    # Each hull facet a.x + b = 0 (a a unit outward normal) cuts off an empty
    # cap centred at a, of squared chord radius 2 + 2b; the deepest points
    # left uncovered are these centres.  Add them, deepest first, until
    # every cap is within epsilon: the set is then maximal on the sphere.
    before = 0
    while n <= _HULL_REPAIR_MAX_N and len(accepted) > before:
        eq = ConvexHull(accepted).equations
        depth = 2.0 + 2.0 * eq[:, n]
        order = np.argsort(-depth, kind="stable")
        holes = eq[order[depth[order] > eps_sq], :n]
        before = len(accepted)
        accepted = _greedy_extend(accepted, holes, eps_sq)
    accepted.flags.writeable = False
    return accepted


def build_net(n: int, epsilon: float) -> SphereNet:
    """Epsilon-separated point set on S^{n-1}, maximal on the sphere for
    n <= 5.

    A greedy pass keeps every point of a deterministic cloud (2^13 to 2^17
    normalised gaussian draws, the Philox streams of seed 0 under
    `rng.TAG_NET`) that lies farther than epsilon from those kept before it.
    For n <= 5 the deep holes are then filled: the centre of each empty cap
    cut off by a convex-hull facet is added while its cap is wider than
    epsilon, so the net covers the whole sphere within epsilon.  For n = 6..8
    it covers the cloud within epsilon, and the sphere only within epsilon
    plus the cloud's dispersion.  Pairwise separation > epsilon is exact by
    construction, so the packing bound |net| <= (1 + 2/epsilon)^n holds.  The
    greedy pass compares blocks of at most 1024 candidates and 2^22 distances.
    """
    require_int("n", n, 1, 8)
    if not (0.0 < epsilon < 1.0):
        raise ContractError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    points = _net_points_cached(n, float(epsilon))
    limit = (1.0 + 2.0 / epsilon) ** n
    if len(points) > limit:
        raise RuntimeError(
            f"net construction bug: {len(points)} points exceed the packing bound {limit:.0f}"
        )
    return SphereNet(n=n, epsilon=float(epsilon), points=points)


def net_sup_deviation(A: SampleMatrix, net: SphereNet) -> float:
    """max over net points y of |<(A A^T/N - I) y, y>|."""
    if net.n != A.n:
        raise ContractError(f"net dimension {net.n} does not match matrix n={A.n}")
    T = gram_covariance(A) - np.eye(A.n)
    vals = np.einsum("pi,ij,pj->p", net.points, T, net.points)
    return float(np.abs(vals).max())


def net_covering_radius_probe(net: SphereNet, probes: int = 10_000, seed: int = 0) -> float:
    """Empirical covering radius: max over pseudo-random unit probes of the
    distance to the nearest net point, in blocks of _BLOCK_ENTRIES distances."""
    require_int("probes", probes)
    require_int("seed", seed, 0, U64_MAX)
    q = probe_directions(net.n, probes, seed)
    step = min(4096, _BLOCK_ENTRIES // len(net.points))
    d2 = 2.0 - 2.0 * min(np.max(q[lo : lo + step] @ net.points.T, axis=1).min() for lo in range(0, probes, step))
    return float(np.sqrt(max(d2, 0.0)))
