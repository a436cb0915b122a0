"""Tail-norm estimation, sparse norms, truncation split, and sphere nets."""

import hashlib
import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import ndtr

from covcon import rng, sampler, statistics
from covcon.errors import (
    AnalyticUnavailableError,
    ContractError,
    EnumerationBudgetError,
    NumericalError,
    ResourceError,
)
from covcon.linalg import matrix_norm, operator_deviation
from covcon.sampler import EnsembleSpec, SampleMatrix, sample_ensemble
from covcon.statistics import (
    build_net,
    direction_deviation,
    net_covering_radius_probe,
    net_sup_deviation,
    probe_directions,
    psi1_ensemble,
    psi1_estimate,
    sparse_norm,
    sparse_norm_profile,
    truncation_split,
)

GAUSSIAN_PSI1 = 1.372494991910347


# --- psi_1 estimation --------------------------------------------------------


def test_psi1_constant_sample():
    # For |Y| = a the defining equation exp(a/C) = 2 gives C = a / ln 2.
    est = psi1_estimate(np.full(100, math.log(4.0)))
    assert math.isclose(est.value, 2.0, rel_tol=1e-9)
    assert est.bracket[0] <= est.value <= est.bracket[1]
    assert est.sample_size == 100


def test_psi1_solves_defining_equation():
    samples = np.random.default_rng(8).standard_normal(5_000)
    est = psi1_estimate(samples)
    assert math.isclose(float(np.mean(np.exp(np.abs(samples) / est.value))), 2.0, rel_tol=1e-10)


def test_psi1_homogeneity():
    samples = np.random.default_rng(9).exponential(1.0, 2_000)
    base = psi1_estimate(samples).value
    assert math.isclose(psi1_estimate(3.0 * samples).value, 3.0 * base, rel_tol=1e-9)


@pytest.mark.parametrize("c", [1e-13, 1e-200, 1e5])
def test_psi1_scale_equivariant(c):
    # The stop rule is relative, so psi_1(c Y) = c psi_1(Y) to rounding at
    # any scale, including far below 1.
    samples = np.random.default_rng(10).exponential(1.0, 2_000)
    base = psi1_estimate(samples).value
    assert math.isclose(psi1_estimate(c * samples).value, c * base, rel_tol=1e-12)


def test_psi1_at_the_ends_of_the_float_range():
    # Scaling by a power of two is exact, so the solve on unit-max rows must
    # give the same constant for subnormal samples as for their normal
    # multiples; only C = amax/s rounds in the subnormal range.
    y = 1e-310 * np.random.default_rng(10).exponential(1.0, 2_000)
    value = psi1_estimate(y).value
    assert math.isclose(value, 2.0**-60 * psi1_estimate(2.0**60 * y).value, rel_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = psi1_estimate(np.array([1e308, 1e308, 0.0]))
    lo, hi = est.bracket
    assert math.isfinite(est.value) and lo <= est.value <= hi
    # Two of three terms at amax: (2 exp(s) + 1)/3 = 2, so C = 1e308/ln 2.5.
    assert math.isclose(est.value, 1e308 / math.log(2.5), rel_tol=1e-12)


def test_psi1_beyond_the_float_range_raises():
    # Equal samples give C = a / ln 2, which exceeds the largest float64 for
    # a = 1.7e308: the mapping C = amax/s must report that, not warn or
    # return a nan value with an infinite bracket.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows"):
            psi1_estimate(np.array([1.7e308, 1.7e308]))
        for rows in ([[1.0, 2.0], [1.7e308, 1.7e308]], [[1.7e308, 1.7e308], [1.0, 2.0]]):
            with pytest.raises(NumericalError):
                statistics._psi1_max(np.array(rows))


def _unit_max_rows():
    g = np.random.default_rng(12)
    one = np.zeros((1, 3_000))
    one[0, 17] = 2.5
    for rows in (np.abs(g.standard_normal((6, 3_000))), g.exponential(1.0, (4, 3_000)), one, np.full((1, 3_000), 0.7)):
        yield rows / rows.max(axis=1)[:, None]


@pytest.mark.parametrize("s", [1e-3, 0.5, 3.0, math.log(6_000.0)])
def test_logsumexp_helper_matches_scipy(s):
    for b in _unit_max_rows():
        sv = np.full(b.shape[0], s)
        lse, slope = statistics.logsumexp(b, sv)
        x = b * s
        np.testing.assert_allclose(lse, scipy_logsumexp(x, axis=1), rtol=1e-14, atol=0.0)
        weights = np.exp(x - x.max(axis=1)[:, None])
        weights /= weights.sum(axis=1)[:, None]
        np.testing.assert_allclose(slope, (weights * b).sum(axis=1), rtol=1e-14, atol=0.0)


def test_psi1_exponential_unit_rate():
    # E exp(Y/C) = 1/(1 - 1/C) for Y ~ Exp(1), so the true constant is 2.
    samples = np.random.default_rng(10).exponential(1.0, 100_000)
    assert 1.8 <= psi1_estimate(samples).value <= 2.2


def test_psi1_degenerate_and_invalid():
    assert psi1_estimate(np.zeros(10)).value == 0.0
    with pytest.raises(ContractError):
        psi1_estimate(np.empty(0))
    with pytest.raises(ContractError):
        psi1_estimate(np.array([1.0, np.inf]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psi1_rejects_non_finite(bad):
    with pytest.raises(ContractError, match="non-finite"):
        psi1_estimate(np.array([0.5, bad, 2.0]))
    rows = np.ones((3, 8))
    rows[2, 5] = bad
    with pytest.raises(ContractError, match="non-finite"):
        statistics._psi1_max(rows)


def test_gaussian_psi1_reference_value():
    # The standard normal solves E exp(|g|/C) = 2, i.e.
    # 2 exp(1/(2C^2)) Phi(1/C) = 2; recompute the root independently.
    def f(c):
        return math.exp(0.5 / (c * c)) * float(ndtr(1.0 / c)) - 1.0

    root = brentq(f, 1.0, 2.0, xtol=1e-13)
    assert math.isclose(root, GAUSSIAN_PSI1, rel_tol=1e-12)


def test_psi1_ensemble_gaussian_band():
    A = sample_ensemble(EnsembleSpec("gaussian", 16, 4096, 5))
    value = psi1_ensemble(A, 16)
    assert 1.2 <= value <= 1.55
    assert psi1_ensemble(A, 16) == value  # deterministic
    for bad in (-1, 1.5, 2.0, True):
        with pytest.raises(ContractError):
            psi1_ensemble(A, bad)


def _psi1_bisection_rows(proj):
    """Reference: row-wise bisection on mean exp(|a|/C) = 2 over the bracket
    [amax/ln(2T), amax/ln 2], run to full double precision."""
    a = np.abs(proj)
    amax = a.max(axis=1)
    lo = amax / math.log(2.0 * a.shape[1])
    hi = amax / math.log(2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ok = np.mean(np.exp(a / mid[:, None]), axis=1) <= 2.0
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family", ["gaussian", "euclidean_ball", "exponential_product"])
def test_psi1_newton_matches_bisection(family, monkeypatch):
    A = sample_ensemble(EnsembleSpec(family, 16, 8192, 21))
    probes = np.vstack([np.eye(16), probe_directions(16, 16, A.seed)])
    reference = _psi1_bisection_rows(probes @ A.entries)
    rows = []
    lse = statistics.logsumexp
    monkeypatch.setattr(statistics, "logsumexp", lambda b, s: rows.append(b.shape[0]) or lse(b, s))
    value = psi1_ensemble(A, 16)
    # One log-sum-exp per Newton step, against 46 bisection steps before;
    # rows that cannot hold the max leave early, where all 32 rows through
    # every step read 192-224.
    assert len(rows) <= 10
    assert sum(rows) <= 128
    assert math.isclose(value, float(reference.max()), rel_tol=1e-12)
    for row, ref in zip(probes @ A.entries, reference):
        est = psi1_estimate(row)
        assert math.isclose(est.value, ref, rel_tol=1e-12)
        lo, hi = est.bracket
        # The bracket holds up to the rounding of g near ln(2T), ~1e-15.
        assert lo * (1.0 - 1e-14) <= ref <= hi * (1.0 + 1e-14)
        assert hi - lo <= 1e-13 * max(1.0, hi)


@pytest.mark.parametrize("family", ["gaussian", "euclidean_ball", "exponential_product"])
@pytest.mark.parametrize("shape", [(16, 256), (32, 1024), (16, 8192), (64, 4096)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_psi1_ensemble_is_the_max_of_its_rows(family, shape):
    # Rows whose bracket lies below another row's leave the solve early; the
    # max must still be the row-wise solve's max, bit for bit.
    A = sample_ensemble(EnsembleSpec(family, *shape, 31))
    probes = np.vstack([np.eye(A.n), probe_directions(A.n, 16, A.seed)])
    rows = probes @ A.entries
    assert psi1_ensemble(A, 16) == max(psi1_estimate(row).value for row in rows)
    # With no probes the rows are A's own: a tie and an all-zero row.
    tie = SampleMatrix(entries=np.vstack([rows[:3], rows[1:2], np.zeros((1, A.N))]))
    assert psi1_ensemble(tie, 0) == max(psi1_estimate(row).value for row in tie.entries)


def test_probe_directions_unit_and_deterministic():
    p = probe_directions(5, 40, 123)
    assert p.shape == (40, 5)
    assert np.allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(p, probe_directions(5, 40, 123))
    assert not np.array_equal(p, probe_directions(5, 40, 124))
    assert probe_directions(5, 0, 1).shape == (0, 5)


# --- sparse operator norms ---------------------------------------------------


def test_sparse_norm_endpoints_exact():
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 10, 44))
    for mode in ("exact", "greedy"):
        assert sparse_norm(A, 1, mode) == A.max_column_norm()
        assert sparse_norm(A, 10, mode) == matrix_norm(A)


def test_sparse_norm_exact_vs_exhaustive_oracle():
    A = sample_ensemble(EnsembleSpec("gaussian", 4, 8, 9))
    e = A.entries
    for m in (2, 3, 5):
        exact = sparse_norm(A, m, "exact")
        oracle = max(np.linalg.norm(e[:, list(S)], 2) for S in combinations(range(8), m))
        assert math.isclose(exact, oracle, rel_tol=1e-12)


def test_greedy_never_exceeds_exact():
    for seed in (1, 2, 3):
        A = sample_ensemble(EnsembleSpec("gaussian", 4, 8, seed))
        for m in range(1, 9):
            exact = sparse_norm(A, m, "exact")
            assert exact * (1.0 - 0.005) <= sparse_norm(A, m, "greedy") <= exact + 1e-9


def test_sparse_norm_monotone_in_m():
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 7, 6))
    values = [sparse_norm(A, m, "exact") for m in range(1, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_sparse_norm_validation():
    A = sample_ensemble(EnsembleSpec("gaussian", 2, 40, 1))
    with pytest.raises(EnumerationBudgetError):
        sparse_norm(A, 20, "exact")
    with pytest.raises(ContractError):
        sparse_norm(A, 0)
    with pytest.raises(ContractError):
        sparse_norm(A, 41)
    with pytest.raises(ContractError):
        sparse_norm(A, 2, "annealed")
    for bad in (2.0, 1.5, True):
        with pytest.raises(ContractError):
            sparse_norm(A, bad)


def test_profile_grid_and_certificates():
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 16, 12))
    prof = sparse_norm_profile(A, mode="exact")
    assert list(prof.m_values) == [1, 2, 4, 8, 16]
    assert np.all(np.diff(prof.a_m) >= -1e-12)
    assert prof.certificates is not None
    raw = []
    for m, support in zip(prof.m_values, prof.certificates):
        assert len(support) == m
        sub = A.entries[:, list(support)]
        raw.append(float(np.sqrt(np.linalg.eigvalsh(sub.T @ sub)[-1])))
    assert np.allclose(prof.a_m, np.maximum.accumulate(raw), atol=1e-10)
    d = prof.to_json_dict()
    assert d["mode"] == "exact" and len(d["certificates"]) == 5

    greedy = sparse_norm_profile(A, mode="greedy")
    assert greedy.certificates is None
    assert np.all(greedy.a_m <= prof.a_m + 1e-9)


def _full_scan(e, m):
    """Every m-column support in combinations order through eigvalsh, with
    the smaller-side Gram laid out as the search lays it out; returns the
    first maximum as (A_m, support)."""
    n, N = e.shape
    supports = np.array(list(combinations(range(N), m)), dtype=np.intp)
    sub = np.ascontiguousarray(e[:, supports.ravel()].reshape(n, len(supports), m).transpose(1, 0, 2))
    if m <= n:
        gram = np.matmul(sub.transpose(0, 2, 1), sub)
    else:
        gram = np.matmul(sub, sub.transpose(0, 2, 1))
    vals = np.linalg.eigvalsh(gram)[:, -1]
    k = int(np.argmax(vals))
    return float(np.sqrt(max(vals[k], 0.0))), tuple(int(j) for j in supports[k])


def _degenerate_matrices():
    # N = 16 spreads the supports of the middle m over several chunks, so
    # ties (all_one ties everywhere) also meet across chunks.
    base = sample_ensemble(EnsembleSpec("gaussian", 6, 16, 3)).entries
    return {
        "duplicate_columns": np.hstack([base[:, :8], base[:, :8]]),
        "zero_columns": np.where(np.arange(16) % 3 == 0, 0.0, base),
        "rank_one": np.outer(base[:, 0], base[0]),
        "all_zero": np.zeros((6, 16)),
        "all_one": np.ones((6, 16)),
        "subnormal_gram": base * 1e-160,
        # Products at the last bits of the subnormal range.
        "subnormal_floor": base * 2.0**-537,
        # Blocks that underflow next to blocks that do not.
        "mixed_scale": np.hstack([base[:, :8], base[:, 8:] * 2.0**-540]),
        "large": base * 1e150,
    }


_PRUNED_SHAPES = [(3, 10), (4, 12), (8, 16), (12, 14)]
_FAMILY_SPECS = [
    ("gaussian", None),
    ("euclidean_ball", None),
    ("exponential_product", None),
    ("lp_ball", 1.5),
    ("rademacher_control", None),
]


@pytest.mark.parametrize("family,p", _FAMILY_SPECS)
def test_pruned_exact_search_equals_full_scan(family, p):
    # Bit for bit: the value with ==, the certificate as the first maximum.
    for i, (n, N) in enumerate(_PRUNED_SHAPES):
        e = sample_ensemble(EnsembleSpec(family, n, N, 70 + i, p=p)).entries
        for m in range(2, N):
            assert statistics._sparse_norm_exact(SampleMatrix(e), m) == _full_scan(e, m), (n, N, m)


@pytest.mark.parametrize("name", sorted(_degenerate_matrices()))
def test_pruned_exact_search_equals_full_scan_degenerate(name):
    e = _degenerate_matrices()[name]
    for m in range(2, e.shape[1]):
        assert statistics._sparse_norm_exact(SampleMatrix(e), m) == _full_scan(e, m), m


@pytest.mark.parametrize("N,m", [(16, 8), (14, 7), (10, 1), (10, 9), (6, 6)])
def test_supports_by_rank_are_combinations_order(N, m):
    ref = np.array(list(combinations(range(N), m)), dtype=np.intp)
    for chunk in (1, 7, 4096):
        assert np.array_equal(np.vstack(list(statistics._combinations(N, m, chunk))), ref), chunk
    if (N, m) == (16, 8):
        # Ranks 4,090-4,101 straddle the search's first chunk boundary.
        blocks = statistics._combinations(N, m, 4096)
        straddle = np.vstack([next(blocks)[4090:], next(blocks)[:6]])
        assert np.array_equal(straddle, ref[4090:4102])


def test_exact_budget_refuses_before_any_gram():
    # binom(2000, 2) = 1,999,000 supports; the 2,000 x 2,000 Gram would be 32 MB.
    A = sample_ensemble(EnsembleSpec("gaussian", 2, 2000, 4))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError):
            sparse_norm(A, 2, "exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lambda_max_bounds_bracket_eigvalsh():
    gen = np.random.default_rng(17)
    for k in range(1, 13):
        for rank in sorted({0, 1, max(1, k // 2), k}):
            for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
                B = gen.standard_normal((40, k, rank))
                gram = np.matmul(B, B.transpose(0, 2, 1)) * scale
                lower, upper = statistics._lambda_max_bounds(gram)
                top = np.linalg.eigvalsh(gram)[:, -1]
                assert not (np.isnan(lower).any() or np.isnan(upper).any())
                assert np.all(lower <= top * (1.0 + 1e-12)), (k, rank, scale)
                assert np.all(upper >= top * (1.0 - 1e-12)), (k, rank, scale)


def test_exact_search_prunes_eigvalsh(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    total = math.comb(16, 8)
    for family in ("gaussian", "euclidean_ball", "exponential_product"):
        for seed in (0, 1, 2, 3):
            seen.clear()
            A = sample_ensemble(EnsembleSpec(family, 8, 16, seed))
            sparse_norm(A, 8, "exact")
            assert sum(seen) <= 0.01 * total, (family, seed, sum(seen))


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_sparse_norm_refuses_gram_overflow(mode):
    # The entries are finite but their Gram is not: no search may answer.
    A = SampleMatrix(sample_ensemble(EnsembleSpec("gaussian", 4, 12, 5)).entries * 1e160)
    for m in (1, 2, 4, 12):
        with pytest.raises(ContractError, match="Frobenius"):
            sparse_norm(A, m, mode)
    with pytest.raises(ContractError, match="Frobenius"):
        sparse_norm_profile(A, mode)


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("family", ["gaussian", "euclidean_ball", "exponential_product"])
def test_sparse_norm_profile_is_scale_equivariant(family, mode):
    # A power-of-two scale is exact, so the profile scales exactly, even
    # where the squared entries underflow (2^-700) or power steps would
    # overflow (2^300); the certificates do not move.
    A = sample_ensemble(EnsembleSpec(family, 4, 12, 5))
    ref = sparse_norm_profile(A, mode)
    for c in (2.0**-700, 2.0**-300, 2.0**300):
        prof = sparse_norm_profile(SampleMatrix(c * A.entries, spec=A.spec), mode)
        assert np.array_equal(prof.a_m, c * ref.a_m), c
        assert prof.certificates == ref.certificates


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_sparse_norm_profile_at_extreme_decimal_scales(mode):
    # Decimal scales round the entries, so the profile agrees to rounding;
    # at 1e-170 every squared entry underflows to 0.
    A = sample_ensemble(EnsembleSpec("gaussian", 4, 12, 5))
    ref = sparse_norm_profile(A, mode).a_m
    assert np.all(ref > 0.0)
    for s in (1e-170, 1e-100, 1e100):
        a_m = sparse_norm_profile(SampleMatrix(s * A.entries, spec=A.spec), mode).a_m / s
        np.testing.assert_allclose(a_m, ref, rtol=1e-14, atol=0.0, err_msg=f"scale {s}")


def _one_size_power(e, m, seed):
    """Truncated power iteration for one m: the reference that the batched
    search must reproduce bit for bit."""
    N = e.shape[1]
    z = rng.normal_columns(seed, range(statistics._POWER_STARTS), rng.TAG_SEARCH, N)

    def project(w):
        drop = np.argpartition(np.abs(w), N - m - 1, axis=0)[: N - m]
        w = w.copy()
        np.put_along_axis(w, drop, 0.0, axis=0)
        norms = np.linalg.norm(w, axis=0)
        norms[norms == 0.0] = 1.0
        return w / norms

    z = project(z)
    for _ in range(statistics._POWER_ITERS):
        z = project(e.T @ (e @ z))
    return float(np.linalg.norm(e @ z, axis=0).max())


def _greedy_cases():
    for fi, family in enumerate(sampler.FAMILIES):
        p = 1.5 if family == "lp_ball" else None
        for n, N in ((3, 10), (6, 17), (9, 5)):  # tall, tall, wide
            yield family, sample_ensemble(EnsembleSpec(family, n, N, 70 + fi, p))
    A = sample_ensemble(EnsembleSpec("gaussian", 5, 12, 71))
    e = A.entries.copy()
    e[:, 1] = e[:, 0]  # duplicated
    e[:, 2] = -e[:, 0]  # negated
    e[:, 3] = 0.0  # zeroed
    e[:, 5] = 2.0 * e[:, 4]
    yield "duplicated_negated_zeroed", SampleMatrix(e, spec=A.spec)
    yield "repeated_blocks", SampleMatrix(np.repeat(A.entries[:, :3], 4, axis=1), spec=A.spec)
    yield "rounded_ties", SampleMatrix(np.round(2.0 * A.entries), spec=A.spec)


@pytest.mark.parametrize("name, A", [pytest.param(name, A, id=f"{name}-{A.n}x{A.N}") for name, A in _greedy_cases()])
def test_batched_greedy_matches_one_size_at_a_time(name, A):
    # Every interior m in one batch gives the values of one m at a time, bit
    # for bit, and each final vector is an m-sparse unit vector.
    e = A.entries
    ms = list(range(2, A.N))
    values, w = statistics._thresholded_power(e, ms, A.seed)
    assert values == [_one_size_power(e, m, A.seed) for m in ms], name
    assert w.shape == (A.N, len(ms) * statistics._POWER_STARTS)
    nonzeros = np.count_nonzero(w, axis=0).reshape(len(ms), -1)
    assert np.all(nonzeros <= np.asarray(ms)[:, None]), name
    np.testing.assert_allclose(np.linalg.norm(w[:, nonzeros.ravel() > 0], axis=0), 1.0, rtol=1e-14)


def test_greedy_profile_draws_its_starts_once(monkeypatch):
    A = sample_ensemble(EnsembleSpec("gaussian", 8, 32, 3))
    prof = sparse_norm_profile(A, mode="greedy")
    tags = []
    normal_columns = rng.normal_columns

    def spy(seed, cols, tag, n):
        tags.append(tag)
        return normal_columns(seed, cols, tag, n)

    monkeypatch.setattr(rng, "normal_columns", spy)
    assert np.array_equal(sparse_norm_profile(A, mode="greedy").a_m, prof.a_m)
    assert tags == [rng.TAG_SEARCH]
    # A single m runs the same search on the same starts.
    ms = prof.m_values.tolist()
    batched = [value for value, _ in statistics._sparse_norms(A, ms, "greedy")]
    assert batched == [sparse_norm(A, m, "greedy") for m in ms]


# --- truncation decomposition ------------------------------------------------


def _gaussian_excess_oracle(B):
    # E (g^2 - B^2) 1{|g| >= B} by direct quadrature against the normal pdf;
    # with no absolute tolerance, so a tiny tail is resolved too.
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    val, _ = quad(lambda t: (t * t - B * B) * pdf(t), B, np.inf, epsabs=0.0, epsrel=1e-12)
    return 2.0 * val


def test_gaussian_s3_matches_quadrature():
    # Up to B = 20 (s3 about 1e-88): an upper tail taken as 1 - Phi(B) cancels.
    A = sample_ensemble(EnsembleSpec("gaussian", 2, 100, 31))
    x = np.array([1.0, 0.0])
    for B in (0.25, 1.0, 2.5, 6.0, 8.0, 10.0, 20.0):
        split = truncation_split(A, x, B)
        assert math.isclose(split.s3, _gaussian_excess_oracle(B), rel_tol=1e-9), B


def test_ball_tail_excess_matches_quadrature():
    # The closed form against the ratio of two quadratures of the marginal
    # density (1 - (t/r)^2)^{(n-1)/2} on [-r, r], r = sqrt(n+2).
    for n in (1, 2, 3, 5, 8, 16, 32, 64, 128):
        tail = lambda B: EnsembleSpec("euclidean_ball", n, 1, 0).tail_excess(np.eye(n)[0], B)
        r = math.sqrt(n + 2.0)
        density = lambda t: max(1.0 - (t / r) ** 2, 0.0) ** ((n - 1) / 2.0)
        den, _ = quad(density, 0.0, r, limit=200)
        for B in np.linspace(0.0, r, 13)[1:-1]:
            num, _ = quad(lambda t: (t * t - B * B) * density(t), B, r, limit=200)
            assert math.isclose(tail(B), num / den, rel_tol=1e-10)
        assert tail(0.0) == 1.0
        for B in (math.nextafter(r, math.inf), r + 0.5, 3.0 * r):
            assert tail(B) == 0.0


def test_split_terms_recompute():
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 200, 32))
    x = np.array([3.0, 0.0, 4.0]) / 5.0
    B = 0.8
    split = truncation_split(A, x, B, psi=1.5)
    proj = x @ A.entries
    idx = np.nonzero(np.abs(proj) >= B)[0]
    assert np.array_equal(split.e_b_indices, idx)
    assert split.m_observed == idx.size
    assert math.isclose(split.s2, float(np.sum(proj[idx] ** 2 - B * B)) / 200, rel_tol=1e-12)
    expected_trunc = 1.0 - split.s3
    assert math.isclose(
        split.s1, abs(float(np.mean(np.minimum(np.abs(proj), B) ** 2)) - expected_trunc), rel_tol=1e-12
    )
    assert split.big_m == max(1.5**2 * 3, A.max_column_norm() ** 2)


def test_recombination_inequality():
    for family, B in (("gaussian", 1.0), ("euclidean_ball", 1.5), ("exponential_product", 1.0)):
        A = sample_ensemble(EnsembleSpec(family, 3, 500, 33))
        x = np.array([1.0, 0.0, 0.0])
        split = truncation_split(A, x, B)
        dev = direction_deviation(A, x)
        assert dev <= split.s1 + split.s2 + split.s3 + 1e-12


def test_fresh_sample_matches_analytic():
    A = sample_ensemble(EnsembleSpec("gaussian", 2, 100, 34))
    x = np.array([0.6, 0.8])
    B = 1.0
    analytic = truncation_split(A, x, B)
    fresh = truncation_split(A, x, B, expectation="fresh_sample")
    assert math.isclose(fresh.s3, analytic.s3, rel_tol=0.05)
    assert abs(fresh.s1 - analytic.s1) <= 0.05
    # The fresh route must also respect recombination exactly.
    dev = direction_deviation(A, x)
    assert dev <= fresh.s1 + fresh.s2 + fresh.s3 + 1e-12


@pytest.mark.parametrize("family", sampler.FAMILIES)
def test_tail_follows_the_family_row(family):
    # A row's closed-form tail is the analytic s3, which a 100,000-column
    # fresh sample must reproduce within the band above; a row with no tail,
    # like exponential_product off the axes, has no analytic s3.
    p = 3.0 if family == "lp_ball" else None
    has_tail = sampler._FAMILY_TABLE[family].tail is not None
    for n in (3, 16):
        A = sample_ensemble(EnsembleSpec(family, n, 200, 41, p))
        diagonal = np.full(n, n**-0.5)
        for x in (np.eye(n)[0], diagonal):
            off_axis = x is diagonal and family == "exponential_product"
            if not has_tail or off_axis:
                with pytest.raises(AnalyticUnavailableError):
                    truncation_split(A, x, 1.0, psi=1.5)
                continue
            for B in (0.5, 1.0, 2.0):
                analytic = truncation_split(A, x, B, psi=1.5)
                fresh = truncation_split(A, x, B, expectation="fresh_sample", fresh_T=100_000, psi=1.5)
                assert math.isclose(fresh.s3, analytic.s3, rel_tol=0.05), (n, B, x)


def test_split_limits():
    for family in ("gaussian", "euclidean_ball", "exponential_product"):
        A = sample_ensemble(EnsembleSpec(family, 2, 50, 35))
        x = np.array([1.0, 0.0])
        at_zero = truncation_split(A, x, 0.0)
        # B = 0 puts every draw in the excess set and s3 = E g^2 = 1.
        assert at_zero.m_observed == 50
        assert math.isclose(at_zero.s3, 1.0, rel_tol=1e-12)
        assert at_zero.s1 <= 1e-12
        at_inf = truncation_split(A, x, math.inf)
        assert at_inf.m_observed == 0
        assert at_inf.s2 == 0.0 and at_inf.s3 == 0.0
        assert math.isclose(at_inf.s1, direction_deviation(A, x), rel_tol=1e-12)
        # A level whose square is near or past the float64 range has an empty
        # tail too (RuntimeWarnings are errors under pytest).
        for B in (1e154, 1e160, 1e200):
            huge = truncation_split(A, x, B)
            assert huge.m_observed == 0, (family, B)
            assert huge.s2 == 0.0 and huge.s3 == 0.0, (family, B)
            assert huge.s1 == at_inf.s1, (family, B)
        # The fresh expectation applies the sample's own truncated-moment rule,
        # so both limits come out exactly.
        fresh_inf = truncation_split(A, x, math.inf, expectation="fresh_sample", fresh_T=4096)
        assert fresh_inf.m_observed == 0
        assert fresh_inf.s2 == 0.0 and fresh_inf.s3 == 0.0
        assert fresh_inf.s1 == direction_deviation(A, x)
        fresh_zero = truncation_split(A, x, 0.0, expectation="fresh_sample", fresh_T=4096)
        assert fresh_zero.m_observed == 50
        assert fresh_zero.s3 == 1.0 and fresh_zero.s1 == 0.0


@pytest.mark.parametrize("family", ["gaussian", "euclidean_ball", "exponential_product"])
def test_fresh_split_streams_past_the_sample_budget(family, monkeypatch):
    # With a budget of 4096 entries, a 4 x 4096 fresh sample comes in 4
    # chunks of 1024 columns; the split equals the one-chunk split exactly.
    A = sample_ensemble(EnsembleSpec(family, 4, 64, 8))
    x = np.array([1.0, 0.0, 0.0, 0.0])

    def split():
        s = truncation_split(A, x, 1.0, expectation="fresh_sample", fresh_T=4096, psi=1.5)
        return s.s1, s.s2, s.s3, s.m_observed

    one_chunk = split()
    calls = []
    columns = sampler._columns
    monkeypatch.setattr(sampler, "MAX_ELEMENTS", 1 << 12)
    monkeypatch.setattr(sampler, "_columns", lambda spec, cols, tag: calls.append(cols) or columns(spec, cols, tag))
    assert split() == one_chunk
    assert calls == [range(j, j + 1024) for j in range(0, 4096, 1024)]


def test_fresh_split_memory_and_chunks(monkeypatch):
    # The default 100,000 fresh columns at n = 16 come in 13 chunks of at
    # most CHUNK_COLUMNS columns, so the traced peak stays far below the
    # 12.8 MB of the whole fresh matrix.
    A = sample_ensemble(EnsembleSpec("gaussian", 16, 64, 8))
    x = np.eye(16)[0]

    def split():
        return truncation_split(A, x, 1.0, expectation="fresh_sample", fresh_T=100_000, psi=1.5)

    split()  # warm up lazily allocated state
    tracemalloc.start()
    try:
        split()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
    widths = []
    columns = sampler._columns
    monkeypatch.setattr(sampler, "_columns", lambda spec, cols, tag: widths.append(len(cols)) or columns(spec, cols, tag))
    split()
    assert len(widths) == 13 and max(widths) <= sampler.CHUNK_COLUMNS and sum(widths) == 100_000


def test_fresh_split_refuses_more_projections_than_the_budget(monkeypatch):
    A = sample_ensemble(EnsembleSpec("gaussian", 4, 64, 8))
    words = []
    raw_words = rng.raw_words
    monkeypatch.setattr(rng, "raw_words", lambda *args, **kw: words.append(args) or raw_words(*args, **kw))
    monkeypatch.setattr(sampler, "MAX_ELEMENTS", 1 << 12)
    with pytest.raises(ResourceError, match="fresh_T"):
        truncation_split(A, np.array([1.0, 0.0, 0.0, 0.0]), 1.0, expectation="fresh_sample", fresh_T=4097, psi=1.5)
    assert words == []


def test_analytic_unavailable_routes():
    expo = sample_ensemble(EnsembleSpec("exponential_product", 2, 20, 36))
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(AnalyticUnavailableError):
        truncation_split(expo, diag, 1.0)
    # Coordinate directions stay available.
    truncation_split(expo, np.array([0.0, 1.0]), 1.0)
    rad = sample_ensemble(EnsembleSpec("rademacher_control", 2, 20, 37))
    with pytest.raises(AnalyticUnavailableError):
        truncation_split(rad, np.array([1.0, 0.0]), 1.0)
    # A matrix with no spec has neither mode, and neither refusal points to the other.
    bare = SampleMatrix(entries=np.array([[1.0, -1.0]]), spec=None)
    both = "^both expectation modes need the generating spec; this matrix has none$"
    with pytest.raises(AnalyticUnavailableError, match=both):
        truncation_split(bare, np.array([1.0]), 1.0)
    with pytest.raises(ContractError, match=both):
        truncation_split(bare, np.array([1.0]), 1.0, expectation="fresh_sample")


def test_split_validation():
    A = sample_ensemble(EnsembleSpec("gaussian", 2, 10, 38))
    with pytest.raises(ContractError):
        truncation_split(A, np.array([1.0, 1.0]), 1.0)  # not unit
    with pytest.raises(ContractError):
        truncation_split(A, np.array([np.nan, 0.0]), 1.0)  # NaN norm
    with pytest.raises(ContractError):
        truncation_split(A, np.array([1.0]), 1.0)  # wrong dimension
    with pytest.raises(ContractError):
        truncation_split(A, np.array([1.0, 0.0]), -0.5)
    with pytest.raises(ContractError):
        truncation_split(A, np.array([1.0, 0.0]), 1.0, expectation="bootstrap")
    for bad in (0, 2.5, True):
        with pytest.raises(ContractError, match="fresh_T"):
            truncation_split(A, np.array([1.0, 0.0]), 1.0, expectation="fresh_sample", fresh_T=bad)


def test_direction_deviation_hand_value():
    A = SampleMatrix(entries=np.array([[2.0, 0.0]]), spec=None)
    assert direction_deviation(A, np.array([1.0])) == 1.0
    # The direction rule of truncation_split: unit norm, the matrix's n.
    B = sample_ensemble(EnsembleSpec("gaussian", 3, 10, 38))
    for bad, match in (([5.0, 0.0, 0.0], "unit vector"), ([np.nan, 0.0, 0.0], "unit vector"), ([1.0, 0.0], "dimension")):
        with pytest.raises(ContractError, match=match):
            direction_deviation(B, np.array(bad))


# --- sphere nets -------------------------------------------------------------


def test_net_dimension_one():
    net = build_net(1, 0.5)
    assert np.array_equal(net.points, np.array([[1.0], [-1.0]]))


def test_net_separation_and_size():
    for n in (2, 3, 4, 5):
        net = build_net(n, 1.0 / 3.0)
        pts = net.points
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        gram = pts @ pts.T
        d2 = 2.0 - 2.0 * gram
        np.fill_diagonal(d2, np.inf)
        assert d2.min() > (1.0 / 3.0) ** 2
        assert len(pts) <= 7**n


def test_net_covers_the_sphere():
    for n in (2, 3, 4):
        net = build_net(n, 1.0 / 3.0)
        for seed in range(5):
            assert net_covering_radius_probe(net, probes=100_000, seed=seed) <= 1.0 / 3.0


def test_net_probe_memory_is_blocked():
    # One 100,000 x 384 distance matrix is 293 MiB; the probe compares in
    # blocks of at most 2^22 distances instead.
    net = build_net(4, 1.0 / 3.0)
    net_covering_radius_probe(net, probes=10)  # warm up lazily allocated state
    tracemalloc.start()
    try:
        net_covering_radius_probe(net, probes=100_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100 << 20


#: sha256 of build_net(n, 1/3).points, as float64 bytes in row order.
NET_SHA256 = {
    3: "5824c5b0d055aa1715cd882db7a64614cdf9f3a8133a3a1d0d3a199337c61b02",
    4: "09d0f3ed5c772f96c538603ef320fba67a4f61d8296f6ee54a6fbc74a461a810",
    5: "bfb09cda6ddf7d2bd704ca4ab47dc6bad79d297be2b53182b9bbf4f9f2c2d9a0",
    6: "595905b94d6e009916c9684788155f7483ea109d49ff9f1df3e2fdb23eb2c5c2",
}


def test_net_points_are_pinned():
    # Guards the greedy pass: a change in how candidates are blocked must
    # not move, add or drop a point.
    for n, digest in NET_SHA256.items():
        points = build_net(n, 1.0 / 3.0).points
        assert hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest() == digest, n


def test_net_probe_radius_is_pinned():
    # 4097 probes span several blocks; 2 - 2 max<q, y> must give the bits of
    # min(2 - 2<q, y>), since fl(2 - 2y) is monotone in y.
    radii = {n: net_covering_radius_probe(build_net(n, 1.0 / 3.0), 4097, 7) for n in (3, 6)}
    assert {n: repr(r) for n, r in radii.items()} == {3: "0.32536814210208664", 6: "0.37045716974690995"}


def test_net_has_no_deep_hole():
    # Each hull facet a.x + b = 0 bounds an empty cap of squared chord radius
    # 2 + 2b; the covering radius is the largest of these.
    for n in (2, 3, 4, 5):
        pts = build_net(n, 1.0 / 3.0).points
        equations = ConvexHull(pts).equations
        assert np.sqrt(2.0 + 2.0 * equations[:, n]).max() <= 1.0 / 3.0


def test_net_cloud_is_the_net_tag_stream():
    # The greedy pass always keeps candidate 0, the first draw of seed 0
    # under TAG_NET, normalised.
    g = rng.normal_columns(0, range(1), rng.TAG_NET, 3).T
    assert np.array_equal(build_net(3, 1.0 / 3.0).points[:1], g / np.linalg.norm(g, axis=1)[:, None])


def test_net_cache_consistency():
    a = build_net(3, 0.25)
    b = build_net(3, 0.25)
    assert np.array_equal(a.points, b.points)
    d = a.to_json_dict()
    assert d["size"] == len(a.points) and d["n"] == 3


def test_net_points_are_read_only():
    # The points are the net cache's own array: a write must not reach the
    # next build.
    first = build_net(2, 0.5)
    before = first.points.copy()
    with pytest.raises(ValueError):
        first.points[0] = 0.0
    assert np.array_equal(build_net(2, 0.5).points, before)
    with pytest.raises(ValueError):
        build_net(1, 0.5).points[0] = 0.0


def test_net_validation():
    for bad in (0, 9, 2.0, True):
        with pytest.raises(ContractError):
            build_net(bad, 0.5)
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ContractError):
            build_net(2, eps)
    net = build_net(2, 0.5)
    for probes, seed in ((0, 0), (1.5, 0), (True, 0), (10, 1.5), (10, True), (10, -1), (10, 1 << 64)):
        with pytest.raises(ContractError):
            net_covering_radius_probe(net, probes=probes, seed=seed)


def test_net_sup_matches_direct_evaluation():
    A = sample_ensemble(EnsembleSpec("gaussian", 2, 30, 40))
    net = build_net(2, 1.0 / 3.0)
    T = (A.entries @ A.entries.T) / 30 - np.eye(2)
    direct = max(abs(float(y @ T @ y)) for y in net.points)
    assert math.isclose(net_sup_deviation(A, net), direct, rel_tol=1e-12)
    with pytest.raises(ContractError):
        net_sup_deviation(sample_ensemble(EnsembleSpec("gaussian", 3, 5, 1)), net)


def test_net_sandwiches_operator_deviation():
    # For a (1/3)-net: sup over the net <= ||T|| <= 3 sup over the net; the
    # upper factor gets a covering-slack allowance.
    for seed in (50, 51):
        A = sample_ensemble(EnsembleSpec("gaussian", 3, 12, seed))
        net = build_net(3, 1.0 / 3.0)
        sup_net = net_sup_deviation(A, net)
        dev = operator_deviation(A).deviation
        assert sup_net <= dev + 1e-12
        assert dev <= 4.5 * sup_net
