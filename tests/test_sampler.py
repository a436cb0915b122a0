"""Ensemble sampling: isotropy, supports, determinism, family tokens."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from covcon import rng, sampler
from covcon.errors import ContractError, ResourceError
from covcon.sampler import (
    EnsembleSpec,
    SampleMatrix,
    isotropic_scale,
    sample_ensemble,
)

ALL_SPECS = [
    EnsembleSpec("gaussian", 4, 50_000, 11),
    EnsembleSpec("euclidean_ball", 4, 50_000, 12),
    EnsembleSpec("exponential_product", 4, 50_000, 13),
    EnsembleSpec("lp_ball", 4, 50_000, 14, p=1.5),
    EnsembleSpec("rademacher_control", 4, 50_000, 15),
]


# --- spec validation ---------------------------------------------------------


def test_spec_rejects_bad_fields():
    with pytest.raises(ContractError):
        EnsembleSpec("triangular", 2, 2, 0)
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 0, 2, 0)
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 2, 0, 0)
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", True, 8, 0)  # bool is an int subclass
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 2, True, 0)
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 2, 4, True)
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 2, 2, -1)
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 2, 2, 1 << 64)
    with pytest.raises(ContractError):
        EnsembleSpec("lp_ball", 2, 2, 0)  # missing p
    with pytest.raises(ContractError):
        EnsembleSpec("lp_ball", 2, 2, 0, p=0.5)  # non-convex ball
    with pytest.raises(ContractError):
        EnsembleSpec("gaussian", 2, 2, 0, p=2.0)  # p without lp_ball


def test_sample_matrix_takes_array_likes():
    A = SampleMatrix(entries=[[1.0, 2.0]])
    assert A.entries.dtype == np.float64 and A.entries.flags["C_CONTIGUOUS"]
    assert A.entries.tolist() == [[1.0, 2.0]]
    with pytest.raises(ContractError, match="2-D"):
        SampleMatrix(entries=[1.0, 2.0])
    with pytest.raises(ContractError, match="numeric"):
        SampleMatrix(entries=[[1.0], [2.0, 3.0]])
    with pytest.raises(ContractError, match="numeric"):
        SampleMatrix(entries=[["a", "b"]])
    with pytest.raises(ContractError, match="non-finite"):
        SampleMatrix(entries=[[1.0, float("nan")]])
    with pytest.raises(ContractError, match=r"entries shape \(2, 3\) does not match spec \(3, 2\)"):
        SampleMatrix(entries=np.zeros((2, 3)), spec=EnsembleSpec("gaussian", 3, 2, 0))


def test_log_concave_flag():
    assert EnsembleSpec("gaussian", 2, 2, 0).log_concave
    assert EnsembleSpec("lp_ball", 2, 2, 0, p=1.0).log_concave
    assert not EnsembleSpec("rademacher_control", 2, 2, 0).log_concave


def test_memory_budget():
    with pytest.raises(ResourceError):
        sample_ensemble(EnsembleSpec("gaussian", 1 << 13, 1 << 13, 0))


# --- isotropic scales --------------------------------------------------------


def test_scale_gaussian_is_unit():
    assert isotropic_scale("gaussian", 3) == 1.0
    assert isotropic_scale("rademacher_control", 3) == 1.0


def test_scale_ball_radius():
    for n in (1, 2, 7, 64):
        assert math.isclose(isotropic_scale("euclidean_ball", n), math.sqrt(n + 2), rel_tol=1e-14)


def test_scale_cube_is_sqrt3():
    assert math.isclose(isotropic_scale("lp_ball", 3, p=math.inf), math.sqrt(3.0), rel_tol=1e-10)


def test_scale_lp2_matches_ball():
    # The l2 ball through the Gamma-ratio route must agree with the closed
    # radial-moment form used for euclidean_ball.
    for n in (2, 5, 16):
        via_lp = isotropic_scale("lp_ball", n, p=2.0)
        via_ball = isotropic_scale("euclidean_ball", n)
        assert math.isclose(via_lp, via_ball, rel_tol=1e-10)


def test_scale_requires_p_only_for_lp():
    with pytest.raises(ContractError, match="lp_ball requires the exponent p"):
        isotropic_scale("lp_ball", 3)
    with pytest.raises(ContractError, match="lp_ball requires p >= 1, got 0.5"):
        isotropic_scale("lp_ball", 3, p=0.5)
    with pytest.raises(ContractError, match="gaussian takes no exponent, got p=2.0"):
        isotropic_scale("gaussian", 3, p=2.0)


@pytest.mark.parametrize("family", sampler.FAMILIES)
def test_exponent_follows_the_family_row(family):
    # A family's row decides whether it takes p, and the token 'name(1.5)'
    # gets the same verdict as a spec built with p = 1.5.
    p_min = sampler._FAMILY_TABLE[family].p_min
    name, p = sampler.parse_family_token(f"{family}(1.5)")
    assert (name, p) == (family, 1.5)
    if p_min is None:
        assert EnsembleSpec(family, 2, 3, 0).p is None
        with pytest.raises(ContractError, match=f"{family} takes no exponent, got p=1.5"):
            EnsembleSpec(name, 2, 3, 0, p=p)
    else:
        assert EnsembleSpec(name, 2, 3, 0, p=p).p == 1.5
        with pytest.raises(ContractError, match=f"{family} requires the exponent p"):
            EnsembleSpec(family, 2, 3, 0)
        with pytest.raises(ContractError, match=f"{family} requires p >= "):
            EnsembleSpec(family, 2, 3, 0, p=p_min - 0.5)


# --- sampling: determinism, isotropy, supports -------------------------------


def test_determinism_bitwise():
    for spec in (
        EnsembleSpec("gaussian", 1, 3, 7),
        EnsembleSpec("euclidean_ball", 3, 17, 7),
        EnsembleSpec("lp_ball", 3, 17, 7, p=1.0),
    ):
        a = sample_ensemble(spec)
        b = sample_ensemble(spec)
        assert np.array_equal(a.entries, b.entries)
        assert np.isfinite(a.entries).all()
    assert not np.array_equal(
        sample_ensemble(EnsembleSpec("gaussian", 2, 5, 1)).entries,
        sample_ensemble(EnsembleSpec("gaussian", 2, 5, 2)).entries,
    )


LAYOUT_SPECS = [
    EnsembleSpec("gaussian", 5, 40, 21),
    EnsembleSpec("euclidean_ball", 5, 40, 22),
    EnsembleSpec("exponential_product", 5, 40, 23),
    EnsembleSpec("lp_ball", 5, 40, 24, p=1.5),
    EnsembleSpec("lp_ball", 5, 40, 25, p=math.inf),
    EnsembleSpec("rademacher_control", 5, 40, 26),
]


def _token(spec):
    return spec.family if spec.p is None else f"{spec.family}({spec.p:g})"


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=_token)
def test_fixed_word_layout_makes_chunking_exact(spec):
    # Column j reads a fixed window of its own stream, so a narrower draw is
    # exactly a prefix of a wider one.
    full = sample_ensemble(spec).entries
    for k in (1, 7, 39):
        assert np.array_equal(sample_ensemble(replace(spec, N=k)).entries, full[:, :k])
    n = spec.n
    if spec.family == "gaussian":
        for j in (0, 17):
            expected = rng.normal_from_words(rng.raw_words(spec.seed, range(j, j + 1), rng.TAG_COLUMNS, n))
            assert np.array_equal(full[:, j], expected[:, 0])
    elif spec.family == "euclidean_ball":
        # Words 0..n-1 give the direction, word n the radius r U^{1/n}.
        words = rng.raw_words(spec.seed, range(spec.N), rng.TAG_COLUMNS, n + 1)
        g = rng.normal_from_words(words[:n])
        radius = math.sqrt(n + 2.0) * rng.uniform_open(words[n]) ** (1.0 / n)
        assert np.allclose(np.linalg.norm(full, axis=0), radius, rtol=1e-13, atol=0.0)
        assert np.allclose(full, g * (radius / np.linalg.norm(g, axis=0)), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=_token)
def test_column_ranges_equal_the_full_draw(spec):
    # Any contiguous range of columns, drawn on its own, is bit-identical to
    # the same columns of the full matrix: the property chunked sampling
    # rests on.
    full = sample_ensemble(spec).entries
    for j0, j1 in ((1, 2), (3, 11), (13, 40), (39, 40)):
        chunk = sampler._columns(spec, range(j0, j1))
        assert chunk.shape == (spec.n, j1 - j0)
        assert np.array_equal(chunk, full[:, j0:j1])
    fresh = sampler._columns(spec, range(spec.N), rng.TAG_FRESH)
    assert np.array_equal(sampler._columns(spec, range(5, 9), rng.TAG_FRESH), fresh[:, 5:9])


WORDS_PER_COLUMN = {
    "gaussian": lambda n: n,
    "euclidean_ball": lambda n: n + 1,
    "exponential_product": lambda n: n,
    "lp_ball(1.5)": lambda n: 2 * n + 1,
    "lp_ball(inf)": lambda n: n,
    "rademacher_control": lambda n: n,
}


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=_token)
def test_each_family_reads_its_documented_words(spec, monkeypatch):
    calls = []
    raw_words = rng.raw_words

    def spy(seed, streams, tag, count):
        calls.append((seed, streams, tag, count))
        return raw_words(seed, streams, tag, count)

    monkeypatch.setattr(rng, "raw_words", spy)
    sample_ensemble(spec)
    count = WORDS_PER_COLUMN[_token(spec)](spec.n)
    assert calls == [(spec.seed, range(spec.N), rng.TAG_COLUMNS, count)]


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=_token)
def test_whole_draw_is_the_column_block_stream(spec, monkeypatch):
    # The refusal n*N <= MAX_ELEMENTS keeps MAX_ELEMENTS // n >= N, so a
    # whole draw spans several blocks only through CHUNK_COLUMNS: 40 columns
    # in 7-column blocks come as five full blocks and a 5-column tail.
    whole = sampler._columns(spec, range(spec.N), rng.TAG_COLUMNS)
    widths = []
    columns = sampler._columns
    monkeypatch.setattr(sampler, "CHUNK_COLUMNS", 7)
    monkeypatch.setattr(sampler, "_columns", lambda spec, cols, tag: widths.append(len(cols)) or columns(spec, cols, tag))
    assert np.array_equal(sample_ensemble(spec).entries, whole)
    assert widths == [7] * 5 + [5]
    widths.clear()
    monkeypatch.setattr(sampler, "MAX_ELEMENTS", 3 * spec.n)
    blocks = list(sampler.column_blocks(spec, rng.TAG_FRESH))
    assert widths == [3] * 13 + [1]
    assert np.array_equal(np.hstack(blocks), columns(spec, range(spec.N), rng.TAG_FRESH))


@pytest.mark.parametrize("p", [800.0, 2000.0, 1e5])
def test_lp_ball_stays_isotropic_at_large_p(p):
    # The Gamma(1/p) quantile underflows here; the draw must not collapse
    # coordinates to 0.
    A = sample_ensemble(EnsembleSpec("lp_ball", 4, 50_000, 3, p=p))
    assert np.count_nonzero(A.entries == 0.0) == 0
    assert np.all(np.abs((A.entries**2).mean(axis=1) - 1.0) <= 0.03)


@pytest.mark.parametrize("family", ["gaussian", "exponential_product", "euclidean_ball"])
def test_sampling_memory_multiple(family):
    # The draw writes CHUNK_COLUMNS-column blocks into the preallocated n x N
    # matrix, so only the matrix and its finiteness mask are full-size.
    spec = EnsembleSpec(family, 16, 100_000, 3)
    sample_ensemble(replace(spec, N=64))  # warm up lazily allocated state
    tracemalloc.start()
    try:
        mat = sample_ensemble(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * mat.entries.nbytes


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_isotropy_and_centering(spec):
    A = sample_ensemble(spec)
    T = spec.N
    e = A.entries
    # Standard errors: coordinate mean has sd 1/sqrt(T); products use the
    # empirical sd of the product variable.
    mean = e.mean(axis=1)
    assert np.all(np.abs(mean) <= 5.0 / math.sqrt(T))
    cov = (e @ e.T) / T
    for i in range(spec.n):
        se = np.std(e[i] ** 2) / math.sqrt(T)
        assert abs(cov[i, i] - 1.0) <= 5.0 * se
        for j in range(i + 1, spec.n):
            se = np.std(e[i] * e[j]) / math.sqrt(T)
            assert abs(cov[i, j]) <= 5.0 * se


def test_ball_support_bound():
    A = sample_ensemble(EnsembleSpec("euclidean_ball", 2, 100, 1))
    assert A.max_column_norm() <= 2.0
    B = sample_ensemble(EnsembleSpec("euclidean_ball", 7, 4096, 3))
    assert B.max_column_norm() <= math.sqrt(9.0)


def test_lp_support_bound():
    p = 1.5
    A = sample_ensemble(EnsembleSpec("lp_ball", 3, 512, 5, p=p))
    factor = isotropic_scale("lp_ball", 3, p=p)
    constraint = np.sum((np.abs(A.entries) / factor) ** p, axis=0)
    assert np.all(constraint <= 1.0 + 1e-12)


def test_rademacher_entries_are_signs():
    A = sample_ensemble(EnsembleSpec("rademacher_control", 3, 256, 9))
    assert set(np.unique(A.entries)) == {-1.0, 1.0}


def test_exponential_variance_anchor():
    A = sample_ensemble(EnsembleSpec("exponential_product", 1, 100_000, 3))
    var = float((A.entries**2).mean())
    assert abs(var - 1.0) <= 5.0 / math.sqrt(100_000) * math.sqrt(20.0)
    # Coordinate law is symmetric exponential with unit variance: E Y^4 = 6.
    assert math.isclose(float((A.entries**4).mean()), 6.0, rel_tol=0.15)


def test_lp2_matches_ball_in_law():
    # Two-sample Kolmogorov-Smirnov on the column norms, 1% critical value.
    T = 10_000
    ball = sample_ensemble(EnsembleSpec("euclidean_ball", 3, T, 21))
    lp2 = sample_ensemble(EnsembleSpec("lp_ball", 3, T, 22, p=2.0))
    x = np.sort(ball.column_norms())
    y = np.sort(lp2.column_norms())
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / T
    fy = np.searchsorted(y, grid, side="right") / T
    d = float(np.abs(fx - fy).max())
    critical = 1.628 * math.sqrt(2.0 / T)
    assert d < critical


# --- family tokens -----------------------------------------------------------


def test_family_token_round_trip():
    assert sampler.parse_family_token("gaussian") == ("gaussian", None)
    assert sampler.parse_family_token("lp_ball(1.5)") == ("lp_ball", 1.5)
    assert sampler.parse_family_token("lp_ball") == ("lp_ball", None)
    assert sampler.parse_family_token(" lp_ball(inf) ") == ("lp_ball", math.inf)
    assert sampler.parse_family_token("gaussian(2)") == ("gaussian", 2.0)  # EnsembleSpec refuses the p
    for bad in ("cauchy", "cauchy(2)", "lp_ball(1.5", "lp_ball (1.5)"):
        with pytest.raises(ContractError, match="unknown family token"):
            sampler.parse_family_token(bad)
    for bad in ("lp_ball()", "lp_ball(x)", "lp_ball(1.5))"):
        with pytest.raises(ContractError, match="bad lp_ball exponent"):
            sampler.parse_family_token(bad)
