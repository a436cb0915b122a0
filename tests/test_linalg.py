"""Jacobi eigensolver and deviation measurements, checked against oracles.

The deviation path reads its extremal eigenvalues from LAPACK; the Jacobi
solver is the reference it is cross-checked against."""

import math
import warnings

import numpy as np
import pytest

from covcon import cli
from covcon.errors import ContractError, NumericalError
from covcon.linalg import (
    boundedness_ratio,
    gram_covariance,
    matrix_norm,
    operator_deviation,
    sym_eigen,
)
from covcon.sampler import FAMILIES, EnsembleSpec, SampleMatrix, sample_ensemble
from covcon.statistics import build_net, net_sup_deviation


def _spectrum_of(full):
    return sym_eigen(np.asarray(full, dtype=np.float64))


def _power_norm(entries, iters=2_000):
    """Independent operator-norm oracle: power iteration on A A^T."""
    gram = entries @ entries.T
    v = np.ones(gram.shape[0]) / math.sqrt(gram.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return math.sqrt(lam)


# --- symmetric input ---------------------------------------------------------


def test_sym_eigen_symmetrizes_input():
    rng = np.random.default_rng(5)
    full = rng.standard_normal((6, 6))
    got = sym_eigen(full)
    want = sym_eigen(0.5 * (full + full.T))
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.basis, want.basis)
    assert got.residual == want.residual


def test_gram_covariance_is_exactly_symmetric():
    for spec in (EnsembleSpec("gaussian", 7, 50, 5), EnsembleSpec("exponential_product", 33, 20, 6)):
        G = gram_covariance(sample_ensemble(spec))
        assert G.shape == (spec.n, spec.n)
        assert np.array_equal(G, G.T)


def test_sym_eigen_validation():
    with pytest.raises(ContractError):
        sym_eigen(np.zeros((0, 0)))
    with pytest.raises(ContractError):
        sym_eigen(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --- eigendecomposition ------------------------------------------------------


def test_eigen_identity():
    spec = _spectrum_of(np.eye(4))
    assert np.array_equal(spec.eigenvalues, np.ones(4))
    assert spec.residual <= 1e-14


def test_eigen_2x2_analytic():
    # [[2,1],[1,2]] has eigenvalues 1 and 3 with eigenvectors (1,-1), (1,1).
    spec = _spectrum_of([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
    assert abs(abs(spec.basis[0, 0]) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_eigen_3x3_analytic():
    # I + ones(3) has eigenvalues {1, 1, 4}.
    spec = _spectrum_of(np.eye(3) + np.ones((3, 3)))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 4.0], atol=1e-12)


def test_eigenvalues_kill_characteristic_polynomial():
    rng = np.random.default_rng(17)
    full = rng.standard_normal((5, 5))
    sym = 0.5 * (full + full.T)
    spec = _spectrum_of(sym)
    # Independent oracle: each eigenvalue must annihilate det(M - x I),
    # evaluated directly from the matrix (no eigensolver involved).
    scale = float(np.linalg.norm(sym)) ** 5
    for lam in spec.eigenvalues:
        assert abs(np.linalg.det(sym - lam * np.eye(5))) <= 1e-8 * max(scale, 1.0)


def test_eigen_invariants_random():
    rng = np.random.default_rng(23)
    for dim in (2, 5, 9, 16):
        full = rng.standard_normal((dim, dim))
        sym = 0.5 * (full + full.T)
        spec = _spectrum_of(sym)
        v, lam = spec.basis, spec.eigenvalues
        assert np.all(np.diff(lam) >= 0.0)
        assert np.linalg.norm(v @ v.T - np.eye(dim)) <= 1e-10
        assert np.linalg.norm((v * lam) @ v.T - sym) <= 1e-10 * max(1.0, np.linalg.norm(sym))
        assert math.isclose(float(lam.sum()), float(np.trace(sym)), abs_tol=1e-10 * dim)


def test_eigen_reports_non_convergence():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(NumericalError, match="off-diagonal"):
        sym_eigen(M, max_sweeps=0)


# --- gram / deviation --------------------------------------------------------


def test_gram_matches_triple_loop():
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 11, 31))
    e = A.entries
    manual = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for k in range(11):
                acc += e[i, k] * e[j, k]
            manual[i, j] = acc / 11
    got = gram_covariance(A)
    assert np.allclose(got, 0.5 * (manual + manual.T), atol=1e-13)


def test_matrix_norm_vs_power_iteration():
    for spec in (
        EnsembleSpec("gaussian", 4, 40, 41),
        EnsembleSpec("gaussian", 12, 6, 42),  # wide regime: small Gram path
    ):
        A = sample_ensemble(spec)
        assert math.isclose(matrix_norm(A), _power_norm(A.entries), rel_tol=1e-10)


def test_deviation_hand_value_1x1():
    # n = N = 1: AA^T/N = X^2, so the deviation is |X^2 - 1| exactly.
    A = sample_ensemble(EnsembleSpec("gaussian", 1, 1, 3))
    x = float(A.entries[0, 0])
    rep = operator_deviation(A)
    assert rep.deviation == abs(x * x - 1.0)
    assert rep.lambda_min == rep.lambda_max == x * x


def test_deviation_report_fields():
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 50, 77))
    rep = operator_deviation(A)
    assert (rep.n, rep.N, rep.seed) == (3, 50, 77)
    assert 0.0 <= rep.lambda_min <= rep.lambda_max
    lam = np.linalg.eigvalsh(A.entries @ A.entries.T)
    assert math.isclose(rep.lambda_min, float(lam[0]), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(rep.lambda_max, float(lam[-1]), rel_tol=1e-9)
    assert math.isclose(
        rep.deviation,
        max(abs(rep.lambda_max / 50 - 1.0), abs(rep.lambda_min / 50 - 1.0)),
        rel_tol=1e-12,
    )
    assert rep.max_col_norm == A.max_column_norm()
    d = rep.to_json_dict()
    assert set(d) == {
        "n", "N", "lambda_min", "lambda_max", "deviation",
        "max_col_norm", "boundedness_ratio", "seed",
    }


def test_deviation_wide_regime():
    # N < n: rank(AA^T) <= N < n forces lambda_min = 0 and deviation >= 1.
    A = sample_ensemble(EnsembleSpec("gaussian", 9, 4, 13))
    rep = operator_deviation(A)
    assert rep.lambda_min == 0.0
    assert rep.deviation >= 1.0
    assert math.isclose(math.sqrt(rep.lambda_max), matrix_norm(A), rel_tol=1e-10)


def _oracle_extremes(A):
    """(lambda_min, lambda_max, ||G||) of G = A A^T / N by Jacobi."""
    lam = sym_eigen(gram_covariance(A)).eigenvalues
    return float(lam[0]), float(lam[-1]), float(np.abs(lam).max())


@pytest.mark.parametrize("family", FAMILIES)
def test_lapack_extremes_match_jacobi_oracle(family):
    p = 3.0 if family == "lp_ball" else None
    shapes = [(n, N) for n in (16, 32, 64) for N in (256, 1024, 4096)] + [(24, 8)]
    for k, (n, N) in enumerate(shapes):
        A = sample_ensemble(EnsembleSpec(family, n, N, 900 + k, p))
        rep = operator_deviation(A)
        lo, hi, norm = _oracle_extremes(A)
        # A wide cell's n x n Gram has rank N < n: Jacobi finds, to
        # rounding, the zero that the small-side path reports exactly.
        assert abs(rep.lambda_min / N - lo) <= 1e-12 * norm, (n, N)
        assert abs(rep.lambda_max / N - hi) <= 1e-12 * norm, (n, N)


def test_deviation_rejects_overflowing_gram():
    # The entries are finite but their Gram matrix is not: every Gram path
    # refuses it with one message, without a warning.
    A = SampleMatrix(entries=np.full((2, 3), 1e200), spec=EnsembleSpec("gaussian", 2, 3, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = build_net(2, 0.5)
        for measure in (operator_deviation, matrix_norm, gram_covariance, lambda A: net_sup_deviation(A, net)):
            with pytest.raises(ContractError, match="^the Gram matrix overflows"):
                measure(A)


def test_lapack_failure_is_a_numerical_error(monkeypatch, capsys):
    A = sample_ensemble(EnsembleSpec("gaussian", 3, 8, 1))

    def no_convergence(_gram):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericalError, match="did not converge"):
        operator_deviation(A)
    with pytest.raises(NumericalError):
        matrix_norm(A)
    assert cli.main(["deviation", "--family", "gaussian", "--n", "3", "--N", "8", "--seed", "1"]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_lambda_max_monotone_in_columns():
    # Appending a column can only grow the top eigenvalue of AA^T.
    full = sample_ensemble(EnsembleSpec("gaussian", 4, 30, 55))
    prev = 0.0
    for N in (10, 20, 30):
        sub = SampleMatrix(entries=full.entries[:, :N], spec=None)
        lam = operator_deviation(sub).lambda_max
        assert lam >= prev - 1e-12
        prev = lam


def test_boundedness_ratio_arithmetic():
    assert boundedness_ratio(4, 4, 6.0) == 3.0
    # N/n = 16 gives regime factor 2: ratio = 6 / (2 * 2) = 1.5.
    assert boundedness_ratio(4, 64, 6.0) == 1.5
