"""Dense symmetric spectral computations for empirical covariance matrices.

The deviation of interest is ||A A^T / N - I|| (operator norm).  For an
isotropic ensemble this equals sup over unit x of |(1/N) sum <X_i, x>^2 - 1|,
and both are read off the extremal eigenvalues of the Gram matrix on the
cheaper side: A A^T (n x n) when n <= N, A^T A (N x N) otherwise, with
eigenvalues transported (A A^T then has n - N extra zeros).  Only those two
eigenvalues are needed, so the measurement path calls LAPACK's symmetric
eigenvalue routine (numpy.linalg.eigvalsh) and builds no eigenvectors.

gram_covariance gives A A^T / N itself as a plain, exactly symmetric n x n
array.  sym_eigen, a threshold cyclic Jacobi iteration on such an array, is
the reference eigensolver: quadratically convergent, dependency-free, and
with directly assertable accuracy invariants (orthogonality, reconstruction,
trace).  It computes small eigenvalues to high relative accuracy (Demmel &
Veselic, "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
Appl. 1992), which is why the tests check the LAPACK path against it.  Its
O(dim^3)-per-sweep Python loop is meant for desk scale (dim <= 512).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .records import Record
from .sampler import SampleMatrix

__all__ = [
    "Spectrum",
    "DeviationReport",
    "gram_covariance",
    "sym_eigen",
    "operator_deviation",
    "matrix_norm",
    "boundedness_ratio",
]

#: Off-diagonal Frobenius mass at convergence, relative to ||M||_F.
JACOBI_TOL = 1e-14
#: Hard cap on full sweeps before declaring non-convergence.
JACOBI_MAX_SWEEPS = 50


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition M = V diag(eigenvalues) V^T, eigenvalues ascending."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    residual: float


@dataclass(frozen=True)
class DeviationReport(Record):
    """Everything measured from one ensemble draw.

    lambda_min / lambda_max are eigenvalues of the *unnormalized* A A^T;
    deviation is ||A A^T / N - I||; boundedness_ratio is
    max_i |X_i| / (sqrt(n) * max{1, (N/n)^{1/4}}); psi_hat, the cell's empirical
    psi_1 constant, is set by run_grid on trial 0 only.  The fields after n and N
    are the results-CSV columns, in order.
    """

    n: int
    N: int
    seed: int
    lambda_min: float
    lambda_max: float
    deviation: float
    max_col_norm: float
    boundedness_ratio: float
    psi_hat: float | None = None


def gram_covariance(A: SampleMatrix) -> np.ndarray:
    """The empirical covariance A A^T / N, an exactly symmetric n x n array."""
    return _gram(A.entries) / A.N


def _jacobi(full: np.ndarray, tol: float, max_sweeps: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Threshold cyclic-by-row Jacobi on a working copy of `full`.

    Returns (diagonal, accumulated rotations V with full = V diag V^T, final
    off-diagonal Frobenius mass).  Rotations below the threshold
    tol*||M||_F/(2 dim) are skipped; once every pivot is below it, the
    off-diagonal mass is within the convergence target, so the sweep loop
    always terminates for finite input.
    """
    dim = full.shape[0]
    a = full.copy()
    v = np.eye(dim)
    fro = float(np.linalg.norm(full))
    if dim == 1 or fro == 0.0:
        return np.diagonal(a).copy(), v, 0.0
    target = tol * fro
    skip = target / (2.0 * dim)

    def offdiag() -> float:
        # Sum the off-diagonal entries themselves; subtracting the diagonal
        # mass from the total would cancel catastrophically near convergence.
        masked = a.copy()
        np.fill_diagonal(masked, 0.0)
        return float(np.linalg.norm(masked))

    for _sweep in range(max_sweeps):
        off = offdiag()
        if off <= target:
            return np.diagonal(a).copy(), v, off
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                a[p, :] = new_p
                a[:, p] = new_p
                a[q, :] = new_q
                a[:, q] = new_q
                # The 2x2 pivot block is set from the closed form so the
                # pivot is exactly zero and symmetry is exact.
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                v_p = v[:, p].copy()
                v_q = v[:, q].copy()
                v[:, p] = c * v_p - s * v_q
                v[:, q] = s * v_p + c * v_q
    off = offdiag()
    if off <= target:
        return np.diagonal(a).copy(), v, off
    raise NumericalError(
        f"Jacobi did not converge in {max_sweeps} sweeps: off-diagonal mass {off:.3e} > {target:.3e}"
    )


def sym_eigen(M: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS) -> Spectrum:
    """Full eigendecomposition of the exact symmetrization (M + M^T)/2 of a
    nonempty, square, finite array, by cyclic Jacobi rotations."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise ContractError("expected a nonempty matrix, got shape (0, 0)")
    if not np.isfinite(M).all():
        raise ContractError("matrix entries contain non-finite values")
    full = 0.5 * (M + M.T)
    diag, v, _off = _jacobi(full, tol, max_sweeps)
    order = np.argsort(diag, kind="stable")
    eigenvalues = np.ascontiguousarray(diag[order])
    basis = np.ascontiguousarray(v[:, order])
    residual = float(np.linalg.norm((basis * eigenvalues) @ basis.T - full))
    return Spectrum(eigenvalues=eigenvalues, basis=basis, residual=residual)


def boundedness_ratio(n: int, N: int, max_col_norm: float) -> float:
    """max_i |X_i| / sqrt(n), relative to the regime factor max{1, (N/n)^{1/4}}."""
    return max_col_norm / np.sqrt(n) / max(1.0, (N / n) ** 0.25)


def _gram(e: np.ndarray) -> np.ndarray:
    """e e^T of finite entries, refused when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = e @ e.T
    if not np.isfinite(gram).all():
        raise ContractError("the Gram matrix overflows: the entries are too large to square and sum")
    return gram


def _small_gram(e: np.ndarray) -> np.ndarray:
    """e e^T when e has no more rows than columns, else e^T e."""
    return _gram(e) if e.shape[0] <= e.shape[1] else _gram(e.T)


def _extremal_eigenvalues(gram: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a finite symmetric matrix (LAPACK
    reads its lower triangle)."""
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    return float(w[0]), float(w[-1])


def operator_deviation(A: SampleMatrix) -> DeviationReport:
    """Extremal eigenvalues of A A^T and the covariance deviation, in one pass.

    For N < n the spectrum of A A^T is the spectrum of A^T A padded with
    n - N zeros, so lambda_min = 0 exactly and only the small Gram is
    decomposed.
    """
    n, N = A.n, A.N
    lo, hi = _extremal_eigenvalues(_small_gram(A.entries) / N)
    lam_min_scaled = max(lo, 0.0) if N >= n else 0.0
    lam_max_scaled = max(hi, 0.0)
    deviation = max(abs(lam_max_scaled - 1.0), abs(lam_min_scaled - 1.0))
    max_col = A.max_column_norm()
    return DeviationReport(
        n=n,
        N=N,
        lambda_min=lam_min_scaled * N,
        lambda_max=lam_max_scaled * N,
        deviation=deviation,
        max_col_norm=max_col,
        boundedness_ratio=float(boundedness_ratio(n, N, max_col)),
        seed=A.seed,
    )


def matrix_norm(A: SampleMatrix) -> float:
    """Largest singular value of A, via the smaller of the two Gram matrices."""
    _, top = _extremal_eigenvalues(_small_gram(A.entries))
    return float(np.sqrt(max(top, 0.0)))
