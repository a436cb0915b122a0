"""Isotropic random-vector ensembles with exact normalization.

Each family produces i.i.d. columns X_1, ..., X_N in R^n that are centered
and isotropic: E X = 0 and E X X^T = I.  The families:

    gaussian             standard normal coordinates (already isotropic)
    euclidean_ball       uniform on the ball of radius sqrt(n+2)
    exponential_product  i.i.d. symmetric-exponential coordinates, variance 1
    lp_ball              uniform on a scaled l_p ball (p >= 1; p = inf is the
                         cube [-sqrt(3), sqrt(3)]^n)
    rademacher_control   i.i.d. +-1 coordinates (isotropic but NOT log-concave;
                         kept as a control case for the estimators)

All the module knows of a family is its row of ``_FAMILY_TABLE``: the column
draw, the exact isotropic scale, the least exponent p it takes, whether its law
is log-concave and the closed-form truncation tail
E(<X, x>^2 - B^2) 1{|<X, x>| >= B} of a unit direction x, where one is known.
Spec checks, scales, tails and family tokens ('name' or 'name(p)') read the row
and name no family.  A new family is one draw function and one row.

Isotropy normalizations are exact:

  * ball of radius r: E|X|^2 = n r^2/(n+2) by the radial integral
    int_0^r rho^2 * (n rho^{n-1}/r^n) d rho, so r = sqrt(n+2) gives
    coordinate variance 1.
  * symmetric exponential (lambda/2) e^{-lambda|t|} has variance 2/lambda^2;
    lambda = sqrt(2) makes it 1, i.e. scale a standard Laplace by 2^{-1/2}.
  * l_p ball: a coordinate of the uniform law on the unit l_p ball has
    variance Gamma(3/p) Gamma(n/p+1) / (Gamma(1/p) Gamma((n+2)/p+1)); the
    scale factor is the inverse square root of that (computed via log-Gamma).

Sampling is a pure function of the spec (seed included): column j reads a
fixed number of words from its own counter-based stream (see rng), so it
depends on (seed, j) alone, ``_columns`` draws any range of columns
bit-identical to the same columns of the full draw, and every draw is
``column_blocks``'s run of such ranges.  The words of a run of streams come
word-major (see rng): already that n-row block.

``scipy.special`` loads on first use, inside the l_p scale and draw and the
gaussian and ball tails (see rng).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import U64_MAX, AnalyticUnavailableError, ContractError, ResourceError, require_int

__all__ = [
    "FAMILIES",
    "EnsembleSpec",
    "SampleMatrix",
    "isotropic_scale",
    "column_blocks",
    "sample_ensemble",
    "parse_family_token",
]

#: Memory budget for a single sample matrix (entries, not bytes).
MAX_ELEMENTS = 1 << 25

#: Columns per block of every draw (at most MAX_ELEMENTS // n; see column_blocks).
#: At n = 16, 8,192-column blocks hold the fresh-sample truncation split's traced
#: peak to 3.7 MiB (36.6 MiB as one block) and a whole 16 x 100,000 draw's to
#: 1.33-1.46x the matrix bytes (3.0-4.6x as one block).  It is at least every N
#: of the golden, calibration and verification grids, so each of their draws is one block.
CHUNK_COLUMNS = 1 << 13


@dataclass(frozen=True)
class EnsembleSpec:
    """Complete description of one ensemble draw: family, shape, seed."""

    family: str
    n: int
    N: int
    seed: int
    p: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ContractError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        require_int("n", self.n)
        require_int("N", self.N)
        require_int("seed", self.seed, 0, U64_MAX)
        p_min = _FAMILY_TABLE[self.family].p_min
        if p_min is None:
            if self.p is not None:
                raise ContractError(f"{self.family} takes no exponent, got p={self.p!r}")
        elif self.p is None:
            raise ContractError(f"{self.family} requires the exponent p")
        elif not (self.p >= p_min):
            raise ContractError(f"{self.family} requires p >= {p_min:g}, got {self.p!r}")

    @property
    def log_concave(self) -> bool:
        return _FAMILY_TABLE[self.family].log_concave

    def tail_excess(self, x: np.ndarray, B: float) -> float:
        """E(<X, x>^2 - B^2) 1{|<X, x>| >= B} for a unit x and finite B, in closed form."""
        tail = _FAMILY_TABLE[self.family].tail
        if tail is None:
            raise AnalyticUnavailableError(
                f"no closed-form 1-D marginal for family {self.family!r}; use expectation='fresh_sample'"
            )
        return tail(B, self.n, x)


@dataclass(frozen=True)
class SampleMatrix:
    """n x N matrix whose columns are the sampled vectors."""

    entries: np.ndarray
    spec: EnsembleSpec | None = None

    def __post_init__(self) -> None:
        try:
            e = np.asarray(self.entries, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ContractError(f"entries must be a numeric array: {exc}") from exc
        if e.ndim != 2 or e.size == 0:
            raise ContractError(f"entries must be a nonempty 2-D array, got shape {e.shape}")
        if not np.isfinite(e).all():
            raise ContractError("entries contain non-finite values")
        object.__setattr__(self, "entries", np.ascontiguousarray(e))
        if self.spec is not None and self.entries.shape != (self.spec.n, self.spec.N):
            raise ContractError(
                f"entries shape {self.entries.shape} does not match spec ({self.spec.n}, {self.spec.N})"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def seed(self) -> int:
        return 0 if self.spec is None else self.spec.seed

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.entries, axis=0)

    def max_column_norm(self) -> float:
        return float(self.column_norms().max())


def isotropic_scale(family: str, n: int, p: float | None = None) -> float:
    """The exact multiplier taking a canonical unnormalized sample of `family`
    in dimension n to identity covariance.  The arguments obey EnsembleSpec's
    rules."""
    EnsembleSpec(family=family, n=n, N=1, seed=0, p=p)
    return _FAMILY_TABLE[family].scale(n, p)


def _lp_scale(n: int, p: float) -> float:
    if math.isinf(p):
        return math.sqrt(3.0)
    from scipy.special import gammaln

    # Coordinate variance on the unit l_p ball: Gamma(3/p) Gamma(n/p + 1) /
    # (Gamma(1/p) Gamma((n+2)/p + 1)).  Scale by its inverse square root.
    log_var = gammaln(3.0 / p) + gammaln(n / p + 1.0) - gammaln(1.0 / p) - gammaln((n + 2.0) / p + 1.0)
    return float(np.exp(-0.5 * log_var))


def _columns_gaussian(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    return rng.normal_columns(spec.seed, cols, tag, spec.n)


def _columns_ball(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    # Fixed word layout per column: n normal words, then one radius word.
    n = spec.n
    words = rng.raw_words(spec.seed, cols, tag, n + 1)
    g = rng.normal_from_words(words[:n])
    norms = np.linalg.norm(g, axis=0)
    # Place the direction g/|g| at radius r * U^{1/n}.
    limit = _FAMILY_TABLE[spec.family].scale(n, None)
    u = rng.uniform_open(words[n])
    radius = limit * u ** (1.0 / n)
    out = g * (radius / norms)
    # Guard the hard support bound against rounding in the product above.
    out_norms = np.linalg.norm(out, axis=0)
    over = out_norms > limit
    if np.any(over):
        out[:, over] *= limit / out_norms[over]
    return out


def _columns_exponential(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    words = rng.raw_words(spec.seed, cols, tag, spec.n)
    out = rng.laplace_from_words(words)
    out *= _FAMILY_TABLE[spec.family].scale(spec.n, None)
    return out


def _columns_rademacher(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    words = rng.raw_words(spec.seed, cols, tag, spec.n)
    return np.where((words >> np.uint64(63)).astype(bool), 1.0, -1.0)


def _columns_lp_ball(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    from scipy.special import gammaincinv

    n, p = spec.n, spec.p
    factor = _FAMILY_TABLE[spec.family].scale(n, p)
    if math.isinf(p):
        words = rng.raw_words(spec.seed, cols, tag, n)
        return factor * rng.uniform_sym(words)
    # Exact construction: |g_i|^p ~ Gamma(1/p), signs independent, W ~ Exp(1);
    # g / (sum|g_i|^p + W)^{1/p} is uniform on the unit l_p ball.  Fixed
    # word layout per column: n magnitude words, n sign words, one W word.
    words = rng.raw_words(spec.seed, cols, tag, 2 * n + 1)
    u_mag = rng.uniform_open(words[:n])
    signs = np.where((words[n : 2 * n] >> np.uint64(63)).astype(bool), 1.0, -1.0)
    w_exp = rng.exponential_from_words(words[2 * n])
    # Where the Gamma(1/p) quantile q underflows (large p), use the leading
    # term of its p-th root, u Gamma(1 + 1/p), exact to relative order q.
    q = gammaincinv(1.0 / p, u_mag)
    mag = np.where(q < np.finfo(np.float64).tiny, u_mag * math.gamma(1.0 + 1.0 / p), q ** (1.0 / p))
    denom = (np.sum(mag**p, axis=0) + w_exp) ** (1.0 / p)
    return factor * signs * mag / denom


def _tail_gaussian(B: float, n: int, x: np.ndarray) -> float:
    """2[B phi(B) + (1 - B^2) Phi(-B)] for every unit x; Phi(-B) keeps the
    digits that 1 - Phi(B) cancels at large B."""
    from scipy.special import ndtr

    phi = math.exp(-0.5 * B * B) / math.sqrt(2.0 * math.pi)
    return 2.0 * (B * phi + (1.0 - B * B) * float(ndtr(-B)))


def _tail_ball(B: float, n: int, x: np.ndarray) -> float:
    """For every unit x (rotation invariance) Y^2/(n+2), Y = <X, x>, is
    Beta(1/2, (n+1)/2), and E Y^2 1{Y^2 >= B^2} is the Beta(3/2, (n+1)/2)
    tail at the same point, so both terms are regularized incomplete beta
    tails at b = min(B^2/(n+2), 1)."""
    from scipy.special import betaincc

    b = min(B * B / (n + 2.0), 1.0)
    a = (n + 1) / 2.0
    return float(betaincc(1.5, a, b) - B * B * betaincc(0.5, a, b))


def _tail_exponential(B: float, n: int, x: np.ndarray) -> float:
    """exp(-lambda B) 2 (1 + lambda B) / lambda^2 at the rate lambda = sqrt 2
    of one coordinate; the law of <X, x> is closed-form only along the axes."""
    i = int(np.argmax(np.abs(x)))
    if not (abs(abs(float(x[i])) - 1.0) <= 1e-12 and float(np.linalg.norm(np.delete(x, i))) <= 1e-12):
        raise AnalyticUnavailableError(
            "exponential_product has closed-form projections only along "
            "coordinate directions; use expectation='fresh_sample'"
        )
    lam = math.sqrt(2.0)
    return math.exp(-lam * B) * 2.0 * (1.0 + lam * B) / (lam * lam)


@dataclass(frozen=True)
class _Row:
    """One family's draw, scale, least exponent, log-concavity and truncation
    tail (see the module docstring); None marks a fact it lacks."""

    draw: Callable[[EnsembleSpec, range, int], np.ndarray]  # (spec, cols, tag) -> columns cols
    scale: Callable[[int, float | None], float]  # (n, p) -> the exact isotropic scale
    p_min: float | None  # the least exponent p; None when the family takes none
    log_concave: bool
    tail: Callable[[float, int, np.ndarray], float] | None  # (B, n, x) -> the truncation tail; None: no closed form


_FAMILY_TABLE = {
    "gaussian": _Row(_columns_gaussian, lambda n, p: 1.0, None, True, _tail_gaussian),
    "euclidean_ball": _Row(_columns_ball, lambda n, p: math.sqrt(n + 2.0), None, True, _tail_ball),
    "exponential_product": _Row(_columns_exponential, lambda n, p: 2.0**-0.5, None, True, _tail_exponential),
    "lp_ball": _Row(_columns_lp_ball, _lp_scale, 1.0, True, None),
    "rademacher_control": _Row(_columns_rademacher, lambda n, p: 1.0, None, False, None),
}

FAMILIES = tuple(_FAMILY_TABLE)


def _columns(spec: EnsembleSpec, cols: range, tag: int = rng.TAG_COLUMNS) -> np.ndarray:
    """Columns ``cols`` (a contiguous range) of `spec`'s matrix, shape (n, len(cols))."""
    return _FAMILY_TABLE[spec.family].draw(spec, cols, tag)


def column_blocks(spec: EnsembleSpec, tag: int) -> Iterator[np.ndarray]:
    """`spec`'s columns under `tag` in order, in blocks of max(1, min(CHUNK_COLUMNS, MAX_ELEMENTS // n))."""
    step = max(1, min(CHUNK_COLUMNS, MAX_ELEMENTS // spec.n))
    for j in range(0, spec.N, step):
        yield _columns(spec, range(j, min(j + step, spec.N)), tag)


def sample_ensemble(spec: EnsembleSpec) -> SampleMatrix:
    """The n x N matrix of `spec`, bit-identical across reruns, written block by block."""
    if spec.n * spec.N > MAX_ELEMENTS:
        raise ResourceError(f"n*N = {spec.n * spec.N} exceeds the sample budget of {MAX_ELEMENTS} entries")
    entries, j = np.empty((spec.n, spec.N)), 0
    for block in column_blocks(spec, rng.TAG_COLUMNS):
        entries[:, j : j + block.shape[1]] = block
        j += block.shape[1]
    return SampleMatrix(entries=entries, spec=spec)


def parse_family_token(token: str) -> tuple[str, float | None]:
    """(family, p) of a family token, e.g. 'gaussian' or 'lp_ball(1.5)'."""
    token = token.strip()
    name, paren, rest = token.partition("(")
    if paren and rest.endswith(")") and name in FAMILIES:
        try:
            return name, float(rest[:-1])
        except ValueError as exc:
            raise ContractError(f"bad {name} exponent {rest[:-1]!r}") from exc
    if token in FAMILIES:
        return token, None
    raise ContractError(f"unknown family token {token!r}")
