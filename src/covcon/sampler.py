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
fixed number of words from its own counter-based stream (see rng) — n for
gaussian, exponential_product, rademacher_control and the cube, n + 1 for
euclidean_ball, 2n + 1 for lp_ball — so it depends on (seed, j) alone, and
``_columns`` draws any range of columns bit-identical to the same columns of
the full draw.  The words of a run of streams come word-major (see rng), so
they are already laid out as that n-row block: nothing is transposed.
The l_p ball uses the exact rejection-free construction: draw g_i with
density proportional to exp(-|t|^p), an independent exponential W, and map
g / (sum |g_i|^p + W)^{1/p} onto the ball.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, gammaln

from . import rng
from .errors import ContractError, ResourceError

__all__ = [
    "FAMILIES",
    "LOG_CONCAVE_FAMILIES",
    "EnsembleSpec",
    "SampleMatrix",
    "isotropic_scale",
    "sample_ensemble",
    "save_matrix",
    "load_matrix",
    "parse_family_token",
]

#: Memory budget for a single sample matrix (entries, not bytes).
MAX_ELEMENTS = 1 << 25

_SEED_LIMIT = 1 << 64


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
        if not (type(self.n) is int and self.n >= 1):
            raise ContractError(f"n must be a positive integer, got {self.n!r}")
        if not (type(self.N) is int and self.N >= 1):
            raise ContractError(f"N must be a positive integer, got {self.N!r}")
        if not (type(self.seed) is int and 0 <= self.seed < _SEED_LIMIT):
            raise ContractError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.family == "lp_ball":
            if self.p is None:
                raise ContractError("lp_ball requires the exponent p")
            if not (self.p >= 1.0):
                raise ContractError(f"lp_ball requires p >= 1 (convexity), got {self.p!r}")
        elif self.p is not None:
            raise ContractError(f"p is only meaningful for lp_ball, got p={self.p!r} for {self.family}")

    @property
    def log_concave(self) -> bool:
        return self.family in LOG_CONCAVE_FAMILIES


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
    if family == "gaussian" or family == "rademacher_control":
        factor = 1.0
    elif family == "euclidean_ball":
        factor = math.sqrt(n + 2.0)
    elif family == "exponential_product":
        factor = 2.0**-0.5
    elif math.isinf(p):
        factor = math.sqrt(3.0)
    else:
        # Coordinate variance on the unit l_p ball: Gamma(3/p) Gamma(n/p + 1) /
        # (Gamma(1/p) Gamma((n+2)/p + 1)).  Scale by its inverse square root.
        log_var = gammaln(3.0 / p) + gammaln(n / p + 1.0) - gammaln(1.0 / p) - gammaln((n + 2.0) / p + 1.0)
        factor = float(np.exp(-0.5 * log_var))
    return factor


def _columns_gaussian(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    return rng.normal_columns(spec.seed, cols, tag, spec.n)


def _columns_euclidean_ball(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    # Fixed word layout per column: n normal words, then one radius word.
    n = spec.n
    words = rng.raw_words(spec.seed, cols, tag, n + 1)
    g = rng.normal_from_words(words[:n])
    norms = np.linalg.norm(g, axis=0)
    # Place the direction g/|g| at radius r * U^{1/n}.
    limit = isotropic_scale("euclidean_ball", n)
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
    out *= isotropic_scale("exponential_product", spec.n)
    return out


def _columns_rademacher(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    words = rng.raw_words(spec.seed, cols, tag, spec.n)
    return np.where((words >> np.uint64(63)).astype(bool), 1.0, -1.0)


def _columns_lp_ball(spec: EnsembleSpec, cols: range, tag: int) -> np.ndarray:
    n, p = spec.n, spec.p
    factor = isotropic_scale("lp_ball", n, p)
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


#: Each family's column draw, in the order of its binary-format tag: append new families last.
_DRAWS = {
    "gaussian": _columns_gaussian,
    "euclidean_ball": _columns_euclidean_ball,
    "exponential_product": _columns_exponential,
    "lp_ball": _columns_lp_ball,
    "rademacher_control": _columns_rademacher,
}

FAMILIES = tuple(_DRAWS)

#: Families whose law is log-concave; rademacher_control is the deliberate
#: exception (its two-point coordinate law has no density).
LOG_CONCAVE_FAMILIES = frozenset(FAMILIES) - {"rademacher_control"}


def _columns(spec: EnsembleSpec, cols: range, tag: int = rng.TAG_COLUMNS) -> np.ndarray:
    """Columns ``cols`` (a contiguous range) of `spec`'s matrix, shape (n, len(cols))."""
    return _DRAWS[spec.family](spec, cols, tag)


def sample_ensemble(spec: EnsembleSpec) -> SampleMatrix:
    """The one whole-matrix draw: the n x N matrix of `spec`, bit-identical across reruns."""
    if spec.n * spec.N > MAX_ELEMENTS:
        raise ResourceError(f"n*N = {spec.n * spec.N} exceeds the sample budget of {MAX_ELEMENTS} entries")
    return SampleMatrix(entries=_columns(spec, range(spec.N)), spec=spec)


# --- serialization -----------------------------------------------------------
#
# Binary layout, version 1: little-endian header
#   magic "CVCN" | version u32 | n u64 | N u64 | family tag u32 | seed u64 |
#   param f64 (the l_p exponent; 0.0 when the family has none)
# followed by n*N float64 entries in column order.  The param field exists so
# a file round-trips to the exact generating spec (needed to re-check family
# support constraints on load).

MAGIC = b"CVCN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQIQd")
_FAMILY_TAGS = {name: i for i, name in enumerate(FAMILIES)}


def parse_family_token(token: str) -> tuple[str, float | None]:
    """(family, p) of a family token, e.g. 'gaussian' or 'lp_ball(1.5)'."""
    token = token.strip()
    if token.startswith("lp_ball(") and token.endswith(")"):
        text = token[len("lp_ball(") : -1]
        try:
            p = float(text)
        except ValueError as exc:
            raise ContractError(f"bad lp_ball exponent {text!r}") from exc
        return "lp_ball", p
    if token in FAMILIES:
        return token, None
    raise ContractError(f"unknown family token {token!r}")


def _check_support(mat: SampleMatrix) -> None:
    """Re-check the hard support constraints of bounded families."""
    spec = mat.spec
    if spec is None:
        return
    if spec.family == "euclidean_ball":
        limit = isotropic_scale("euclidean_ball", spec.n)
        worst = mat.max_column_norm()
        if worst > limit * (1.0 + 1e-12):
            raise ContractError(f"euclidean_ball support violated: column norm {worst} > {limit}")
    elif spec.family == "lp_ball":
        factor = isotropic_scale("lp_ball", spec.n, spec.p)
        scaled = np.abs(mat.entries) / factor
        if math.isinf(spec.p):
            worst = float(scaled.max())
        else:
            worst = float(np.max(np.sum(scaled**spec.p, axis=0)))
        if worst > 1.0 + 1e-12:
            raise ContractError(f"lp_ball support violated: constraint value {worst} > 1")


def save_matrix(mat: SampleMatrix, path) -> None:
    """Write the version-1 binary format; requires a generating spec."""
    if mat.spec is None:
        raise ContractError("cannot serialize a SampleMatrix without its spec")
    spec = mat.spec
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        spec.n,
        spec.N,
        _FAMILY_TAGS[spec.family],
        spec.seed,
        0.0 if spec.p is None else float(spec.p),
    )
    payload = np.asarray(mat.entries.T, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_matrix(path) -> SampleMatrix:
    """Read the binary format, validate the header, re-check support bounds."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ContractError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, n, N, tag, seed, param = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ContractError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ContractError(f"{path}: unsupported format version {version}")
    if tag >= len(FAMILIES):
        raise ContractError(f"{path}: unknown family tag {tag}")
    family = FAMILIES[tag]
    expected = _HEADER.size + 8 * n * N
    if len(blob) != expected:
        raise ContractError(f"{path}: expected {expected} bytes, found {len(blob)}")
    payload = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(payload).all():
        raise ContractError(f"{path}: payload contains non-finite values")
    entries = np.ascontiguousarray(payload.reshape(N, n).T)
    spec = EnsembleSpec(family=family, n=n, N=N, seed=seed, p=param if family == "lp_ball" else None)
    mat = SampleMatrix(entries=entries, spec=spec)
    _check_support(mat)
    return mat
