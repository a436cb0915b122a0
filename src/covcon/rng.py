"""Counter-based pseudo-random generation for reproducible ensembles.

Everything downstream of a seed is a pure function of (seed, stream, tag,
position): column i of a sample matrix reads words from the Philox-4x64-10
block cipher keyed by the seed, with the column index and a purpose tag baked
into the counter.  That makes every draw addressable — two processes that
agree on the seed produce bit-identical matrices regardless of scheduling,
chunking, or worker count.

Layout of the 256-bit Philox counter (c0, c1, c2, c3):

    c0 = stream index (e.g. column of the matrix, probe index)
    c1 = 0 (reserved)
    c2 = block position along the stream (4 words per block)
    c3 = purpose tag (TAG_COLUMNS, TAG_PROBES, TAG_FRESH, TAG_SEARCH,
         TAG_NET) so distinct uses never collide

Key = (seed, 0).  A counter increment steps c0, so one block of a run of
streams is one call of numpy's C Philox (``raw_words``), which returns the
words word-major: a row per word position, a column per stream.
``philox_block`` is the vectorised reference.  Floating-point variates come
from fixed bit transforms of the words, documented on the functions below.
Every transform reads one word per variate and none rejects, so draw j of a
stream is word j (``words_at`` reads any one on its own), and how many words
a draw uses never depends on the data.

``scipy.special`` loads on first use, inside ``normal_from_words``: it is
most of the package's import time, and a command that draws nothing should
not pay for it.  A later call's import is one ``sys.modules`` lookup.
"""

from __future__ import annotations

import numpy as np

from .errors import U64_MAX, ContractError, require_int

__all__ = [
    "TAG_COLUMNS",
    "TAG_PROBES",
    "TAG_FRESH",
    "TAG_SEARCH",
    "TAG_NET",
    "splitmix64",
    "philox_block",
    "raw_words",
    "words_at",
    "uniform_open",
    "uniform_sym",
    "normal_columns",
    "normal_from_words",
    "laplace_from_words",
    "exponential_from_words",
]

# Purpose tags (counter word c3).  One tag per independent consumer of a
# seed's stream space; new consumers must claim a fresh tag here.
TAG_COLUMNS = 0  # matrix columns
TAG_PROBES = 1  # random probe directions for norm estimation
TAG_FRESH = 2  # held-out draws (fresh expectation estimates)
TAG_SEARCH = 3  # random-search directions in sparse-norm oracles
TAG_NET = 4  # candidate cloud of the sphere nets

# Philox-4x64 round multipliers and Weyl key increments.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_WEYL_0 = np.uint64(0x9E3779B97F4A7C15)
_WEYL_1 = np.uint64(0xBB67AE8584CAA73B)

# SplitMix64 constants (seed-derivation mix).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def splitmix64(state: int) -> int:
    """Advance-and-output step of the SplitMix64 sequence.

    Returns the output for the state *after* adding the golden-ratio
    increment, i.e. the first value a SplitMix64 generator seeded with
    ``state`` would emit.  Used to derive well-separated child seeds from
    (master seed, cell, trial) triples.
    """
    z = (state + _GOLDEN) & U64_MAX
    z = ((z ^ (z >> 30)) * _MIX_1) & U64_MAX
    z = ((z ^ (z >> 27)) * _MIX_2) & U64_MAX
    return z ^ (z >> 31)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """128-bit product of a scalar constant with uint64 words, as (hi, lo)."""
    lo = a * b
    ah = a >> _S32
    al = a & _LO32
    bh = b >> _S32
    bl = b & _LO32
    t1 = al * bl
    t2 = ah * bl
    t3 = al * bh
    carry = ((t1 >> _S32) + (t2 & _LO32) + (t3 & _LO32)) >> _S32
    hi = ah * bh + (t2 >> _S32) + (t3 >> _S32) + carry
    return hi, lo


def philox_block(
    c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, key: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox-4x64-10 applied elementwise to uint64 counter words.

    The four counter words broadcast against each other, so a word that is
    constant across the call can be a ``np.uint64`` scalar.  The key is
    (key, 0).  Returns the four output words, each of the broadcast shape.
    """
    with np.errstate(over="ignore"):
        k0 = np.uint64(key & U64_MAX)
        k1 = np.uint64(0)
        x0, x1, x2, x3 = c0, c1, c2, c3
        for _ in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M0, x0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, x2)
            x0 = hi1 ^ x1 ^ k0
            x1 = lo1
            x2 = hi0 ^ x3 ^ k1
            x3 = lo0
            k0 = k0 + _WEYL_0
            k1 = k1 + _WEYL_1
    return x0, x1, x2, x3


def raw_words(seed: int, streams: range, tag: int, count: int) -> np.ndarray:
    """Words [0, count) of each stream of the contiguous run ``streams`` (a
    step-1 range, else ContractError), word-major: shape (count, len(streams)).
    ``count`` is a non-negative int (else ContractError).

    Block b is one call of a single ``np.random.Philox``, started at counter
    (streams.start, 0, 0, tag) minus one, as numpy increments before its
    first block; between blocks it advances by 2^128 - m, from
    (streams.start + m, 0, b, tag) to (streams.start, 0, b + 1, tag).
    """
    if not (isinstance(streams, range) and streams.step == 1):
        raise ContractError(f"streams must be a step-1 range, got {streams!r}")
    require_int("count", count, 0)
    m = len(streams)
    blocks = (count + 3) // 4
    words = np.empty((4 * blocks, m), dtype=np.uint64)
    bitgen = np.random.Philox(counter=(streams.start + (tag << 192) - 1) % (1 << 256), key=seed)
    for i in range(blocks):
        if i:
            bitgen.advance((1 << 128) - m)
        words[4 * i : 4 * i + 4] = bitgen.random_raw(4 * m).reshape(m, 4).T
    return words[:count]


def words_at(seed: int, streams: np.ndarray, tag: int, positions: np.ndarray) -> np.ndarray:
    """Word positions[i] of stream streams[i] (gather form of raw_words, on philox_block)."""
    streams = np.asarray(streams, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.uint64)
    lane = (positions % np.uint64(4)).astype(np.intp)
    outs = philox_block(streams, np.uint64(0), positions // np.uint64(4), np.uint64(tag), seed)
    return np.stack(outs, axis=-1)[np.arange(len(streams)), lane]


def uniform_open(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to the open interval (0, 1).

    Uses the top 52 bits: u = (w >> 12 + 0.5) * 2**-52, which is exact in
    float64 and lies in [2**-53, 1 - 2**-53], so log and inverse-CDF
    transforms are finite without clamping.
    """
    return ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def uniform_sym(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to the open interval (-1, 1)."""
    return 2.0 * uniform_open(words) - 1.0


def laplace_from_words(words: np.ndarray) -> np.ndarray:
    """Standard Laplace (density exp(-|t|)/2) by inverse CDF: sign(w) times
    -log1p(-2|w|), with w = u - 1/2 never 0.  Computed in place, so the only
    full-size floats are w and the output."""
    w = uniform_open(words)
    w -= 0.5
    out = np.abs(w)
    out *= -2.0
    np.log1p(out, out=out)
    np.negative(out, out=out)
    return np.copysign(out, w, out=out)


def exponential_from_words(words: np.ndarray) -> np.ndarray:
    """Standard exponential (rate 1) by inverse CDF."""
    return -np.log1p(-uniform_open(words))


def normal_from_words(words: np.ndarray) -> np.ndarray:
    """Standard normal by inverse CDF, one word per draw."""
    from scipy.special import ndtri

    return ndtri(uniform_open(words))


def normal_columns(seed: int, streams: range, tag: int, count: int) -> np.ndarray:
    """Standard normal draws of a contiguous run of streams, word-major:
    shape (count, len(streams)), column i holding stream streams[i].

    Draw j of a stream is the inverse normal CDF of its word j, so a stream's
    word use is fixed by the count and the next independent draw on the same
    stream starts at word ``count``.
    """
    return normal_from_words(raw_words(seed, streams, tag, count))
