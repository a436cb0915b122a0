"""Counter-based pseudo-random generation for reproducible ensembles.

Everything downstream of a seed is a pure function of (seed, stream, tag,
position): column i of a sample matrix reads words from the Philox-4x64-10
block cipher keyed by the seed, with the column index and a purpose tag baked
into the counter.  That makes every draw addressable — two processes that
agree on the seed produce bit-identical matrices regardless of scheduling,
chunking, or worker count.

Layout of the 256-bit Philox counter (c0, c1, c2, c3):

    c0 = block position along the stream (increments as words are consumed)
    c1 = 0 (reserved)
    c2 = stream index (e.g. column of the matrix, probe index)
    c3 = purpose tag (TAG_* constants) so distinct uses never collide

Key = (seed, 0).  The counter words broadcast against each other: a call
passes the blocks as a row, the streams as a column and c1, c3 as scalars,
so no counter or key array is materialised.  Each block yields four 64-bit
words; floating-point variates come from fixed bit transforms of those
words, documented on the functions below.  Every transform reads one word
per variate and none rejects, so draw j of a stream is word j: how many
words a draw uses never depends on the data, and any window of draws can
be recomputed on its own.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "TAG_COLUMNS",
    "TAG_PROBES",
    "TAG_FRESH",
    "TAG_SEARCH",
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

MASK64 = 0xFFFFFFFFFFFFFFFF

# Purpose tags (counter word c3).  One tag per independent consumer of a
# seed's stream space; new consumers must claim a fresh tag here.
TAG_COLUMNS = 0  # matrix columns
TAG_PROBES = 1  # random probe directions for norm estimation
TAG_FRESH = 2  # held-out draws (fresh expectation estimates)
TAG_SEARCH = 3  # random-search directions in sparse-norm oracles

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
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & MASK64
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
        k0 = np.uint64(key & MASK64)
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


def raw_words(seed: int, streams: np.ndarray, tag: int, count: int, start: int = 0) -> np.ndarray:
    """Words [start, start+count) of each stream, shape (len(streams), count).

    Streams are independent positions in counter word c2; ``tag`` fills c3.
    Consumption is block-aligned internally (4 words per Philox block), so any
    (start, count) window of a stream is reproducible in isolation.
    """
    if count <= 0:
        return np.empty((len(streams), 0), dtype=np.uint64)
    streams = np.asarray(streams, dtype=np.uint64)
    first_block = start // 4
    last_block = (start + count - 1) // 4
    blocks = np.arange(first_block, last_block + 1, dtype=np.uint64)
    outs = philox_block(blocks[None, :], np.uint64(0), streams[:, None], np.uint64(tag), seed)
    words = np.stack(outs, axis=-1).reshape(len(streams), 4 * len(blocks))
    lo = start - 4 * first_block
    return words[:, lo : lo + count]


def words_at(seed: int, streams: np.ndarray, tag: int, positions: np.ndarray) -> np.ndarray:
    """One word per stream, at a per-stream position (gather form of raw_words)."""
    streams = np.asarray(streams, dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.uint64)
    lane = (positions % np.uint64(4)).astype(np.intp)
    outs = philox_block(positions // np.uint64(4), np.uint64(0), streams, np.uint64(tag), seed)
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
    """Standard Laplace (density exp(-|t|)/2) by inverse CDF."""
    w = uniform_open(words) - 0.5
    return -np.sign(w) * np.log1p(-2.0 * np.abs(w))


def exponential_from_words(words: np.ndarray) -> np.ndarray:
    """Standard exponential (rate 1) by inverse CDF."""
    return -np.log1p(-uniform_open(words))


def normal_from_words(words: np.ndarray) -> np.ndarray:
    """Standard normal by inverse CDF, one word per draw."""
    return ndtri(uniform_open(words))


def normal_columns(seed: int, streams: np.ndarray, tag: int, count: int) -> np.ndarray:
    """Standard normal draws per stream: shape (len(streams), count).

    Draw j of a stream is the inverse normal CDF of its word j, so a stream's
    word use is fixed by the count and the next independent draw on the same
    stream starts at word ``count``.
    """
    return normal_from_words(raw_words(seed, streams, tag, count))
