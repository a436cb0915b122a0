"""Counter-based generator: reference vectors, stream layout, transforms."""

import math

import numpy as np
import pytest

from covcon import rng
from covcon.errors import ContractError

# First output of the SplitMix64 sequence seeded with 0 (reference value
# from the published algorithm).
SPLITMIX_ZERO = 0xE220A8397B1DCDAF


def _u64(values):
    return np.asarray(values, dtype=np.uint64)


def _block(c0, c1, c2, c3, key):
    out = rng.philox_block(_u64([c0]), _u64([c1]), _u64([c2]), _u64([c3]), key)
    return [int(w[0]) for w in out]


def test_splitmix64_reference_vector():
    assert rng.splitmix64(0) == SPLITMIX_ZERO


def test_splitmix64_matches_independent_reference():
    # Straight transcription of the published algorithm, scalar ints only.
    def reference(state):
        z = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    for state in (0, 1, 2, 1 << 63, 0xDEADBEEF, (1 << 64) - 1):
        assert rng.splitmix64(state) == reference(state)


def test_splitmix64_vectorizes():
    states = np.arange(64, dtype=np.uint64)
    out = rng.splitmix64(states)
    assert out.shape == (64,)
    assert int(out[0]) == SPLITMIX_ZERO
    assert all(int(out[i]) == rng.splitmix64(i) for i in range(64))


def test_philox_block_matches_numpy():
    # numpy's Philox advances its counter before producing the first block,
    # so its raw output for counter k equals our block at counter k + 1.
    for key in (0, 12345, 0xFEEDFACE):
        for counter in (0, 1, 7):
            bitgen = np.random.Philox(counter=[counter, 0, 0, 0], key=[key, 0])
            expected = [int(w) for w in bitgen.random_raw(4)]
            assert _block(counter + 1, 0, 0, 0, key) == expected


def test_raw_words_match_numpy_streams():
    # One block of a run of streams, with a nonzero block index c2 and tag
    # c3, against numpy's Philox started at counter (s0, 0, c2, c3).  numpy
    # increments c0 before its first block, so its output begins at stream
    # s0 + 1, and stream s's words sit at 4(s - s0 - 1) .. 4(s - s0 - 1) + 3.
    # The key goes in as a Python int: a list entry >= 2**63 would pass
    # through float64.
    for seed in (0, 77, 2**63 + 5, 2**64 - 1):
        for s0, block, tag in ((1, 0, 0), (3, 1, rng.TAG_PROBES), (2**40 + 9, 10, rng.TAG_SEARCH)):
            bitgen = np.random.Philox(counter=[s0, 0, block, tag], key=seed)
            ours = rng.raw_words(seed, range(s0 + 1, s0 + 11), tag, 4 * block + 4)[4 * block :]
            assert np.array_equal(ours, bitgen.random_raw(40).reshape(10, 4).T)


def _reference_words(seed, streams, tag, count, start):
    """raw_words evaluated on philox_block at counter (stream, 0, block, tag)."""
    c0 = np.array(streams, dtype=np.uint64)[None, :]
    pos = np.arange(start, start + count, dtype=np.uint64)[:, None]
    outs = rng.philox_block(c0, np.uint64(0), pos // np.uint64(4), np.uint64(tag), seed)
    lane = (pos % np.uint64(4)).astype(np.intp)
    return np.take_along_axis(np.stack(outs, axis=-1), lane[..., None], axis=-1)[..., 0]


def test_raw_words_match_reference_layout():
    # Counter (stream, 0, block, tag): every window of a run of streams is
    # the reference cipher's block words, word-major.
    runs = (range(0, 5), range(2**40 + 9, 2**40 + 12), range(2**64 - 3, 2**64))
    for seed in (0, 2**64 - 1):
        for streams in runs:
            for tag in range(4):
                for start in range(8):
                    for count in (1, 4, 41):
                        ours = rng.raw_words(seed, streams, tag, start + count)
                        assert ours.shape == (start + count, len(streams)) and ours.dtype == np.uint64
                        assert np.array_equal(ours[start:], _reference_words(seed, streams, tag, count, start))


def test_raw_words_build_one_generator_per_call(monkeypatch):
    made = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        made.append(kwargs["counter"])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    # Words 0..12 touch blocks 0..3 and words 0..18 blocks 0..4; each call
    # makes one generator, on block 0's counter, for all 50 streams.
    rng.raw_words(5, range(7, 57), rng.TAG_COLUMNS, 13)
    rng.raw_words(5, range(7, 57), rng.TAG_PROBES, 19)
    assert made == [7 - 1, 7 + (rng.TAG_PROBES << 192) - 1]


@pytest.mark.parametrize("streams", [range(0, 10, 2), range(4, 0, -1), [0, 1, 2]], ids=repr)
def test_raw_words_take_only_step_one_ranges(streams):
    # A stepped or reversed range would silently read the streams of
    # range(start, start + len); the draw refuses it instead.
    with pytest.raises(ContractError, match="step-1 range"):
        rng.raw_words(5, streams, rng.TAG_COLUMNS, 4)
    with pytest.raises(ContractError, match="step-1 range"):
        rng.normal_columns(5, streams, rng.TAG_COLUMNS, 4)


@pytest.mark.parametrize("count", [-1, -3, -4, 2.0, True, np.int64(4)], ids=repr)
def test_raw_words_refuse_a_bad_count(count):
    # Negative, float, bool and numpy-integer counts are refused by the
    # integer rule at both entry points; a zero count is an empty draw.
    with pytest.raises(ContractError, match="count must be a non-negative integer"):
        rng.raw_words(5, range(3), rng.TAG_COLUMNS, count)
    with pytest.raises(ContractError, match="count must be a non-negative integer"):
        rng.normal_columns(5, range(3), rng.TAG_COLUMNS, count)
    assert rng.raw_words(5, range(3), rng.TAG_COLUMNS, 0).shape == (0, 3)


def test_philox_block_broadcasts_counter_words():
    # Scalar counter words give the same block as full arrays of that value.
    c0 = _u64([[1, 2, 3]])
    c2 = _u64([[0], [5]])
    full = [np.broadcast_to(w, (2, 3)).copy() for w in (c0, _u64(0), c2, _u64(rng.TAG_FRESH))]
    expected = rng.philox_block(*full, 99)
    got = rng.philox_block(c0, np.uint64(0), c2, np.uint64(rng.TAG_FRESH), 99)
    for e, g in zip(expected, got):
        assert g.shape == (2, 3)
        assert np.array_equal(e, g)


def test_philox_block_frozen_vector():
    assert _block(1, 0, 0, 0, 12345) == [
        0xA5792C0A0ED6A560,
        0xC63666BA8B756514,
        0xC953E311F634209D,
        0x28DB5404D83FAC91,
    ]


def test_philox_counter_words_are_independent_axes():
    # Changing any single counter word changes the whole output block.
    base = _block(1, 0, 0, 0, 7)
    assert _block(2, 0, 0, 0, 7) != base
    assert _block(1, 1, 0, 0, 7) != base
    assert _block(1, 0, 1, 0, 7) != base
    assert _block(1, 0, 0, 1, 7) != base
    assert _block(1, 0, 0, 0, 8) != base


def test_words_at_matches_windows():
    streams = np.array([0, 0, 1, 2, 2])
    positions = np.array([0, 11, 3, 4, 30])
    full = rng.raw_words(5, range(3), rng.TAG_PROBES, 31)
    picked = rng.words_at(5, streams, rng.TAG_PROBES, positions)
    expected = np.array([full[p, s] for s, p in zip(streams, positions)])
    assert np.array_equal(picked, expected)


def test_streams_and_tags_are_disjoint():
    streams = range(2)
    a = rng.raw_words(7, streams, rng.TAG_COLUMNS, 16)
    b = rng.raw_words(7, streams, rng.TAG_PROBES, 16)
    c = rng.raw_words(8, streams, rng.TAG_COLUMNS, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a[:, 0], a[:, 1])


def test_uniform_open_range_and_endpoints():
    assert rng.uniform_open(np.uint64(0)) == 2.0**-53
    top = rng.uniform_open(np.uint64((1 << 64) - 1))
    assert top == 1.0 - 2.0**-53
    assert top < 1.0
    extremes = _u64([0, (1 << 64) - 1])
    for transform in (rng.exponential_from_words, rng.laplace_from_words, rng.normal_from_words):
        assert np.all(np.isfinite(transform(extremes)))
    words = rng.raw_words(1, range(1), rng.TAG_COLUMNS, 4096)
    u = rng.uniform_open(words)
    assert np.all((u > 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_sym_is_centered():
    words = rng.raw_words(2, range(1), rng.TAG_COLUMNS, 4096)
    s = rng.uniform_sym(words)
    assert np.all((s > -1.0) & (s < 1.0))
    assert abs(s.mean()) < 0.05


def test_exponential_and_laplace_transforms():
    words = rng.raw_words(3, range(1), rng.TAG_COLUMNS, 100_000)
    e = rng.exponential_from_words(words)
    assert np.all(e > 0.0)
    assert abs(e.mean() - 1.0) < 0.02
    lap = rng.laplace_from_words(words)
    assert abs(lap.mean()) < 0.02
    assert abs((lap**2).mean() - 2.0) < 0.05


def test_normal_columns_shape_moments_determinism():
    streams = range(8)
    z1 = rng.normal_columns(11, streams, rng.TAG_COLUMNS, 6)
    z2 = rng.normal_columns(11, streams, rng.TAG_COLUMNS, 6)
    assert z1.shape == (6, 8)
    assert np.array_equal(z1, z2)
    assert rng.normal_columns(11, streams, rng.TAG_COLUMNS, 0).shape == (0, 8)
    big = rng.normal_columns(11, range(4), rng.TAG_COLUMNS, 50_000)
    assert abs(big.mean()) < 0.02
    assert abs(big.var() - 1.0) < 0.02
    assert abs((big**4).mean() - 3.0) < 0.1


def test_normal_columns_read_one_word_per_draw():
    # Draw j of a stream is the inverse normal CDF of word j.
    streams = range(5)
    z = rng.normal_columns(21, streams, rng.TAG_COLUMNS, 40)
    words = rng.raw_words(21, streams, rng.TAG_COLUMNS, 40)
    assert np.array_equal(z, rng.normal_from_words(words))
    window = rng.raw_words(21, range(2, 5), rng.TAG_COLUMNS, 40)[31:]
    assert np.array_equal(z[31:, 2:], rng.normal_from_words(window))


def test_normal_columns_prefix_stability():
    # The first draws of a stream do not depend on how many are requested.
    short = rng.normal_columns(31, range(6), rng.TAG_COLUMNS, 10)
    long = rng.normal_columns(31, range(6), rng.TAG_COLUMNS, 64)
    assert np.array_equal(short, long[:10])


def test_gaussian_tail_fraction():
    z = rng.normal_columns(13, range(2), rng.TAG_COLUMNS, 50_000)
    frac = float((np.abs(z.ravel()) > 1.959963984540054).mean())
    assert math.isclose(frac, 0.05, rel_tol=0.12)
