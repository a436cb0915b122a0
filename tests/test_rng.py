"""Counter-based generator: reference vectors, stream layout, transforms."""

import math

import numpy as np

from covcon import rng

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


def test_raw_words_window_consistency():
    streams = np.arange(3)
    full = rng.raw_words(99, streams, rng.TAG_COLUMNS, 40)
    assert full.shape == (3, 40)
    assert full.dtype == np.uint64
    # A shifted window reads the same underlying stream.
    shifted = rng.raw_words(99, streams, rng.TAG_COLUMNS, 25, start=7)
    assert np.array_equal(shifted, full[:, 7:32])


def test_words_at_matches_windows():
    streams = np.array([0, 0, 1, 2, 2])
    positions = np.array([0, 11, 3, 4, 30])
    full = rng.raw_words(5, np.arange(3), rng.TAG_PROBES, 31)
    picked = rng.words_at(5, streams, rng.TAG_PROBES, positions)
    expected = np.array([full[s, p] for s, p in zip(streams, positions)])
    assert np.array_equal(picked, expected)


def test_streams_and_tags_are_disjoint():
    streams = np.arange(2)
    a = rng.raw_words(7, streams, rng.TAG_COLUMNS, 16)
    b = rng.raw_words(7, streams, rng.TAG_PROBES, 16)
    c = rng.raw_words(8, streams, rng.TAG_COLUMNS, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a[0], a[1])


def test_uniform_open_range_and_endpoints():
    assert rng.uniform_open(np.uint64(0)) == 2.0**-53
    top = rng.uniform_open(np.uint64((1 << 64) - 1))
    assert top == 1.0 - 2.0**-53
    assert top < 1.0
    extremes = _u64([0, (1 << 64) - 1])
    for transform in (rng.exponential_from_words, rng.laplace_from_words, rng.normal_from_words):
        assert np.all(np.isfinite(transform(extremes)))
    words = rng.raw_words(1, np.arange(1), rng.TAG_COLUMNS, 4096)
    u = rng.uniform_open(words)
    assert np.all((u > 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_sym_is_centered():
    words = rng.raw_words(2, np.arange(1), rng.TAG_COLUMNS, 4096)
    s = rng.uniform_sym(words)
    assert np.all((s > -1.0) & (s < 1.0))
    assert abs(s.mean()) < 0.05


def test_exponential_and_laplace_transforms():
    words = rng.raw_words(3, np.arange(1), rng.TAG_COLUMNS, 100_000)
    e = rng.exponential_from_words(words)
    assert np.all(e > 0.0)
    assert abs(e.mean() - 1.0) < 0.02
    lap = rng.laplace_from_words(words)
    assert abs(lap.mean()) < 0.02
    assert abs((lap**2).mean() - 2.0) < 0.05


def test_normal_columns_shape_moments_determinism():
    streams = np.arange(8)
    z1 = rng.normal_columns(11, streams, rng.TAG_COLUMNS, 6)
    z2 = rng.normal_columns(11, streams, rng.TAG_COLUMNS, 6)
    assert z1.shape == (8, 6)
    assert np.array_equal(z1, z2)
    assert rng.normal_columns(11, streams, rng.TAG_COLUMNS, 0).shape == (8, 0)
    big = rng.normal_columns(11, np.arange(4), rng.TAG_COLUMNS, 50_000)
    assert abs(big.mean()) < 0.02
    assert abs(big.var() - 1.0) < 0.02
    assert abs((big**4).mean() - 3.0) < 0.1


def test_normal_columns_read_one_word_per_draw():
    # Draw j of a stream is the inverse normal CDF of word j.
    streams = np.arange(5)
    z = rng.normal_columns(21, streams, rng.TAG_COLUMNS, 40)
    words = rng.raw_words(21, streams, rng.TAG_COLUMNS, 40)
    assert np.array_equal(z, rng.normal_from_words(words))
    window = rng.raw_words(21, streams, rng.TAG_COLUMNS, 9, start=31)
    assert np.array_equal(z[:, 31:], rng.normal_from_words(window))


def test_normal_columns_prefix_stability():
    # The first draws of a stream do not depend on how many are requested.
    short = rng.normal_columns(31, np.arange(6), rng.TAG_COLUMNS, 10)
    long = rng.normal_columns(31, np.arange(6), rng.TAG_COLUMNS, 64)
    assert np.array_equal(short, long[:, :10])


def test_gaussian_tail_fraction():
    z = rng.normal_columns(13, np.arange(2), rng.TAG_COLUMNS, 50_000)
    frac = float((np.abs(z.ravel()) > 1.959963984540054).mean())
    assert math.isclose(frac, 0.05, rel_tol=0.12)
