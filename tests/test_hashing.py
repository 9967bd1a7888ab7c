import gc
import random
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from streamsketch import hashing
from streamsketch.hashing import (
    MERSENNE_P,
    HashFamily,
    _Pcg64,
    bucket_indexes,
    canonical_key,
    draw_rows,
)


def test_canonical_key_is_stable_across_calls():
    assert canonical_key(12345) == canonical_key(12345)
    assert canonical_key("alpha") == canonical_key("alpha")
    assert canonical_key(b"alpha") == canonical_key(b"alpha")
    assert canonical_key(("a", 1)) == canonical_key(("a", 1))


def test_canonical_key_known_values_pin_the_mapping():
    # Frozen values: a change here would silently re-bucket every stream.
    assert canonical_key(7) == 7
    assert canonical_key(-1) == (1 << 64) - 1
    assert canonical_key("a") == canonical_key(b"a")
    assert canonical_key(("a",)) != canonical_key("a")


def test_canonical_key_rejects_unhashable_types():
    with pytest.raises(TypeError):
        canonical_key([1, 2])


def test_canonical_key_maps_a_subclass_as_the_plain_value_it_equals():
    Pair = namedtuple("Pair", "u v")
    assert canonical_key(np.str_("é")) == canonical_key("é")
    assert canonical_key(np.bytes_(b"a")) == canonical_key(b"a")
    assert canonical_key(Pair(np.str_("a"), 1)) == canonical_key(("a", 1))
    for key in (1.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            canonical_key(key)


def test_family_shape_validation():
    with pytest.raises(ValueError):
        HashFamily(0, 8)
    with pytest.raises(ValueError):
        HashFamily(2, 0)


def test_same_seed_same_family():
    f1 = HashFamily(3, 64, seed=11)
    f2 = HashFamily(3, 64, seed=11)
    assert f1.same_layout(f2)
    for key in (0, 1, "x", ("u", "v"), 2**63):
        assert f1.indexes(canonical_key(key)) == f2.indexes(canonical_key(key))


def test_rows_hash_independently():
    fam = HashFamily(4, 1024, seed=3)
    hits = [fam.indexes(k) for k in range(200)]
    columns = list(zip(*hits))
    # No two rows should agree on every key.
    for i in range(4):
        for j in range(i + 1, 4):
            assert columns[i] != columns[j]


def test_indexes_in_range():
    fam = HashFamily(2, 17, seed=5)
    for key in range(1000):
        assert all(0 <= b < 17 for b in fam.indexes(key))


def test_pairwise_collision_rate_close_to_uniform():
    fam = HashFamily(1, 256, seed=21)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**62, size=2000)
    buckets = [fam.indexes(int(k))[0] for k in keys]
    pairs = 0
    collisions = 0
    for i in range(0, 2000, 2):
        pairs += 1
        collisions += buckets[i] == buckets[i + 1]
    assert collisions / pairs < 3.0 / 256


def test_batch_indexes_match_scalar_path():
    fam = HashFamily(3, 1021, seed=13)
    rng = np.random.default_rng(1)
    keys = np.concatenate(
        [
            rng.integers(0, 2**63, size=500, dtype=np.int64),
            np.array([0, 1, MERSENNE_P - 1, MERSENNE_P, 2**62], dtype=np.int64),
        ]
    )
    batch = fam.indexes_many(keys)
    for i, key in enumerate(keys):
        assert tuple(batch[:, i]) == fam.indexes(int(key))


def test_batch_indexes_handle_full_uint64_range():
    fam = HashFamily(2, 64, seed=2)
    keys = np.array([2**64 - 1, 2**63, 2**61, 12345], dtype=np.uint64)
    batch = fam.indexes_many(keys)
    for i, key in enumerate(keys):
        assert tuple(batch[:, i]) == fam.indexes(int(key))



def test_bucket_indexes_temporaries_do_not_grow_with_the_key_count():
    """The tracemalloc peak of ``bucket_indexes``, less its result, is the
    same at 4096 and 65536 keys: ~155 KB on 2 rows, a few arrays of one
    block of keys (~8.5x the result, growing 16x, without blocks)."""
    rows = np.array(HashFamily(2, 1024, seed=3)._params, dtype=np.uint64)

    def transient(n):
        keys = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        gc.collect()
        tracemalloc.start()
        indexes = bucket_indexes(rows, keys, 1024)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert indexes.shape == (2, n)
        return peak - indexes.nbytes

    small, large = transient(4096), transient(65536)
    assert small < 256 * 1024
    assert abs(large - small) < 32 * 1024


def test_in_package_draw_equals_numpys_for_every_seed():
    """``draw_rows`` through ``_Pcg64(seed)`` gives numpy's rows for the same
    seed: edge seeds, seeds of five or more 32-bit words (which SeedSequence
    mixes in after its pool of four), 64-bit and 20-bit random seeds."""
    picks = random.Random(2024)
    seeds = [0, 1, 2, 42, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5, 2**128 - 1]
    seeds += [2**128, 2**160 + 3, 2**300 - 1]
    seeds += [picks.getrandbits(64) for _ in range(300)]
    seeds += [picks.getrandbits(20) for _ in range(200)]
    seeds += [picks.getrandbits(picks.randrange(65, 400)) for _ in range(40)]
    assert len(seeds) >= 500
    for seed in seeds:
        assert draw_rows(_Pcg64(seed), 4) == draw_rows(np.random.default_rng(seed), 4), seed


@pytest.mark.parametrize(
    "low, high, dtype", [(0, 3 << 62, np.uint64), (-(1 << 63), 1 << 62, np.int64)]
)
def test_bounded_draw_equals_numpys_where_it_rejects(low, high, dtype):
    """Over 3 * 2^62 values, 2^64 mod the range is 2^62, so a quarter of the
    64-bit outputs are rejected and drawn again (the hash ranges near 2^61
    reject almost never); the draws stay numpy's."""
    for seed in (0, 7, 2**64 - 1):
        ours, numpys = _Pcg64(seed), np.random.default_rng(seed)
        outputs = 0
        step = ours._next64

        def counted():
            nonlocal outputs
            outputs += 1
            return step()

        ours._next64 = counted
        for _ in range(400):
            assert ours.integers(low, high) == int(numpys.integers(low, high, dtype=dtype))
        assert outputs > 400 + 50  # the rejection loop ran


def test_seeded_rows_are_pinned():
    """The rows of two seeds, written out: they stay fixed whatever numpy's
    generators do in later releases."""
    assert HashFamily(2, 1024, 42)._params == (
        (1784621144001422545, 1011984782196883447),
        (1979792011353080515, 1608021194655666448),
    )
    assert HashFamily(2, 1024, 7)._params == (
        (1441372011761543505, 2068834170735742289),
        (1788609426198978347, 519292424664466664),
    )


def test_family_seed_is_a_nonnegative_integer():
    rows = draw_rows(np.random.default_rng(42), 3)
    for seed in (42, np.int64(42), np.uint64(42), np.uint8(42)):
        assert HashFamily(3, 64, seed)._params == rows
    assert HashFamily(2, 64, np.uint64(2**64 - 1))._params == draw_rows(
        np.random.default_rng(2**64 - 1), 2
    )
    with pytest.raises(ValueError):
        HashFamily(2, 64, -1)
    # None and sequences, which numpy's SeedSequence took, are rejected too:
    # None drew rows no run could reproduce.
    for seed in (1.0, np.float64(1.0), "42", None, [1, 2], (1, 2)):
        with pytest.raises(TypeError):
            HashFamily(2, 64, seed)


def test_from_rows_draws_nothing_and_checks_its_shape(monkeypatch):
    def no_draw(*args):
        raise AssertionError("from_rows drew rows")

    monkeypatch.setattr(hashing, "_seeded_rows", no_draw)
    family = HashFamily.from_rows([(3, 5), (7, 11)], 16)
    assert (family.n_rows, family.n_buckets, family.seed) == (2, 16, None)
    assert family._params == ((3, 5), (7, 11))
    assert family.indexes(2) == ((3 * 2 + 5) % 16, (7 * 2 + 11) % 16)
    with pytest.raises(ValueError):
        HashFamily.from_rows([], 16)
    with pytest.raises(ValueError):
        HashFamily.from_rows([(3, 5)], 0)
