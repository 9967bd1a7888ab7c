import math
from collections import Counter

import numpy as np
import pytest

from streamsketch.midas import MidasDetector
from streamsketch.sketch import CountMinSketch, HigherOrderSketch, check_weight, weights_ok


def test_repeated_update_is_exact_without_collisions():
    sketch = CountMinSketch(2, 1024, seed=1)
    for _ in range(3):
        sketch.update("a", 1)
    assert sketch.query("a") == 3


def test_single_bucket_forces_total_collision():
    sketch = CountMinSketch(2, 1, seed=1)
    sketch.update("a", 1)
    sketch.update("b", 1)
    assert sketch.query("a") == 2


def test_query_on_empty_sketch_is_zero():
    assert CountMinSketch(2, 64, seed=0).query("anything") == 0.0


def test_single_fractional_update():
    sketch = CountMinSketch(2, 4096, seed=2)
    sketch.update("k", 2.5)
    assert sketch.query("k") == 2.5


def test_negative_weight_rejected():
    sketch = CountMinSketch(2, 64, seed=0)
    with pytest.raises(ValueError):
        sketch.update("k", -0.1)
    ho = HigherOrderSketch(2, 8, seed=0)
    with pytest.raises(ValueError):
        ho.update("u", "v", -1.0)


@pytest.mark.parametrize("weight", [0, 3, 0.5, 1e308, True, -0.1, -1, math.nan, math.inf, -math.inf])
def test_weights_ok_agrees_with_check_weight(weight):
    try:
        check_weight(weight)
        accepted = True
    except ValueError:
        accepted = False
    assert weights_ok(np.array([1.0, weight, 2.0])) is accepted
    assert weights_ok(np.array([weight])) is accepted


def test_weights_ok_rejects_arrays_check_weight_cannot_take():
    assert not weights_ok(np.array(["1", "2"]))
    assert not weights_ok(np.array([1.0, None]))
    assert not weights_ok(np.ones((2, 2)))
    assert weights_ok(np.array([], dtype=np.float64))



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_rejected_and_table_unchanged(bad):
    sketch = CountMinSketch(2, 16, seed=0)
    sketch.update("k", 2.0)
    before = sketch.counts.copy()
    with pytest.raises(ValueError, match="finite"):
        sketch.update("k", bad)
    with pytest.raises(ValueError, match="finite"):
        sketch.update_many(np.array([1, 2]), bad)
    assert np.array_equal(sketch.counts, before)
    assert sketch.query("k") == 2.0
    ho = HigherOrderSketch(2, 8, seed=0)
    ho.update(1, 2, 1.0)
    before = ho.matrices.copy()
    with pytest.raises(ValueError, match="finite"):
        ho.update(1, 2, bad)
    with pytest.raises(ValueError, match="finite"):
        ho.update_many(np.array([1]), np.array([2]), bad)
    assert np.array_equal(ho.matrices, before)

def test_never_underestimates_against_exact_counter():
    rng = np.random.default_rng(7)
    keys = rng.zipf(1.5, size=10_000) % 3000
    sketch = CountMinSketch(2, 1024, seed=7)
    truth = Counter()
    for key in keys:
        key = int(key)
        sketch.update(key)
        truth[key] += 1
    slack = math.e / 1024 * len(keys)
    inflated = 0
    for key, count in truth.items():
        estimate = sketch.query(key)
        assert estimate >= count
        inflated += estimate > count + slack
    assert inflated / len(truth) <= 0.01


def test_adversarial_collisions_still_never_underestimate():
    sketch = CountMinSketch(2, 4, seed=3)  # forced heavy collisions
    rng = np.random.default_rng(3)
    truth = Counter()
    for key in rng.integers(0, 40, size=2000):
        key = int(key)
        sketch.update(key)
        truth[key] += 1
    for key, count in truth.items():
        assert sketch.query(key) >= count


def test_decay_scales_each_cell():
    sketch = CountMinSketch(2, 64, seed=1)
    sketch.update("k", 10)
    sketch.decay(0.5)
    assert sketch.query("k") == 5.0
    sketch.decay(0.5)
    assert sketch.query("k") == 2.5


def test_decay_factor_bounds():
    sketch = CountMinSketch(2, 64, seed=1)
    for alpha in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            sketch.decay(alpha)
    ho = HigherOrderSketch(2, 8, seed=1)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError):
            ho.decay(alpha)


def test_decay_is_exactly_linear_for_every_key():
    sketch = CountMinSketch(3, 256, seed=5)
    rng = np.random.default_rng(5)
    keys = [int(k) for k in rng.integers(0, 500, size=3000)]
    for key in keys:
        sketch.update(key, float(rng.random()))
    before = {key: sketch.query(key) for key in set(keys)}
    sketch.decay(0.75)
    for key, value in before.items():
        assert sketch.query(key) == 0.75 * value  # exact: scaling is monotone


def test_counts_stay_nonnegative_through_mixed_operations():
    sketch = CountMinSketch(2, 32, seed=9)
    rng = np.random.default_rng(9)
    for _ in range(500):
        sketch.update(int(rng.integers(0, 80)), float(rng.random()))
        if rng.random() < 0.1:
            sketch.decay(0.5)
    assert (sketch.counts >= 0).all()


# -- conditional merge --------------------------------------------------------


def _trio(n_buckets=64, seed=4):
    total = CountMinSketch(2, n_buckets, seed=seed)
    current = CountMinSketch(2, n_buckets, seed=seed)
    scores = CountMinSketch(2, n_buckets, seed=seed)
    return total, current, scores


def test_merge_accepts_everything_when_scores_are_low():
    total, current, scores = _trio()
    total.update("a", 3)
    current.update("a", 2)
    current.update("b", 5)
    before = total.counts.copy()
    total.merge_conditional(current, scores, epsilon=1.0, tick=7)
    assert np.array_equal(total.counts, before + current.counts)


def test_merge_adds_per_tick_mean_when_score_is_high():
    total, current, scores = _trio()
    idx = total.indexes("a")
    total.assign_at(idx, 8.0)
    current.assign_at(idx, 100.0)
    scores.assign_at(idx, 99.0)
    total.merge_conditional(current, scores, epsilon=1.0, tick=5)
    assert total.query("a") == 8.0 + 8.0 / 4.0


def test_merge_at_tick_one_leaves_flagged_buckets_alone():
    total, current, scores = _trio()
    idx = total.indexes("a")
    total.assign_at(idx, 8.0)
    current.assign_at(idx, 100.0)
    scores.assign_at(idx, 99.0)
    total.merge_conditional(current, scores, epsilon=1.0, tick=1)
    assert total.query("a") == 8.0


def test_merge_rejects_mismatched_layouts():
    total, current, scores = _trio(seed=4)
    other = CountMinSketch(2, 64, seed=5)
    with pytest.raises(ValueError):
        total.merge_conditional(other, scores, epsilon=1.0, tick=2)
    small = CountMinSketch(2, 32, seed=4)
    with pytest.raises(ValueError):
        total.merge_conditional(small, scores, epsilon=1.0, tick=2)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_merge_rejects_a_threshold_that_is_not_positive(epsilon):
    total, current, scores = _trio()
    with pytest.raises(ValueError, match="merge threshold must be > 0"):
        total.merge_conditional(current, scores, epsilon=epsilon, tick=2)
    with pytest.raises(ValueError, match="merge threshold must be > 0"):
        MidasDetector("filtering", merge_threshold=epsilon)


def test_merge_accepts_an_infinite_threshold():
    total, current, scores = _trio()
    current.update("a", 2.0)
    total.merge_conditional(current, scores, epsilon=math.inf, tick=3)
    assert total.query("a") == 2.0
    assert MidasDetector("filtering", merge_threshold=math.inf).merge_threshold == math.inf


def test_merge_is_bucketwise_for_collision_free_keys():
    total, current, scores = _trio(n_buckets=1 << 16)
    keys = [f"key{i}" for i in range(50)]
    rng = np.random.default_rng(11)
    snapshot = {}
    for key in keys:
        t, c, s = rng.random(3)
        total.update(key, t)
        current.update(key, c)
        scores.assign(key, s * 2)
        snapshot[key] = (t, c, s * 2)
    total.merge_conditional(current, scores, epsilon=1.0, tick=4)
    for key, (t, c, s) in snapshot.items():
        expected = t + c if s < 1.0 else t + t / 3
        assert total.query(key) == pytest.approx(expected, abs=1e-12)


# -- higher-order sketch -------------------------------------------------------


def test_higher_order_exact_without_collisions():
    ho = HigherOrderSketch(2, 32, seed=1)
    ho.update("u", "v", 3)
    assert ho.estimate("u", "v") == 3.0


def test_shared_source_lands_in_one_row():
    ho = HigherOrderSketch(2, 32, seed=1)
    cells_uv = ho.indexes("u", "v")
    cells_uw = ho.indexes("u", "w")
    for cell_uv, cell_uw in zip(cells_uv, cells_uw):
        (r1, c1), (r2, c2) = divmod(cell_uv, 32), divmod(cell_uw, 32)
        assert r1 == r2
        assert c1 != c2  # different destinations, collision-free here


def test_reset_zeroes_every_cell():
    ho = HigherOrderSketch(2, 16, seed=2)
    rng = np.random.default_rng(2)
    for _ in range(100):
        ho.update(int(rng.integers(0, 50)), int(rng.integers(0, 50)))
    ho.reset()
    assert not ho.matrices.any()
    assert ho.estimate(1, 2) == 0.0


def test_higher_order_decay():
    ho = HigherOrderSketch(2, 16, seed=3)
    ho.update("u", "v", 10)
    ho.decay(0.9)
    assert ho.estimate("u", "v") == pytest.approx(9.0, abs=1e-12)


def test_decay_preserves_argmax_cell_per_layer():
    ho = HigherOrderSketch(2, 16, seed=4)
    rng = np.random.default_rng(4)
    for _ in range(300):
        ho.update(int(rng.integers(0, 99)), int(rng.integers(0, 99)), float(rng.random()))
    before = [np.unravel_index(np.argmax(m), m.shape) for m in ho.matrices]
    ho.decay(0.6)
    after = [np.unravel_index(np.argmax(m), m.shape) for m in ho.matrices]
    assert before == after


def test_higher_order_never_underestimates_and_respects_error_bound():
    rng = np.random.default_rng(6)
    ho = HigherOrderSketch(2, 32, seed=6)
    truth = Counter()
    for _ in range(500):
        u, v = int(rng.integers(0, 200)), int(rng.integers(0, 200))
        ho.update(u, v)
        truth[(u, v)] += 1
    slack = math.e / 32 * 500
    over = 0
    for (u, v), count in truth.items():
        estimate = ho.estimate(u, v)
        assert estimate >= count
        over += estimate > count + slack
    # Failure probability bound for 2 layers, with generous empirical slack.
    assert over / len(truth) <= 2 * math.exp(-2)


def test_batch_updates_match_scalar_loop():
    rng = np.random.default_rng(10)
    keys = rng.integers(0, 400, size=3000)
    a = CountMinSketch(2, 128, seed=12)
    b = CountMinSketch(2, 128, seed=12)
    for key in keys:
        a.update(int(key), 0.5)
    b.update_many(keys, 0.5)
    assert np.array_equal(a.counts, b.counts)
    probe = np.arange(0, 400)
    assert np.array_equal(
        b.query_many(probe), np.array([a.query(int(k)) for k in probe])
    )

    us = rng.integers(0, 100, size=2000)
    vs = rng.integers(0, 100, size=2000)
    ha = HigherOrderSketch(2, 32, seed=13)
    hb = HigherOrderSketch(2, 32, seed=13)
    for u, v in zip(us, vs):
        ha.update(int(u), int(v))
    hb.update_many(us, vs)
    assert np.array_equal(ha.matrices, hb.matrices)
    assert np.array_equal(
        hb.estimate_many(us[:50], vs[:50]),
        np.array([ha.estimate(int(u), int(v)) for u, v in zip(us[:50], vs[:50])]),
    )


def test_snapshot_roundtrip_and_stability():
    sketch = CountMinSketch(2, 64, seed=17)
    for key in range(40):
        sketch.update(key, key * 0.25)
    blob = sketch.to_bytes()
    assert blob == sketch.to_bytes()
    clone = CountMinSketch.from_bytes(blob)
    assert np.array_equal(clone.counts, sketch.counts)
    for key in range(40):
        assert clone.query(key) == sketch.query(key)

    ho = HigherOrderSketch(2, 8, seed=18)
    for key in range(30):
        ho.update(key, key + 1, 0.5)
    ho_clone = HigherOrderSketch.from_bytes(ho.to_bytes())
    assert np.array_equal(ho_clone.matrices, ho.matrices)
    assert ho_clone.estimate(3, 4) == ho.estimate(3, 4)


def test_snapshot_keeps_a_seed_wider_than_32_bits():
    sketch = CountMinSketch(2, 64, seed=2**32 + 7)
    sketch.update("k", 3.0)
    clone = CountMinSketch.from_bytes(sketch.to_bytes())
    assert clone.family.seed == 2**32 + 7
    assert clone.query("k") == 3.0


def test_snapshot_rejects_a_seed_wider_than_64_bits():
    with pytest.raises(ValueError, match="64 bits"):
        CountMinSketch(2, 8, seed=2**64).to_bytes()


def test_restored_matrices_stay_a_view_of_the_counts():
    ho = HigherOrderSketch(2, 8, seed=19)
    ho.update("u", "v", 1.5)
    clone = HigherOrderSketch.from_bytes(ho.to_bytes())
    clone.update("u", "v", 2.0)
    for layer, cell in enumerate(clone.indexes("u", "v")):
        assert clone.matrices[layer][divmod(cell, 8)] == 3.5
    assert clone.estimate("u", "v") == 3.5


@pytest.mark.parametrize("cls,args", [(CountMinSketch, (2, 16)), (HigherOrderSketch, (2, 4))])
@pytest.mark.parametrize("damage", ["truncated", "extended", "three_bytes", "wrong_version"])
def test_malformed_snapshot_raises_value_error(cls, args, damage):
    blob = cls(*args, seed=3).to_bytes()
    bad = {
        "truncated": blob[:-5],
        "extended": blob + bytes(8),
        "three_bytes": blob[:3],
        "wrong_version": bytes([blob[0] + 1]) + blob[1:],
    }[damage]
    with pytest.raises(ValueError):
        cls.from_bytes(bad)
