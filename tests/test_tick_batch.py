"""Tick-batched scoring is exact: ``MidasDetector.process_many`` against the
per-item ``process`` it replaces, compared with ``==``.

Every case runs with ``TICK_BATCH_MIN`` at 1 (every run of one tick goes
through ``step_many``), at 1 with ``TICK_BATCH_MAX`` at 3 (a run spans
several chunks), and at infinity (every event through ``process`` inside
``process_many``); each is held to a plain ``process`` loop.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsketch import midas
from streamsketch.events import EdgeEvent
from streamsketch.midas import VARIANTS, DecisionRule, MidasDetector

from oracles import LooseEdge

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)
# (TICK_BATCH_MIN for every variant, TICK_BATCH_MAX)
BATCH_LIMITS = [(1, midas.TICK_BATCH_MAX), (1, 3), (math.inf, midas.TICK_BATCH_MAX)]
SHAPES = [(1, 1), (2, 4), (3, 16), (2, 1024)]  # (rows, buckets); one bucket collides everything

IDS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**63 - 2, 2**63 + 1),  # around the int64 edge
    st.integers(2**64 - 1, 2**64 + 1),  # 2**64 canonicalises to 0, as 0 does
    st.sampled_from(["a", "b", "é"]),
    st.sampled_from([b"a", b"\x00"]),
)
WEIGHTS = st.one_of(
    st.just(1.0),
    st.integers(0, 5),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)
# (source, dest, ticks to move on, weight); a step of 0 stays in the tick.
EDGES = st.lists(
    st.tuples(IDS, IDS, st.sampled_from([0, 0, 0, 1, 2]), WEIGHTS), min_size=1, max_size=60
)
# float(t - 1) is not float(t) - 1 at 2**53 + 1; float(t) == float(t - 1) near 1e300.
FIRST_TICKS = st.sampled_from([1, 2, 2**53 + 1, 10**300])


def stream(edges, first_tick) -> list[EdgeEvent]:
    tick, events = first_tick, []
    for source, dest, step, weight in edges:
        tick += step
        events.append(EdgeEvent(source, dest, tick, weight))
    return events


def batch_limits(batch_min, batch_max=midas.TICK_BATCH_MAX):
    """Patch process_many's run gate and chunk size."""
    return mock.patch.multiple(
        midas, TICK_BATCH_MIN=dict.fromkeys(VARIANTS, batch_min), TICK_BATCH_MAX=batch_max
    )


def one_by_one(detector, events, rule, mode):
    scores, flags = [], []
    for event in events:
        stats = detector.process(event)
        scores.append(stats.combined(mode))
        flags.append(rule.is_flagged(stats) if rule is not None else None)
    return scores, flags if rule is not None else None


def check_exact(events, variant, shape, mode, epsilon):
    """process_many at each of BATCH_LIMITS gives what process gives."""
    n_rows, n_buckets = shape
    oracle = MidasDetector(variant, n_rows=n_rows, n_buckets=n_buckets, seed=3)
    rule = DecisionRule.for_detector(epsilon, oracle) if epsilon is not None else None
    expected = one_by_one(oracle, events, rule, mode)
    for limits in BATCH_LIMITS:
        detector = MidasDetector(variant, n_rows=n_rows, n_buckets=n_buckets, seed=3)
        with batch_limits(*limits):
            got = detector.process_many(events, rule, mode)
        assert got == expected, limits
        assert np.array_equal(detector.counts, oracle.counts), limits
        assert detector.tick_volume == oracle.tick_volume, limits
        assert detector.clock.tick == oracle.clock.tick, limits


@SETTINGS
@given(
    edges=EDGES,
    first_tick=FIRST_TICKS,
    variant=st.sampled_from(VARIANTS),
    shape=st.sampled_from(SHAPES),
    mode=st.sampled_from(["max", "sum"]),
    epsilon=st.sampled_from([None, 0.05, 0.5]),
)
@example(  # collisions and ties inside one tick, then one-edge ticks
    edges=[(1, 2, 0, 1.0), (1, 2, 0, 1.0), (2, 1, 0, 0.5), (1, 2, 1, 1.0), (3, 3, 1, 2.0)],
    first_tick=1, variant="filtering", shape=(1, 1), mode="max", epsilon=0.05,
)
def test_process_many_matches_process(edges, first_tick, variant, shape, mode, epsilon):
    check_exact(stream(edges, first_tick), variant, shape, mode, epsilon)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["max", "sum"])
def test_burst_tick_of_400_copies(variant, mode):
    """History over one-edge and mixed ticks, then 400 copies of one edge in
    one tick among background edges: 400 levels of the in-order scan."""
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 40, (190, 2)).tolist()
    events = [EdgeEvent(u, v, 1 + i // 3) for i, (u, v) in enumerate(pairs[:90])]
    burst_tick = events[-1].tick + 1
    background = [EdgeEvent(u, v, burst_tick, 0.25) for u, v in pairs[90:]]
    burst = [EdgeEvent(7, 9, burst_tick, 1.0)] * 400
    mixed = [event for pair in zip(burst[:100], background) for event in pair] + burst[100:]
    events += mixed + [EdgeEvent(7, 9, burst_tick + 1)]
    check_exact(events, variant, (2, 64), mode, 0.05)


def test_huge_weights_overflow_alike():
    """Counts that overflow to inf give inf and nan scores on both paths."""
    events = [EdgeEvent("u", "v", 1, 1e308)] * 3 + [EdgeEvent("u", "w", 2, 1.7e308)] * 3
    non_finite = 0
    for variant in VARIANTS:
        oracle = MidasDetector(variant, n_rows=2, n_buckets=4, seed=1)
        rule = DecisionRule.for_detector(0.05, oracle)
        with np.errstate(over="ignore"):  # the per-item path adds numpy scalars
            expected_scores, expected_flags = one_by_one(oracle, events, rule, "max")
        non_finite += sum(not math.isfinite(x) for x in expected_scores)
        detector = MidasDetector(variant, n_rows=2, n_buckets=4, seed=1)
        with batch_limits(1):
            scores, flags = detector.process_many(events, rule)
        assert np.array_equal(scores, expected_scores, equal_nan=True)
        assert flags == expected_flags
        assert np.array_equal(detector.counts, oracle.counts, equal_nan=True)  # nan cached scores
    assert non_finite


@pytest.mark.parametrize(
    "bad, error",
    [
        (LooseEdge("u", "v", 2, math.nan), ValueError),
        (LooseEdge("u", "v", 2, -1.0), ValueError),
        (LooseEdge("u", "v", 2, "1"), TypeError),  # numpy would read it as 1.0
        (LooseEdge("u", ["not", "hashable"], 2), TypeError),
        (LooseEdge("u", "v", 1), ValueError),  # tick regression
    ],
    ids=["nan-weight", "negative-weight", "str-weight", "list-id", "tick-regression"],
)
def test_a_rejected_event_raises_where_process_does(bad, error):
    """A run holding an event the per-item path rejects is scored item by item,
    so the error and the state it leaves are those of process."""
    events = [LooseEdge(i % 3, i % 5, 1 + i // 6) for i in range(18)]
    events[14] = LooseEdge(bad.source, bad.dest, 3 if bad.tick == 2 else bad.tick, bad.weight)
    oracle = MidasDetector("filtering", n_rows=2, n_buckets=8, seed=4)
    with pytest.raises(error):
        for event in events:
            oracle.process(event)
    detector = MidasDetector("filtering", n_rows=2, n_buckets=8, seed=4)
    with batch_limits(1, 4), pytest.raises(error):
        detector.process_many(events)
    assert np.array_equal(detector.counts, oracle.counts)
    assert detector.tick_volume == oracle.tick_volume
    assert detector.clock.tick == oracle.clock.tick


def test_numpy_scalar_weights_take_the_batch_path():
    events = [LooseEdge(i % 3, i % 5, 1 + i // 6, np.float64(0.5 * i)) for i in range(18)]
    oracle = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    expected = one_by_one(oracle, events, None, "max")
    detector = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    per_item = mock.patch.object(MidasDetector, "process", side_effect=AssertionError("per item"))
    with batch_limits(1), per_item:
        assert detector.process_many(events) == expected
    assert np.array_equal(detector.counts, oracle.counts)


def test_unknown_mode_is_rejected_before_any_event():
    detector = MidasDetector("relational", seed=1)
    with pytest.raises(ValueError, match="unknown combination mode"):
        detector.process_many([EdgeEvent("u", "v", 1)], mode="mean")
    assert detector.clock.tick is None
