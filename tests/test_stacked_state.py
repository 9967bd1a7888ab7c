"""Stacked detector state: every table of a detector is a slice of one
array, the whole-array tick close matches the per-table close exactly, and
a copied detector counts in its own array."""

import copy
import math
import pickle
import re
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsketch.densegraph import AnoEdgeGlobal, AnoEdgeLocal
from streamsketch.events import EdgeEvent, MultiAspectRecord
from streamsketch.hashing import canonical_key
from streamsketch.midas import VARIANTS, DecisionRule, MidasDetector
from streamsketch.mstream import MstreamDetector
from streamsketch.pomdp import PredictorConfig, TwoStateProcess, expected_accuracy_one_sided
from streamsketch.sess import Sess3dDetector, SharpeningParams, apply_feedback
from streamsketch.sketch import CountMinSketch, check_decay, check_weight

from oracles import LooseEdge, PerTableDetector

SETTINGS = settings(max_examples=80, deadline=None, database=None, derandomize=True)


# One step: (tick increment, source, dest, weight, cache poke or None). A poke
# overwrites one score-cache cell before the step, with nan or a value on
# either side of the merge threshold.
WEIGHTS = st.sampled_from([1.0, 1.0, 0.0, 0.5, 2.5, 7.0]) | st.floats(0.0, 50.0)
POKES = st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from([math.nan, 0.5, 3.0, 1e9]))
STEPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 1, 2]),
        st.integers(0, 5),
        st.integers(0, 5),
        WEIGHTS,
        POKES,
    ),
    min_size=1,
    max_size=60,
)
THRESHOLD = 2.0  # low enough that cached scores cross it


@pytest.mark.parametrize("variant", VARIANTS)
@SETTINGS
@given(steps=STEPS, alpha=st.sampled_from([0.5, 0.3, 0.9]))
# A nan cache cell at tick 1 is rejected by the close of tick 1.
@example(steps=[(0, 1, 2, 1.0, (0, math.nan)), (1, 1, 2, 1.0, None), (1, 1, 2, 3.0, None)], alpha=0.5)
# One-edge ticks, each with a weight, then a same-tick burst.
@example(steps=[(1, 0, 1, 2.5, None)] * 6 + [(0, 0, 1, 1.0, None)] * 8 + [(1, 0, 1, 1.0, None)], alpha=0.5)
def test_stacked_close_matches_the_per_table_close(variant, steps, alpha):
    kwargs = dict(n_rows=2, n_buckets=4, alpha=alpha, merge_threshold=THRESHOLD, seed=7)
    fast = MidasDetector(variant, **kwargs)
    oracle = PerTableDetector(variant, **kwargs)
    tick = 1
    for dtick, source, dest, weight, poke in steps:
        tick += dtick
        if poke is not None and variant == "filtering":
            cell, value = poke
            for detector in (fast, oracle):
                caches = detector.counts[2]
                caches.flat[cell % caches.size] = value
        event = EdgeEvent(source, dest, tick, weight)
        assert fast.process(event) == oracle.process(event)
        assert np.array_equal(fast.counts, oracle.counts, equal_nan=True)
        assert fast.tick_volume == oracle.tick_volume


# -- each key counts in its own slice ------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_midas_tables_view_the_stacked_array(variant):
    """Key k of an edge counts in slice k of each kind, at its own cells only."""
    detector = MidasDetector(variant, n_rows=3, n_buckets=16, seed=1)
    detector.process(EdgeEvent("u", "v", 1, 2.0))
    detector.process(EdgeEvent("u", "v", 2, 2.0))
    cells = detector.cells("u", "v")
    n_kinds = 3 if variant == "filtering" else 2
    assert detector.counts.shape == (n_kinds, len(cells), 3, 16)
    for k, key_cells in enumerate(cells):
        touched = np.zeros((3, 16), dtype=bool)
        touched[np.arange(3), key_cells] = True
        for kind in range(n_kinds):
            assert not detector.counts[kind, k][~touched].any()
        assert (detector.counts[0, k][touched] > 0).all()  # the tick-1 weight, merged or not


def test_mstream_tables_view_the_stacked_array():
    detector = MstreamDetector(2, 1, n_rows=2, n_buckets=16, alpha=0.5, seed=3)
    assert detector.counts.shape == (2, 2 + 1 + 1, 2, 16)
    detector.score(MultiAspectRecord(("a", "b"), (3.0,), tick=1))
    currents = detector.counts[1].copy()
    detector.score(MultiAspectRecord(("c", "d"), (9.0,), tick=2))
    # The tick change decays every current table; the new record adds 1 per row.
    for current, before in zip(detector.counts[1], currents):
        added = current - before * 0.5
        assert sorted(added[added != 0].tolist()) == [1.0, 1.0]


def test_flat_feedback_writes_reach_the_stacked_array():
    detector = MidasDetector("relational", n_rows=2, n_buckets=1 << 12, seed=1)
    detector.process(EdgeEvent("u", "v", 1, 3.0))
    before = detector.counts.copy()
    apply_feedback(detector, detector.cells("u", "v"), 1, SharpeningParams(2.0, 0.3))
    expected = before.copy()
    for k, key in enumerate([("u", "v"), "u", "v"]):
        for row, bucket in enumerate(detector.family.indexes(canonical_key(key))):
            expected[0, k, row, bucket] *= 0.3
            expected[1, k, row, bucket] *= 2.0
    assert np.array_equal(detector.counts, expected)
    assert (detector.counts != before).sum() == 2 * 3 * 2


# -- the weight is checked once, on every path ------------------------------------


# Weights float() cannot convert: an int or a Fraction compares with inf
# exactly, so only float() itself finds them out.
TOO_LARGE = [pytest.param(10**400, id="int"), pytest.param(Fraction(10**400), id="fraction")]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, *TOO_LARGE])
def test_bad_weight_of_a_duck_typed_event_reaches_no_table(variant, bad):
    detector = MidasDetector(variant, n_rows=2, n_buckets=16, seed=2)
    detector.process(LooseEdge("u", "v", 1, 1.0))
    before = detector.counts.copy()
    with pytest.raises(ValueError, match="weight"):
        detector.process(LooseEdge("u", "v", 2, bad))
    assert np.array_equal(detector.counts, before)
    assert detector.tick_volume == 1.0
    assert detector.clock.tick == 1


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("bad", TOO_LARGE)
def test_a_weight_float_cannot_take_reaches_no_table_through_process_many(variant, bad):
    detector = MidasDetector(variant, n_rows=2, n_buckets=16, seed=2)
    detector.process(LooseEdge("u", "v", 1, 1.0))
    before = detector.counts.copy()
    with pytest.raises(ValueError, match="^update weight too large for a float$"):
        detector.process_many([LooseEdge("u", "v", 2, bad)])
    assert np.array_equal(detector.counts, before)
    assert detector.tick_volume == 1.0
    assert detector.clock.tick == 1


@pytest.mark.parametrize("bad", TOO_LARGE)
def test_a_weight_float_cannot_take_makes_no_edge_and_reaches_no_sketch(bad):
    with pytest.raises(ValueError, match="^edge weight too large for a float$"):
        EdgeEvent("u", "v", 1, bad)
    sketch = CountMinSketch(2, 16, seed=0)
    sketch.update("k", 2.0)
    before = sketch.counts.copy()
    with pytest.raises(ValueError, match="^update weight too large for a float$"):
        sketch.update("k", bad)
    assert np.array_equal(sketch.counts, before)


def test_a_weight_float_rounds_down_to_the_largest_float_is_taken():
    """Only a weight float() cannot take is rejected: one just above the
    largest float rounds down to it, as it did before the bound was added."""
    just_above = int(sys.float_info.max) + 1
    assert EdgeEvent("u", "v", 1, just_above).weight == just_above
    sketch = CountMinSketch(2, 16, seed=0)
    sketch.update("k", just_above)
    assert sketch.counts.max() == sys.float_info.max


def test_a_negative_int_too_long_to_print_gets_the_weight_and_tick_messages():
    """An int str() refuses (over 4300 digits) is described, not printed;
    printable values keep their messages, and nothing is written."""
    huge, described = -(10**5000), "got a number too long to print$"
    with pytest.raises(ValueError, match="^update weight must be finite and >= 0, " + described):
        check_weight(huge)
    with pytest.raises(ValueError, match="^edge weight must be finite and >= 0, " + described):
        EdgeEvent("u", "v", 1, huge)
    with pytest.raises(ValueError, match="^tick must be >= 1, " + described):
        EdgeEvent("u", "v", huge)
    with pytest.raises(ValueError, match="^update weight must be finite and >= 0, got -1$"):
        check_weight(-1)
    with pytest.raises(ValueError, match="^tick must be >= 1, got -3$"):
        EdgeEvent("u", "v", -3)
    detector = MidasDetector("relational", n_rows=2, n_buckets=16, seed=2)
    detector.process(LooseEdge("u", "v", 1, 1.0))
    before = detector.counts.copy()
    with pytest.raises(ValueError, match="^update weight must be finite and >= 0, " + described):
        detector.process(LooseEdge("u", "v", 2, huge))
    assert np.array_equal(detector.counts, before)
    assert detector.tick_volume == 1.0
    assert detector.clock.tick == 1


@pytest.mark.parametrize(
    "reject, message",
    [
        (lambda: check_decay(10**5000), "decay factor must be in (0, 1)"),
        (lambda: SharpeningParams(boost=-(10**5000)), "boost factor must be finite and > 1"),
        (lambda: SharpeningParams().factors(10**5000), "label must be 0 or 1"),
        (lambda: TwoStateProcess(p=10**5000, q=0.1), "p must be in (0, 1)"),
        (lambda: PredictorConfig(kind="opt", phi=10**5000), "phi must be in [0, 1]"),
        (lambda: PredictorConfig(kind="opt", wait_steps=-(10**5000)), "wait_steps must be >= 1"),
        (lambda: expected_accuracy_one_sided(0.1, 0.2, -(10**5000), 0.1), "wait_steps must be >= 1"),
        (lambda: PredictorConfig(kind=10**5000), "kind must be 'imitate' or 'opt'"),
        (lambda: MidasDetector("filtering", merge_threshold=-(10**5000)), "merge threshold must be > 0"),
        (lambda: merge_at_threshold(-(10**5000)), "merge threshold must be > 0"),
        (lambda: DecisionRule(-(10**5000), 0.1), "epsilon must be in (0, 1)"),
        (lambda: DecisionRule(0.05, -(10**5000)), "nu must be > 0"),
    ],
    ids=[
        "decay", "boost", "label", "p", "phi", "wait", "one-sided-wait",
        "kind", "merge-threshold", "merge-conditional", "epsilon", "nu",
    ],
)
def test_an_int_too_long_to_print_gets_the_parameter_message(reject, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got a number too long to print$"):
        reject()


def merge_at_threshold(epsilon):
    """A conditional merge of one sketch into another at ``epsilon``, after
    which the total holds nothing when the merge was rejected."""
    total = CountMinSketch(2, 16, seed=0)
    current = CountMinSketch(2, 16, seed=0)
    current.update("k", 2.0)
    try:
        total.merge_conditional(current, CountMinSketch(2, 16, seed=0), epsilon, 2)
    finally:
        assert not total.counts.any()


@pytest.mark.parametrize(
    "reject, what",
    [
        (lambda big: MidasDetector("filtering", merge_threshold=big), "merge threshold"),
        (merge_at_threshold, "merge threshold"),
        (lambda big: SharpeningParams(boost=big), "boost factor"),
        (lambda big: DecisionRule(0.05, big), "nu"),
    ],
    ids=["merge-threshold", "merge-conditional", "boost", "nu"],
)
@pytest.mark.parametrize("big", TOO_LARGE)
def test_a_parameter_float_cannot_take_is_rejected_when_given(reject, what, big):
    """Not at the first tick close, feedback or flag that would use it,
    after the clock or the counts had moved."""
    with pytest.raises(ValueError, match=f"^{what} too large for a float$"):
        reject(big)


def local_state(detector):
    """AnoEdge-L's sketch and the running sums of its maintained submatrices."""
    sums = [[*s.gain, np.array([s.total])] for s in detector.states]
    return [detector.sketch.counts] + [array for layer in sums for array in layer]


@pytest.mark.parametrize(
    "make, score, state",
    [
        (Sess3dDetector, Sess3dDetector.score, lambda d: [d.counts]),
        (AnoEdgeGlobal, lambda d, event: d.score_many([event]), lambda d: [d.sketch.counts]),
        (AnoEdgeLocal, AnoEdgeLocal.score, local_state),
    ],
    ids=["sess-3d", "anoedge-g", "anoedge-l"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, *TOO_LARGE])
def test_bad_weight_of_a_duck_typed_event_changes_no_higher_order_state(make, score, state, bad):
    detector = make(n_rows=2, n_buckets=8, seed=2)
    score(detector, LooseEdge("u", "v", 1, 1.0))
    before = [array.copy() for array in state(detector)]
    with pytest.raises(ValueError, match="weight"):
        score(detector, LooseEdge("u", "v", 2, bad))
    assert all(map(np.array_equal, state(detector), before))
    assert detector.clock.tick == 1


# -- a copy counts in its own stacked array -----------------------------------------


def edge_stream(n, offset=0):
    return [EdgeEvent(i % 5, (i * 3) % 7, 1 + (offset + i) // 3, 1.0 + i % 2) for i in range(n)]


def score_edges(detector, events):
    return [detector.process(event) for event in events]


def score_sess(detector, events):
    """Scores with edge and node feedback halfway."""
    half = len(events) // 2
    scores = [detector.score(event) for event in events[:half]]
    params = SharpeningParams(2.0, 0.3)
    apply_feedback(detector, detector.cells(events[0].source, events[0].dest), 1, params)
    apply_feedback(detector, detector.node_cells(events[1].source), 0, params)
    return scores + [detector.score(event) for event in events[half:]]


def score_records(detector, events):
    records = [MultiAspectRecord((e.source,), (float(e.dest),), e.tick) for e in events]
    return [detector.score(record) for record in records]


COPIED = {
    **{
        variant: (partial(MidasDetector, variant, merge_threshold=THRESHOLD), score_edges)
        for variant in VARIANTS
    },
    "mstream": (partial(MstreamDetector, 1, 1, alpha=0.5), score_records),
    "sess-3d": (Sess3dDetector, score_sess),
}
COPY_ROUTES = {"deepcopy": copy.deepcopy, "pickle": lambda d: pickle.loads(pickle.dumps(d))}


@pytest.mark.parametrize("route", list(COPY_ROUTES))
@pytest.mark.parametrize("name", list(COPIED))
def test_a_copied_detector_scores_as_its_original(name, route):
    """A copy taken mid-stream steps, closes ticks and takes feedback on its
    own counts: after one suffix it scores and counts as an uncopied twin."""
    make, score = COPIED[name]
    original = make(n_rows=2, n_buckets=8, seed=5)
    score(original, edge_stream(20))
    clone = COPY_ROUTES[route](original)
    suffix = edge_stream(20, offset=20)
    assert score(clone, suffix) == score(original, suffix)
    assert np.array_equal(clone.counts, original.counts)
    assert clone.tick_volume == original.tick_volume


@pytest.mark.parametrize("route", list(COPY_ROUTES))
@pytest.mark.parametrize(
    "make, score",
    [
        (AnoEdgeGlobal, AnoEdgeGlobal.score_many),
        (AnoEdgeLocal, AnoEdgeLocal.score_many),
    ],
    ids=["anoedge-g", "anoedge-l"],
)
def test_a_copied_higher_order_detector_scores_as_its_original(make, score, route):
    """The same for the detectors that read the sketch's ``matrices``."""
    original = make(n_rows=2, n_buckets=8, seed=5)
    score(original, edge_stream(20))
    clone = COPY_ROUTES[route](original)
    suffix = edge_stream(20, offset=20)
    assert score(clone, suffix) == score(original, suffix)
    assert np.array_equal(clone.sketch.counts, original.sketch.counts)
