"""Tick-batched scoring is exact: ``MidasDetector.process_many`` against the
per-item ``process`` it replaces, SESS-3D's inherited ``process_many``
against its two-sketch oracle, and ``MstreamDetector.score_many`` against
the per-record ``score``, compared with ``==``. ``MidasDetector.score`` is
held to ``process`` the same way.

Every case runs with ``TICK_BATCH_MIN`` at 1 (every run of one tick goes
through ``step_many``), at 1 with ``TICK_BATCH_MAX`` at 3 (a run spans
several pieces), and at infinity (every item through the per-item path
inside ``each_run``, on cells hashed a piece at a time), there also with
``TICK_BATCH_MAX`` at 3 (pieces cut across ticks); each is held to a plain
per-item loop.
"""

import gc
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsketch import hashing, midas, mstream
from streamsketch.events import EdgeEvent, MultiAspectRecord
from streamsketch.hashing import HashFamily
from streamsketch.midas import VARIANTS, DecisionRule, MidasDetector
from streamsketch.mstream import HyperplaneHash, MstreamDetector, _signatures_many
from streamsketch.sketch import check_weight, weights_ok
from streamsketch.sess import Sess3dDetector

from oracles import LooseEdge, LooseRecord, TwoSketchSess3d

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)
# (TICK_BATCH_MIN for every variant, TICK_BATCH_MAX)
BATCH_LIMITS = [(1, midas.TICK_BATCH_MAX), (1, 3), (math.inf, midas.TICK_BATCH_MAX), (math.inf, 3)]
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


REJECTED_EVENTS = pytest.mark.parametrize(
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


def check_rejected(bad, error, limits):
    events = [LooseEdge(i % 3, i % 5, 1 + i // 6) for i in range(18)]
    events[14] = LooseEdge(bad.source, bad.dest, 3 if bad.tick == 2 else bad.tick, bad.weight)
    oracle = MidasDetector("filtering", n_rows=2, n_buckets=8, seed=4)
    with pytest.raises(error):
        for event in events:
            oracle.process(event)
    detector = MidasDetector("filtering", n_rows=2, n_buckets=8, seed=4)
    with batch_limits(*limits), pytest.raises(error):
        detector.process_many(events)
    assert np.array_equal(detector.counts, oracle.counts)
    assert detector.tick_volume == oracle.tick_volume
    assert detector.clock.tick == oracle.clock.tick


@REJECTED_EVENTS
def test_a_rejected_event_raises_where_process_does(bad, error):
    """A piece holding an id or weight the per-item path rejects is scored
    item by item, and a tick regression stops a run before it changes
    anything, so the error and the state it leaves are those of process."""
    check_rejected(bad, error, (1, 4))


@REJECTED_EVENTS
def test_a_rejected_event_of_a_short_run_raises_where_process_does(bad, error):
    """The same where every run is short: the event's piece failed to hash
    (the ids and weights) or its cells were hashed ahead (tick-regression)."""
    check_rejected(bad, error, (math.inf, 4))


def test_numpy_scalar_weights_take_the_batch_path():
    events = [LooseEdge(i % 3, i % 5, 1 + i // 6, np.float64(0.5 * i)) for i in range(18)]
    oracle = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    expected = one_by_one(oracle, events, None, "max")
    detector = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    per_item = mock.patch.object(MidasDetector, "process", side_effect=AssertionError("per item"))
    with batch_limits(1), per_item:
        assert detector.process_many(events) == expected
    assert np.array_equal(detector.counts, oracle.counts)


def test_short_runs_step_on_cells_hashed_a_piece_at_a_time():
    """Runs too short to batch are not hashed edge by edge."""
    events = [EdgeEvent(i % 3, f"n{i % 5}", 1 + i // 2) for i in range(30)]
    oracle = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    expected = one_by_one(oracle, events, None, "max")
    detector = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    per_edge = mock.patch.object(HashFamily, "indexes", side_effect=AssertionError("per edge"))
    with batch_limits(math.inf, 8), per_edge:
        assert detector.process_many(events) == expected
    assert np.array_equal(detector.counts, oracle.counts)


def test_a_string_id_piece_canonicalises_each_id_once():
    """A piece of string ids calls ``canonical_key`` once per distinct id,
    whether it is a source, a destination or both, not once per endpoint."""
    events = [EdgeEvent(f"n{i % 7}", f"n{i % 11}", 1 + i // 50) for i in range(400)]
    oracle = MidasDetector("relational", n_rows=2, n_buckets=64, seed=4)
    expected = one_by_one(oracle, events, None, "max")
    detector = MidasDetector("relational", n_rows=2, n_buckets=64, seed=4)
    with mock.patch.object(hashing, "canonical_key", wraps=hashing.canonical_key) as calls:
        assert detector.process_many(events) == expected
    assert np.array_equal(detector.counts, oracle.counts)
    assert calls.call_count == len({e.source for e in events} | {e.dest for e in events})


def test_a_piece_of_fraction_weights_goes_item_by_item():
    """Fraction weights pass ``check_weight`` but not ``weights_ok``, so
    their piece is scored by ``process`` event by event, with ``==`` scores."""
    events = [EdgeEvent(i % 3, i % 5, 1 + i // 20, Fraction(1, 1 + i % 4)) for i in range(100)]
    assert not weights_ok(np.asarray([event.weight for event in events]))
    for event in events:
        check_weight(event.weight)
    oracle = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    expected = one_by_one(oracle, events, None, "max")
    detector = MidasDetector("relational", n_rows=2, n_buckets=8, seed=4)
    batch = mock.patch.object(MidasDetector, "step_many", side_effect=AssertionError("batch"))
    with batch:
        assert detector.process_many(events) == expected
    assert np.array_equal(detector.counts, oracle.counts)
    assert detector.tick_volume == oracle.tick_volume


def test_each_run_yields_the_stream_in_runs_scored_one_at_a_time():
    """On pieces of 8 and a gate of 3: a piece holding a Fraction weight comes
    whole, item by item; then ticks of 1-2 edges come item by item on their
    cells, and a tick of 12 edges across the piece boundary as a batch run on
    each side of it, each yielded once the clock is at its tick. Scored as
    ``process_many`` scores them, the runs give what ``process`` gives."""
    ticks = [1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 7, *[8] * 12, 9]
    events = [EdgeEvent(i % 5, i % 3, tick) for i, tick in enumerate(ticks)]
    events[4] = EdgeEvent(4, 1, 3, Fraction(1, 3))
    oracle = MidasDetector("relational", n_rows=2, n_buckets=16, seed=3)
    rule = DecisionRule.for_detector(0.05, oracle)
    expected = one_by_one(oracle, events, rule, "sum")
    detector = MidasDetector("relational", n_rows=2, n_buckets=16, seed=3)
    streamed, shapes, scores, flags = [], [], [], []
    with batch_limits(3, 8):
        for run, tick, hashes in detector.each_run(events):
            streamed += run
            shapes.append((len(run), tick))
            if tick is None:
                for event, cells in zip(run, hashes):
                    if cells is not None:
                        assert cells == list(map(list, detector.cells(event.source, event.dest)))
                    stats = detector.process(event, cells)
                    scores.append(stats.combined("sum"))
                    flags.append(rule.is_flagged(stats))
                continue
            assert detector.clock.tick == tick
            per_key, a, s, volume = detector.step_many(*hashes, tick)
            scores += midas._combine_many(per_key, "sum").tolist()
            flags += rule.flags_many(a, s, volume, tick).tolist()
    assert streamed == events
    assert shapes == [(8, None), (2, None), (1, None), (5, 8), (7, 8), (1, None)]
    assert (scores, flags) == expected
    assert np.array_equal(detector.counts, oracle.counts)
    assert detector.tick_volume == oracle.tick_volume


def test_hashing_a_midas_piece_holds_few_arrays():
    """The tracemalloc peak of hashing one piece of 4096 relational edges,
    less the cells and weights it returns, stays under a fixed allowance:
    ~260 KB with ``bucket_indexes`` taking a block of keys at a time, ~590
    KB without blocks."""
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 500, size=(midas.TICK_BATCH_MAX, 2)).tolist()
    events = [EdgeEvent(u, v, 1 + i // 100) for i, (u, v) in enumerate(pairs)]
    detector = MidasDetector("relational", seed=3)
    gc.collect()
    tracemalloc.start()
    hashes = detector._hash_piece(events)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert hashes[0].shape == (3, 2, len(events))
    assert peak - sum(part.nbytes for part in hashes) < 384 * 1024


def test_unknown_mode_is_rejected_before_any_event():
    detector = MidasDetector("relational", seed=1)
    with pytest.raises(ValueError, match="unknown combination mode"):
        detector.process_many([EdgeEvent("u", "v", 1)], mode="mean")
    assert detector.clock.tick is None


# -- SESS-3D and score ----------------------------------------------------------

# Weights near the float limit give inf scores, also at FIRST_TICKS' 2**53 + 1,
# and nan ones once a total overflows to inf beside a finite current count.
# Weights of at most 1e306 reach neither inf counts nor nan in 60 edges.
HUGE_EDGES = st.lists(
    st.tuples(IDS, IDS, st.sampled_from([0, 0, 0, 1, 2]), WEIGHTS | st.floats(1e300, 1e308)),
    min_size=1,
    max_size=60,
)
# On one bucket, every detector scores inf by tick 3 and all but filtering nan at tick 4.
OVERFLOW = [(1, 2, 0, 1e306), (2, 1, 0, 3.0), (1, 2, 1, 1e306), (1, 2, 1, 1e308), (1, 2, 1, 1e308)]
SMALL_SHAPES = SHAPES[:3]  # a SESS-3D row holds n_buckets ** 2 cells


def same_scores(got, expected) -> bool:
    """``==`` element by element, a nan matching a nan."""
    return np.array_equal(got, expected, equal_nan=True)


@SETTINGS
@given(edges=HUGE_EDGES, first_tick=FIRST_TICKS, shape=st.sampled_from(SMALL_SHAPES))
@example(edges=OVERFLOW, first_tick=1, shape=(1, 1))
def test_sess_3d_process_many_matches_its_two_sketch_oracle(edges, first_tick, shape):
    """SESS-3D inherits process_many: each run of BATCH_LIMITS gives the
    scores and counts of the per-edge oracle."""
    events = stream(edges, first_tick)
    oracle = TwoSketchSess3d(*shape, alpha=0.5, seed=3)
    with np.errstate(over="ignore"):  # the oracle adds numpy scalars
        expected = [oracle.score(event) for event in events]
    for limits in BATCH_LIMITS:
        detector = Sess3dDetector(*shape, alpha=0.5, seed=3)
        with batch_limits(*limits):
            scores, _ = detector.process_many(events)
        assert same_scores(scores, expected), limits
        assert np.array_equal(detector.counts[:, 0], [oracle.total.counts, oracle.current.counts])


DETECTORS = {
    **{variant: partial(MidasDetector, variant) for variant in VARIANTS},
    "sess-3d": Sess3dDetector,
}


@SETTINGS
@given(
    edges=HUGE_EDGES,
    first_tick=FIRST_TICKS,
    name=st.sampled_from(sorted(DETECTORS)),
    shape=st.sampled_from(SMALL_SHAPES),
)
@example(edges=OVERFLOW, first_tick=1, name="relational", shape=(1, 1))
def test_score_is_process_combined_max(edges, first_tick, name, shape):
    """score skips StepStats but gives what process(event).combined("max")
    gives, edge by edge."""
    make = partial(DETECTORS[name], n_rows=shape[0], n_buckets=shape[1], seed=3)
    scorer, processor = make(), make()
    with np.errstate(over="ignore"):  # filtering's tick close sums counts near the limit
        for event in stream(edges, first_tick):
            assert same_scores(scorer.score(event), processor.process(event).combined("max"))
    assert np.array_equal(scorer.counts, processor.counts, equal_nan=True)  # nan cached scores
    assert scorer.tick_volume == processor.tick_volume


# -- MStream ------------------------------------------------------------------

CATEGORIES = st.one_of(
    st.integers(-3, 3),
    st.integers(2**64 - 1, 2**64 + 1),
    st.sampled_from(["a", "b", "é", ""]),
    st.sampled_from([b"a", b"\x00"]),
    st.tuples(st.integers(0, 2), st.sampled_from(["a", b"a"])),
)
NUMERICS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e300, -0.999999, -1.0 + 2.0**-52, 5e-324]),
    st.floats(-0.999, 1e6),
)
RECORD_SHAPES = [(1, 1), (3, 16), (1, 1024), (3, 1024)]  # (rows, buckets)


@st.composite
def record_streams(draw):
    """(n_categorical, n_numeric, records): repeated values, and some
    columns constant."""
    n_categorical = draw(st.integers(0, 2))
    n_numeric = draw(st.integers(0 if n_categorical else 1, 3))
    constant = [draw(st.one_of(st.none(), NUMERICS)) for _ in range(n_numeric)]
    pool = draw(st.lists(CATEGORIES, min_size=1, max_size=4))
    steps = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), min_size=1, max_size=40))
    tick = draw(FIRST_TICKS) - 1
    records = []
    for step in steps:
        tick += step
        categorical = tuple(draw(st.sampled_from(pool)) for _ in range(n_categorical))
        numeric = tuple(draw(NUMERICS) if c is None else c for c in constant)
        records.append(MultiAspectRecord(categorical, numeric, max(tick, 1)))
    return n_categorical, n_numeric, records


def mstream_state(detector):
    """Everything scoring leaves behind; repr keeps the sign of a zero."""
    minmax = [(repr(lo), repr(hi)) for lo, hi in detector.minmax]
    return detector.counts.copy(), minmax, detector.tick_volume, detector.clock.tick


def assert_same_state(got, expected, limits=None):
    assert np.array_equal(got[0], expected[0]), limits
    assert got[1:] == expected[1:], limits


def check_mstream_exact(n_categorical, n_numeric, records, shape):
    n_rows, n_buckets = shape
    make = lambda: MstreamDetector(n_categorical, n_numeric, n_rows, n_buckets, seed=5)
    oracle = make()
    expected = [oracle.score(record).total for record in records]
    for limits in BATCH_LIMITS:
        detector = make()
        with batch_limits(*limits):
            assert detector.score_many(records) == expected, limits
        assert_same_state(mstream_state(detector), mstream_state(oracle), limits)
    # No -0.0 reaches a min or max, so neither path depends on which zero it keeps.
    assert all("-0.0" not in pair for pair in mstream_state(oracle)[1])


@SETTINGS
@given(stream=record_streams(), shape=st.sampled_from(RECORD_SHAPES))
@example(  # a constant column, -0.0 after 0.0, and one tick of 2**53 + 1
    stream=(1, 2, [MultiAspectRecord(("a",), (0.0, 3.0), 2**53 + 1)] * 2
            + [MultiAspectRecord(("b",), (-0.0, 3.0), 2**53 + 1)] * 2),
    shape=(1, 16),
)
@example(  # -0.0 before 0.0 in one column: both paths hold the min 0.0
    stream=(1, 1, [MultiAspectRecord(("a",), (-0.0,), 1), MultiAspectRecord(("a",), (0.0,), 1),
                   MultiAspectRecord(("b",), (2.0,), 1)]),
    shape=(3, 16),
)
def test_score_many_matches_score(stream, shape):
    check_mstream_exact(*stream, shape)


def string_records(tick_sizes, seed=8, n_hosts=12) -> list[MultiAspectRecord]:
    """Records with string host and service columns and two numeric ones,
    in ticks 1, 2, ... of the given sizes."""
    rng = np.random.default_rng(seed)
    records = []
    for tick, size in enumerate(tick_sizes, 1):
        for _ in range(size):
            host, service = f"h{rng.integers(0, n_hosts)}", f"s{rng.integers(0, 3)}"
            numeric = (float(rng.lognormal(6.0, 1.5)), float(rng.exponential(2.0)))
            records.append(MultiAspectRecord((host, service), numeric, tick))
    return records


def test_score_many_on_long_ticks_of_string_records():
    """Ticks of 1, 30 and 200 records with repeated string categories."""
    check_mstream_exact(2, 2, string_records((1, 30, 200, 30, 1, 200)), (2, 1024))


def test_a_piece_is_hashed_once_not_run_by_run():
    """4096 records in 41 ticks of 100 are one piece: each distinct value of
    a column is canonicalised once, and ``bucket_indexes`` runs once for
    each family of rows, however many runs the piece holds."""
    records = string_records([100] * 40 + [96], n_hosts=300)
    oracle = MstreamDetector(2, 2)
    expected = [oracle.score(record).total for record in records]
    detector = MstreamDetector(2, 2)
    keys = mock.patch.object(hashing, "canonical_key", wraps=hashing.canonical_key)
    indexes = mock.patch.object(hashing, "bucket_indexes", wraps=hashing.bucket_indexes)
    with keys as key_calls, indexes as index_calls:
        assert detector.score_many(records) == expected
    assert_same_state(mstream_state(detector), mstream_state(oracle))
    distinct = sum(len({record.categorical[j] for record in records}) for j in range(2))
    assert key_calls.call_count == distinct
    assert index_calls.call_count == 2 * 2  # own and share rows of two columns


def test_short_runs_of_a_hashed_piece_go_through_score():
    """A piece that mixes 3-record and 100-record ticks is hashed for its
    long runs; its short runs are still scored record by record."""
    sizes = (3, 100, 3, 3, 100, 1, 100, 2)
    records = string_records(sizes)
    oracle = MstreamDetector(2, 2)
    expected = [oracle.score(record).total for record in records]
    detector = MstreamDetector(2, 2)
    per_record = mock.patch.object(
        MstreamDetector, "score", autospec=True, side_effect=MstreamDetector.score
    )
    indexes = mock.patch.object(hashing, "bucket_indexes", wraps=hashing.bucket_indexes)
    with per_record as score_calls, indexes as index_calls:
        assert detector.score_many(records) == expected
    assert_same_state(mstream_state(detector), mstream_state(oracle))
    assert score_calls.call_count == sum(size for size in sizes if size < 100)
    assert index_calls.call_count > 0


def test_a_piece_of_short_ticks_is_hashed_once():
    """3600 records in ticks of 1, 2 and 3 are one piece, hashed once though no
    run is long enough to batch: each distinct value of a column is
    canonicalised once and ``bucket_indexes`` runs once for each family of
    rows. Every record goes through ``score`` on its slice of the cells, which
    hashes no categorical value or numeric vector of its own."""
    records = string_records([1, 2, 3] * 600)
    oracle = MstreamDetector(2, 2)
    expected = [oracle.score(record).total for record in records]
    detector = MstreamDetector(2, 2)
    keys = mock.patch.object(hashing, "canonical_key", wraps=hashing.canonical_key)
    indexes = mock.patch.object(hashing, "bucket_indexes", wraps=hashing.bucket_indexes)
    per_record = mock.patch.object(
        MstreamDetector, "score", autospec=True, side_effect=MstreamDetector.score
    )
    rehashed = AssertionError("hashed record by record")
    signature = mock.patch.object(HyperplaneHash, "signature", side_effect=rehashed)
    categorical = mock.patch.object(mstream, "hash_categorical", side_effect=rehashed)
    with keys as key_calls, indexes as index_calls, per_record as score_calls:
        with signature, categorical:
            assert detector.score_many(records) == expected
    assert_same_state(mstream_state(detector), mstream_state(oracle))
    distinct = sum(len({record.categorical[j] for record in records}) for j in range(2))
    assert key_calls.call_count == distinct
    assert index_calls.call_count == 2 * 2  # own and share rows of two columns
    assert score_calls.call_count == len(records)


def test_numpy_string_ids_score_as_the_plain_strings():
    """``np.str_`` ids and categories hash as the strings they equal, on runs
    long and short."""
    ticks = [1 + i // 20 if i < 60 else i - 56 for i in range(100)]
    events = [EdgeEvent(f"n{i % 7}", f"n{i % 11}", tick) for i, tick in enumerate(ticks)]
    expected = MidasDetector("relational", seed=4).process_many(events)
    numpy_events = [EdgeEvent(np.str_(e.source), np.str_(e.dest), e.tick) for e in events]
    assert MidasDetector("relational", seed=4).process_many(numpy_events) == expected
    records = string_records([30, 1, 2, 100, 3])
    expected = MstreamDetector(2, 2).score_many(records)
    numpy_records = [
        MultiAspectRecord(tuple(map(np.str_, r.categorical)), r.numeric, r.tick) for r in records
    ]
    assert MstreamDetector(2, 2).score_many(numpy_records) == expected


def test_hashing_a_piece_holds_few_arrays():
    """The tracemalloc peak of scoring one piece of 100-record ticks, less
    what ``score_many`` returns, stays under a fixed allowance: ~350 KB
    with the products taken a block at a time, ~2.3 MB without blocks
    (and ~160 KB when each run was hashed alone)."""
    records = string_records([100] * 40 + [96], n_hosts=300)
    detector = MstreamDetector(2, 2)
    gc.collect()
    tracemalloc.start()
    totals = detector.score_many(records)
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(totals) == midas.TICK_BATCH_MAX
    assert peak - current < 1024 * 1024


NEAR_ZERO = st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 1e-3)


@SETTINGS
@given(
    d=st.tuples(NEAR_ZERO, NEAR_ZERO),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    nudge=st.sampled_from([0.0, 2.0**-52, -(2.0**-52), 2.0**-40]),
)
def test_batch_signature_is_signature_near_zero_projections(d, scale, nudge):
    """Projections exactly 0 or within rounding of 0 take signature's sign."""
    a, b = d
    directions = np.array([[a, b], [b, -a], [1.0, 1.0], [a, a]])
    planes = HyperplaneHash(directions)
    vectors = np.array([
        [b * scale, -a * scale * (1.0 + nudge)],  # 0 or nearly so on the first plane
        [a * scale, b * scale],  # on the second
        [scale, -scale * (1.0 + nudge)],  # on the third
        [1.0, -1.0],
        [0.0, 0.0],
        [-0.0, 0.0],
    ])
    other = HyperplaneHash(directions[::-1].copy())
    expected = [[planes.signature(v) for v in vectors], [other.signature(v) for v in vectors]]
    assert _signatures_many([planes, other], vectors).tolist() == expected


def test_batch_signature_is_the_ordered_sum():
    """Both paths sum a projection left to right, whatever BLAS's order: on
    the plane [1, 1, 1] these are exactly 1, 1, 3, 1 and 1, and in order
    0, 0, 4, 0 and 1 (right to left, the last two would be 1 and 0)."""
    planes = HyperplaneHash(np.array([[1.0, 1.0, 1.0]]))
    vectors = np.array([
        [1e16, 1.0, -1e16],
        [-1e16, 1.0, 1e16],
        [1e16, 3.0, -1e16],
        [1.0, 1e16, -1e16],
        [1e16, -1e16, 1.0],
    ])
    assert [planes.signature(v) for v in vectors] == [0, 0, 1, 0, 1]
    assert _signatures_many([planes], vectors).tolist() == [[0, 0, 1, 0, 1]]


class Floaty:
    """Converts to a float, but does not compare with one."""

    def __float__(self):
        return 2.0


# Records score rejects, as (record, error); a tick of 2 stands for the
# tick of the records around it, 1 for a tick regression.
REJECTED = pytest.mark.parametrize(
    "bad, error",
    [
        (LooseRecord(("u",), (1.0,), 2), ValueError),  # two numeric columns expected
        (LooseRecord((1.0,), (1.0, 2.0), 2), TypeError),  # no categorical key, though == 1
        (LooseRecord(("u",), (math.nan, 2.0), 2), ValueError),  # not finite
        (LooseRecord(("u",), (1.0, -1.0), 2), ValueError),  # outside log1p's domain
        (LooseRecord(("u",), (1.0, "2"), 2), TypeError),  # numpy would read it as 2.0
        (LooseRecord(("u",), (1.0, Floaty()), 2), TypeError),  # log1p would read it as 2.0
        (LooseRecord(("u",), (1.0, 2.0), 1), ValueError),  # tick regression
    ],
    ids=[
        "arity", "float-category", "nan", "log-domain", "str-numeric", "floaty", "tick-regression"
    ],
)


@REJECTED
def test_a_rejected_record_raises_where_score_does(bad, error):
    """A chunk holding a record score rejects is scored record by record, so
    the error, and the state it leaves, are those of score."""
    records = [LooseRecord((i % 3,), (float(i), 0.5 * i), 1 + i // 6) for i in range(18)]
    records[14] = LooseRecord(bad.categorical, bad.numeric, 3 if bad.tick == 2 else bad.tick)
    oracle = MstreamDetector(1, 2, n_buckets=16, seed=4)
    with pytest.raises(error) as expected:
        for record in records:
            oracle.score(record)
    detector = MstreamDetector(1, 2, n_buckets=16, seed=4)
    with batch_limits(1, 4), pytest.raises(error) as got:
        detector.score_many(records)
    assert str(got.value) == str(expected.value)
    assert_same_state(mstream_state(detector), mstream_state(oracle))


def test_records_take_the_batch_path():
    records = [MultiAspectRecord((i % 3, "x"), (float(i),), 1 + i // 6) for i in range(18)]
    oracle = MstreamDetector(2, 1, n_buckets=16, seed=4)
    expected = [oracle.score(record).total for record in records]
    detector = MstreamDetector(2, 1, n_buckets=16, seed=4)
    per_record = AssertionError("per record")
    with batch_limits(1), mock.patch.object(MstreamDetector, "score", side_effect=per_record):
        assert detector.score_many(records) == expected
    assert_same_state(mstream_state(detector), mstream_state(oracle))


@REJECTED
def test_a_rejected_record_deep_in_a_piece_raises_where_score_does(bad, error):
    """At the default limits, a record ``score`` rejects 3050 records into a
    stream of 100-record ticks raises the error ``score`` raises, and leaves
    the same state: a piece holding a value ``score`` rejects is scored
    record by record, and a tick regression stops its own run."""
    records = [LooseRecord((i % 3,), (float(i), 0.5 * i), 1 + i // 100) for i in range(5000)]
    records[3050] = LooseRecord(bad.categorical, bad.numeric, 31 if bad.tick == 2 else bad.tick)
    oracle = MstreamDetector(1, 2, n_buckets=16, seed=4)
    with pytest.raises(error) as expected:
        for record in records:
            oracle.score(record)
    detector = MstreamDetector(1, 2, n_buckets=16, seed=4)
    with pytest.raises(error) as got:
        detector.score_many(records)
    assert str(got.value) == str(expected.value)
    assert_same_state(mstream_state(detector), mstream_state(oracle))
    assert oracle.clock.tick == 31
