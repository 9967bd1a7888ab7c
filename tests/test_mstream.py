import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsketch.events import MultiAspectRecord
from streamsketch.hashing import HashFamily
from streamsketch.midas import chi2_score
from streamsketch.mstream import (
    HyperplaneHash,
    MstreamDetector,
    bucketize_numeric,
    hash_categorical,
    record_hash,
)

from oracles import ExactMstreamOracle, LinearHashMstream

BIG = 1 << 20


# -- feature bucketization -------------------------------------------------------


def test_first_numeric_value_lands_in_bucket_zero():
    bounds = [math.inf, -math.inf]
    assert bucketize_numeric(17.3, bounds, 8) == 0


def test_running_maximum_wraps_to_bucket_zero():
    bounds = [math.inf, -math.inf]
    bucketize_numeric(1.0, bounds, 8)
    bucketize_numeric(100.0, bounds, 8)
    assert bucketize_numeric(100.0, bounds, 8) == 0  # normalised 1.0 wraps


def test_log_chain_hand_trace():
    bounds = [math.inf, -math.inf]
    values = [0.0, math.e - 1.0, math.e**2 - 1.0]  # logs 0, 1, 2
    buckets = [bucketize_numeric(v, bounds, 4) for v in values]
    assert buckets[2] == 0  # running max wraps
    assert bucketize_numeric(math.e - 1.0, bounds, 4) == 2  # re-hash after max grew


def test_numeric_domain_guard():
    bounds = [math.inf, -math.inf]
    with pytest.raises(ValueError):
        bucketize_numeric(-1.0, bounds, 8)
    assert bucketize_numeric(-0.5, bounds, 8) == 0  # > -1 is fine


def test_bucket_monotone_between_minmax_updates():
    bounds = [math.inf, -math.inf]
    bucketize_numeric(0.0, bounds, 16)
    bucketize_numeric(1000.0, bounds, 16)
    values = np.linspace(0.0, 999.0, 200)  # inside [min, max): no state change
    buckets = [bucketize_numeric(float(v), bounds, 16) for v in values]
    assert all(b2 >= b1 for b1, b2 in zip(buckets, buckets[1:]))
    assert bucketize_numeric(1000.0, bounds, 16) == 0  # single wrap point


def test_categorical_hash_range_and_determinism():
    families = [HashFamily.from_rows([(99991, 12345)], 64), HashFamily(3, 64, seed=1)]
    buckets = [hash_categorical(f"v{i}", families) for i in range(500)]
    assert all(0 <= b < 64 for own, share in buckets for b in own + share)
    assert buckets == [hash_categorical(f"v{i}", families) for i in range(500)]


# -- record hashing ----------------------------------------------------------------


def test_zero_numeric_vector_contributes_bucket_zero():
    rng = np.random.default_rng(0)
    hp = HyperplaneHash.create(4, 1024, rng)
    assert hp.signature(np.zeros(4)) == 0
    record = MultiAspectRecord((), (0.0, 0.0, 0.0, 0.0), 1)
    assert record_hash(record, hp, 1024) == 0


def test_no_categorical_part_reduces_to_numeric_signature():
    rng = np.random.default_rng(1)
    hp = HyperplaneHash.create(3, 64, rng)
    record = MultiAspectRecord((), (1.0, -2.0, 0.5), 1)
    assert record_hash(record, hp, 64) == hp.signature(record.numeric) % 64


def test_negating_the_vector_flips_strictly_nonzero_bits():
    rng = np.random.default_rng(2)
    hp = HyperplaneHash.create(6, 1024, rng)
    for _ in range(50):
        v = rng.standard_normal(6)
        dots = hp.directions @ v
        forward = hp.signature(v)
        backward = hp.signature(-v)
        for bit, dot in enumerate(dots):
            if dot != 0.0:
                assert ((forward >> bit) & 1) != ((backward >> bit) & 1)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(3)
    hp = HyperplaneHash.create(3, 64, rng)
    with pytest.raises(ValueError):
        hp.signature(np.ones(4))


def test_hyperplane_count_is_log2_of_buckets():
    rng = np.random.default_rng(4)
    assert HyperplaneHash.create(5, 1024, rng).directions.shape == (10, 5)
    assert HyperplaneHash.create(5, 1000, rng).directions.shape == (10, 5)


# -- detector ------------------------------------------------------------------------


def test_first_record_scores_zero():
    detector = MstreamDetector(1, 1, seed=1)
    result = detector.score(MultiAspectRecord(("a",), (1.0,), 1))
    assert result.total == 0.0


def test_score_decomposes_exactly():
    detector = MstreamDetector(2, 2, seed=2)
    rng = np.random.default_rng(2)
    tick = 1
    for _ in range(300):
        if rng.random() < 0.1:
            tick += 1
        record = MultiAspectRecord(
            (f"a{rng.integers(0, 9)}", f"b{rng.integers(0, 9)}"),
            (float(rng.random() * 50), float(rng.random())),
            tick,
        )
        result = detector.score(record)
        assert result.total == pytest.approx(
            result.record_term + sum(result.per_feature), abs=1e-12
        )
        assert len(result.per_feature) == 4


def test_two_identical_chi2_terms_add_up():
    # One categorical attribute plus the record hash see the same counts, so
    # the total is exactly twice the single-term value.
    assert chi2_score(6, 10, 2) + chi2_score(6, 10, 2) == pytest.approx(0.8)


def test_arity_mismatch_rejected():
    detector = MstreamDetector(1, 1, seed=1)
    with pytest.raises(ValueError):
        detector.score(MultiAspectRecord(("a", "b"), (1.0,), 1))


def test_tick_regression_rejected():
    detector = MstreamDetector(1, 0, seed=1)
    detector.score(MultiAspectRecord(("a",), (), 3))
    with pytest.raises(ValueError, match="tick regression"):
        detector.score(MultiAspectRecord(("a",), (), 2))


def test_collision_free_scores_match_exact_counters():
    detector = MstreamDetector(2, 1, n_buckets=BIG, alpha=0.85, seed=5)
    oracle = ExactMstreamOracle(detector)
    rng = np.random.default_rng(5)
    tick = 1
    for _ in range(1000):
        if rng.random() < 0.05:
            tick += 1
        record = MultiAspectRecord(
            (f"a{rng.integers(0, 10)}", f"b{rng.integers(0, 10)}"),
            (3.25,),  # constant numeric column: single bucket on both sides
            tick,
        )
        assert detector.score(record).total == pytest.approx(
            oracle.score(record), abs=1e-9
        )


def test_bursting_feature_is_identified_by_argmax():
    hits = 0
    for trial in range(100):
        detector = MstreamDetector(3, 0, seed=trial)
        rng = np.random.default_rng(10_000 + trial)
        for tick in range(1, 21):
            for _ in range(20):
                detector.score(
                    MultiAspectRecord(
                        (
                            f"a{rng.integers(0, 50)}",
                            f"b{rng.integers(0, 50)}",
                            f"c{rng.integers(0, 50)}",
                        ),
                        (),
                        tick,
                    )
                )
        last = None
        for _ in range(30):
            last = detector.score(
                MultiAspectRecord(
                    (
                        f"a{rng.integers(0, 50)}",
                        "hot-value",  # middle attribute bursts
                        f"c{rng.integers(0, 50)}",
                    ),
                    (),
                    21,
                )
            )
        hits += int(np.argmax(last.per_feature)) == 1
    assert hits >= 95


def test_feature_buckets_are_stable_for_fixed_state():
    """Two copies of a record hash to the same cells in a piece, the buckets
    ``hash_categorical`` and ``record_hash`` give one record, and a numeric
    value its state has absorbed buckets alike twice."""
    detector = MstreamDetector(1, 1, seed=6)
    record = MultiAspectRecord(("x",), (4.2,), 1)
    cells, _ = detector._hash_piece([record, record])
    own, share = hash_categorical("x", detector._cat_families[0])
    whole = [
        record_hash(record, planes, detector.n_buckets, [share[row]])
        for row, planes in enumerate(detector._hyperplanes)
    ]
    assert cells[..., 0].tolist() == cells[..., 1].tolist() == [list(own), whole]
    detector.score(record)  # absorb the numeric value into min/max state
    first = bucketize_numeric(4.2, detector.minmax[0], detector.n_buckets)
    second = bucketize_numeric(4.2, detector.minmax[0], detector.n_buckets)
    assert first == second


@pytest.mark.parametrize(
    "record, error, match",
    [
        # second column outside log1p's domain
        (MultiAspectRecord(("a",), (5.0, -1.0), 3), ValueError, "> -1 for log1p, got -1.0$"),
        (MultiAspectRecord((1.5,), (5.0, 1.0), 3), TypeError, None),  # no categorical key
        (MultiAspectRecord(("a",), (5.0, 1.0), 1), ValueError, None),  # tick regression
        # A record type that holds its numbers unconverted: one float()
        # cannot take, and one too long to print.
        (
            SimpleNamespace(categorical=("a",), numeric=(5.0, 10**400), tick=3),
            ValueError,
            "^numeric value too large for a float$",
        ),
        (
            SimpleNamespace(categorical=("a",), numeric=(5.0, -(10**5000)), tick=3),
            ValueError,
            "> -1 for log1p, got a number too long to print$",
        ),
    ],
    ids=["log-domain", "unhashable", "tick-regression", "too-large", "too-long-to-print"],
)
def test_rejected_record_changes_no_state(record, error, match):
    detector = MstreamDetector(1, 2, n_buckets=16, seed=3)
    detector.score(MultiAspectRecord(("a",), (1.0, 2.0), 1))
    detector.score(MultiAspectRecord(("b",), (3.0, 0.5), 2))
    counts = detector.counts.copy()
    minmax = [list(bounds) for bounds in detector.minmax]
    for score in (detector.score, lambda r: detector.score_many([r])):
        with pytest.raises(error, match=match):
            score(record)
        assert np.array_equal(detector.counts, counts)
        assert detector.minmax == minmax
        assert detector.clock.tick == 2


# -- against the detector's own hashing before it went through HashFamily ----

CATEGORY = st.one_of(
    st.text(max_size=4),  # unicode, the empty string included
    st.integers(-(10**20), 10**20).map(str),  # integer-looking strings
)


@st.composite
def record_streams(draw):
    n_categorical = draw(st.integers(0, 3))
    n_numeric = draw(st.integers(0 if n_categorical else 1, 2))
    steps = draw(st.lists(st.integers(0, 2), min_size=1, max_size=30))  # 0 repeats a tick
    records = []
    tick = 1
    for step in steps:
        tick += step
        categorical = tuple(draw(CATEGORY) for _ in range(n_categorical))
        numeric = tuple(
            draw(st.floats(-0.999, 1e6, allow_nan=False)) for _ in range(n_numeric)
        )
        records.append(MultiAspectRecord(categorical, numeric, tick))
    return n_categorical, n_numeric, records


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    stream=record_streams(),
    n_rows=st.integers(1, 4),
    n_buckets=st.sampled_from([1, 7, 64, 1024]),
    seed=st.sampled_from([0, 1, 42, 2**32 + 5]),
)
def test_detector_matches_its_linear_hash_oracle(stream, n_rows, n_buckets, seed):
    n_categorical, n_numeric, records = stream
    shape = (n_categorical, n_numeric, n_rows, n_buckets, 0.85, seed)
    detector, oracle = MstreamDetector(*shape), LinearHashMstream(*shape)
    for record in records:
        assert detector.score(record) == oracle.score(record)
        assert np.array_equal(detector.counts, oracle.counts)
