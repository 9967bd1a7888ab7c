import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsketch.events import MultiAspectRecord
from streamsketch.hashing import HashFamily, canonical_key
from streamsketch.midas import chi2_score
from streamsketch.mstream import (
    HyperplaneHash,
    MstreamDetector,
    RecordScore,
    StreamingMinMax,
    bucketize_numeric,
    hash_categorical,
    record_hash,
)

BIG = 1 << 20


# -- feature bucketization -------------------------------------------------------


def test_first_numeric_value_lands_in_bucket_zero():
    state = StreamingMinMax()
    assert bucketize_numeric(17.3, state, 8) == 0


def test_running_maximum_wraps_to_bucket_zero():
    state = StreamingMinMax()
    bucketize_numeric(1.0, state, 8)
    bucketize_numeric(100.0, state, 8)
    assert bucketize_numeric(100.0, state, 8) == 0  # normalised 1.0 wraps


def test_log_chain_hand_trace():
    state = StreamingMinMax()
    values = [0.0, math.e - 1.0, math.e**2 - 1.0]  # logs 0, 1, 2
    buckets = [bucketize_numeric(v, state, 4) for v in values]
    assert buckets[2] == 0  # running max wraps
    assert bucketize_numeric(math.e - 1.0, state, 4) == 2  # re-hash after max grew


def test_numeric_domain_guard():
    state = StreamingMinMax()
    with pytest.raises(ValueError):
        bucketize_numeric(-1.0, state, 8)
    assert bucketize_numeric(-0.5, state, 8) == 0  # > -1 is fine


def test_bucket_monotone_between_minmax_updates():
    state = StreamingMinMax()
    bucketize_numeric(0.0, state, 16)
    bucketize_numeric(1000.0, state, 16)
    values = np.linspace(0.0, 999.0, 200)  # inside [min, max): no state change
    buckets = [bucketize_numeric(float(v), state, 16) for v in values]
    assert all(b2 >= b1 for b1, b2 in zip(buckets, buckets[1:]))
    assert bucketize_numeric(1000.0, state, 16) == 0  # single wrap point


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


class ExactMstreamOracle:
    """Dict-counter re-implementation used to pin collision-free behaviour."""

    def __init__(self, detector):
        self.detector = detector
        self.alpha = detector.alpha
        arity = detector.n_categorical + detector.n_numeric
        self.feature_totals = [defaultdict(float) for _ in range(arity)]
        self.feature_currents = [defaultdict(float) for _ in range(arity)]
        self.record_total = defaultdict(float)
        self.record_current = defaultdict(float)
        self.tick = None

    def score(self, record):
        if self.tick is None:
            self.tick = record.tick
        elif record.tick > self.tick:
            for counts in (*self.feature_currents, self.record_current):
                for key in counts:
                    counts[key] *= self.alpha
            self.tick = record.tick
        total = 0.0
        values = list(record.categorical) + [f"num{j}" for j in range(len(record.numeric))]
        # Numeric features collapse onto a per-feature key: with one distinct
        # numeric stream per column this matches bucket behaviour exactly as
        # long as values do not cross bucket boundaries; tests use constant
        # numeric values to keep the correspondence collision-free.
        for j, key in enumerate(values):
            self.feature_totals[j][key] += 1.0
            self.feature_currents[j][key] += 1.0
            total += chi2_score(
                self.feature_currents[j][key], self.feature_totals[j][key], record.tick
            )
        rec_key = (record.categorical, record.numeric)
        self.record_total[rec_key] += 1.0
        self.record_current[rec_key] += 1.0
        total += chi2_score(
            self.record_current[rec_key], self.record_total[rec_key], record.tick
        )
        return total


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
    detector = MstreamDetector(1, 1, seed=6)
    record = MultiAspectRecord(("x",), (4.2,), 1)
    detector.score(record)  # absorb the numeric value into min/max state
    categorical = [hash_categorical("x", detector._cat_families[0])]
    first = detector._buckets(record, categorical)
    second = detector._buckets(record, categorical)
    assert first == second


@pytest.mark.parametrize(
    "categorical, numeric, tick, error",
    [
        (("a",), (5.0, -1.0), 3, ValueError),  # second column outside log1p's domain
        ((1.5,), (5.0, 1.0), 3, TypeError),  # a float is no categorical key
        (("a",), (5.0, 1.0), 1, ValueError),  # tick regression
    ],
    ids=["log-domain", "unhashable", "tick-regression"],
)
def test_rejected_record_changes_no_state(categorical, numeric, tick, error):
    detector = MstreamDetector(1, 2, n_buckets=16, seed=3)
    detector.score(MultiAspectRecord(("a",), (1.0, 2.0), 1))
    detector.score(MultiAspectRecord(("b",), (3.0, 0.5), 2))
    counts = detector.counts.copy()
    minmax = [(m.lo, m.hi) for m in detector.minmax]
    with pytest.raises(error):
        detector.score(MultiAspectRecord(categorical, numeric, tick))
    assert np.array_equal(detector.counts, counts)
    assert [(m.lo, m.hi) for m in detector.minmax] == minmax
    assert detector.clock.tick == 2


# -- the detector's own hashing before it went through HashFamily, as the oracle ------

MERSENNE_P = (1 << 61) - 1


class LinearHashMstream:
    """MStream with its own pairwise hash: seed pairs drawn per row and
    column (all feature pairs, then all record pairs, then the hyperplanes),
    one linear hash per row, and the record bucket as the sum of the record
    pairs' hashes plus the hyperplane signature. Counts live in one array
    shaped like the detector's."""

    def __init__(self, n_categorical, n_numeric, n_rows, n_buckets, alpha, seed):
        rng = np.random.default_rng(seed)

        def draw_pair():
            a = (int(rng.integers(1, MERSENNE_P)) | 1) % MERSENNE_P
            return a, int(rng.integers(0, MERSENNE_P))

        self.feature_pairs = [[draw_pair() for _ in range(n_categorical)] for _ in range(n_rows)]
        self.record_pairs = [[draw_pair() for _ in range(n_categorical)] for _ in range(n_rows)]
        self.hyperplanes = [
            HyperplaneHash.create(n_numeric, n_buckets, rng) if n_numeric else None
            for _ in range(n_rows)
        ]
        self.minmax = [StreamingMinMax() for _ in range(n_numeric)]
        self.counts = np.zeros((2, n_categorical + n_numeric + 1, n_rows, n_buckets))
        self.n_rows, self.n_buckets, self.alpha = n_rows, n_buckets, alpha
        self.tick = None

    def linear(self, value, pair):
        a, b = pair
        return ((a * canonical_key(value) + b) % MERSENNE_P) % self.n_buckets

    def record_bucket(self, record, row):
        bucket = sum(
            self.linear(value, pair) for value, pair in zip(record.categorical, self.record_pairs[row])
        )
        if record.numeric:
            bucket += self.hyperplanes[row].signature(record.numeric)
        return bucket % self.n_buckets

    def score(self, record):
        if self.tick is not None and record.tick != self.tick:
            self.counts[1] *= self.alpha
        self.tick = record.tick
        buckets = [
            [self.linear(value, pairs[j]) for pairs in self.feature_pairs]
            for j, value in enumerate(record.categorical)
        ]
        for j, value in enumerate(record.numeric):
            buckets.append([bucketize_numeric(value, self.minmax[j], self.n_buckets)] * self.n_rows)
        buckets.append([self.record_bucket(record, row) for row in range(self.n_rows)])
        terms = []
        for attr, cells in enumerate(buckets):
            rows = range(self.n_rows)
            for kind in (1, 0):
                for row, cell in zip(rows, cells):
                    self.counts[kind, attr, row, cell] += 1.0
            current, total = (
                float(min(self.counts[kind, attr, row, cell] for row, cell in zip(rows, cells)))
                for kind in (1, 0)
            )
            terms.append(chi2_score(current, total, record.tick))
        record_term = terms.pop()
        return RecordScore(record_term + sum(terms), record_term, tuple(terms))


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
