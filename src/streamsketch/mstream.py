"""Multi-aspect record scorer.

Each record is hashed d+1 ways: every attribute individually (categorical
values through a ``HashFamily`` per column, numeric values through a
streaming log/min-max bucketizer) and the whole record jointly (a second
family per categorical column, summed with a random-hyperplane signature
of the numeric part). Each hash feeds a pair of count tables, current tick
vs all time, and the record score is the sum of the d+1 chi-squared
statistics. The per-attribute terms double as an explanation of which
attribute burst. The counting and scoring are MIDAS-R's: the detector is a
relational ``midas.ChiSquaredTables`` over d+1 keys, with weight 1 per
record, so a tick boundary decays every current table in one multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import MultiAspectRecord
from .hashing import DEFAULT_SEED, HashFamily, canonical_key, draw_rows
from .midas import ChiSquaredTables


@dataclass
class StreamingMinMax:
    """Running min and max of log-transformed values for one numeric column."""

    lo: float | None = None
    hi: float | None = None

    def absorb(self, value: float) -> None:
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value

    def normalize(self, value: float) -> float:
        # First value (or a constant column) has no spread; pin it to 0.
        if self.lo is None or self.hi == self.lo:
            return 0.0
        return (value - self.lo) / (self.hi - self.lo)


def _check_log_domain(value: float) -> None:
    if value <= -1.0:
        raise ValueError(f"numeric value must be > -1 for log1p, got {value}")


def bucketize_numeric(value: float, state: StreamingMinMax, n_buckets: int) -> int:
    """Log-transform, min-max normalize, then split into n_buckets.

    The running min/max absorb the incoming value first, so the value always
    lands inside [min, max]. The floor(x * b) mod b rule wraps the running
    maximum itself into bucket 0.
    """
    _check_log_domain(value)
    shifted = math.log1p(value)
    state.absorb(shifted)
    scaled = state.normalize(shifted)
    return int(scaled * n_buckets) % n_buckets


def hash_categorical(value, families) -> list[tuple[int, ...]]:
    """Buckets of an opaque categorical value in every row of each family;
    the value is canonicalised once for all of them."""
    key = canonical_key(value)
    return [family.indexes(key) for family in families]


@dataclass
class HyperplaneHash:
    """Signature of a numeric vector from k random hyperplanes.

    k = ceil(log2(n_buckets)) directions with i.i.d. standard-normal entries,
    fixed at construction. Each strictly positive projection contributes one
    bit; the bit string read as an integer is the bucket.
    """

    directions: np.ndarray  # (k, p)

    @classmethod
    def create(cls, dim: int, n_buckets: int, rng: np.random.Generator) -> "HyperplaneHash":
        k = max(1, math.ceil(math.log2(n_buckets))) if n_buckets > 1 else 1
        return cls(directions=rng.standard_normal((k, dim)))

    def signature(self, vector) -> int:
        v = np.asarray(vector, dtype=np.float64)
        if v.shape[0] != self.directions.shape[1]:
            raise ValueError(
                f"numeric part has dimension {v.shape[0]}, "
                f"hyperplanes expect {self.directions.shape[1]}"
            )
        bits = self.directions @ v > 0.0
        value = 0
        for i, bit in enumerate(bits):
            if bit:
                value |= 1 << i
        return value


def record_hash(
    record: MultiAspectRecord,
    hyperplanes: HyperplaneHash | None,
    n_buckets: int,
    cat_buckets: tuple[int, ...] = (),
) -> int:
    """Whole-record bucket in one hash row: the categorical values' buckets in
    that row plus the hyperplane signature of the numeric part, mod n_buckets."""
    bucket = sum(cat_buckets)
    if record.numeric:
        bucket += hyperplanes.signature(record.numeric)
    return bucket % n_buckets


@dataclass(frozen=True, slots=True)
class RecordScore:
    total: float
    record_term: float
    per_feature: tuple[float, ...]


class MstreamDetector(ChiSquaredTables):
    """Streaming scorer for fixed-arity multi-aspect records.

    The attribute split (how many categorical, how many numeric) is fixed at
    construction. Current-tick counts decay by ``alpha`` on tick change; for
    tick-less data the caller assigns synthetic ticks (the CLI groups every
    ``decay_every`` records into one). The keys of ``counts`` are the
    attributes, then the whole record.
    """

    def __init__(
        self,
        n_categorical: int,
        n_numeric: int,
        n_rows: int = 2,
        n_buckets: int = 1024,
        alpha: float = 0.85,
        seed: int = DEFAULT_SEED,
    ):
        if n_categorical < 0 or n_numeric < 0 or n_categorical + n_numeric == 0:
            raise ValueError("detector needs at least one attribute")
        super().__init__("relational", n_categorical + n_numeric + 1, n_rows, n_buckets, alpha)
        self.n_categorical = n_categorical
        self.n_numeric = n_numeric
        rng = np.random.default_rng(seed)
        # Two families per categorical column, for its own buckets and its share
        # of the record bucket; rows are drawn row-major, all own rows first.
        own, share = draw_rows(rng, n_rows * n_categorical), draw_rows(rng, n_rows * n_categorical)
        self._cat_families = [
            [HashFamily.from_rows(rows[j::n_categorical], n_buckets) for rows in (own, share)]
            for j in range(n_categorical)
        ]
        self._hyperplanes = [
            HyperplaneHash.create(n_numeric, n_buckets, rng) if n_numeric else None
            for _ in range(n_rows)
        ]
        self.minmax = [StreamingMinMax() for _ in range(n_numeric)]

    def _buckets(self, record: MultiAspectRecord, categorical: list) -> list[list[int]]:
        """Bucket of each attribute, then of the whole record, in every row."""
        buckets = [own for own, _ in categorical]
        for j, value in enumerate(record.numeric):
            # The bucketizer is deterministic, so rows share one bucket; the
            # min/max state absorbs the value exactly once.
            buckets.append([bucketize_numeric(value, self.minmax[j], self.n_buckets)] * self.n_rows)
        buckets.append([
            record_hash(record, planes, self.n_buckets, [share[row] for _, share in categorical])
            for row, planes in enumerate(self._hyperplanes)
        ])
        return buckets

    def score(self, record: MultiAspectRecord) -> RecordScore:
        """Insert one record; return its total score and per-attribute terms.

        The total is exactly the record-level term plus the sum of attribute
        terms, so the argmax of ``per_feature`` names the attribute that
        contributed most. A record rejected with an error changes no state.
        """
        if (
            len(record.categorical) != self.n_categorical
            or len(record.numeric) != self.n_numeric
        ):
            raise ValueError(
                f"record arity ({len(record.categorical)} cat, {len(record.numeric)} num) "
                f"does not match detector ({self.n_categorical} cat, {self.n_numeric} num)"
            )
        for value in record.numeric:
            _check_log_domain(value)
        families = zip(record.categorical, self._cat_families)
        categorical = [hash_categorical(value, pair) for value, pair in families]
        # The clock moves before the bucketizers absorb the record, so a tick
        # regression leaves their min/max alone.
        self.advance(record.tick)
        terms = self.step(self._buckets(record, categorical), 1.0, record.tick)[0]
        record_term = terms.pop()
        return RecordScore(record_term + sum(terms), record_term, tuple(terms))
