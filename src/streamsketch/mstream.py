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

``MstreamDetector.score_many`` scores a whole stream as ``score`` would one
record at a time, with ``==`` totals, in one loop over the runs that
``ChiSquaredTables.each_run`` yields. Each piece of up to
``midas.TICK_BATCH_MAX`` records is hashed once into every cell its records
are scored on (a piece holding a record ``score`` might reject goes through
``score`` whole): canonical keys and bucket indexes, on the hashing module's
one path, hyperplane signs, and last the numeric buckets. A numeric bucket
depends on its column's running min/max, sequential state that
``bucketize_numeric`` finds for a whole piece in one prefix scan; it runs
only once nothing in the piece can be rejected, so no range absorbs a value
of a record ``score`` would reject. Each run of one tick then only steps: a
long run in ``step_many``, a short one through ``score`` on each record's
cells. A record scored alone takes the same scan on its one column of
values. The two paths share one arithmetic, so the batch is exact by
construction: a projection is the same left-to-right product-sum in both,
and a log-shifted value is ``math.log1p(x) + 0.0``, which holds no -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, lt

import numpy as np

from .events import MultiAspectRecord
from .hashing import DEFAULT_SEED, HashFamily, canonical_key, canonical_keys, draw_rows
from .midas import ChiSquaredTables
from .sketch import MAX_FLOAT, as_float, shown


def _log_shift(value: float) -> float:
    """``math.log1p(value) + 0.0`` (-0.0 becomes 0.0: equal values, equal
    bits), after checking that ``value`` is in log1p's domain."""
    if not -1.0 < value <= MAX_FLOAT:  # also rejects nan; float() only past the largest float
        if not -1.0 < value < math.inf:
            raise ValueError(f"numeric value must be finite and > -1 for log1p, got {shown(value)}")
        as_float(value, "numeric value")
    return math.log1p(value) + 0.0


def bucketize_numeric(shifted: np.ndarray, bounds: list, n_buckets: int) -> np.ndarray:
    """Min-max normalize the log-shifted values ``shifted[column, i]``, in
    order, and split them into ``n_buckets``.

    ``bounds`` holds each column's running ``[min, max]``, ``[inf, -inf]``
    before its first value, and absorbs each value before it is bucketed, so
    the value always lands inside it; with no spread yet (one value so far,
    or a constant column) the value lands in bucket 0. The floor(x * b) mod b
    rule wraps the running maximum itself into bucket 0. Shifted values hold
    no -0.0, so equal values are equal bits, whichever a running min or max
    keeps.
    """
    seed = np.array(bounds).reshape(-1, 2, 1)
    lo = np.minimum.accumulate(np.concatenate((seed[:, 0], shifted), axis=1), axis=1)[:, 1:]
    hi = np.maximum.accumulate(np.concatenate((seed[:, 1], shifted), axis=1), axis=1)[:, 1:]
    bounds[:] = np.concatenate((lo[:, -1:], hi[:, -1:]), axis=1).tolist()
    span = hi - lo
    span[span == 0.0] = 1.0  # no spread yet: the value is lo, 0 / 1 is bucket 0
    return ((shifted - lo) / span * n_buckets).astype(np.int64) % n_buckets


def hash_categorical(value, families) -> list[tuple[int, ...]]:
    """Buckets of an opaque categorical value in every row of each family;
    the value is canonicalised once for all of them."""
    key = canonical_key(value)
    return [family.indexes(key) for family in families]


@dataclass
class HyperplaneHash:
    """Signature of a numeric vector from k random hyperplanes.

    k = ceil(log2(n_buckets)) directions with i.i.d. standard-normal entries,
    fixed at construction. A projection is the product-sum taken left to
    right over the attributes, so its bits do not depend on the platform.
    Each strictly positive projection contributes one bit; the bit string
    read as an integer is the bucket.
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
        bits = _projections(self.directions, v) > 0.0
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
        self.minmax = [[math.inf, -math.inf] for _ in range(n_numeric)]  # running [min, max]

    def score(self, record: MultiAspectRecord, cells=None) -> RecordScore:
        """Insert one record; return its total score and per-attribute terms.

        The total is exactly the record-level term plus the sum of attribute
        terms, so the argmax of ``per_feature`` names the attribute that
        contributed most. ``cells``, when given, are every cell the record is
        scored on, ``[key][row]``, as ``_hash_piece`` gives them; else the
        record is hashed here, its numeric values last, as a piece of one.
        A record rejected with an error changes no state.
        """
        if (
            len(record.categorical) != self.n_categorical
            or len(record.numeric) != self.n_numeric
        ):
            raise ValueError(
                f"record arity ({len(record.categorical)} cat, {len(record.numeric)} num) "
                f"does not match detector ({self.n_categorical} cat, {self.n_numeric} num)"
            )
        if cells is None:
            shifted = [_log_shift(value) for value in record.numeric]
            families = zip(record.categorical, self._cat_families)
            categorical = [hash_categorical(value, pair) for value, pair in families]
            whole = [
                record_hash(record, planes, self.n_buckets, [s[row] for _, s in categorical])
                for row, planes in enumerate(self._hyperplanes)
            ]
            # The clock moves before each column's [min, max] absorbs the
            # record, so a tick regression leaves them alone.
            self.advance(record.tick)
            buckets = bucketize_numeric(np.array(shifted).reshape(-1, 1), self.minmax, self.n_buckets)
            numeric = [[bucket] * self.n_rows for bucket in buckets[:, 0].tolist()]
            cells = [*(own for own, _ in categorical), *numeric, whole]
        else:
            self.advance(record.tick)
        terms = self.step(cells, 1.0, record.tick)[0]
        record_term = terms.pop()
        # Added left to right (sum() compensates from Python 3.12), as score_many adds.
        return RecordScore(record_term + reduce(add, terms, 0.0), record_term, tuple(terms))

    def score_many(self, records) -> list[float]:
        """Insert ``records`` in order and return the ``RecordScore.total`` of
        each, ``==`` to what ``score`` gives one record at a time; a record
        ``score`` rejects raises as it would there, with the same state."""
        totals: list[float] = []
        for run, tick, hashes in self.each_run(records):
            if tick is None:
                totals.extend(self.score(r, c).total for r, c in zip(run, hashes))
                continue
            terms = self.step_many(hashes[0], np.ones(len(run)), tick)[0]
            feature_sum = reduce(add, terms[:-1], 0.0)  # score's order
            totals.extend((terms[-1] + feature_sum).tolist())
            del terms, feature_sum  # not held while the next run is hashed and stepped
        return totals

    def _hash_piece(self, piece: list):
        """Every cell a piece of records is scored on, as ``each_run`` takes
        them: ``(cells[key, row, record],)``, the own-bucket cells of each
        categorical column, each numeric column's bucket (the same in every
        row), then the whole-record cell. None when some record ``score``
        would reject (or might: any value the checks below do not take), so
        no column's [min, max] absorbs a value of a piece that raises."""
        n, n_cat, n_num = len(piece), self.n_categorical, self.n_numeric
        try:
            keys = [canonical_keys(c) for c in _columns([r.categorical for r in piece], n_cat)]
            num_columns = _columns([record.numeric for record in piece], n_num)
            if any(set(map(type, column)) != {float} for column in num_columns):
                return None  # what MultiAspectRecord holds; others take score's checks
            # math.log1p per value: np.log1p differs in the last bit. It also
            # rejects values <= -1, as _log_shift does. + 0.0 as there.
            shifted = np.array([np.fromiter(map(math.log1p, c), float, n) for c in num_columns])
            shifted = shifted.reshape(n_num, n) + 0.0
            ticks = [record.tick for record in piece]
            if self.clock.tick is not None:
                ticks.insert(0, self.clock.tick)
            if any(map(lt, ticks[1:], ticks)):
                return None  # a tick regression, which advance raises
        except (TypeError, ValueError, OverflowError):
            return None
        if not np.isfinite(shifted).all():  # as _log_shift
            return None

        cells = np.empty((n_cat + n_num + 1, self.n_rows, n), dtype=np.int64)
        record = cells[-1]  # a view, filled in place
        record[...] = _signatures_many(self._hyperplanes, np.array(num_columns).T) if n_num else 0
        for own_cells, column_keys, (own, share) in zip(cells, keys, self._cat_families):
            own_cells[...] = own.indexes_many(column_keys)
            record += share.indexes_many(column_keys)  # record_hash before the mod
        record %= self.n_buckets
        # Last, once nothing in the piece can be rejected: the ranges absorb it.
        cells[n_cat:-1] = bucketize_numeric(shifted, self.minmax, self.n_buckets)[:, None]
        return (cells,)


def _columns(rows: list, arity: int) -> list:
    """The columns of equal-length ``rows``; ValueError when some row has
    another length."""
    if set(map(len, rows)) != {arity}:
        raise ValueError("record arity does not match the detector")
    return list(zip(*rows)) if arity else []


def _projections(directions: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Projections of ``vectors`` on ``directions`` (broadcast together, the
    attributes on the last axis), each product-sum taken left to right over
    the attributes: one order of IEEE operations on every build and CPU,
    where BLAS's ``@`` may sum in another."""
    terms = directions * vectors
    projection = terms[..., 0]
    for i in range(1, terms.shape[-1]):
        projection = projection + terms[..., i]
    return projection


def _signatures_many(hyperplanes: list, vectors: np.ndarray) -> np.ndarray:
    """``[row, i]``: ``hyperplanes[row].signature`` of the float64 ``vectors[i]``,
    from the same projections, taken one direction at a time so that no
    array holds more than a few values per vector."""
    signatures = np.zeros((len(hyperplanes), len(vectors)), dtype=np.int64)
    for signature, planes in zip(signatures, hyperplanes):
        for bit, direction in enumerate(planes.directions):
            signature |= (_projections(direction, vectors) > 0.0).astype(np.int64) << bit
    return signatures
