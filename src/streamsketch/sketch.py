"""Counting sketches: the classic count-min table and its higher-order
variant whose buckets form one matrix per hash row.

Counts are 64-bit floats because temporal decay repeatedly scales them by a
factor in (0, 1). Queries never underestimate: every update touches every
row, and estimates take the minimum across rows.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .hashing import DEFAULT_SEED, HashFamily

_HEADER = struct.Struct("<III")  # n_rows, n_buckets, seed


class CountMinSketch:
    """Approximate counter table: n_rows hash rows over n_buckets buckets.

    Supports weighted updates, min-of-rows queries, multiplicative decay,
    value overrides (for score caches) and the conditional bucket-wise merge
    used by filtering detectors.
    """

    def __init__(
        self,
        n_rows: int = 2,
        n_buckets: int = 1024,
        seed: int = DEFAULT_SEED,
        family: HashFamily | None = None,
    ):
        if family is None:
            family = HashFamily(n_rows, n_buckets, seed)
        elif family.n_rows != n_rows or family.n_buckets != n_buckets:
            raise ValueError("supplied hash family does not match sketch shape")
        self.family = family
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.counts = np.zeros((n_rows, n_buckets), dtype=np.float64)

    # -- key hashing ----------------------------------------------------

    def indexes(self, key) -> tuple[int, ...]:
        """Per-row bucket index for ``key``; reusable across sketches that
        share this sketch's hash family."""
        return self.family.indexes(key)

    # -- updates and queries ---------------------------------------------

    def update(self, key, weight: float = 1.0) -> None:
        """Add ``weight`` to the key's bucket in every row.

        Negative weights are rejected: they would break the guarantee that
        queries never fall below the true accumulated weight. So are inf
        and nan, which would poison the bucket for good.
        """
        self.update_at(self.family.indexes(key), weight)

    def update_at(self, indexes, weight: float = 1.0) -> None:
        if not (0 <= weight < math.inf):  # also rejects nan
            raise ValueError(f"update weight must be finite and >= 0, got {weight}")
        counts = self.counts
        for row, bucket in enumerate(indexes):
            counts[row, bucket] += weight

    def query(self, key) -> float:
        """Smallest bucket value across rows: an upper bound on the true count."""
        return self.query_at(self.family.indexes(key))

    def query_at(self, indexes) -> float:
        counts = self.counts
        best = counts[0, indexes[0]]
        for row in range(1, self.n_rows):
            value = counts[row, indexes[row]]
            if value < best:
                best = value
        return float(best)

    def update_many(self, keys: np.ndarray, weight: float = 1.0) -> None:
        """Batch update for integer keys; equivalent to updating one by one."""
        if not (0 <= weight < math.inf):  # also rejects nan
            raise ValueError(f"update weight must be finite and >= 0, got {weight}")
        buckets = self.family.indexes_many(keys)
        for row in range(self.n_rows):
            np.add.at(self.counts[row], buckets[row], weight)

    def query_many(self, keys: np.ndarray) -> np.ndarray:
        """Batch min-of-rows estimates for integer keys."""
        buckets = self.family.indexes_many(keys)
        stacked = np.stack(
            [self.counts[row][buckets[row]] for row in range(self.n_rows)]
        )
        return stacked.min(axis=0)

    def assign(self, key, value: float) -> None:
        """Overwrite the key's buckets with ``value`` (no accumulation).

        This is the cache behaviour used for per-entity score sketches.
        """
        self.assign_at(self.family.indexes(key), value)

    def assign_at(self, indexes, value: float) -> None:
        counts = self.counts
        for row, bucket in enumerate(indexes):
            counts[row, bucket] = value

    # -- whole-table operations -------------------------------------------

    def decay(self, alpha: float) -> None:
        """Scale every bucket by ``alpha``; alpha must lie strictly in (0, 1).

        0 would clear history entirely and 1 would not scale at all, so both
        endpoints are rejected.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"decay factor must be in (0, 1), got {alpha}")
        self.counts *= alpha

    def clear(self) -> None:
        self.counts.fill(0.0)

    def merge_conditional(
        self,
        current: "CountMinSketch",
        scores: "CountMinSketch",
        epsilon: float,
        tick: int,
    ) -> None:
        """Fold ``current`` into this total sketch, bucket by bucket.

        Buckets whose cached score is below ``epsilon`` receive the current
        count; the rest receive their own per-tick mean, total/(tick - 1),
        so the mean level stays unchanged. At tick 1 there is no history to
        take a mean over and flagged buckets are left alone.
        """
        if epsilon <= 0:
            raise ValueError(f"merge threshold must be > 0, got {epsilon}")
        if not (
            self.family.same_layout(current.family)
            and self.family.same_layout(scores.family)
        ):
            raise ValueError("conditional merge requires sketches with one shared layout")
        accept = scores.counts < epsilon
        self.counts[accept] += current.counts[accept]
        if tick != 1:
            rejected = ~accept
            self.counts[rejected] += self.counts[rejected] / (tick - 1)

    # -- snapshots ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Header (shape, seed) followed by row-major little-endian floats.

        Snapshot format for tests; stability is only promised within a run.
        """
        head = _HEADER.pack(self.n_rows, self.n_buckets, self.family.seed & 0xFFFFFFFF)
        return head + self.counts.astype("<f8").tobytes(order="C")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountMinSketch":
        n_rows, n_buckets, seed = _HEADER.unpack_from(blob)
        sketch = cls(n_rows, n_buckets, seed=seed)
        flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
        sketch.counts = flat.reshape(n_rows, n_buckets).astype(np.float64)
        return sketch

    def state_bytes(self) -> int:
        return int(self.counts.nbytes)


class HigherOrderSketch:
    """Count sketch whose buckets form an n_buckets x n_buckets matrix per
    hash row: sources hash to rows, destinations to columns.

    Dense subgraphs in the input stream land in dense submatrices, which is
    what the density scorers exploit. By default the row and column hashes
    share one draw per layer; pass distinct_column_seeds=True for separate
    draws.
    """

    def __init__(
        self,
        n_rows: int = 2,
        n_buckets: int = 32,
        seed: int = DEFAULT_SEED,
        distinct_column_seeds: bool = False,
    ):
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.seed = seed
        self.row_family = HashFamily(n_rows, n_buckets, seed)
        if distinct_column_seeds:
            self.col_family = HashFamily(n_rows, n_buckets, seed + 0x5EED)
        else:
            self.col_family = self.row_family
        self.matrices = np.zeros((n_rows, n_buckets, n_buckets), dtype=np.float64)

    def indexes(self, source, dest) -> tuple[tuple[int, int], ...]:
        rows = self.row_family.indexes(source)
        cols = self.col_family.indexes(dest)
        return tuple(zip(rows, cols))

    def row_indexes(self, source) -> tuple[int, ...]:
        return self.row_family.indexes(source)

    def col_indexes(self, dest) -> tuple[int, ...]:
        return self.col_family.indexes(dest)

    def update(self, source, dest, weight: float = 1.0) -> None:
        self.update_at(self.indexes(source, dest), weight)

    def update_at(self, cells, weight: float = 1.0) -> None:
        if not (0 <= weight < math.inf):  # also rejects nan
            raise ValueError(f"update weight must be finite and >= 0, got {weight}")
        matrices = self.matrices
        for layer, (r, c) in enumerate(cells):
            matrices[layer, r, c] += weight

    def estimate(self, source, dest) -> float:
        """Min over layers of the (row-hash, col-hash) cell; never below the
        true accumulated weight of (source, dest)."""
        matrices = self.matrices
        best = None
        for layer, (r, c) in enumerate(self.indexes(source, dest)):
            value = matrices[layer, r, c]
            if best is None or value < best:
                best = value
        return float(best)

    def update_many(self, sources: np.ndarray, dests: np.ndarray, weight: float = 1.0) -> None:
        """Batch update for integer node ids; equivalent to one-by-one."""
        if not (0 <= weight < math.inf):  # also rejects nan
            raise ValueError(f"update weight must be finite and >= 0, got {weight}")
        rows = self.row_family.indexes_many(sources)
        cols = self.col_family.indexes_many(dests)
        for layer in range(self.n_rows):
            np.add.at(self.matrices[layer], (rows[layer], cols[layer]), weight)

    def estimate_many(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        rows = self.row_family.indexes_many(sources)
        cols = self.col_family.indexes_many(dests)
        stacked = np.stack(
            [
                self.matrices[layer][rows[layer], cols[layer]]
                for layer in range(self.n_rows)
            ]
        )
        return stacked.min(axis=0)

    def decay(self, alpha: float) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"decay factor must be in (0, 1), got {alpha}")
        self.matrices *= alpha

    def reset(self) -> None:
        self.matrices.fill(0.0)

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(self.n_rows, self.n_buckets, self.seed & 0xFFFFFFFF)
        return head + self.matrices.astype("<f8").tobytes(order="C")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HigherOrderSketch":
        n_rows, n_buckets, seed = _HEADER.unpack_from(blob)
        sketch = cls(n_rows, n_buckets, seed=seed)
        flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
        sketch.matrices = flat.reshape(n_rows, n_buckets, n_buckets).astype(np.float64)
        return sketch

    def state_bytes(self) -> int:
        return int(self.matrices.nbytes)
