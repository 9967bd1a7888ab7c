"""Counting sketches: the classic count-min table and its higher-order
variant whose buckets form one matrix per hash row.

Both keep their counts in one table, ``counts[row, cell]``: a count-min row
has ``n_buckets`` cells, a higher-order row ``n_buckets ** 2``, read as an
``n_buckets x n_buckets`` matrix (``matrix_cells`` gives an entry's cell).
Counts are 64-bit floats because temporal decay repeatedly scales them by a
factor in (0, 1). Queries never underestimate: every update touches every
row, and estimates take the minimum across rows.

The chi-squared detectors count in their own stacked array instead
(``midas.ChiSquaredTables``), through the same ``HashFamily``.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from . import hashing  # canonical_key is looked up on it per call, where bench/spans.py wraps it
from .hashing import DEFAULT_SEED, HashFamily

_HEADER = struct.Struct("<BIIQ")  # version, n_rows, n_buckets, seed


def check_decay(alpha: float) -> None:
    """Reject a decay factor outside (0, 1): 0 would clear history entirely
    and 1 would not scale at all."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"decay factor must be in (0, 1), got {shown(alpha)}")


MAX_FLOAT = sys.float_info.max  # a number at most this needs no float() to be known good


def shown(number, text=str) -> str:
    """``text(number)`` (``repr`` keeps a string's quotes), as an error
    message shows it; one with an int past ``sys.get_int_max_str_digits()``,
    which str() and repr() refuse, is described."""
    try:
        return text(number)
    except ValueError:
        return "a number too long to print"


def check_weight(weight: float, what: str = "update weight") -> None:
    """Reject a weight below 0, which would let queries underestimate, inf or
    nan, which would poison a cell for good, and one float() cannot take."""
    if not (0 <= weight <= MAX_FLOAT):  # also rejects nan
        if not (0 <= weight < math.inf):
            raise ValueError(f"{what} must be finite and >= 0, got {shown(weight)}")
        as_float(weight, what)  # an int or a Fraction just above the largest float rounds down to it


def check_positive(number: float, what: str) -> None:
    """Reject a ``number`` not > 0, nan included, or one float() cannot
    take; inf is taken."""
    if not 0 < number <= MAX_FLOAT:  # float() only past the largest float
        if not number > 0:
            raise ValueError(f"{what} must be > 0, got {shown(number)}")
        as_float(number, what)


def as_float(number, what: str) -> float:
    """``float(number)``, raising ValueError named for ``what``, not
    OverflowError, for an int or a Fraction too large for a float."""
    try:
        return float(number)
    except OverflowError:
        raise ValueError(f"{what} too large for a float") from None


def weights_ok(weights: np.ndarray) -> bool:
    """Whether ``check_weight`` accepts every weight of a 1-d array; False
    for any other shape or an array that is not real-valued."""
    if weights.ndim != 1 or weights.dtype.kind not in "biuf":
        return False
    return bool(((weights >= 0) & (weights < math.inf)).all())


def conditional_merge(total, current, scores, epsilon: float, tick: int) -> None:
    """Fold ``current`` into ``total`` in place, for C-contiguous arrays of
    one shape.

    Cells whose cached score is below ``epsilon`` receive the current count;
    the rest, nan scores included, their own per-tick mean total/(tick - 1),
    so the mean level stays unchanged; at tick 1 they are left alone. The
    rejected cells are saved, all cells added, the saved ones written back.
    """
    flat = total.reshape(-1)  # a view, as total is contiguous
    rejected = (~(scores < epsilon)).reshape(-1).nonzero()[0]  # np.flatnonzero, less its wrapper
    kept = flat[rejected]
    total += current
    if tick != 1:
        kept += kept / (tick - 1)
    flat[rejected] = kept


class _CountTable:
    """The count rows under both sketches, addressed by one cell per row.

    Subclasses hash keys to those cells; every count operation, the batch
    kernels and the snapshot codec live here, once.
    """

    _order = 1  # a row holds n_buckets ** _order cells
    _version = 1  # snapshot format version, the first byte of every blob

    def __init__(self, family: HashFamily):
        self.family = family
        self.n_rows = family.n_rows
        self.n_buckets = family.n_buckets
        self.counts = np.zeros((self.n_rows, self.n_buckets**self._order))

    # -- updates and queries at given cells --------------------------------

    def update_at(self, cells, weight: float = 1.0) -> None:
        """Add ``weight`` to one cell per row; see ``check_weight``."""
        check_weight(weight)
        counts = self.counts
        for row, cell in enumerate(cells):
            counts[row, cell] += weight

    def query_at(self, cells) -> float:
        """Smallest of the cells across rows: an upper bound on the true count."""
        counts = self.counts
        best = counts[0, cells[0]]
        for row in range(1, self.n_rows):
            value = counts[row, cells[row]]
            if value < best:
                best = value
        return float(best)

    def assign_at(self, cells, value: float) -> None:
        """Overwrite one cell per row with ``value`` (no accumulation).

        This is the cache behaviour used for per-entity score sketches.
        """
        counts = self.counts
        for row, cell in enumerate(cells):
            counts[row, cell] = value

    def _add_many(self, cells: np.ndarray, weight: float) -> None:
        """Add ``weight`` at ``cells`` of shape (n_rows, n), as n updates would."""
        check_weight(weight)
        for row in range(self.n_rows):
            np.add.at(self.counts[row], cells[row], weight)

    def _min_many(self, cells: np.ndarray) -> np.ndarray:
        """Min-of-rows estimates at ``cells`` of shape (n_rows, n)."""
        return np.take_along_axis(self.counts, cells, axis=1).min(axis=0)

    # -- whole-table operations -------------------------------------------

    def decay(self, alpha: float) -> None:
        """Scale every cell by ``alpha``; see ``check_decay``."""
        check_decay(alpha)
        self.counts *= alpha

    def clear(self) -> None:
        self.counts.fill(0.0)

    def state_bytes(self) -> int:
        return int(self.counts.nbytes)

    # -- snapshots ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Version, shape and 64-bit seed, then the counts as row-major
        little-endian floats."""
        seed = self.family.seed
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"snapshot seed must fit in 64 bits, got {seed}")
        head = _HEADER.pack(self._version, self.n_rows, self.n_buckets, seed)
        return head + self.counts.astype("<f8").tobytes(order="C")

    @classmethod
    def from_bytes(cls, blob: bytes):
        """The sketch ``to_bytes`` wrote; any other blob raises ValueError."""
        if len(blob) < _HEADER.size:
            raise ValueError(f"snapshot of {len(blob)} bytes is shorter than its header")
        version, n_rows, n_buckets, seed = _HEADER.unpack_from(blob)
        if version != cls._version:
            raise ValueError(f"unsupported snapshot version {version}")
        size = _HEADER.size + 8 * n_rows * n_buckets**cls._order
        if len(blob) != size:
            raise ValueError(f"snapshot has {len(blob)} bytes, its header needs {size}")
        sketch = cls(n_rows, n_buckets, seed=seed)
        flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
        sketch.counts[...] = flat.reshape(sketch.counts.shape)
        return sketch


class CountMinSketch(_CountTable):
    """Approximate counter table: n_rows hash rows over n_buckets buckets.

    Supports weighted updates, min-of-rows queries, multiplicative decay,
    value overrides (for score caches) and the conditional bucket-wise merge
    used by filtering detectors.
    """

    def __init__(self, n_rows: int = 2, n_buckets: int = 1024, seed: int = DEFAULT_SEED):
        super().__init__(HashFamily(n_rows, n_buckets, seed))

    def indexes(self, key) -> tuple[int, ...]:
        """Per-row bucket index for ``key``; reusable across sketches of the
        same shape and seed."""
        return self.family.indexes(hashing.canonical_key(key))

    def update(self, key, weight: float = 1.0) -> None:
        """Add ``weight`` to the key's bucket in every row."""
        self.update_at(self.indexes(key), weight)

    def query(self, key) -> float:
        """Smallest bucket value across rows: an upper bound on the true count."""
        return self.query_at(self.indexes(key))

    def update_many(self, keys: np.ndarray, weight: float = 1.0) -> None:
        """Batch update for integer keys; equivalent to updating one by one."""
        self._add_many(self.family.indexes_many(keys), weight)

    def query_many(self, keys: np.ndarray) -> np.ndarray:
        """Batch min-of-rows estimates for integer keys."""
        return self._min_many(self.family.indexes_many(keys))

    def assign(self, key, value: float) -> None:
        """Overwrite the key's buckets with ``value``."""
        self.assign_at(self.indexes(key), value)

    def merge_conditional(
        self, current: "CountMinSketch", scores: "CountMinSketch", epsilon: float, tick: int
    ) -> None:
        """``conditional_merge`` of the ``current`` sketch into this total
        sketch, on the scores cached in the ``scores`` sketch."""
        check_positive(epsilon, "merge threshold")
        if not all(self.family.same_layout(o.family) for o in (current, scores)):
            raise ValueError("conditional merge requires sketches with one shared layout")
        conditional_merge(self.counts, current.counts, scores.counts, epsilon, tick)


def matrix_cells(rows, cols, n_buckets: int) -> tuple:
    """The cell of matrix entry (r, c) in every hash row of a higher-order
    table, as ``r * n_buckets + c``: ``rows`` and ``cols`` hold each hash row's
    row and column bucket, an int for one entry or an array for many."""
    return tuple(r * n_buckets + c for r, c in zip(rows, cols))


class HigherOrderSketch(_CountTable):
    """Count sketch whose buckets form an n_buckets x n_buckets matrix per
    hash row: one hash family sends sources to matrix rows and destinations
    to matrix columns.

    Dense subgraphs in the input stream land in dense submatrices, which is
    what the density scorers exploit. ``matrices`` is a
    ``(n_rows, n_buckets, n_buckets)`` view of ``counts``; see ``matrix_cells``.
    """

    _order = 2

    def __init__(self, n_rows: int = 2, n_buckets: int = 32, seed: int = DEFAULT_SEED):
        super().__init__(HashFamily(n_rows, n_buckets, seed))

    @property
    def matrices(self) -> np.ndarray:
        """``counts`` as ``[row, r, c]``: a view, so a copy's is its own."""
        return self.counts.reshape(self.n_rows, self.n_buckets, self.n_buckets)

    def indexes(self, source, dest) -> tuple[int, ...]:
        """The (source, dest) cell of every row; see ``matrix_cells``."""
        indexes, canonical = self.family.indexes, hashing.canonical_key
        return matrix_cells(indexes(canonical(source)), indexes(canonical(dest)), self.n_buckets)

    def update(self, source, dest, weight: float = 1.0) -> None:
        self.update_at(self.indexes(source, dest), weight)

    def estimate(self, source, dest) -> float:
        """Min over layers of the (source, dest) cell; never below the true
        accumulated weight of (source, dest)."""
        return self.query_at(self.indexes(source, dest))

    def _cells_many(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        indexes = self.family.indexes_many
        return np.array(matrix_cells(indexes(sources), indexes(dests), self.n_buckets))

    def update_many(self, sources: np.ndarray, dests: np.ndarray, weight: float = 1.0) -> None:
        """Batch update for integer node ids; equivalent to one-by-one."""
        self._add_many(self._cells_many(sources, dests), weight)

    def estimate_many(self, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        return self._min_many(self._cells_many(sources, dests))

    reset = _CountTable.clear  # this sketch's public name for clear
