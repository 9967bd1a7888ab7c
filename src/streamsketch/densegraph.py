"""Dense-submatrix scorers over higher-order sketches.

The density of a submatrix (S, T) of a nonnegative matrix M is
sum(M[S, T]) / sqrt(|S| * |T|). Edge scorers grow a submatrix around the
arriving edge's cell (globally per edge, or maintained locally across the
stream); graph scorers peel the full matrix down greedily, which carries a
2-approximation guarantee against the optimal submatrix density.

All statistics are computed per sketch layer and aggregated by taking the
minimum, mirroring the min-of-rows count estimator.

Tie-breaking is fixed for reproducibility: expansion adds a row only when
its gain strictly beats the best column's, peeling removes a row only when
its sum is strictly below the best column's, and equal rows or columns
resolve to the lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .events import EdgeEvent, TickClock
from .hashing import DEFAULT_SEED
from .sketch import HigherOrderSketch, check_decay, check_weight


def _as_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("expected a non-empty 2-D matrix")
    return m


def expand_many(mats, rows, cols) -> np.ndarray:
    """Greedy expansions from many 1x1 seeds, advanced in lock-step.

    ``mats`` has shape ``(*batch, n_rows, n_cols)`` and ``rows``/``cols``
    shape ``batch``; lane i expands ``mats[i]`` from the seed cell
    ``(rows[i], cols[i])``. Starting from the seed, each step adds the
    remaining row with the largest sum against the current columns, or the
    remaining column with the largest sum against the current rows, until
    nothing remains. The best density seen anywhere on that path (seed
    included) is returned per lane, shape ``batch``.

    Every expansion of an n_rows x n_cols matrix takes the same
    n_rows + n_cols - 2 steps, so all lanes move together: each step is one
    argmax per side over the whole batch. Each lane's row or column choice
    is applied through ``where=`` masks that leave the other lanes' sums
    untouched (not even +0.0 is added), so each lane's result equals a
    scalar expansion of its matrix, bit for bit. ``mats`` may be a broadcast
    view; it is only read.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim < 3 or mats.shape[-1] == 0 or mats.shape[-2] == 0:
        raise ValueError("expected a stack of non-empty 2-D matrices")
    *batch, n_rows, n_cols = mats.shape
    batch = tuple(batch)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != batch or cols.shape != batch:
        raise ValueError(f"seed arrays must have shape {batch}")
    if ((rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)).any():
        raise ValueError(f"seed out of range for {n_rows}x{n_cols} matrices")

    lanes = np.ix_(*(np.arange(size) for size in batch))
    in_rows = np.zeros(batch + (n_rows,), dtype=bool)
    in_cols = np.zeros(batch + (n_cols,), dtype=bool)
    in_rows[lanes + (rows,)] = True
    in_cols[lanes + (cols,)] = True
    # Each row's sum against the current columns, and each column's against
    # the current rows.
    row_gain = mats[lanes + (slice(None), cols)]
    col_gain = mats[lanes + (rows,)]
    total = mats[lanes + (rows, cols)]
    size_rows = np.ones(batch, dtype=np.int64)
    size_cols = np.ones(batch, dtype=np.int64)
    best = total.copy()

    for _ in range(n_rows + n_cols - 2):
        cand_rows = np.where(in_rows, -np.inf, row_gain)
        cand_cols = np.where(in_cols, -np.inf, col_gain)
        r = cand_rows.argmax(axis=-1)
        c = cand_cols.argmax(axis=-1)
        best_row = cand_rows[lanes + (r,)]  # equals row_gain there whenever taken
        # Strict > sends ties (and exhausted rows) to the column branch.
        take_row = best_row > cand_cols[lanes + (c,)]
        take_col = ~take_row
        total += np.where(take_row, best_row, col_gain[lanes + (c,)])
        added_row = mats[lanes + (r,)]
        added_col = mats[lanes + (slice(None), c)]
        np.add(col_gain, added_row, out=col_gain, where=take_row[..., None])
        np.add(row_gain, added_col, out=row_gain, where=take_col[..., None])
        in_rows[lanes + (r,)] |= take_row
        in_cols[lanes + (c,)] |= take_col
        size_rows += take_row
        size_cols += take_col
        density = total / np.sqrt(size_rows * size_cols)
        np.copyto(best, density, where=density > best)
    return best


def edge_submatrix_density(matrix, row: int, col: int) -> float:
    """Max density along a greedy expansion from the 1x1 seed (row, col);
    see ``expand_many``."""
    m = _as_matrix(matrix)
    n_rows, n_cols = m.shape
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise ValueError(f"seed ({row}, {col}) out of range for {m.shape} matrix")
    return float(expand_many(m[None], [row], [col])[0])


def anograph_density(matrix) -> float:
    """Max density along a greedy peel of the whole matrix.

    Starting from the full matrix, repeatedly drop the row with the smallest
    sum or the column with the smallest sum, tracking the density of every
    intermediate submatrix. The result is at least half the density of the
    best submatrix of any shape.
    """
    m = _as_matrix(matrix)
    if float(m.min(initial=0.0)) < 0.0:
        raise ValueError("matrix entries must be nonnegative")
    n_rows, n_cols = m.shape
    alive_rows = np.ones(n_rows, dtype=bool)
    alive_cols = np.ones(n_cols, dtype=bool)
    row_sums = m.sum(axis=1)
    col_sums = m.sum(axis=0)
    total = float(row_sums.sum())
    size_rows, size_cols = n_rows, n_cols
    best = total / math.sqrt(size_rows * size_cols)

    while size_rows > 0 and size_cols > 0:
        cand_rows = np.where(alive_rows, row_sums, np.inf)
        cand_cols = np.where(alive_cols, col_sums, np.inf)
        r = int(np.argmin(cand_rows))
        c = int(np.argmin(cand_cols))
        # Strict < keeps ties on the column branch.
        if cand_rows[r] < cand_cols[c]:
            total -= float(row_sums[r])
            col_sums -= m[r, :]
            alive_rows[r] = False
            size_rows -= 1
        else:
            total -= float(col_sums[c])
            row_sums -= m[:, c]
            alive_cols[c] = False
            size_cols -= 1
        if size_rows > 0 and size_cols > 0:
            density = total / math.sqrt(size_rows * size_cols)
            if density > best:
                best = density
    return float(best)


def _topk_densities(mats: np.ndarray, k: int) -> np.ndarray:
    """Best expansion density over the k largest cells of each matrix in a
    stack ``(*batch, n_rows, n_cols)``, floored at 0; shape ``batch``.

    Cells tie-break in row-major order. All seeds of all matrices expand in
    one ``expand_many`` call over a broadcast view, without copying.
    """
    *batch, n_rows, n_cols = mats.shape
    flat = mats.reshape(*batch, n_rows * n_cols)
    seeds = np.argsort(-flat, axis=-1, kind="stable")[..., :k]
    views = np.broadcast_to(mats[..., None, :, :], seeds.shape + (n_rows, n_cols))
    best = expand_many(views, seeds // n_cols, seeds % n_cols)
    return np.maximum(best.max(axis=-1), 0.0)


# Bytes of sketch snapshots an AnoEdgeGlobal buffers before expanding them
# together (at least one snapshot, whatever its size). Larger chunks amortise
# the kernel's per-step cost further but add directly to peak memory.
SNAPSHOT_BUDGET_BYTES = 512 * 1024


class AnoEdgeGlobal:
    """Edge scorer: density of a dense submatrix grown around each edge.

    Maintains a temporally decaying higher-order sketch; on every arriving
    edge it updates the sketch and reports the greedy-expansion density at
    the edge's cell, minimised across layers.

    ``score_many`` scores a run of edges with one ``expand_many`` call per
    chunk of edges. The chunk buffer is allocated here, once, and holds
    ``SNAPSHOT_BUDGET_BYTES`` of sketch snapshots, so memory does not depend
    on how long the stream is or how many edges share a tick.
    """

    def __init__(
        self,
        n_rows: int = 2,
        n_buckets: int = 32,
        alpha: float = 0.9,
        seed: int = DEFAULT_SEED,
    ):
        check_decay(alpha)
        self.sketch = HigherOrderSketch(n_rows, n_buckets, seed)
        self.alpha = alpha
        self.clock = TickClock()
        chunk = max(1, SNAPSHOT_BUDGET_BYTES // self.sketch.matrices.nbytes)
        self._snapshots = np.empty((chunk,) + self.sketch.matrices.shape)
        self._seeds = np.empty((chunk, n_rows), dtype=np.intp)  # flat seed cells

    def score(self, event: EdgeEvent) -> float:
        return self.score_many((event,))[0]

    def score_many(self, events) -> list[float]:
        """Scores of ``events`` in stream order, equal to calling ``score``
        on each in turn.

        Each edge's expansion runs on the sketch as it stood right after that
        edge's update. Those states are copied into the snapshot buffer in
        one sequential pass, whatever tick they belong to, and each full
        buffer is expanded in one call. An invalid event raises before this
        call returns any score; the edges before it stay in the sketch.
        """
        snapshots, seeds = self._snapshots, self._seeds
        scores: list[float] = []
        filled = 0
        for event in events:
            check_weight(event.weight)  # before the clock moves: a rejected edge changes nothing
            cells = self.sketch.indexes(event.source, event.dest)
            if self.clock.advance(event.tick) is not None:
                self.sketch.decay(self.alpha)
            self.sketch.update_at(cells, event.weight)
            snapshots[filled] = self.sketch.matrices
            seeds[filled] = cells
            filled += 1
            if filled == len(snapshots):
                scores.extend(self._expand_snapshots(filled))
                filled = 0
        if filled:
            scores.extend(self._expand_snapshots(filled))
        return scores

    def _expand_snapshots(self, count: int) -> list[float]:
        n_layers, n_buckets, _ = self.sketch.matrices.shape
        lanes = count * n_layers
        mats = self._snapshots[:count].reshape(lanes, n_buckets, n_buckets)
        rows, cols = np.divmod(self._seeds[:count].reshape(lanes), n_buckets)
        best = expand_many(mats, rows, cols)
        return best.reshape(count, n_layers).min(axis=1).tolist()


@dataclass
class _LocalSubmatrix:
    """One layer's maintained dense submatrix with incremental sums."""

    in_rows: np.ndarray
    in_cols: np.ndarray
    row_gain: np.ndarray  # per-row sum against the current columns
    col_gain: np.ndarray
    total: float = 0.0
    size_rows: int = 1
    size_cols: int = 1

    @classmethod
    def seeded(cls, n_buckets: int, rng: np.random.Generator) -> "_LocalSubmatrix":
        in_rows = np.zeros(n_buckets, dtype=bool)
        in_cols = np.zeros(n_buckets, dtype=bool)
        in_rows[int(rng.integers(n_buckets))] = True
        in_cols[int(rng.integers(n_buckets))] = True
        return cls(
            in_rows=in_rows,
            in_cols=in_cols,
            row_gain=np.zeros(n_buckets),
            col_gain=np.zeros(n_buckets),
        )

    def density(self) -> float:
        return self.total / math.sqrt(self.size_rows * self.size_cols)

    def on_update(self, r: int, c: int, weight: float) -> None:
        if self.in_cols[c]:
            self.row_gain[r] += weight
        if self.in_rows[r]:
            self.col_gain[c] += weight
            if self.in_cols[c]:
                self.total += weight

    def on_decay(self, alpha: float) -> None:
        self.row_gain *= alpha
        self.col_gain *= alpha
        self.total *= alpha

    def _add_row(self, r: int, matrix: np.ndarray) -> None:
        self.total += float(self.row_gain[r])
        self.col_gain += matrix[r, :]
        self.in_rows[r] = True
        self.size_rows += 1

    def _add_col(self, c: int, matrix: np.ndarray) -> None:
        self.total += float(self.col_gain[c])
        self.row_gain += matrix[:, c]
        self.in_cols[c] = True
        self.size_cols += 1

    def expand(self, r: int, c: int, matrix: np.ndarray) -> None:
        """Adopt the edge's row or column when doing so raises the density."""
        if not self.in_rows[r]:
            grown = (self.total + float(self.row_gain[r])) / math.sqrt(
                (self.size_rows + 1) * self.size_cols
            )
            if grown > self.density():
                self._add_row(r, matrix)
        if not self.in_cols[c]:
            grown = (self.total + float(self.col_gain[c])) / math.sqrt(
                self.size_rows * (self.size_cols + 1)
            )
            if grown > self.density():
                self._add_col(c, matrix)

    def condense(self, matrix: np.ndarray) -> None:
        """Drop min-sum rows or columns while each drop raises the density."""
        while True:
            current = self.density()
            best_gain = current
            drop_row = drop_col = -1
            if self.size_rows > 1:
                cand = np.where(self.in_rows, self.row_gain, np.inf)
                r = int(np.argmin(cand))
                shrunk = (self.total - float(self.row_gain[r])) / math.sqrt(
                    (self.size_rows - 1) * self.size_cols
                )
                if shrunk > best_gain:
                    best_gain = shrunk
                    drop_row = r
            if self.size_cols > 1:
                cand = np.where(self.in_cols, self.col_gain, np.inf)
                c = int(np.argmin(cand))
                shrunk = (self.total - float(self.col_gain[c])) / math.sqrt(
                    self.size_rows * (self.size_cols - 1)
                )
                if shrunk >= best_gain and shrunk > current:
                    best_gain = shrunk
                    drop_col = c
                    drop_row = -1
            if drop_col >= 0:
                self.total -= float(self.col_gain[drop_col])
                self.row_gain -= matrix[:, drop_col]
                self.in_cols[drop_col] = False
                self.size_cols -= 1
            elif drop_row >= 0:
                self.total -= float(self.row_gain[drop_row])
                self.col_gain -= matrix[drop_row, :]
                self.in_rows[drop_row] = False
                self.size_rows -= 1
            else:
                return

    def likelihood(self, r: int, c: int, matrix: np.ndarray) -> float:
        """Mean of the cells covered by crossing (r, c) through the submatrix.

        The cross is the submatrix's rows in column c, its columns in row r,
        and the cell (r, c) itself, counted once each.
        """
        total = float(self.col_gain[c]) + float(self.row_gain[r])
        count = self.size_rows + self.size_cols
        if self.in_rows[r] and self.in_cols[c]:
            total -= float(matrix[r, c])
            count -= 1
        elif not self.in_rows[r] and not self.in_cols[c]:
            total += float(matrix[r, c])
            count += 1
        return total / count


class AnoEdgeLocal:
    """Edge scorer that maintains one dense submatrix per layer across the
    stream and reports each edge's likelihood against it.

    Cheaper than the global scorer: updates touch a row and a column rather
    than sweeping the matrix.
    """

    def __init__(
        self,
        n_rows: int = 2,
        n_buckets: int = 32,
        alpha: float = 0.9,
        seed: int = DEFAULT_SEED,
    ):
        check_decay(alpha)
        self.sketch = HigherOrderSketch(n_rows, n_buckets, seed)
        self.alpha = alpha
        self.clock = TickClock()
        rng = np.random.default_rng(seed)
        self.states = [_LocalSubmatrix.seeded(n_buckets, rng) for _ in range(n_rows)]

    def score(self, event: EdgeEvent) -> float:
        check_weight(event.weight)  # before the clock moves: a rejected edge changes nothing
        cells = self.sketch.indexes(event.source, event.dest)
        if self.clock.advance(event.tick) is not None:
            self.sketch.decay(self.alpha)
            for state in self.states:
                state.on_decay(self.alpha)
        self.sketch.update_at(cells, event.weight)
        score = None
        for layer, cell in enumerate(cells):
            r, c = divmod(cell, self.sketch.n_buckets)
            state = self.states[layer]
            matrix = self.sketch.matrices[layer]
            state.on_update(r, c, event.weight)
            state.expand(r, c, matrix)
            state.condense(matrix)
            value = state.likelihood(r, c, matrix)
            if score is None or value < score:
                score = value
        return float(score)


@dataclass
class GraphWindow:
    """A sealed batch of edges accumulated into one sketch."""

    sketch: HigherOrderSketch
    edge_count: int = 0
    tick_lo: int | None = field(default=None)
    tick_hi: int | None = field(default=None)

    def add(self, event: EdgeEvent) -> None:
        self.sketch.update(event.source, event.dest, event.weight)
        self.edge_count += 1
        if self.tick_lo is None or event.tick < self.tick_lo:
            self.tick_lo = event.tick
        if self.tick_hi is None or event.tick > self.tick_hi:
            self.tick_hi = event.tick


def anograph_score(window: GraphWindow, variant: str = "full", k: int = 5) -> float:
    """Densest-submatrix score of one graph window, minimised over layers.

    ``full`` runs the greedy peel; ``topk`` seeds greedy expansions at the k
    largest cells. Empty windows score 0.
    """
    if variant not in ("full", "topk"):
        raise ValueError(f"variant must be 'full' or 'topk', got {variant!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if window.edge_count == 0:
        return 0.0
    matrices = window.sketch.matrices
    if variant == "full":
        return min(anograph_density(matrices[j]) for j in range(window.sketch.n_rows))
    return float(_topk_densities(matrices, k).min())
