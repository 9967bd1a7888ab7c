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
from dataclasses import dataclass

import numpy as np

from .events import EdgeEvent, TickClock
from .hashing import DEFAULT_SEED
from .sketch import HigherOrderSketch, check_decay, check_weight


def _as_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("expected a non-empty 2-D matrix")
    if not (m >= 0.0).all():  # also rejects nan
        raise ValueError("matrix entries must be nonnegative")
    return m


def expand_many(mats, rows, cols) -> np.ndarray:
    """Greedy expansions from many 1x1 seeds, advanced in lock-step.

    ``mats`` is a stack ``(*batch, n_rows, n_cols)``; ``rows`` and ``cols``
    have shape ``batch``, or ``batch`` and more axes for several seeds per
    matrix. Seed i, one lane, expands ``mats[i[:len(batch)]]`` from the cell
    ``(rows[i], cols[i])``: each step adds the remaining row with the largest
    sum against the current columns, or the remaining column with the largest
    sum against the current rows, until nothing remains. The best density
    seen on that path (seed included) is returned in the seeds' shape. Cells
    may be inf, but not nan or below 0, which only ``_as_matrix`` checks.

    Every expansion of an n_rows x n_cols matrix takes the same
    n_rows + n_cols - 2 steps, so all lanes move together. Row and column
    sums share one ``gains[lane, side, line]`` array with members (and the
    zero padding of a non-square stack) at -inf, so one argmax picks every
    lane's best row and column. One copy of the stack, ``lines[mat, side,
    line, :]``, holds each matrix's columns (side 0, the rows of M^T) and rows
    (side 1), zero-padded to size x size, and all seeds of a matrix read that
    one copy: the line a lane takes is one contiguous row, at its gain's flat
    index plus (mat - lane) * 2 * size. Each lane adds it to its other side
    only (gather, add, scatter). Where the stack holds an inf, a member's
    -inf + inf = nan is put back at -inf. Totals and densities come after the
    loop, by the same adds in the same order, and the first maximum is kept,
    as a strict > would: each lane equals a scalar expansion, bit for bit,
    signed zeros included. ``mats`` may be a broadcast view; it is only read.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim < 3 or mats.shape[-1] == 0 or mats.shape[-2] == 0:
        raise ValueError("expected a stack of non-empty 2-D matrices")
    *batch, n_rows, n_cols = mats.shape
    batch = tuple(batch)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape[: len(batch)] != batch or cols.shape != rows.shape:
        raise ValueError(f"seed arrays must have shape {batch} or {batch} + (k, ...)")
    if ((rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)).any():
        raise ValueError(f"seed out of range for {n_rows}x{n_cols} matrices")

    n_mats, size, steps = math.prod(batch), max(n_rows, n_cols), n_rows + n_cols - 2
    has_inf = np.isinf(mats).any()  # before the copy, so the two are never held at once
    lines = np.zeros(batch + (2, size, size))
    lines[..., 0, :n_cols, :n_rows] = np.swapaxes(mats, -1, -2)
    lines[..., 1, :n_rows, :n_cols] = mats
    lines = lines.reshape(n_mats, 2, size, size)
    shape, n_lanes = rows.shape, rows.size
    mat = np.repeat(np.arange(n_mats), math.prod(shape[len(batch) :]))  # each lane's matrix
    rows, cols, lane = rows.reshape(n_lanes), cols.reshape(n_lanes), np.arange(n_lanes)
    shift = (mat - lane) * (2 * size)  # from a lane's flat gain index to its line's
    # Side 0 holds each column's sum against the current rows, side 1 each row's
    # against the current columns; pairs[2 * lane + side] is one side's sums.
    gains = np.empty((n_lanes, 2, size))
    gains[:, 0], gains[:, 1] = lines[mat, 1, rows], lines[mat, 0, cols]
    gains[:, 0, n_cols:] = gains[:, 1, n_rows:] = -np.inf
    gains[lane, 0, cols] = gains[lane, 1, rows] = -np.inf
    pairs, flat_pairs = gains.reshape(2 * n_lanes, size), gains.reshape(-1)
    flat_lines = lines.reshape(-1, size)
    first_of_pair, pair_start = 2 * lane, np.arange(0, gains.size, size)
    # Each step's best column and row gain per lane, and whether it took the row.
    seen = np.empty((steps + 1, 2 * n_lanes))
    took_row = np.zeros((steps + 1, n_lanes), dtype=bool)  # step 0 is the seed
    with np.errstate(invalid="ignore"):  # -inf + inf at a member
        for step in range(1, steps + 1):
            at = pairs.argmax(axis=1)
            at += pair_start
            best = flat_pairs.take(at, out=seen[step])
            # Strict > sends ties (and exhausted rows) to the column branch.
            take_row = np.greater(best[1::2], best[0::2], out=took_row[step])
            taken = first_of_pair + take_row
            line = at[taken]
            flat_pairs[line] = -np.inf
            line += shift
            other = taken ^ 1
            sums = pairs.take(other, axis=0)
            sums += flat_lines.take(line, axis=0)
            if has_inf:
                np.fmax(sums, -np.inf, out=sums)
            pairs[other] = sums
    totals = np.where(took_row, seen[:, 1::2], seen[:, 0::2])
    totals[0] = lines[mat, 1, rows, cols]
    np.add.accumulate(totals, axis=0, out=totals)
    size_rows = 1 + np.cumsum(took_row, axis=0)
    density = totals / np.sqrt(size_rows * (np.arange(2, steps + 3)[:, None] - size_rows))
    return density[density.argmax(axis=0), lane].reshape(shape)  # the first maximum


def edge_submatrix_density(matrix, row: int, col: int) -> float:
    """Max density along a greedy expansion from the 1x1 seed (row, col);
    see ``expand_many``."""
    m = _as_matrix(matrix)
    n_rows, n_cols = m.shape
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise ValueError(f"seed ({row}, {col}) out of range for {m.shape} matrix")
    return float(expand_many(m[None], [row], [col])[0])


@dataclass(slots=True)
class _Submatrix:
    """A submatrix (S, T) of one matrix, with the sums the greedy steps read.

    State is kept per axis, 0 for rows and 1 for columns: ``inside[axis]``
    marks the axis's lines in the submatrix, ``gain[axis]`` holds each line's
    sum against the other axis's members (for lines inside and outside), and
    ``size[axis]`` counts the members. ``total`` is the sum of M[S, T].
    """

    inside: list  # two 1-D bool arrays
    gain: list  # two 1-D float64 arrays
    total: float
    size: list  # two ints

    @classmethod
    def whole(cls, m: np.ndarray) -> "_Submatrix":
        inside = [np.ones(n, dtype=bool) for n in m.shape]
        gain = [m.sum(axis=1), m.sum(axis=0)]
        return cls(inside, gain, float(gain[0].sum()), list(m.shape))

    @classmethod
    def seeded(cls, n_buckets: int, rng: np.random.Generator) -> "_Submatrix":
        """A 1x1 submatrix at a random row, then a random column; all sums 0."""
        inside = [np.zeros(n_buckets, dtype=bool), np.zeros(n_buckets, dtype=bool)]
        for members in inside:
            members[int(rng.integers(n_buckets))] = True
        return cls(inside, [np.zeros(n_buckets), np.zeros(n_buckets)], 0.0, [1, 1])

    def density(self) -> float:
        return self.total / math.sqrt(self.size[0] * self.size[1])

    def density_after(self, axis: int, i: int, step: int) -> float:
        """The density once line ``i`` of ``axis`` is added (step 1) or dropped (-1)."""
        size = self.size
        return (self.total + step * float(self.gain[axis][i])) / math.sqrt(
            size[0] * size[1] + step * size[1 - axis]
        )

    def move(self, axis: int, i: int, matrix: np.ndarray, step: int) -> None:
        """Add line ``i`` of ``axis`` (``step`` 1) or drop it (``step`` -1)."""
        self.total += step * float(self.gain[axis][i])
        other = self.gain[1 - axis]
        line = matrix[i, :] if axis == 0 else matrix[:, i]
        (np.add if step > 0 else np.subtract)(other, line, out=other)
        self.inside[axis][i] = step > 0
        self.size[axis] += step

    def lightest(self) -> list:
        """Per axis, the member with the smallest gain (lowest index on ties) and
        that gain; if all members' gains are inf, line 0, member or not, and inf."""
        light = []
        for members, gain in zip(self.inside, self.gain):
            cand = np.where(members, gain, np.inf)
            i = cand.argmin()
            light.append((i, cand[i]))
        return light

    # AnoEdge-L's per-edge steps on its maintained submatrix.

    def on_update(self, r: int, c: int, weight: float) -> None:
        (in_rows, in_cols), (row_gain, col_gain) = self.inside, self.gain
        if in_cols[c]:
            row_gain[r] += weight
        if in_rows[r]:
            col_gain[c] += weight
            if in_cols[c]:
                self.total += weight

    def on_decay(self, alpha: float) -> None:
        for gain in self.gain:
            gain *= alpha
        self.total *= alpha

    def expand(self, r: int, c: int, matrix: np.ndarray) -> None:
        """Adopt the edge's row, then its column, when that raises the density."""
        for axis, i in ((0, r), (1, c)):
            if not self.inside[axis][i] and self.density_after(axis, i, 1) > self.density():
                self.move(axis, i, matrix, 1)

    def condense(self, matrix: np.ndarray) -> None:
        """Drop the lightest row or column while that raises the density;
        a column wins a tie with a row."""
        while True:
            current = best = self.density()
            drop = None
            for axis, (i, _) in enumerate(self.lightest()):
                if self.size[axis] > 1:
                    shrunk = self.density_after(axis, i, -1)
                    if shrunk > current and shrunk >= best:
                        best, drop = shrunk, (axis, i)
            if drop is None:
                return
            self.move(*drop, matrix, -1)

    def likelihood(self, r: int, c: int, matrix: np.ndarray) -> float:
        """Mean of the cells covered by crossing (r, c) through the submatrix.

        The cross is the submatrix's rows in column c, its columns in row r,
        and the cell (r, c) itself, counted once each.
        """
        (in_rows, in_cols), (row_gain, col_gain) = self.inside, self.gain
        total = float(col_gain[c]) + float(row_gain[r])
        count = self.size[0] + self.size[1]
        if in_rows[r] and in_cols[c]:
            total -= float(matrix[r, c])
            count -= 1
        elif not in_rows[r] and not in_cols[c]:
            total += float(matrix[r, c])
            count += 1
        return total / count


def anograph_density(matrix) -> float:
    """Max density along a greedy peel of the whole matrix.

    Starting from the full matrix, repeatedly drop the row with the smallest
    sum or the column with the smallest sum, tracking the density of every
    intermediate submatrix. The result is at least half the density of the
    best submatrix of any shape.
    """
    m = _as_matrix(matrix)
    sub = _Submatrix.whole(m)
    best = sub.density()
    # The best density only rises, so an inf one is final; peeling on takes inf - inf.
    while best < math.inf:
        (r, row_gain), (c, col_gain) = sub.lightest()
        # Strict < keeps ties on the column branch.
        axis, i = (0, r) if row_gain < col_gain else (1, c)
        sub.move(axis, i, m, -1)
        if not all(sub.size):
            break
        best = max(best, sub.density())
    return float(best)


def _topk_densities(mats: np.ndarray, k: int) -> np.ndarray:
    """Best expansion density over the k largest cells of each matrix in a
    stack ``(*batch, n_rows, n_cols)``, or of one matrix, floored at 0; shape
    ``batch``.

    Cells tie-break in row-major order. All seeds of all matrices expand in
    one ``expand_many`` call, which copies each matrix, with its transpose,
    once for all of its seeds.
    """
    *batch, n_rows, n_cols = mats.shape
    stack = mats.reshape(-1, n_rows, n_cols)
    seeds = np.argsort(-stack.reshape(len(stack), -1), axis=-1, kind="stable")[:, :k]
    best = expand_many(stack, *np.divmod(seeds, n_cols))
    return np.maximum(best.max(axis=-1), 0.0).reshape(batch)


# Bytes of sketch snapshots an AnoEdgeGlobal buffers before expanding them
# together (at least one snapshot, whatever its size). At the default 2x32x32
# sketch that is 64 lanes, which one expand_many call grows in ~1.2 ms, ~19 us
# per lane (~37 us at 16 lanes, ~18 at 128; best of 5 medians on a 2-core x86
# box). Larger chunks gain little more and add three times their size to peak
# memory: the buffer, and expand_many's stacked copy of twice its size.
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
        seeds = np.divmod(self._seeds[:count], self.sketch.n_buckets)
        return expand_many(self._snapshots[:count], *seeds).min(axis=1).tolist()


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
        self.states = [_Submatrix.seeded(n_buckets, rng) for _ in range(n_rows)]

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

    def score_many(self, events) -> list[float]:
        """Scores of ``events`` in stream order, one ``score`` call each: the
        maintained submatrices are sequential state."""
        return [self.score(event) for event in events]


def anograph_score(window: HigherOrderSketch, variant: str = "full", k: int = 5) -> float:
    """Densest-submatrix score of one graph window, the sketch of its edges,
    minimised over layers.

    ``full`` runs the greedy peel; ``topk`` seeds greedy expansions at the k
    largest cells. An empty window scores 0, as both kernels give 0 on an
    all-zero matrix. On a 2x32x32 window at k=5, ``topk`` and ``full`` each
    take ~0.7 ms (in process, medians on a 2-core x86 box).
    """
    if variant not in ("full", "topk"):
        raise ValueError(f"variant must be 'full' or 'topk', got {variant!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if variant == "full":
        return min(map(anograph_density, window.matrices))
    return float(_topk_densities(window.matrices, k).min())
