"""Slow reference implementations ("oracles") the tests hold the package to.

Each oracle recomputes what a fast path computes, by exact counters,
exhaustive enumeration, pairwise comparison or the per-event and per-table
loops the fast paths replaced. Tests import them with ``from oracles import
...``; nothing in the package imports this module.
"""

import io
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

import numpy as np

from streamsketch.densegraph import AnoEdgeGlobal, AnoEdgeLocal, _as_matrix, _topk_densities
from streamsketch.events import EdgeEvent
from streamsketch.hashing import DEFAULT_SEED, canonical_key
from streamsketch.ingest import parse_edge_stream, parse_feedback
from streamsketch.midas import MidasDetector, chi2_score, filtering_score
from streamsketch.mstream import HyperplaneHash, RecordScore, bucketize_numeric
from streamsketch.sess import SharpeningParams, Sess3dDetector, apply_feedback
from streamsketch.sketch import HigherOrderSketch, check_weight


# -- exact counters for the chi-squared scorers -------------------------------


class PlainOracle:
    def __init__(self):
        self.total = defaultdict(float)
        self.current = defaultdict(float)
        self.tick = None

    def score(self, event):
        if self.tick is None:
            self.tick = event.tick
        elif event.tick > self.tick:
            self.current.clear()
            self.tick = event.tick
        key = (event.source, event.dest)
        self.total[key] += event.weight
        self.current[key] += event.weight
        return chi2_score(self.current[key], self.total[key], event.tick)


class RelationalOracle:
    def __init__(self, alpha):
        self.alpha = alpha
        self.total = [defaultdict(float) for _ in range(3)]
        self.current = [defaultdict(float) for _ in range(3)]
        self.tick = None

    def score(self, event):
        if self.tick is None:
            self.tick = event.tick
        elif event.tick > self.tick:
            for counts in self.current:
                for key in counts:
                    counts[key] *= self.alpha
            self.tick = event.tick
        keys = [(event.source, event.dest), event.source, event.dest]
        parts = []
        for group, key in enumerate(keys):
            self.total[group][key] += event.weight
            self.current[group][key] += event.weight
            parts.append(
                chi2_score(self.current[group][key], self.total[group][key], event.tick)
            )
        return max(parts)


class FilteringOracle:
    def __init__(self, alpha, threshold):
        self.alpha = alpha
        self.threshold = threshold
        self.total = [defaultdict(float) for _ in range(3)]
        self.current = [defaultdict(float) for _ in range(3)]
        self.cache = [defaultdict(float) for _ in range(3)]
        self.tick = None

    def _close_tick(self):
        for group in range(3):
            total, current, cache = (
                self.total[group],
                self.current[group],
                self.cache[group],
            )
            for key in set(total) | set(current) | set(cache):
                if cache[key] < self.threshold:
                    total[key] += current[key]
                elif self.tick != 1:
                    total[key] += total[key] / (self.tick - 1)
            for key in current:
                current[key] *= self.alpha

    def score(self, event):
        if self.tick is None:
            self.tick = event.tick
        elif event.tick > self.tick:
            self._close_tick()
            self.tick = event.tick
        keys = [(event.source, event.dest), event.source, event.dest]
        parts = []
        for group, key in enumerate(keys):
            self.current[group][key] += event.weight
            value = filtering_score(
                self.current[group][key], self.total[group][key], event.tick
            )
            self.cache[group][key] = value
            parts.append(value)
        return max(parts)


def random_edge_stream(seed, n=1000, nodes=14):
    """``n`` unweighted edges over ``nodes`` integer ids; each edge moves to
    the next tick with probability 0.05."""
    rng = np.random.default_rng(seed)
    tick = 1
    events = []
    for _ in range(n):
        if rng.random() < 0.05:
            tick += 1
        events.append(
            EdgeEvent(int(rng.integers(0, nodes)), int(rng.integers(0, nodes)), tick)
        )
    return events


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


# -- the per-table tick close -------------------------------------------------


def masked_merge(total, current, scores, epsilon, tick):
    """Conditional merge of one key's tables through boolean masks."""
    accept = scores < epsilon
    total[accept] += current[accept]
    if tick != 1:
        rejected = ~accept
        total[rejected] += total[rejected] / (tick - 1)


class PerTableDetector(MidasDetector):
    """MidasDetector whose tick close handles one key's slice of ``counts``
    at a time: a masked merge per scored key, then one clear or decay per
    current table."""

    def advance(self, tick):
        closing = self.clock.advance(tick)
        if closing is None:
            return
        tables = [self.counts[:, k] for k in range(self.counts.shape[1])]
        if self.variant == "plain":
            for _, current in tables:
                current.fill(0.0)
            self.tick_volume = 0.0
            return
        if self.variant == "filtering":
            for total, current, cache in tables:
                masked_merge(total, current, cache, self.merge_threshold, closing)
        for table in tables:
            table[1] *= self.alpha
        self.tick_volume *= self.alpha


# -- MStream with its own pairwise hash, as before it went through HashFamily --

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
        self.minmax = [[math.inf, -math.inf] for _ in range(n_numeric)]
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
        return RecordScore(record_term + reduce(add, terms, 0.0), record_term, tuple(terms))


# -- SESS-3D as two sketches --------------------------------------------------


class TwoSketchSess3d:
    """The higher-order detector as two ``HigherOrderSketch`` tables, decayed
    and rescaled one at a time, kept as the oracle for the stacked one."""

    def __init__(self, n_rows, n_buckets, alpha, seed):
        self.total = HigherOrderSketch(n_rows, n_buckets, seed)
        self.current = HigherOrderSketch(n_rows, n_buckets, seed)
        self.alpha = alpha
        self.tick = None

    def score(self, event):
        cells = self.total.indexes(event.source, event.dest)
        if self.tick is not None and event.tick != self.tick:
            self.current.decay(self.alpha)
        self.tick = event.tick
        self.current.update_at(cells, event.weight)
        self.total.update_at(cells, event.weight)
        return chi2_score(self.current.query_at(cells), self.total.query_at(cells), event.tick)

    def feedback(self, label, params, edge=None, node=None):
        """Rescale an ``edge``'s cells, or else a ``node``'s row and column."""
        total_factor, current_factor = params.factors(label)
        if edge is not None:
            for layer, cell in enumerate(self.total.indexes(*edge)):
                self.total.counts[layer, cell] *= total_factor
                self.current.counts[layer, cell] *= current_factor
            return
        for layer, b in enumerate(self.total.family.indexes(canonical_key(node))):
            for sketch, factor in ((self.total, total_factor), (self.current, current_factor)):
                sketch.matrices[layer, b, :] *= factor
                col = sketch.matrices[layer, :, b]
                keep = col[b]
                col *= factor
                col[b] = keep


def oracle_sess(text, feedback, feedback_name, layout="flat", seed=DEFAULT_SEED):
    """``sess`` on input ``text`` and the ``feedback`` text of the file
    ``feedback_name``, as ``(exit, stdout, stderr)``, by the per-edge loop:
    parse the feedback, then apply its node labels, then parse the whole
    input, then ``score`` edge by edge, applying each edge label after the
    edge it names. Error order matches the CLI's only where no score is nan
    and no feedback overflows a count, as with unit weights."""
    params = SharpeningParams()
    make = Sess3dDetector if layout == "3d" else partial(MidasDetector, "relational")
    detector = make(seed=seed)
    try:
        edge_labels, node_labels = parse_feedback(io.StringIO(feedback, newline=None), feedback_name)
        if node_labels and layout != "3d":
            raise ValueError("node feedback requires --layout 3d")
        for node, label in node_labels:
            apply_feedback(detector, detector.node_cells(node), label, params)
        events = list(parse_edge_stream(io.StringIO(text, newline=None)))
        last, n = max(edge_labels, default=-1), len(events)
        if last >= n:
            raise ValueError(f"feedback index {last} is past the end of the stream ({n} edges)")
        scores = []
        for index, event in enumerate(events):
            scores.append(detector.score(event))
            if index in edge_labels:
                cells = detector.cells(event.source, event.dest)
                apply_feedback(detector, cells, edge_labels[index], params, index)
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    assert not any(map(math.isnan, scores)), "a nan score: the CLI reports it by chunk"
    return 0, "".join(f"{score:.9g}\n" for score in scores), ""


# -- an edge and a record that check none of their fields --------------------


@dataclass
class LooseEdge:
    """Has the fields of an EdgeEvent but checks none of them."""

    source: object
    dest: object
    tick: int
    weight: object = 1.0


@dataclass
class LooseRecord:
    """Has the fields of a MultiAspectRecord but checks none of them."""

    categorical: tuple
    numeric: tuple
    tick: int


# -- dense submatrices --------------------------------------------------------


def submatrix_density(matrix, rows, cols) -> float:
    """Density of the submatrix selected by ``rows`` x ``cols``."""
    m = _as_matrix(matrix)
    rows = list(rows)
    cols = list(cols)
    if not rows or not cols:
        raise ValueError("density is undefined for an empty row or column set")
    block = m[np.ix_(rows, cols)]
    return float(block.sum() / math.sqrt(len(rows) * len(cols)))


def brute_force_density(matrix):
    """Exhaustive max density over all nonempty submatrices (bitmask oracle)."""
    m = np.asarray(matrix, dtype=float)
    n_rows, n_cols = m.shape
    row_masks = np.arange(1, 1 << n_rows)
    col_masks = np.arange(1, 1 << n_cols)
    row_bits = ((row_masks[:, None] >> np.arange(n_rows)) & 1).astype(float)
    col_bits = ((col_masks[:, None] >> np.arange(n_cols)) & 1).astype(float)
    sums = row_bits @ m @ col_bits.T
    sizes = np.sqrt(row_bits.sum(1)[:, None] * col_bits.sum(1)[None, :])
    return float((sums / sizes).max())


def slow_expand_reference(matrix, row, col):
    """Re-derived greedy expansion recomputing every sum from scratch."""
    m = np.asarray(matrix, dtype=float)
    n_rows, n_cols = m.shape
    rows, cols = {row}, {col}
    best = submatrix_density(m, rows, cols)
    while len(rows) < n_rows or len(cols) < n_cols:
        row_candidates = [
            (sum(m[r][c] for c in cols), r) for r in range(n_rows) if r not in rows
        ]
        col_candidates = [
            (sum(m[r][c] for r in rows), c) for c in range(n_cols) if c not in cols
        ]
        best_row = min(row_candidates, key=lambda rc: (-rc[0], rc[1]))[1] if row_candidates else None
        best_col = min(col_candidates, key=lambda rc: (-rc[0], rc[1]))[1] if col_candidates else None
        take_row = False
        if best_row is not None and best_col is not None:
            r_sum = sum(m[best_row][c] for c in cols)
            c_sum = sum(m[r][best_col] for r in rows)
            take_row = r_sum > c_sum
        elif best_row is not None:
            take_row = True
        if take_row:
            rows.add(best_row)
        else:
            cols.add(best_col)
        best = max(best, submatrix_density(m, rows, cols))
    return best


def slow_peel_reference(matrix):
    """Re-derived greedy peel recomputing every sum from scratch."""
    m = np.asarray(matrix, dtype=float)
    rows = set(range(m.shape[0]))
    cols = set(range(m.shape[1]))
    best = submatrix_density(m, rows, cols)
    while rows and cols:
        worst_row = min(rows, key=lambda r: (sum(m[r][c] for c in cols), r))
        worst_col = min(cols, key=lambda c: (sum(m[r][c] for r in rows), c))
        if sum(m[worst_row][c] for c in cols) < sum(m[r][worst_col] for r in rows):
            rows.remove(worst_row)
        else:
            cols.remove(worst_col)
        if rows and cols:
            best = max(best, submatrix_density(m, rows, cols))
    return best


def oracle_expand(matrix, row: int, col: int) -> float:
    """Max density along a greedy expansion from the 1x1 seed (row, col).

    Starting from the seed cell, repeatedly add the remaining row with the
    largest sum against the current columns, or the remaining column with
    the largest sum against the current rows, until nothing remains. The
    best density seen anywhere on that path (seed included) is returned.
    """
    m = _as_matrix(matrix)
    n_rows, n_cols = m.shape
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise ValueError(f"seed ({row}, {col}) out of range for {m.shape} matrix")

    in_rows = np.zeros(n_rows, dtype=bool)
    in_cols = np.zeros(n_cols, dtype=bool)
    in_rows[row] = True
    in_cols[col] = True
    row_gain = m[:, col].copy()  # each row's sum against the current columns
    col_gain = m[row, :].copy()
    total = float(m[row, col])
    size_rows = size_cols = 1
    best = total

    for _ in range(n_rows + n_cols - 2):
        cand_rows = np.where(in_rows, -np.inf, row_gain)
        cand_cols = np.where(in_cols, -np.inf, col_gain)
        r = int(np.argmax(cand_rows))
        c = int(np.argmax(cand_cols))
        # Strict > sends ties (and exhausted rows) to the column branch.
        if cand_rows[r] > cand_cols[c]:
            total += float(row_gain[r])
            col_gain += m[r, :]
            in_rows[r] = True
            size_rows += 1
        else:
            total += float(col_gain[c])
            row_gain += m[:, c]
            in_cols[c] = True
            size_cols += 1
        density = total / math.sqrt(size_rows * size_cols)
        if density > best:
            best = density
    return float(best)


def oracle_topk(matrix, k: int) -> float:
    """The per-seed top-k loop: one scalar expansion per seed cell."""
    m = _as_matrix(matrix)
    n_cols = m.shape[1]
    flat = m.ravel(order="C")
    seeds = np.argsort(-flat, kind="stable")[: min(k, flat.size)]
    best = 0.0
    for pos in seeds:
        r, c = divmod(int(pos), n_cols)
        best = max(best, oracle_expand(m, r, c))
    return float(best)


def anograph_k_density(matrix, k: int) -> float:
    """Best greedy-expansion density over the k largest cells.

    Cells tie-break in row-major order. Values beat a full peel often enough
    in practice, but are not cheaper: the k expansions run together, yet each
    takes as many steps as a peel, and on a 32x32 matrix with k=5 they take
    about four times as long as ``anograph_density``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(_topk_densities(_as_matrix(matrix), k))


class OracleAnoEdgeGlobal(AnoEdgeGlobal):
    """AnoEdge-G scoring one edge at a time with the scalar expansion."""

    def score(self, event: EdgeEvent) -> float:
        if self.clock.advance(event.tick) is not None:
            self.sketch.decay(self.alpha)
        cells = self.sketch.indexes(event.source, event.dest)
        self.sketch.update_at(cells, event.weight)
        return min(
            oracle_expand(self.sketch.matrices[layer], *divmod(cell, self.sketch.n_buckets))
            for layer, cell in enumerate(cells)
        )


def oracle_peel(matrix) -> float:
    """``anograph_density`` before the peel moved onto ``_Submatrix``: max
    density along a greedy peel of the whole matrix.

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


@dataclass
class OracleLocalSubmatrix:
    """AnoEdge-L's per-layer submatrix before it moved onto ``_Submatrix``:
    one layer's maintained dense submatrix with incremental sums."""

    in_rows: np.ndarray
    in_cols: np.ndarray
    row_gain: np.ndarray  # per-row sum against the current columns
    col_gain: np.ndarray
    total: float = 0.0
    size_rows: int = 1
    size_cols: int = 1

    @classmethod
    def seeded(cls, n_buckets: int, rng: np.random.Generator) -> "OracleLocalSubmatrix":
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


class OracleAnoEdgeLocal(AnoEdgeLocal):
    """AnoEdge-L with the row and column copies of every per-edge step."""

    def __init__(self, n_rows=2, n_buckets=32, alpha=0.9, seed=DEFAULT_SEED):
        super().__init__(n_rows, n_buckets, alpha, seed)
        rng = np.random.default_rng(seed)
        self.states = [OracleLocalSubmatrix.seeded(n_buckets, rng) for _ in range(n_rows)]

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


# -- metrics ------------------------------------------------------------------


def pairwise_auc(scores, labels):
    """O(n^2) comparison oracle: P(positive outscores negative), ties half."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1][:, None]
    neg = s[y == 0][None, :]
    return float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size))


def linear_fit_r2(x, y) -> float:
    """Coefficient of determination of the least-squares line through (x, y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise ValueError("need at least three points for a meaningful fit")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
