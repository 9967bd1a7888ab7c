"""Edge-stream anomaly scorers built on count-min tables.

Three variants share one chi-squared scoring idea: the count of an entity in
the current tick is compared against its historical per-tick mean.

* plain: current-tick sketches are cleared on every tick change and only the
  edge itself is scored.
* relational: current sketches decay by a factor alpha instead of clearing,
  and source/destination node counts are scored alongside the edge.
* filtering: totals are updated only at tick boundaries through a
  conditional merge, so a burst cannot poison its own baseline while it is
  still in progress.

``ChiSquaredTables`` is the count core under MIDAS, MStream and SESS-3D. It
stacks every count-min table in one array, ``counts[kind, key, row, cell]``
(kinds: total, current and, for filtering, the score cache), closes a tick
in whole-array passes and holds the per-item loop that adds, queries and
scores (``step``, on Python floats through one flat view of ``counts``),
and the same for a run of items that share a tick in a few array passes
(``step_many``). A detector only maps an item to cells for each of its
keys. ``each_run`` cuts a whole stream into pieces of at most
``TICK_BATCH_MAX`` items, has the detector hash each piece once
(``hashing.canonical_keys``, ``indexes_many``) and yields the piece's runs
of one tick in order, each with its slice of the hashes: a run of at least
``TICK_BATCH_MIN`` items with its tick, for the detector's batch path,
which ends in ``step_many``, a shorter one with each item's cells, for its
per-item path, which is also the oracle the batch is tested against with
``==``. A piece the detector does not hash comes whole, for the per-item
path, which hashes item by item. ``MidasDetector.process_many`` and
``MstreamDetector.score_many`` each score a stream in one loop over these
runs, so an item of a short tick pays no hashing of its own, MStream's
numeric buckets included: their running min/max is found for a whole
piece in one scan.

A separate decision rule turns scores into flags at a false-positive
target, using the chi-squared quantile at 1 - eps/2 and the sketch
overcount allowance nu * N_t; ``DecisionRule`` says where the target is a
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby, islice, repeat
from operator import attrgetter
from statistics import NormalDist

import numpy as np

from . import hashing  # canonical_key is looked up on it per call, where bench/spans.py wraps it
from .events import TICK_BATCH_MAX, EdgeEvent, TickClock
from .hashing import DEFAULT_SEED, HashFamily, canonical_keys, check_shape, mix_keys
from .sketch import check_decay, check_positive, check_weight, conditional_merge, shown, weights_ok

VARIANTS = ("plain", "relational", "filtering")
# Per variant, runs of fewer items than this in one tick take the per-item
# path in each_run. A batch pays a fixed ~100 numpy calls per run; these
# are where it broke even with per-item steps on a 2-core x86 box (plain
# steps are cheaper, scoring one key instead of three). MStream's batch, a
# relational one over d+1 keys, against its per-record steps on the same
# hashed piece, numeric buckets included (score_many on 6000 records of 2
# string and 2 numeric columns, medians of 6), in us per record at 1, 3,
# 9, 10, 20 and 100 records per tick: 46 / 21 / 10 / 9.5 / 7.2 / 5.2
# against 18 / 12 / 10 / 10.4 / 9.1 / 9.2. It breaks even at ~10 too.
TICK_BATCH_MIN = {"plain": 18, "relational": 10, "filtering": 10}


def chi2_score(current: float, total: float, tick: int) -> float:
    """(a - s/t)^2 * t^2 / (s (t-1)), with the degenerate cases scored 0.

    At tick 1 there is no history to compare against, and a zero total means
    the entity was never seen before this tick; both are defined as score 0.
    """
    if tick <= 1 or total == 0.0:
        return 0.0
    diff = current - total / tick
    score = diff * diff * tick * tick / (total * (tick - 1))
    if score != score:  # inf / inf: finite counts at a tick near the float limit
        score = diff * tick / (tick - 1) * (diff * tick / total)
    return score


def filtering_score(current: float, total: float, tick: int) -> float:
    """(a + s - a t)^2 / (s (t-1)) where the total excludes the current tick."""
    if tick <= 1 or total == 0.0:
        return 0.0
    diff = current + total - current * tick
    score = diff * diff / (total * (tick - 1))
    if score != score:  # as in chi2_score
        score = diff / (tick - 1) * (diff / total)
    return score


# Overflow to inf and nan, and the zero totals _scores_many divides by, give
# the values the per-item path gives; numpy must not warn about them.
_QUIET = np.errstate(all="ignore")


def _scores_many(current: np.ndarray, total: np.ndarray, tick: int, filtering: bool) -> np.ndarray:
    """``chi2_score`` (or ``filtering_score``) elementwise, with the same
    float operations in the same order, so every element is bit-identical."""
    if tick <= 1:
        return np.zeros(current.shape)
    t, t1 = float(tick), float(tick - 1)  # as Python converts the int tick
    if filtering:
        diff = current + total - current * t
        score = diff * diff / (total * t1)
    else:
        diff = current - total / t
        score = diff * diff * t * t / (total * t1)
    nan = np.isnan(score)
    if nan.any():  # the factored forms, as the scalar scores take them
        factored = diff / t1 * (diff / total) if filtering else diff * t / t1 * (diff * t / total)
        score = np.where(nan, factored, score)
    return np.where(total == 0.0, 0.0, score)  # the guard, after dividing by zero


def standard_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, from the standard library."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def chi2_quantile_1dof(p: float) -> float:
    """p-quantile of a chi-squared variable with one degree of freedom."""
    z = standard_normal_quantile((1.0 + p) / 2.0)
    return z * z


@dataclass(frozen=True, slots=True)
class StepStats:
    """Everything one detector step produced, for scoring and flagging.

    ``current_count`` and ``total_count`` are the edge's own counts, which
    the decision rule reads.
    """

    tick: int
    edge_score: float
    source_score: float | None
    dest_score: float | None
    current_count: float
    total_count: float
    tick_volume: float

    def combined(self, mode: str = "max") -> float:
        parts = [self.edge_score]
        if self.source_score is not None:
            parts.append(self.source_score)
        if self.dest_score is not None:
            parts.append(self.dest_score)
        if mode == "max":
            return max(parts)
        if mode == "sum":
            return float(sum(parts))
        raise ValueError(f"unknown combination mode: {mode!r}")


def _combine_many(scores: np.ndarray, mode: str) -> np.ndarray:
    """``StepStats.combined`` of each column of per-key ``scores``: ``max``
    keeps the earlier part unless a later one is greater, as ``max()`` does
    with nan, and ``sum`` adds left to right."""
    combined = scores[0]
    for part in scores[1:]:
        combined = np.where(part > combined, part, combined) if mode == "max" else combined + part
    return combined


@dataclass(frozen=True)
class DecisionRule:
    """Binary decision procedure at a false-positive target ``epsilon``.

    ``nu`` is the sketch overcount rate (e / n_buckets); the adjusted count
    a - nu * N_t discounts the worst plausible overcount before the
    chi-squared comparison against ``threshold``, which ``epsilon`` sets:
    the one-degree quantile at 1 - epsilon / 2.

    ``epsilon`` bounds the flag rate on normal traffic only where the
    chi-squared approximation behind the rule holds: the plain variant, an
    edge whose per-tick count is well above 1 at a steady rate, and a sketch
    of at least ``guaranteed_shape(epsilon, nu)``. Elsewhere it is only a
    threshold: on stationary streams with no anomaly at epsilon 0.05, plain
    MIDAS flags a pair arriving about once per tick 2.2% of the time, but
    70-88% of all edges, which are sparse and mostly first sightings (pooled
    over three streams, each detector seeded with its stream's seed; the
    README gives the figures per shape and seed).
    """

    epsilon: float
    nu: float
    threshold: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {shown(self.epsilon)}")
        check_positive(self.nu, "nu")
        object.__setattr__(self, "threshold", chi2_quantile_1dof(1.0 - self.epsilon / 2.0))

    @classmethod
    def for_detector(cls, epsilon: float, detector: "MidasDetector") -> "DecisionRule":
        return cls(epsilon, math.e / detector.n_buckets)

    def statistic(self, stats: StepStats) -> float:
        adjusted = stats.current_count - self.nu * stats.tick_volume
        return chi2_score(adjusted, stats.total_count, stats.tick)

    def is_flagged(self, stats: StepStats) -> bool:
        return self.statistic(stats) > self.threshold

    @_QUIET
    def flags_many(self, current, total, tick_volume, tick: int) -> np.ndarray:
        """``is_flagged`` for arrays of the edge counts of items in one tick."""
        adjusted = current - self.nu * tick_volume
        return _scores_many(adjusted, total, tick, filtering=False) > self.threshold


def guaranteed_shape(epsilon: float, nu: float) -> tuple[int, int]:
    """Sketch shape (rows, buckets) under which the decision rule's bound
    holds: ceil(ln(2/eps)) rows and ceil(e/nu) buckets."""
    return math.ceil(math.log(2.0 / epsilon)), math.ceil(math.e / nu)


class ChiSquaredTables:
    """Current-tick and total count tables for a fixed list of keys, and the
    one per-item loop that adds to them, queries them and scores.

    ``counts[kind, key, row, cell]`` holds every table: kind 0 the totals,
    kind 1 the current-tick counts and, for filtering, kind 2 each cell's
    last score; a row has ``n_buckets ** order`` cells. A detector maps an
    item to one cell per row for each key, in key order, for ``step``.
    """

    def __init__(
        self,
        variant: str,
        n_keys: int,
        n_rows: int,
        n_buckets: int,
        alpha: float,
        merge_threshold: float = 1000.0,
        order: int = 1,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if variant != "plain":
            check_decay(alpha)
        check_positive(merge_threshold, "merge threshold")
        check_shape(n_rows, n_buckets)
        self.variant = variant
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.alpha = alpha
        self.merge_threshold = merge_threshold
        n_kinds = 3 if variant == "filtering" else 2
        self.counts = np.zeros((n_kinds, n_keys, n_rows, n_buckets**order))
        # Flat cell of (key, row, cell 0) in one kind: an array for step_many,
        # ints for step and scale, which add a multiple of _kind_size to reach
        # the same cell in another kind.
        self._row_base = (np.arange(n_keys * n_rows) * n_buckets**order).reshape(n_keys, n_rows, 1)
        self._row_offsets = self._row_base[..., 0].tolist()
        self._kind_size = self.counts[0].size
        self._flat = memoryview(self.counts.reshape(-1))  # Python floats in and out
        self.clock = TickClock()
        self.tick_volume = 0.0  # weight in the current-count tables, N_t

    def __getstate__(self):
        """A copy or a pickle holds ``counts``, not the view onto it, which
        would come back as a detached array (or not at all)."""
        state = self.__dict__.copy()
        del state["_flat"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._flat = memoryview(self.counts.reshape(-1))

    def advance(self, tick: int) -> None:
        """Move the clock to ``tick``, closing the tick it leaves: a fill (plain),
        a multiply (relational), or the conditional merge and a multiply."""
        closing = self.clock.advance(tick)
        if closing is None:
            return
        total, current, *cache = self.counts
        if self.variant == "plain":
            current.fill(0.0)
            self.tick_volume = 0.0
            return
        # Filtering closes out the tick that just ended: totals absorb current
        # counts (or their own per-tick mean when the cached score crossed the
        # threshold), keeping the mean level unchanged.
        if cache:
            conditional_merge(total, current, cache[0], self.merge_threshold, closing)
        current *= self.alpha
        self.tick_volume *= self.alpha  # decayed residue still counts toward N_t

    def step(self, cells_by_key, weight: float, tick: int) -> tuple[list[float], float, float]:
        """Add the checked ``weight`` at each key's cells, score each key on
        its smallest current and total count across rows, and return the
        scores and the first key's two counts. Filtering adds to the current
        counts only (totals change at tick close) and caches each score."""
        self.tick_volume += weight
        filtering = self.variant == "filtering"
        counts, kind = self._flat, self._kind_size
        scores = []
        for offsets, cells in zip(self._row_offsets, cells_by_key):
            a = s = math.inf
            # Inline row loops: a helper call per row costs more than its arithmetic.
            for offset, cell in zip(offsets, cells):
                total = offset + cell
                current = total + kind
                value = counts[current] + weight
                counts[current] = value
                if value < a:
                    a = value
                value = counts[total]
                if not filtering:
                    value += weight
                    counts[total] = value
                if value < s:
                    s = value
            a, s = float(a), float(s)
            if filtering:
                score = filtering_score(a, s, tick)
                for offset, cell in zip(offsets, cells):
                    counts[offset + cell + 2 * kind] = score
            else:
                score = chi2_score(a, s, tick)
            if not scores:
                first = a, s
            scores.append(score)
        return scores, *first

    @_QUIET
    def step_many(self, cells: np.ndarray, weights: np.ndarray, tick: int):
        """``step`` for a run of items that share ``tick``, in array passes.

        ``cells[key, row, item]`` are the items' cells and ``weights`` their
        checked weights. Returns the scores ``[key, item]``, the first key's
        two counts and the ``tick_volume`` after each item, all ``==`` to what
        ``step`` gives item by item. Counts add in event order: within each
        cell, a scan over ranks adds one item per level to the value before it,
        so a decayed start value rounds as it would one step at a time.
        """
        n_keys, n_rows, n = cells.shape
        filtering = self.variant == "filtering"
        flat = (cells + self._row_base).reshape(-1)
        # Both stable sorts take the narrowest key type that holds their keys:
        # at up to 16 bits numpy sorts by radix.
        order = flat.astype(np.min_scalar_type(self._kind_size - 1)).argsort(kind="stable")
        ordered = flat[order]
        # edge[p]: a cell's entries end before p, so edge[:-1] marks the first
        # entry of each cell in event order and edge[1:] the last.
        edge = np.ones(flat.size + 1, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
        first, last = edge[:-1], edge[1:].nonzero()[0]
        # The kinds that take the adds, as rows of flat tables: current, and
        # total unless filtering, where totals change only at tick close.
        tables = self.counts[1:2] if filtering else self.counts[:2]
        tables = tables.reshape(len(tables), -1)
        added = weights[order % n]
        values = tables[:, ordered] + added  # right at each first entry; the scan fixes the rest
        rest = (~first).nonzero()[0]
        if rest.size:
            rank = rest - first.nonzero()[0][first.cumsum()[rest] - 1]
            rest = rest[rank.astype(np.min_scalar_type(n - 1)).argsort(kind="stable")]
            bounds = np.bincount(rank).cumsum()
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                level = rest[lo:hi]
                values[:, level] = values[:, level - 1] + added[level]
        tables[:, ordered[last]] = values[:, last]

        by_entry = np.empty_like(values)
        by_entry[:, order] = values
        by_entry = by_entry.reshape(len(tables), n_keys, n_rows, n)
        a = by_entry[-1].min(axis=1)
        if filtering:
            s = self.counts[0].reshape(-1)[flat].reshape(n_keys, n_rows, n).min(axis=1)
        else:
            s = by_entry[0].min(axis=1)
        scores = _scores_many(a, s, tick, filtering)
        if filtering:
            # Each cell caches the score of the last item that touched it.
            key, within_key = np.divmod(order[last], n_rows * n)
            self.counts[2].reshape(-1)[ordered[last]] = scores[key, within_key % n]
        volume = np.add.accumulate(np.concatenate(([self.tick_volume], weights)))[1:]
        self.tick_volume = float(volume[-1])
        return scores, a[0], s[0], volume

    def each_run(self, items):
        """Yield the runs of ``items`` in order as ``(run, tick, hashes)``,
        from pieces of at most ``TICK_BATCH_MAX``; the caller scores each run
        before it takes the next.

        ``self._hash_piece(piece)`` returns a tuple of arrays that hold a whole
        piece's hashes, one item per position of their last axis, the first
        of them the cells ``[key, row, item]``, or None. A run of at least
        ``TICK_BATCH_MIN[variant]`` items that share a ``tick`` comes once the
        clock is at ``tick``, with its slice of each array, for the batch
        path. Any other run comes with ``tick`` None, for the per-item path:
        a shorter run of one tick, with each item's cells ``[key][row]`` as
        Python ints for ``step``, or a whole piece the hasher returned None
        for, with ``repeat(None)``, which hashes item by item and raises at
        an item it rejects."""
        batch_min = TICK_BATCH_MIN[self.variant]
        items = iter(items)
        # Runs are exact at any length: each starts from the tables and
        # tick_volume the one before it left.
        while piece := list(islice(items, TICK_BATCH_MAX)):
            hashes = self._hash_piece(piece)
            if hashes is None:
                yield piece, None, repeat(None)
                continue
            end = 0
            for tick, run in groupby(piece, attrgetter("tick")):
                run = list(run)
                start, end = end, end + len(run)
                if len(run) < batch_min:
                    yield run, None, hashes[0][..., start:end].transpose(2, 0, 1).tolist()
                else:
                    self.advance(tick)
                    yield run, tick, [part[..., start:end] for part in hashes]

    @_QUIET
    def scale(self, cells_by_key, total_factor: float, current_factor: float) -> None:
        """Multiply each key's total and current counts at its cells: one in
        each row, or an array of distinct ones. A product that takes a finite
        count to inf raises ValueError, and nothing is written."""
        at = self._row_base + np.reshape(cells_by_key, (*self._row_base.shape[:2], -1))
        counts = self.counts[:2].reshape(2, -1)  # total, current: a view
        values = counts[:, at]
        scaled = values * np.reshape((total_factor, current_factor), (2, 1, 1, 1))
        if (np.isfinite(values) > np.isfinite(scaled)).any():
            raise ValueError("scaling overflows a count to inf")
        counts[:, at] = scaled

    def state_bytes(self) -> int:
        return int(self.counts.nbytes)


class MidasDetector(ChiSquaredTables):
    """Streaming scorer for directed edges; see module docstring for variants.

    A detector is single-writer and strictly order-dependent: scores depend
    on everything inserted before. Each process() call performs exactly one
    update, so callers wanting both a score and a flag should go through
    process()/score_and_flag() rather than calling score() twice.
    """

    def __init__(
        self,
        variant: str = "plain",
        n_rows: int = 2,
        n_buckets: int = 1024,
        alpha: float = 0.5,
        merge_threshold: float = 1000.0,
        seed: int = DEFAULT_SEED,
    ):
        n_keys = 1 if variant == "plain" else 3  # see _key_cells
        super().__init__(variant, n_keys, n_rows, n_buckets, alpha, merge_threshold)
        self.family = HashFamily(n_rows, n_buckets, seed)

    def _key_cells(self, u, v, indexes) -> tuple:
        """The cells, by ``indexes``, of each key an edge is scored on, from the
        canonical keys of its source ``u`` and destination ``v`` (ints, or
        uint64 arrays for a piece): the edge, as the canonical key of (source,
        dest), then its source and destination unless plain."""
        edge = mix_keys((u, v))
        keys = (edge,) if self.variant == "plain" else (edge, u, v)
        return tuple(map(indexes, keys))

    def cells(self, source, dest) -> tuple:
        """The bucket in every row of each key the edge is scored on."""
        canonical = hashing.canonical_key
        return self._key_cells(canonical(source), canonical(dest), self.family.indexes)

    def node_cells(self, node):
        """A node has no cells of its own on the flat layout."""
        raise ValueError("flat-layout detectors only support edge feedback")

    def _insert(self, event: EdgeEvent, cells=None):
        """Add one edge and return ``step``'s scores and counts."""
        w = event.weight
        check_weight(w)  # before the clock moves: a rejected edge changes nothing
        if cells is None:
            cells = self.cells(event.source, event.dest)
        t = event.tick
        self.advance(t)
        return self.step(cells, w, t)

    def process(self, event: EdgeEvent, cells=None) -> StepStats:
        """Insert one edge and return its scores and supporting counts;
        ``cells``, when given, are the edge's ``cells``, hashed ahead."""
        scores, a, s = self._insert(event, cells)
        node_scores = scores[1:] or (None, None)  # source, dest
        return StepStats(event.tick, scores[0], *node_scores, a, s, self.tick_volume)

    def process_many(self, events, rule: DecisionRule | None = None, mode: str = "max"):
        """Insert ``events`` in order; return the ``combined(mode)`` score of
        each and, when ``rule`` is given, its flag (else None), exactly as
        ``process`` one event at a time would.

        Each run that ``each_run`` yields, on pieces hashed once, goes to
        ``step_many`` when long, else event by event to ``process`` on its
        cells. A piece holding an id with no canonical key, or a weight
        ``weights_ok`` does not take, goes through ``process`` event by
        event, which raises at an event it rejects.
        """
        if mode not in ("max", "sum"):
            raise ValueError(f"unknown combination mode: {mode!r}")
        scores: list[float] = []
        flags: list[bool] | None = None if rule is None else []
        for run, tick, hashes in self.each_run(events):
            if tick is None:
                for event, cells in zip(run, hashes):
                    stats = self.process(event, cells)
                    scores.append(stats.combined(mode))
                    if flags is not None:
                        flags.append(rule.is_flagged(stats))
                continue
            per_key, a, s, volume = self.step_many(*hashes, tick)
            scores.extend(_combine_many(per_key, mode).tolist())
            if flags is not None:
                flags.extend(rule.flags_many(a, s, volume, tick).tolist())
            del per_key, a, s, volume  # not held while the next run is hashed and stepped
        return scores, flags

    def _hash_piece(self, piece: list):
        """The cells ``[key, row, event]`` of a piece of events, by ``_key_cells``
        on ``indexes_many``, and their weights as float64, as ``each_run``
        takes them; None when some id has no canonical key or some weight is
        not one ``weights_ok`` takes."""
        n = len(piece)
        try:
            keys = canonical_keys([e.source for e in piece] + [e.dest for e in piece])
            weights = np.asarray([event.weight for event in piece])
        except (TypeError, ValueError, OverflowError):
            return None
        if not weights_ok(weights):
            return None
        cells = np.stack(self._key_cells(keys[:n], keys[n:], self.family.indexes_many))
        return cells, weights.astype(np.float64, copy=False)

    def score(self, event: EdgeEvent, cells=None) -> float:
        """Insert the edge and return the max over its scored keys, as
        ``process(event, cells).combined("max")`` would."""
        return max(self._insert(event, cells)[0])

    def score_and_flag(self, event: EdgeEvent, rule: DecisionRule) -> tuple[float, bool]:
        stats = self.process(event)
        return stats.combined("max"), rule.is_flagged(stats)
