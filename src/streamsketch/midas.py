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
in whole-array passes and holds the one per-item loop that adds, queries
and scores. A detector only maps an item to cells for each of its keys.

A separate decision rule turns scores into flags with a bounded
false-positive probability, using the chi-squared quantile at 1 - eps/2 and
the sketch overcount allowance nu * N_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .events import EdgeEvent, TickClock
from .hashing import DEFAULT_SEED, HashFamily, check_shape
from .sketch import check_decay, check_weight, conditional_merge

VARIANTS = ("plain", "relational", "filtering")


def chi2_score(current: float, total: float, tick: int) -> float:
    """(a - s/t)^2 * t^2 / (s (t-1)), with the degenerate cases scored 0.

    At tick 1 there is no history to compare against, and a zero total means
    the entity was never seen before this tick; both are defined as score 0.
    """
    if tick <= 1 or total == 0.0:
        return 0.0
    diff = current - total / tick
    return diff * diff * tick * tick / (total * (tick - 1))


def filtering_score(current: float, total: float, tick: int) -> float:
    """(a + s - a t)^2 / (s (t-1)) where the total excludes the current tick."""
    if tick <= 1 or total == 0.0:
        return 0.0
    diff = current + total - current * tick
    return diff * diff / (total * (tick - 1))


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


@dataclass(frozen=True)
class DecisionRule:
    """Binary decision procedure with a false-positive probability target.

    ``nu`` is the sketch overcount rate (e / n_buckets); the adjusted count
    a - nu * N_t discounts the worst plausible overcount before the
    chi-squared comparison.
    """

    epsilon: float
    nu: float
    threshold: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.nu <= 0.0:
            raise ValueError(f"nu must be > 0, got {self.nu}")

    @classmethod
    def for_detector(cls, epsilon: float, detector: "MidasDetector") -> "DecisionRule":
        nu = math.e / detector.n_buckets
        return cls(epsilon, nu, chi2_quantile_1dof(1.0 - epsilon / 2.0))

    def statistic(self, stats: StepStats) -> float:
        adjusted = stats.current_count - self.nu * stats.tick_volume
        return chi2_score(adjusted, stats.total_count, stats.tick)

    def is_flagged(self, stats: StepStats) -> bool:
        return self.statistic(stats) > self.threshold


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
        if not merge_threshold > 0:  # also rejects nan
            raise ValueError(f"merge threshold must be > 0, got {merge_threshold}")
        check_shape(n_rows, n_buckets)
        self.variant = variant
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.alpha = alpha
        self.merge_threshold = merge_threshold
        n_kinds = 3 if variant == "filtering" else 2
        self.counts = np.zeros((n_kinds, n_keys, n_rows, n_buckets**order))
        self._by_key = [tuple(self.counts[:, k]) for k in range(n_keys)]  # 2-d views per kind
        self.clock = TickClock()
        self.tick_volume = 0.0  # weight in the current-count tables, N_t

    def advance(self, tick: int) -> None:
        """Move the clock to ``tick``, closing the tick it leaves: a fill (plain),
        a multiply (relational), or the conditional merge and a multiply."""
        closing = self.clock.advance(tick)
        if closing is None:
            return
        counts = self.counts
        if self.variant == "plain":
            counts[1].fill(0.0)
            self.tick_volume = 0.0
            return
        # Filtering closes out the tick that just ended: totals absorb current
        # counts (or their own per-tick mean when the cached score crossed the
        # threshold), keeping the mean level unchanged.
        if self.variant == "filtering":
            conditional_merge(counts[0], counts[1], counts[2], self.merge_threshold, closing)
        counts[1] *= self.alpha
        self.tick_volume *= self.alpha  # decayed residue still counts toward N_t

    def step(self, cells_by_key, weight: float, tick: int) -> tuple[list[float], float, float]:
        """Add the checked ``weight`` at each key's cells, score each key on
        its smallest current and total count across rows, and return the
        scores and the first key's two counts. Filtering adds to the current
        counts only (totals change at tick close) and caches each score."""
        self.tick_volume += weight
        filtering = self.variant == "filtering"
        scores = []
        for tables, cells in zip(self._by_key, cells_by_key):
            total, current = tables[0], tables[1]
            a = s = math.inf
            # Inline row loops: a helper call per row costs more than its arithmetic.
            for row, cell in enumerate(cells):
                value = current[row, cell] + weight
                current[row, cell] = value
                if value < a:
                    a = value
                value = total[row, cell]
                if not filtering:
                    value += weight
                    total[row, cell] = value
                if value < s:
                    s = value
            a, s = float(a), float(s)
            if filtering:
                score = filtering_score(a, s, tick)
                cache = tables[2]
                for row, cell in enumerate(cells):
                    cache[row, cell] = score
            else:
                score = chi2_score(a, s, tick)
            if not scores:
                first = a, s
            scores.append(score)
        return scores, *first

    def scale(self, cells_by_key, total_factor: float, current_factor: float) -> None:
        """Multiply each key's total and current counts at its cells."""
        for tables, cells in zip(self._by_key, cells_by_key):
            for row, cell in enumerate(cells):
                tables[0][row, cell] *= total_factor
                tables[1][row, cell] *= current_factor

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
        n_keys = 1 if variant == "plain" else 3  # see cells
        super().__init__(variant, n_keys, n_rows, n_buckets, alpha, merge_threshold)
        self.family = HashFamily(n_rows, n_buckets, seed)

    def cells(self, source, dest) -> tuple:
        """The bucket in every row of each key the edge is scored on: the
        edge itself, then its source and destination unless plain."""
        indexes = self.family.indexes
        if self.variant == "plain":
            return (indexes((source, dest)),)
        return indexes((source, dest)), indexes(source), indexes(dest)

    def process(self, event: EdgeEvent) -> StepStats:
        """Insert one edge and return its scores and supporting counts."""
        w = event.weight
        check_weight(w)  # before the clock moves: a rejected edge changes nothing
        cells = self.cells(event.source, event.dest)
        t = event.tick
        self.advance(t)
        scores, a, s = self.step(cells, w, t)
        node_scores = scores[1:] or (None, None)  # source, dest
        return StepStats(t, scores[0], *node_scores, a, s, self.tick_volume)

    def score(self, event: EdgeEvent) -> float:
        """Insert the edge and return the max over its scored keys."""
        return self.process(event).combined("max")

    def score_and_flag(self, event: EdgeEvent, rule: DecisionRule) -> tuple[float, bool]:
        stats = self.process(event)
        return stats.combined("max"), rule.is_flagged(stats)
