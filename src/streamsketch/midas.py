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

A separate decision rule turns scores into flags with a bounded
false-positive probability, using the chi-squared quantile at 1 - eps/2 and
the sketch overcount allowance nu * N_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .events import EdgeEvent, TickClock
from .hashing import DEFAULT_SEED, HashFamily
from .sketch import CountMinSketch

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
    """Inverse standard normal CDF, accurate to well under 1e-9.

    Rational (Acklam-style) initial estimate refined by one Newton step
    against the erf-based CDF.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        x /= (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
        x /= ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
        x /= (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    # One Newton refinement: Phi and its density are exact to double precision.
    cdf = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        x -= (cdf - p) / pdf
    return x


def chi2_quantile_1dof(p: float) -> float:
    """p-quantile of a chi-squared variable with one degree of freedom."""
    z = standard_normal_quantile((1.0 + p) / 2.0)
    return z * z


@dataclass(frozen=True, slots=True)
class StepStats:
    """Everything one detector step produced, for scoring and flagging."""

    tick: int
    edge_score: float
    source_score: float | None
    dest_score: float | None
    edge_current: float
    edge_total: float
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
        adjusted = stats.edge_current - self.nu * stats.tick_volume
        return chi2_score(adjusted, stats.edge_total, stats.tick)

    def is_flagged(self, stats: StepStats) -> bool:
        return self.statistic(stats) > self.threshold


def guaranteed_shape(epsilon: float, nu: float) -> tuple[int, int]:
    """Sketch shape (rows, buckets) under which the decision rule's bound
    holds: ceil(ln(2/eps)) rows and ceil(e/nu) buckets."""
    return math.ceil(math.log(2.0 / epsilon)), math.ceil(math.e / nu)


class MidasDetector:
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
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if variant != "plain" and not 0.0 < alpha < 1.0:
            raise ValueError(f"decay factor must be in (0, 1), got {alpha}")
        if merge_threshold <= 0:
            raise ValueError(f"merge threshold must be > 0, got {merge_threshold}")
        self.variant = variant
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.alpha = alpha
        self.merge_threshold = merge_threshold
        self.family = HashFamily(n_rows, n_buckets, seed)

        def make() -> CountMinSketch:
            return CountMinSketch(n_rows, n_buckets, family=self.family)

        self.edge_total = make()
        self.edge_current = make()
        self._with_nodes = variant in ("relational", "filtering")
        if self._with_nodes:
            self.source_total = make()
            self.source_current = make()
            self.dest_total = make()
            self.dest_current = make()
        if variant == "filtering":
            self.edge_scores = make()
            self.source_scores = make()
            self.dest_scores = make()

        self.clock = TickClock()
        self.tick_volume = 0.0  # weight in the current-count sketch, N_t

    # -- tick bookkeeping --------------------------------------------------

    def _close_tick(self, closing: int) -> None:
        if self.variant == "plain":
            self.edge_current.clear()
            self.tick_volume = 0.0
            return
        if self.variant == "filtering":
            # Close out the tick that just ended: totals absorb current
            # counts (or their own per-tick mean when the cached score
            # crossed the threshold), keeping the mean level unchanged.
            self.edge_total.merge_conditional(
                self.edge_current, self.edge_scores, self.merge_threshold, closing
            )
            self.source_total.merge_conditional(
                self.source_current, self.source_scores, self.merge_threshold, closing
            )
            self.dest_total.merge_conditional(
                self.dest_current, self.dest_scores, self.merge_threshold, closing
            )
        self.edge_current.decay(self.alpha)
        self.source_current.decay(self.alpha)
        self.dest_current.decay(self.alpha)
        self.tick_volume *= self.alpha  # decayed residue still counts toward N_t

    # -- scoring -------------------------------------------------------------

    def process(self, event: EdgeEvent) -> StepStats:
        """Insert one edge and return its scores and supporting counts."""
        closing = self.clock.advance(event.tick)
        if closing is not None:
            self._close_tick(closing)
        t = event.tick
        w = event.weight
        idx_edge = self.family.indexes((event.source, event.dest))

        self.edge_current.update_at(idx_edge, w)
        self.tick_volume += w
        if self.variant != "filtering":
            self.edge_total.update_at(idx_edge, w)

        source_score = dest_score = None
        if self._with_nodes:
            idx_src = self.family.indexes(event.source)
            idx_dst = self.family.indexes(event.dest)
            self.source_current.update_at(idx_src, w)
            self.dest_current.update_at(idx_dst, w)
            if self.variant != "filtering":
                self.source_total.update_at(idx_src, w)
                self.dest_total.update_at(idx_dst, w)

        a_edge = self.edge_current.query_at(idx_edge)
        s_edge = self.edge_total.query_at(idx_edge)

        if self.variant == "filtering":
            edge_score = filtering_score(a_edge, s_edge, t)
            source_score = filtering_score(
                self.source_current.query_at(idx_src),
                self.source_total.query_at(idx_src),
                t,
            )
            dest_score = filtering_score(
                self.dest_current.query_at(idx_dst),
                self.dest_total.query_at(idx_dst),
                t,
            )
            self.edge_scores.assign_at(idx_edge, edge_score)
            self.source_scores.assign_at(idx_src, source_score)
            self.dest_scores.assign_at(idx_dst, dest_score)
        else:
            edge_score = chi2_score(a_edge, s_edge, t)
            if self._with_nodes:
                source_score = chi2_score(
                    self.source_current.query_at(idx_src),
                    self.source_total.query_at(idx_src),
                    t,
                )
                dest_score = chi2_score(
                    self.dest_current.query_at(idx_dst),
                    self.dest_total.query_at(idx_dst),
                    t,
                )

        return StepStats(
            tick=t,
            edge_score=edge_score,
            source_score=source_score,
            dest_score=dest_score,
            edge_current=a_edge,
            edge_total=s_edge,
            tick_volume=self.tick_volume,
        )

    def score(self, event: EdgeEvent) -> float:
        """Insert the edge and return the variant's headline score: the edge
        statistic for plain, the max over edge/source/destination otherwise."""
        stats = self.process(event)
        if self._with_nodes:
            return stats.combined("max")
        return stats.edge_score

    def combined_score(self, event: EdgeEvent, mode: str = "max") -> float:
        """Score with an explicit combination mode over edge/node statistics.

        Only relational and filtering detectors maintain node counts, so the
        plain variant rejects this entry point.
        """
        if not self._with_nodes:
            raise ValueError("plain variant has no node sketches to combine")
        return self.process(event).combined(mode)

    def score_and_flag(self, event: EdgeEvent, rule: DecisionRule) -> tuple[float, bool]:
        stats = self.process(event)
        score = stats.combined("max") if self._with_nodes else stats.edge_score
        return score, rule.is_flagged(stats)

    # -- placement for semi-supervised updates ------------------------------

    def edge_indexes(self, source, dest) -> tuple[int, ...]:
        return self.family.indexes((source, dest))

    def state_bytes(self) -> int:
        total = self.edge_total.state_bytes() + self.edge_current.state_bytes()
        if self._with_nodes:
            total += (
                self.source_total.state_bytes()
                + self.source_current.state_bytes()
                + self.dest_total.state_bytes()
                + self.dest_current.state_bytes()
            )
        if self.variant == "filtering":
            total += (
                self.edge_scores.state_bytes()
                + self.source_scores.state_bytes()
                + self.dest_scores.state_bytes()
            )
        return total
