"""Semi-supervised sharpening of sketch counts.

A labelled event rescales the buckets it hashes to: an anomalous label
boosts the current-tick count and damps the total (widening the gap the
chi-squared score measures), a normal label does the opposite. Updates are
multiplicative with positive factors, so counts stay nonnegative and the
sketch guarantees survive in-place feedback.

Two layouts are supported: the flat count-min layout used by the edge
detectors, and a higher-order layout hashing sources to matrix rows and
destinations to columns. Only the latter can absorb node-level feedback,
by rescaling a whole hashed row and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import EdgeEvent, TickClock
from .hashing import DEFAULT_SEED
from .midas import MidasDetector, chi2_score
from .sketch import HigherOrderSketch, check_decay, check_weight


@dataclass(frozen=True, slots=True)
class SharpeningParams:
    """Multiplicative feedback step sizes: boost > 1 > damp > 0."""

    boost: float = 2.0
    damp: float = 0.3

    def __post_init__(self):
        if self.boost <= 1.0:
            raise ValueError(f"boost factor must be > 1, got {self.boost}")
        if not 0.0 < self.damp < 1.0:
            raise ValueError(f"damp factor must be in (0, 1), got {self.damp}")

    def factors(self, label: int) -> tuple[float, float]:
        """(total factor, current factor) for a 0=normal / 1=anomalous label."""
        if label == 0:
            return self.boost, self.damp
        if label == 1:
            return self.damp, self.boost
        raise ValueError(f"label must be 0 or 1, got {label}")


@dataclass(frozen=True, slots=True)
class FeedbackEvent:
    """One labelled target: either an edge (u, v) or a single node.

    ``index`` records the 0-based stream position the label refers to, when
    it has one; node feedback from a feedback file has none.
    """

    label: int
    edge: tuple | None = None
    node: object = None
    index: int | None = None

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if (self.edge is None) == (self.node is None):
            raise ValueError("feedback must target exactly one edge or one node")


def apply_feedback(detector, feedback: FeedbackEvent, params: SharpeningParams) -> None:
    """Rescale the detector's sketch cells for one labelled event.

    Flat detectors accept edge feedback only; node feedback needs the
    higher-order layout, where it rescales the node's hashed row (as a
    source) and column (as a destination), touching the shared cell once.
    """
    total_factor, current_factor = params.factors(feedback.label)
    if isinstance(detector, MidasDetector):
        if feedback.edge is None:
            raise ValueError("flat-layout detectors only support edge feedback")
        # Feedback must reach every (total, current) pair the labelled edge
        # was scored on, or a max over edge and node scores simply reads an
        # untouched part.
        for key, (total, current) in zip(detector.keys(*feedback.edge), detector.tables):
            for row, bucket in enumerate(detector.family.indexes(key)):
                total.counts[row, bucket] *= total_factor
                current.counts[row, bucket] *= current_factor
        return
    if isinstance(detector, Sess3dDetector):
        detector.apply_feedback(feedback, params)
        return
    raise TypeError(f"unsupported detector type: {type(detector).__name__}")


class Sess3dDetector:
    """Edge scorer on the higher-order layout with feedback support.

    Scores with the same current-vs-mean chi-squared statistic as the flat
    detectors; both count tables hash sources to rows and destinations to
    columns, which is what makes node feedback expressible.
    """

    def __init__(
        self,
        n_rows: int = 2,
        n_buckets: int = 32,
        alpha: float = 0.5,
        seed: int = DEFAULT_SEED,
    ):
        check_decay(alpha)
        self.total = HigherOrderSketch(n_rows, n_buckets, seed)
        self.current = HigherOrderSketch(n_rows, n_buckets, seed)
        self.alpha = alpha
        self.clock = TickClock()

    def score(self, event: EdgeEvent) -> float:
        check_weight(event.weight)  # before the clock moves: a rejected edge changes nothing
        cells = self.total.indexes(event.source, event.dest)
        if self.clock.advance(event.tick) is not None:
            self.current.decay(self.alpha)
        self.current.update_at(cells, event.weight)
        self.total.update_at(cells, event.weight)
        return chi2_score(self.current.query_at(cells), self.total.query_at(cells), event.tick)

    def apply_feedback(self, feedback: FeedbackEvent, params: SharpeningParams) -> None:
        total_factor, current_factor = params.factors(feedback.label)
        if feedback.edge is not None:
            for layer, cell in enumerate(self.total.indexes(*feedback.edge)):
                self.total.counts[layer, cell] *= total_factor
                self.current.counts[layer, cell] *= current_factor
            return
        # Sources and destinations share one hash, so the node's bucket is
        # both its row and its column.
        for layer, b in enumerate(self.total.family.indexes(feedback.node)):
            for sketch, factor in (
                (self.total, total_factor),
                (self.current, current_factor),
            ):
                sketch.matrices[layer, b, :] *= factor
                # Column cells outside the already-scaled row.
                col = sketch.matrices[layer, :, b]
                keep = col[b]
                col *= factor
                col[b] = keep

    def state_bytes(self) -> int:
        return self.total.state_bytes() + self.current.state_bytes()
