"""Semi-supervised sharpening of sketch counts.

A labelled event rescales the buckets it hashes to: an anomalous label
boosts the current-tick count and damps the total (widening the gap the
chi-squared score measures), a normal label does the opposite. Updates are
multiplicative with positive factors, so counts stay nonnegative. A scaled
cell holds each edge hashed there times every factor applied to the cell
since that edge arrived, so "queries never underestimate" holds for that
reweighted stream only: against the edges as they arrived, a damp (0.3 by
default) scales a cell below the count of the edges hashed there.

Two layouts are supported: the flat count-min layout of MIDAS-R, and a
higher-order layout hashing sources to matrix rows and destinations to
columns. Both are ``midas.MidasDetector``s, so edge feedback is one
``scale`` of the edge's cells on either. Only the higher-order layout can
absorb node-level feedback, by rescaling a whole hashed row and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import DEFAULT_SEED, HashFamily, canonical_key
from .midas import ChiSquaredTables, MidasDetector
from .sketch import MAX_FLOAT, as_float, matrix_cells, shown


@dataclass(frozen=True, slots=True)
class SharpeningParams:
    """Multiplicative feedback step sizes: boost > 1 > damp > 0."""

    boost: float = 2.0
    damp: float = 0.3

    def __post_init__(self):
        if not 1.0 < self.boost <= MAX_FLOAT:  # also rejects nan; float() only past the largest float
            if not 1.0 < self.boost < math.inf:
                raise ValueError(f"boost factor must be finite and > 1, got {shown(self.boost)}")
            as_float(self.boost, "boost factor")
        if not 0.0 < self.damp < 1.0:
            raise ValueError(f"damp factor must be in (0, 1), got {shown(self.damp)}")

    def factors(self, label: int) -> tuple[float, float]:
        """(total factor, current factor) for a 0=normal / 1=anomalous label."""
        if label == 0:
            return self.boost, self.damp
        if label == 1:
            return self.damp, self.boost
        raise ValueError(f"label must be 0 or 1, got {shown(label)}")


def apply_feedback(detector, cells, label: int, params: SharpeningParams, index=None) -> None:
    """Scale the detector's ``cells`` by ``params.factors(label)``. An edge's
    are ``detector.cells(source, dest)``, every key it is scored on, or a
    max over edge and node scores would read an untouched part; a node's are
    ``detector.node_cells(node)``, which only the higher-order layout has.
    Feedback that would overflow a count raises ValueError, naming its
    stream ``index`` when given, and changes nothing."""
    factors = params.factors(label)
    try:
        detector.scale(cells, *factors)
    except ValueError as exc:
        where = "feedback" if index is None else f"feedback index {index}"
        raise ValueError(f"{where}: {exc}") from None


def score_with_feedback(detector, events, edge_labels: dict, params, start: int = 0) -> list[float]:
    """Score ``events``, the first at 0-based stream position ``start``, in
    order. After scoring the event at a position ``edge_labels`` holds, apply
    that label as edge feedback, so it acts from the next event on."""
    scores = []
    for i, event in enumerate(events, start):
        scores.append(detector.score(event))
        if i in edge_labels:
            cells = detector.cells(event.source, event.dest)
            apply_feedback(detector, cells, edge_labels[i], params, i)
    return scores


class Sess3dDetector(MidasDetector):
    """Edge scorer on the higher-order layout with feedback support.

    A relational ``MidasDetector`` on one key whose row holds an
    ``n_buckets x n_buckets`` matrix: one hash family sends sources to
    matrix rows and destinations to columns, which is what makes node
    feedback expressible. Scoring is MIDAS-R's; only the map from keys to
    cells, ``matrices`` and ``node_cells`` are its own.
    """

    def __init__(
        self,
        n_rows: int = 2,
        n_buckets: int = 32,
        alpha: float = 0.5,
        seed: int = DEFAULT_SEED,
    ):
        ChiSquaredTables.__init__(self, "relational", 1, n_rows, n_buckets, alpha, order=2)
        self.family = HashFamily(n_rows, n_buckets, seed)

    @property
    def matrices(self):
        """``counts`` as ``[kind, row, r, c]``: a view, so a copy's is its own."""
        return self.counts.reshape(2, self.n_rows, self.n_buckets, self.n_buckets)

    def _key_cells(self, u, v, indexes) -> tuple:
        """The one key's cells: source ``u``'s bucket is the row, dest ``v``'s the column."""
        return (matrix_cells(indexes(u), indexes(v), self.n_buckets),)

    def node_cells(self, node) -> list:
        """The cells of the node's matrix row and column, the shared cell once,
        in every hash row, as ``scale`` takes them: sources and destinations
        share one hash, so its bucket is its row and its column."""
        n, line = self.n_buckets, np.arange(self.n_buckets)
        buckets = self.family.indexes(canonical_key(node))
        return [[np.append(b * n + line, np.delete(line, b) * n + b) for b in buckets]]
