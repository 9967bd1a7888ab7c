"""Evaluation metrics."""

from __future__ import annotations

import numpy as np


def reject_nan(scores) -> None:
    """Raise ValueError naming the 1-based position of the first nan score."""
    nan = np.flatnonzero(np.isnan(np.asarray(scores, dtype=np.float64)))
    if nan.size:
        raise ValueError(f"score {nan[0] + 1} is nan")


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via average ranks (ties share their rank).

    Equivalent to the normalised Mann-Whitney U statistic: the probability
    that a random positive outscores a random negative, counting ties half.
    A nan score has no rank, so it is rejected, named by its 1-based position.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    reject_nan(s)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one positive and one negative label")

    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    average_ranks = (starts + 1 + ends) / 2.0
    ranks = average_ranks[inverse]
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
