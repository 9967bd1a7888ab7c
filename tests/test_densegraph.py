import math

import numpy as np
import pytest

from streamsketch.densegraph import (
    AnoEdgeGlobal,
    AnoEdgeLocal,
    anograph_density,
    anograph_score,
    edge_submatrix_density,
)
from streamsketch.events import EdgeEvent
from streamsketch.sketch import HigherOrderSketch

from oracles import (
    anograph_k_density,
    brute_force_density,
    slow_expand_reference,
    slow_peel_reference,
    submatrix_density,
)


# -- density primitives --------------------------------------------------------


def test_submatrix_density_rejects_empty_selection():
    with pytest.raises(ValueError):
        submatrix_density(np.ones((3, 3)), [], [0])


def test_expansion_on_zero_matrix():
    assert edge_submatrix_density(np.zeros((2, 2)), 0, 0) == 0.0


def test_expansion_keeps_best_seen_density():
    m = np.array([[4.0, 0.0], [0.0, 0.0]])
    assert edge_submatrix_density(m, 0, 0) == 4.0
    assert brute_force_density(m) == 4.0


def test_expansion_reaches_full_uniform_matrix():
    m = np.full((2, 2), 3.0)
    assert edge_submatrix_density(m, 0, 0) == pytest.approx(6.0, abs=1e-12)


def test_expansion_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        edge_submatrix_density(np.ones((3, 3)), 3, 0)


def test_expansion_value_bounded_by_seed_and_full_matrix():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = rng.random((n, n)) * rng.integers(1, 10)
        r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
        value = edge_submatrix_density(m, r, c)
        assert value >= m[r, c] - 1e-12  # the 1x1 seed is on the path
        assert value >= m.sum() / n - 1e-12  # so is the full matrix


def test_expansion_matches_slow_reference():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = rng.integers(0, 9, size=(n, n)).astype(float)
        r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
        assert edge_submatrix_density(m, r, c) == pytest.approx(
            slow_expand_reference(m, r, c), abs=1e-9
        )


def test_block_seed_recovers_block_density():
    m = np.zeros((32, 32))
    for r in (2, 3):
        for c in (5, 7, 9):
            m[r, c] = 10.0
    expected = 60.0 / math.sqrt(6.0)
    assert edge_submatrix_density(m, 2, 5) == pytest.approx(expected, abs=1e-9)
    assert brute_force_density(m[:6, :12]) == pytest.approx(expected, abs=1e-9)


def test_peel_hand_trace():
    assert anograph_density(np.array([[3.0, 0.0], [0.0, 0.0]])) == 3.0


def test_peel_on_uniform_matrix_keeps_everything():
    for n in (2, 4, 7):
        assert anograph_density(np.full((n, n), 2.5)) == pytest.approx(2.5 * n)


def test_peel_rejects_bad_input():
    with pytest.raises(ValueError):
        anograph_density(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        anograph_density(np.array([[1.0, -0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        anograph_density(np.array([[math.nan, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize(
    "cells",
    [
        [[math.nan, 1.0], [1.0, 1.0]],
        [[-5.0, 1.0], [1.0, 1.0]],
        [[-math.inf, 1.0], [1.0, 1.0]],
        [[math.inf, 1.0], [1.0, math.nan]],
    ],
)
def test_expansion_and_peel_reject_negative_or_nan_cells(cells):
    m = np.array(cells)
    with pytest.raises(ValueError, match="nonnegative"):
        edge_submatrix_density(m, 0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        anograph_density(m)


def test_peel_matches_slow_reference():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = rng.integers(0, 9, size=(n, n)).astype(float)
        assert anograph_density(m) == pytest.approx(slow_peel_reference(m), abs=1e-9)


def test_peel_is_2_approximation_on_random_suite():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = rng.integers(0, 10, size=(n, n)).astype(float)
        assert anograph_density(m) >= 0.5 * brute_force_density(m) - 1e-9


def test_densities_scale_linearly():
    rng = np.random.default_rng(4)
    m = rng.integers(0, 10, size=(6, 6)).astype(float)
    for factor in (0.25, 3.0):
        assert anograph_density(factor * m) == pytest.approx(
            factor * anograph_density(m), rel=1e-12
        )
        assert edge_submatrix_density(factor * m, 1, 2) == pytest.approx(
            factor * edge_submatrix_density(m, 1, 2), rel=1e-12
        )


def test_topk_basics():
    m = np.array([[4.0, 0.0], [0.0, 0.0]])
    assert anograph_k_density(m, 1) == 4.0
    with pytest.raises(ValueError):
        anograph_k_density(m, 0)


def test_topk_with_k_at_least_nonzero_count_covers_all_seeds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = np.zeros((5, 5))
        nonzero = rng.integers(1, 8)
        cells = rng.choice(25, size=nonzero, replace=False)
        m.ravel()[cells] = rng.integers(1, 9, size=nonzero)
        by_seed = max(
            edge_submatrix_density(m, r, c)
            for r in range(5)
            for c in range(5)
            if m[r, c] > 0
        )
        assert anograph_k_density(m, 25) == pytest.approx(by_seed, abs=1e-12)


def test_topk_stays_between_half_opt_and_opt():
    rng = np.random.default_rng(6)
    wins = 0
    for _ in range(50):
        m = rng.integers(0, 10, size=(6, 6)).astype(float)
        value = anograph_k_density(m, 5)
        optimum = brute_force_density(m)
        assert 0.5 * optimum - 1e-9 <= value <= optimum + 1e-9
        wins += value >= anograph_density(m) - 1e-12
    assert wins >= 25


# -- edge scorers ----------------------------------------------------------------


def test_anoedge_global_first_edge_scores_its_weight():
    detector = AnoEdgeGlobal(seed=11)
    assert detector.score(EdgeEvent("u", "v", 1)) == pytest.approx(1.0)


def test_anoedge_global_repeats_accumulate():
    detector = AnoEdgeGlobal(seed=11)
    score = None
    for _ in range(50):
        score = detector.score(EdgeEvent("u", "v", 1))
    assert score == pytest.approx(50.0)


def test_anoedge_global_decays_once_per_transition():
    detector = AnoEdgeGlobal(alpha=0.9, seed=11)
    detector.score(EdgeEvent("u", "v", 1, weight=10.0))
    # Tick jumps by 3 but decay applies once at the transition.
    assert detector.score(EdgeEvent("x", "y", 4)) >= 0
    assert detector.sketch.estimate("u", "v") == pytest.approx(9.0)


def test_anoedge_global_tick_regression_rejected():
    detector = AnoEdgeGlobal(seed=11)
    detector.score(EdgeEvent("u", "v", 3))
    with pytest.raises(ValueError, match="tick regression"):
        detector.score(EdgeEvent("u", "v", 2))


def test_anoedge_local_first_edge_covers_three_cells():
    # Fresh sketch, randomly seeded 1x1 submatrix disjoint from the edge's
    # cell: the cross covers two zero cells plus the edge cell itself.
    detector = AnoEdgeLocal(seed=11)
    cells = detector.sketch.indexes("u", "v")
    disjoint = all(
        not state.inside[0][r] and not state.inside[1][c]
        for state, (r, c) in zip(detector.states, (divmod(cell, 32) for cell in cells))
    )
    assert disjoint  # holds for this seed; the point of the value below
    assert detector.score(EdgeEvent("u", "v", 1, weight=1.0)) == pytest.approx(1 / 3)


def test_anoedge_local_likelihood_of_current_cell_is_its_value():
    from streamsketch.densegraph import _Submatrix

    matrix = np.zeros((8, 8))
    matrix[3, 4] = 7.5
    state = _Submatrix(
        inside=[np.eye(8, dtype=bool)[3], np.eye(8, dtype=bool)[4]],
        gain=[matrix[:, 4].copy(), matrix[3, :].copy()],
        total=7.5,
        size=[1, 1],
    )
    assert state.likelihood(3, 4, matrix) == pytest.approx(7.5)


def test_anoedge_local_state_matches_recomputation():
    rng = np.random.default_rng(7)
    detector = AnoEdgeLocal(n_buckets=16, alpha=0.9, seed=7)
    tick = 1
    for _ in range(400):
        if rng.random() < 0.1:
            tick += 1
        detector.score(
            EdgeEvent(int(rng.integers(0, 60)), int(rng.integers(0, 60)), tick)
        )
    for state, matrix in zip(detector.states, detector.sketch.matrices):
        rows = np.flatnonzero(state.inside[0])
        cols = np.flatnonzero(state.inside[1])
        assert state.size[0] == rows.size and state.size[1] == cols.size
        np.testing.assert_allclose(
            state.gain[0], matrix[:, cols].sum(axis=1), atol=1e-9
        )
        np.testing.assert_allclose(
            state.gain[1], matrix[rows, :].sum(axis=0), atol=1e-9
        )
        assert state.total == pytest.approx(
            float(matrix[np.ix_(rows, cols)].sum()), abs=1e-9
        )


def test_anoedge_local_separates_biclique_burst():
    rng = np.random.default_rng(8)
    events = []
    for _ in range(3000):
        events.append(
            ("bg", EdgeEvent(int(rng.integers(0, 100)), int(rng.integers(0, 100)),
                             int(rng.integers(1, 31))))
        )
    for _ in range(500):
        events.append(
            ("burst", EdgeEvent(200 + int(rng.integers(0, 3)),
                                300 + int(rng.integers(0, 3)), 15))
        )
    events.sort(key=lambda pair: pair[1].tick)
    detector = AnoEdgeLocal(seed=8)
    burst_scores, background_scores = [], []
    for kind, event in events:
        value = detector.score(event)
        (burst_scores if kind == "burst" else background_scores).append(value)
    assert np.mean(burst_scores) > 5 * np.mean(background_scores)


# -- graph windows ---------------------------------------------------------------


def test_empty_window_scores_zero():
    window = HigherOrderSketch(2, 8, seed=1)
    assert anograph_score(window) == 0.0
    assert anograph_score(window, "topk", 3) == 0.0


def test_single_cell_window_scores_total_weight():
    window = HigherOrderSketch(2, 16, seed=1)
    for _ in range(12):
        window.update("u", "v", 2.0)
    assert anograph_score(window) == pytest.approx(24.0)
    assert anograph_score(window, "topk", 5) == pytest.approx(24.0)


def test_anograph_score_validation():
    window = HigherOrderSketch(2, 8, seed=1)
    with pytest.raises(ValueError):
        anograph_score(window, "best")
    with pytest.raises(ValueError):
        anograph_score(window, "topk", 0)


def test_planted_block_window_outscores_uniform_windows():
    rng = np.random.default_rng(9)
    windows = []
    for index in range(8):
        window = HigherOrderSketch(2, 32, seed=9)
        for _ in range(300):
            window.update(int(rng.integers(0, 64)), int(rng.integers(0, 64)), 1.0)
        if index == 5:
            for _ in range(150):
                window.update(70 + int(rng.integers(0, 6)), 80 + int(rng.integers(0, 6)), 1.0)
        windows.append(window)
    scores = [anograph_score(w) for w in windows]
    assert int(np.argmax(scores)) == 5
    assert scores[5] > max(s for i, s in enumerate(scores) if i != 5)
