import numpy as np
import pytest

from streamsketch.events import EdgeEvent
from streamsketch.midas import MidasDetector, chi2_score
from streamsketch.sess import (
    FeedbackEvent,
    SharpeningParams,
    Sess3dDetector,
    apply_feedback,
)


def test_param_validation():
    with pytest.raises(ValueError):
        SharpeningParams(boost=1.0, damp=0.3)
    with pytest.raises(ValueError):
        SharpeningParams(boost=2.0, damp=0.0)
    with pytest.raises(ValueError):
        SharpeningParams(boost=2.0, damp=1.0)
    with pytest.raises(ValueError):
        SharpeningParams().factors(2)


def test_feedback_event_validation():
    with pytest.raises(ValueError):
        FeedbackEvent(label=2, edge=("u", "v"))
    with pytest.raises(ValueError):
        FeedbackEvent(label=1)
    with pytest.raises(ValueError):
        FeedbackEvent(label=1, edge=("u", "v"), node="u")


def test_anomalous_label_boosts_current_and_damps_total():
    detector = MidasDetector("plain", n_buckets=1 << 16, seed=1)
    idx = detector.family.indexes(("u", "v"))
    total, current = detector.tables[0]
    total.assign_at(idx, 10.0)
    current.assign_at(idx, 4.0)
    apply_feedback(
        detector,
        FeedbackEvent(1, edge=("u", "v")),
        SharpeningParams(boost=2.0, damp=0.3),
    )
    assert current.query_at(idx) == pytest.approx(8.0)
    assert total.query_at(idx) == pytest.approx(3.0)


def test_normal_label_is_the_mirror_image():
    detector = MidasDetector("plain", n_buckets=1 << 16, seed=1)
    idx = detector.family.indexes(("u", "v"))
    total, current = detector.tables[0]
    total.assign_at(idx, 10.0)
    current.assign_at(idx, 4.0)
    apply_feedback(
        detector,
        FeedbackEvent(0, edge=("u", "v")),
        SharpeningParams(boost=2.0, damp=0.3),
    )
    assert current.query_at(idx) == pytest.approx(4.0 * 0.3)
    assert total.query_at(idx) == pytest.approx(20.0)


def test_inverse_factors_commute_back_to_original():
    detector = MidasDetector("plain", n_buckets=1 << 16, seed=2)
    idx = detector.family.indexes(("a", "b"))
    total, current = detector.tables[0]
    total.assign_at(idx, 6.25)
    current.assign_at(idx, 1.5)
    params = SharpeningParams(boost=2.0, damp=0.5)  # boost * damp == 1 exactly
    apply_feedback(detector, FeedbackEvent(0, edge=("a", "b")), params)
    apply_feedback(detector, FeedbackEvent(1, edge=("a", "b")), params)
    assert total.query_at(idx) == 6.25
    assert current.query_at(idx) == 1.5


def test_cells_stay_positive_under_any_feedback_sequence():
    detector = MidasDetector("relational", seed=3)
    rng = np.random.default_rng(3)
    params = SharpeningParams()
    for tick in range(1, 50):
        edge = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        detector.score(EdgeEvent(edge[0], edge[1], tick))
        apply_feedback(detector, FeedbackEvent(int(rng.random() < 0.5), edge=edge), params)
    total, current = detector.tables[0]
    assert (total.counts >= 0).all()
    assert (current.counts >= 0).all()
    assert total.counts.max() > 0


def test_relational_feedback_reaches_node_sketches():
    detector = MidasDetector("relational", n_buckets=1 << 16, seed=4)
    detector.score(EdgeEvent("u", "v", 1, weight=4.0))
    (_, _), (source_total, _), (dest_total, _) = detector.tables
    before = source_total.query("u")
    apply_feedback(detector, FeedbackEvent(0, edge=("u", "v")), SharpeningParams())
    assert source_total.query("u") == pytest.approx(before * 2.0)
    assert dest_total.query("v") == pytest.approx(before * 2.0)


def test_node_feedback_rejected_on_flat_layout():
    detector = MidasDetector("relational", seed=5)
    with pytest.raises(ValueError, match="edge feedback"):
        apply_feedback(detector, FeedbackEvent(1, node="u"), SharpeningParams())


def test_3d_edge_feedback_scales_single_cells():
    detector = Sess3dDetector(n_buckets=32, seed=6)
    detector.score(EdgeEvent("u", "v", 1, weight=5.0))
    apply_feedback(detector, FeedbackEvent(1, edge=("u", "v")), SharpeningParams())
    cells = detector.total.indexes("u", "v")
    for layer, cell in enumerate(cells):
        assert detector.total.counts[layer, cell] == pytest.approx(5.0 * 0.3)
        assert detector.current.counts[layer, cell] == pytest.approx(5.0 * 2.0)


def test_3d_node_feedback_scales_row_and_column_once():
    detector = Sess3dDetector(n_rows=2, n_buckets=8, seed=7)
    detector.total.matrices[:] = 1.0
    detector.current.matrices[:] = 1.0
    apply_feedback(detector, FeedbackEvent(1, node="n"), SharpeningParams(2.0, 0.3))
    # One hash family: the node's bucket is both its row and its column.
    for layer, cell in enumerate(detector.total.indexes("n", "n")):
        r, c = divmod(cell, 8)
        assert r == c
        m = detector.total.matrices[layer]
        assert m[r, c] == pytest.approx(0.3)  # intersection scaled exactly once
        assert np.allclose(np.delete(m[r, :], c), 0.3)
        assert np.allclose(np.delete(m[:, c], r), 0.3)
        untouched = np.delete(np.delete(m, r, axis=0), c, axis=1)
        assert np.allclose(untouched, 1.0)
        cur = detector.current.matrices[layer]
        assert cur[r, c] == pytest.approx(2.0)


def test_3d_scoring_matches_flat_chi2_when_collision_free():
    detector = Sess3dDetector(n_buckets=64, alpha=0.5, seed=8)
    total = {}
    current = {}
    tick_seen = None
    rng = np.random.default_rng(8)
    tick = 1
    for _ in range(400):
        if rng.random() < 0.1:
            tick += 1
        u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        if tick_seen is None:
            tick_seen = tick
        elif tick > tick_seen:
            for key in current:
                current[key] *= 0.5
            tick_seen = tick
        key = (u, v)
        total[key] = total.get(key, 0.0) + 1.0
        current[key] = current.get(key, 0.0) + 1.0
        expected = chi2_score(current[key], total[key], tick)
        assert detector.score(EdgeEvent(u, v, tick)) == pytest.approx(expected, abs=1e-9)


def test_feedback_improves_ranking_on_a_poisoned_attack():
    from streamsketch.metrics import roc_auc
    from streamsketch.synth import synth_attack_stream

    events, labels = synth_attack_stream(seed=1, n_ticks=200, attack_start=50, attack_end=190)
    params = SharpeningParams()

    def run(with_feedback):
        detector = MidasDetector("relational", seed=1)
        scores = []
        given = False
        for index, event in enumerate(events):
            scores.append(detector.score(event))
            if with_feedback and labels[index] == 1 and not given and event.tick >= 80:
                apply_feedback(
                    detector,
                    FeedbackEvent(1, edge=(event.source, event.dest), index=index),
                    params,
                )
                given = True
        return roc_auc(scores, labels)

    assert run(True) > run(False)
