import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsketch.events import EdgeEvent
from streamsketch.midas import MidasDetector, chi2_score
from streamsketch.sess import (
    SharpeningParams,
    Sess3dDetector,
    apply_feedback,
    score_with_feedback,
)

from oracles import TwoSketchSess3d


def test_param_validation():
    for boost in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="boost"):
            SharpeningParams(boost=boost, damp=0.3)
    with pytest.raises(ValueError):
        SharpeningParams(boost=2.0, damp=0.0)
    with pytest.raises(ValueError):
        SharpeningParams(boost=2.0, damp=1.0)
    with pytest.raises(ValueError):
        SharpeningParams().factors(2)


def at(table, cells):
    """The count at each row's cell, as (row 0, row 1, ...)."""
    return table[np.arange(len(cells)), list(cells)]


def test_anomalous_label_boosts_current_and_damps_total():
    detector = MidasDetector("plain", n_buckets=1 << 16, seed=1)
    (idx,) = detector.cells("u", "v")
    total, current = detector.counts[:, 0]
    total[np.arange(2), idx] = 10.0
    current[np.arange(2), idx] = 4.0
    apply_feedback(detector, detector.cells("u", "v"), 1, SharpeningParams(boost=2.0, damp=0.3))
    assert at(current, idx) == pytest.approx([8.0, 8.0])
    assert at(total, idx) == pytest.approx([3.0, 3.0])


def test_normal_label_is_the_mirror_image():
    detector = MidasDetector("plain", n_buckets=1 << 16, seed=1)
    (idx,) = detector.cells("u", "v")
    total, current = detector.counts[:, 0]
    total[np.arange(2), idx] = 10.0
    current[np.arange(2), idx] = 4.0
    apply_feedback(detector, detector.cells("u", "v"), 0, SharpeningParams(boost=2.0, damp=0.3))
    assert at(current, idx) == pytest.approx([4.0 * 0.3] * 2)
    assert at(total, idx) == pytest.approx([20.0, 20.0])


def test_inverse_factors_commute_back_to_original():
    detector = MidasDetector("plain", n_buckets=1 << 16, seed=2)
    (idx,) = detector.cells("a", "b")
    total, current = detector.counts[:, 0]
    total[np.arange(2), idx] = 6.25
    current[np.arange(2), idx] = 1.5
    params = SharpeningParams(boost=2.0, damp=0.5)  # boost * damp == 1 exactly
    apply_feedback(detector, detector.cells("a", "b"), 0, params)
    apply_feedback(detector, detector.cells("a", "b"), 1, params)
    assert at(total, idx).tolist() == [6.25, 6.25]
    assert at(current, idx).tolist() == [1.5, 1.5]


def test_cells_stay_positive_under_any_feedback_sequence():
    detector = MidasDetector("relational", seed=3)
    rng = np.random.default_rng(3)
    params = SharpeningParams()
    for tick in range(1, 50):
        edge = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        detector.score(EdgeEvent(edge[0], edge[1], tick))
        apply_feedback(detector, detector.cells(*edge), int(rng.random() < 0.5), params)
    assert (detector.counts >= 0).all()
    assert detector.counts[0].max() > 0


def test_relational_feedback_reaches_node_sketches():
    detector = MidasDetector("relational", n_buckets=1 << 16, seed=4)
    detector.score(EdgeEvent("u", "v", 1, weight=4.0))
    _, source_cells, dest_cells = detector.cells("u", "v")
    source_total, dest_total = detector.counts[0, 1], detector.counts[0, 2]
    before = at(source_total, source_cells).min()
    apply_feedback(detector, detector.cells("u", "v"), 0, SharpeningParams())
    assert at(source_total, source_cells).min() == pytest.approx(before * 2.0)
    assert at(dest_total, dest_cells).min() == pytest.approx(before * 2.0)


def test_node_feedback_rejected_on_flat_layout():
    detector = MidasDetector("relational", seed=5)
    with pytest.raises(ValueError, match="edge feedback"):
        apply_feedback(detector, detector.node_cells("u"), 1, SharpeningParams())


def test_3d_edge_feedback_scales_single_cells():
    detector = Sess3dDetector(n_buckets=32, seed=6)
    detector.score(EdgeEvent("u", "v", 1, weight=5.0))
    apply_feedback(detector, detector.cells("u", "v"), 1, SharpeningParams())
    (cells,) = detector.cells("u", "v")
    total, current = detector.counts[:, 0]
    assert at(total, cells) == pytest.approx([5.0 * 0.3] * 2)
    assert at(current, cells) == pytest.approx([5.0 * 2.0] * 2)
    assert np.count_nonzero(detector.counts) == 2 * 2


def test_3d_node_feedback_scales_row_and_column_once():
    detector = Sess3dDetector(n_rows=2, n_buckets=8, seed=7)
    detector.counts[:] = 1.0
    apply_feedback(detector, detector.node_cells("n"), 1, SharpeningParams(2.0, 0.3))
    # One hash family: the node's bucket is both its row and its column.
    for layer, cell in enumerate(detector.cells("n", "n")[0]):
        r, c = divmod(cell, 8)
        assert r == c
        m = detector.matrices[0, layer]
        assert m[r, c] == pytest.approx(0.3)  # intersection scaled exactly once
        assert np.allclose(np.delete(m[r, :], c), 0.3)
        assert np.allclose(np.delete(m[:, c], r), 0.3)
        untouched = np.delete(np.delete(m, r, axis=0), c, axis=1)
        assert np.allclose(untouched, 1.0)
        cur = detector.matrices[1, layer]
        assert cur[r, c] == pytest.approx(2.0)


@pytest.mark.parametrize("layout", ["flat", "3d"])
def test_feedback_that_overflows_a_count_raises_and_changes_nothing(layout):
    """A boost that takes a finite count to inf names the feedback's index
    and writes no cell; node feedback, which has no index, raises alike."""
    detector = Sess3dDetector(seed=1) if layout == "3d" else MidasDetector("relational", seed=1)
    detector.score(EdgeEvent("u", "v", 1, weight=1e308))
    before = detector.counts.copy()
    with pytest.raises(ValueError, match="^feedback index 7: scaling overflows a count to inf$"):
        apply_feedback(detector, detector.cells("u", "v"), 0, SharpeningParams(), 7)
    assert np.array_equal(detector.counts, before)
    if layout == "3d":
        with pytest.raises(ValueError, match="^feedback: scaling overflows"):
            apply_feedback(detector, detector.node_cells("u"), 0, SharpeningParams())
        assert np.array_equal(detector.counts, before)


def test_feedback_on_a_count_already_inf_is_no_overflow():
    """Weights that sum to inf are the stream's own; scaling keeps them inf."""
    detector = MidasDetector("relational", seed=1)
    for _ in range(2):
        detector.score(EdgeEvent("u", "v", 1, weight=1e308))
    apply_feedback(detector, detector.cells("u", "v"), 0, SharpeningParams(), 1)
    (cells, *_) = detector.cells("u", "v")
    total, current = detector.counts[:, 0]
    assert at(total, cells).tolist() == [math.inf] * 2
    assert at(current, cells).tolist() == [math.inf] * 2


NODES = st.integers(0, 5) | st.sampled_from(["a", "b", "c"])
FEEDBACK = st.none() | st.tuples(st.integers(0, 1), st.none() | NODES)  # (label, node or edge)
SESS_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 3]),  # tick increment: repeated and skipped ticks
        NODES,
        NODES,
        st.sampled_from([1.0, 1.0, 0.0, 0.5, 2.5]) | st.floats(0.0, 50.0),
        FEEDBACK,
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    steps=SESS_STEPS,
    n_rows=st.integers(1, 3),
    n_buckets=st.sampled_from([1, 2, 7, 32]),
    alpha=st.sampled_from([0.5, 0.3, 0.9]),
    params=st.sampled_from([SharpeningParams(), SharpeningParams(4.0, 0.1), SharpeningParams(2.0, 0.5)]),
)
def test_3d_detector_matches_its_two_sketch_oracle(steps, n_rows, n_buckets, alpha, params):
    detector = Sess3dDetector(n_rows, n_buckets, alpha, seed=11)
    oracle = TwoSketchSess3d(n_rows, n_buckets, alpha, seed=11)
    tick = 1
    for dtick, source, dest, weight, feedback in steps:
        tick += dtick
        event = EdgeEvent(source, dest, tick, weight)
        assert detector.score(event) == oracle.score(event)
        if feedback is not None:
            label, node = feedback
            if node is None:
                cells, target = detector.cells(source, dest), dict(edge=(source, dest))
            else:
                cells, target = detector.node_cells(node), dict(node=node)
            apply_feedback(detector, cells, label, params)
            oracle.feedback(label, params, **target)
        assert np.array_equal(detector.counts[:, 0], [oracle.total.counts, oracle.current.counts])


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
                cells = detector.cells(event.source, event.dest)
                apply_feedback(detector, cells, 1, params, index)
                given = True
        return roc_auc(scores, labels)

    assert run(True) > run(False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    cut=st.integers(0, 30),
    labels=st.dictionaries(st.integers(0, 29), st.integers(0, 1), max_size=6),
    layout=st.sampled_from(["flat", "3d"]),
)
def test_score_with_feedback_is_the_same_split_at_any_position(cut, labels, layout):
    """Feedback indexes are absolute: scoring a stream in two runs, the second
    starting at position ``cut``, gives the scores of one run, and a label
    acts from the event after the one it names."""
    events = [EdgeEvent(i % 3, (i * 2) % 5, 1 + i // 4) for i in range(30)]
    make = partial(Sess3dDetector if layout == "3d" else partial(MidasDetector, "relational"), seed=3)
    params = SharpeningParams()
    whole = score_with_feedback(make(), events, labels, params)
    detector = make()
    split = score_with_feedback(detector, events[:cut], labels, params)
    split += score_with_feedback(detector, events[cut:], labels, params, start=cut)
    assert split == whole

    detector = make()
    by_hand = []
    for index, event in enumerate(events):
        by_hand.append(detector.score(event))
        if index in labels:
            cells = detector.cells(event.source, event.dest)
            apply_feedback(detector, cells, labels[index], params)
    assert by_hand == whole
