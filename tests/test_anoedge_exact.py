"""Exactness of the dense-submatrix kernels against slow oracles: the
lock-step expansion kernel and the chunked AnoEdge-G scorer, and the greedy
peel and AnoEdge-L on their one row-and-column submatrix bookkeeping.

The oracles, in ``oracles.py``, are the scalar expansion and the per-edge
``AnoEdgeGlobal.score`` body as they stood before scoring moved to
``expand_many``, and the peel and AnoEdge-L's per-layer submatrix as they
stood with a row copy and a column copy of every step. Every comparison is
exact (``==`` or ``np.array_equal``): the fast code does the same float
operations in the same order, so any difference is a bug.
"""

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsketch.cli import FORMAT, main
from streamsketch.densegraph import (
    SNAPSHOT_BUDGET_BYTES,
    AnoEdgeGlobal,
    AnoEdgeLocal,
    _Submatrix,
    anograph_density,
    anograph_score,
    edge_submatrix_density,
    expand_many,
)
from streamsketch.events import EdgeEvent
from streamsketch.sketch import HigherOrderSketch

from oracles import (
    OracleAnoEdgeGlobal,
    OracleAnoEdgeLocal,
    anograph_k_density,
    oracle_expand,
    oracle_peel,
    oracle_topk,
)


# -- the kernel ------------------------------------------------------------------


def _tie_heavy(kind, rng, batch, n_rows, n_cols):
    shape = (batch, n_rows, n_cols)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "ones":
        return np.ones(shape)
    if kind == "poisson":
        return rng.poisson(0.6, size=shape).astype(float)
    if kind == "with_inf":
        # An inf cell in one lane must not leak into another: masking by
        # multiplication would turn it into nan there (inf * 0).
        mats = rng.poisson(0.6, size=shape).astype(float)
        mats[rng.random(shape) < 0.02] = np.inf
        return mats
    if kind == "signed_zeros":
        # A total of -0.0 and one of +0.0 compare equal: the best density must
        # keep the sign of the first one reached, as a strict > does.
        mats = rng.choice([0.0, -0.0, 1.0, 2.0], size=shape, p=[0.4, 0.4, 0.1, 0.1])
        mats[rng.random(shape) < 0.02] = np.inf
        return mats
    if kind == "finite_signed_zeros":
        # No inf anywhere, so the kernel skips its nan clean-up: the adds
        # alone must keep every zero's sign.
        return rng.choice([0.0, -0.0, 1.0, 2.0], size=shape, p=[0.4, 0.4, 0.1, 0.1])
    if kind == "one_inf_lane":
        # One inf cell, in one lane: the clean-up runs on every lane and must
        # leave the finite lanes' signed zeros as they are.
        mats = rng.choice([0.0, -0.0, 1.0, 2.0], size=shape, p=[0.4, 0.4, 0.1, 0.1])
        mats[batch // 2, rng.integers(n_rows), rng.integers(n_cols)] = np.inf
        return mats
    # Decayed counts: the fractional values a sketch holds between ticks.
    return rng.poisson(1.5, size=shape) * 0.9 ** rng.integers(0, 30, size=shape)


@pytest.mark.parametrize(
    "kind",
    [
        "zeros", "ones", "poisson", "decayed", "with_inf", "signed_zeros",
        "finite_signed_zeros", "one_inf_lane",
    ],
)
def test_expand_many_matches_scalar_oracle(kind):
    rng = np.random.default_rng(len(kind))
    for n_rows, n_cols in [(1, 1), (1, 5), (5, 1), (2, 2), (4, 7), (8, 8), (32, 32)]:
        batch = 24
        mats = _tie_heavy(kind, rng, batch, n_rows, n_cols)
        rows = rng.integers(0, n_rows, size=batch)
        cols = rng.integers(0, n_cols, size=batch)
        got = expand_many(mats, rows, cols)
        want = [oracle_expand(mats[i], rows[i], cols[i]) for i in range(batch)]
        assert np.array_equal(got, want), (kind, n_rows, n_cols)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (kind, n_rows, n_cols)


def test_expand_many_on_broadcast_batch_matches_oracle():
    rng = np.random.default_rng(3)
    mats = rng.poisson(0.8, size=(3, 9, 9)).astype(float)
    view = np.broadcast_to(mats[:, None], (3, 5, 9, 9))
    rows = rng.integers(0, 9, size=(3, 5))
    cols = rng.integers(0, 9, size=(3, 5))
    got = expand_many(view, rows, cols)
    want = [
        [oracle_expand(mats[i], rows[i, j], cols[i, j]) for j in range(5)] for i in range(3)
    ]
    assert np.array_equal(got, want)
    # The same seeds, five per matrix of the stack as it is.
    stacked = expand_many(mats, rows, cols)
    assert np.array_equal(stacked, got) and np.array_equal(stacked, want)
    assert np.array_equal(np.signbit(stacked), np.signbit(got))
    assert np.array_equal(np.signbit(stacked), np.signbit(want))


@pytest.mark.parametrize("n_rows,n_cols", [(6, 6), (7, 5)])
def test_expand_many_only_reads_its_input(n_rows, n_cols):
    rng = np.random.default_rng(10)
    mats = rng.poisson(0.8, size=(6, n_rows, n_cols)).astype(float)
    mats[rng.random(mats.shape) < 0.05] = np.inf
    mats.setflags(write=False)
    before = mats.tobytes()
    rows = rng.integers(0, n_rows, size=6)
    cols = rng.integers(0, n_cols, size=6)
    want = [oracle_expand(mats[i], rows[i], cols[i]) for i in range(6)]
    assert np.array_equal(expand_many(mats, rows, cols), want)
    assert mats.tobytes() == before
    view = np.broadcast_to(mats[:, None], (6, 4, n_rows, n_cols))
    seeds = rng.integers(0, n_rows, size=(6, 4)), rng.integers(0, n_cols, size=(6, 4))
    want = [[oracle_expand(mats[i], seeds[0][i, j], seeds[1][i, j]) for j in range(4)]
            for i in range(6)]
    got = expand_many(view, *seeds)
    assert np.array_equal(got, want)
    assert mats.tobytes() == before
    # The same seeds, four per matrix of the stack as it is.
    stacked = expand_many(mats, *seeds)
    assert np.array_equal(stacked, got) and np.array_equal(stacked, want)
    assert np.array_equal(np.signbit(stacked), np.signbit(got))
    assert np.array_equal(np.signbit(stacked), np.signbit(want))
    assert mats.tobytes() == before


def test_expand_many_rejects_bad_input():
    mats = np.zeros((2, 3, 3))
    with pytest.raises(ValueError):
        expand_many(mats, [0, 3], [0, 0])
    with pytest.raises(ValueError):
        expand_many(mats, [0, 0], [-1, 0])
    with pytest.raises(ValueError):
        expand_many(mats, [0], [0])
    with pytest.raises(ValueError):
        expand_many(np.zeros((3, 3)), 0, 0)
    # Seeds whose leading axes are not the stack's batch.
    with pytest.raises(ValueError):
        expand_many(mats, np.zeros((3, 2), dtype=int), np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError):
        expand_many(mats, np.zeros((2, 4), dtype=int), np.zeros((2, 3), dtype=int))
    # An empty stack is not bad input: it has no seeds and gives no densities.
    assert expand_many(np.zeros((0, 3, 3)), [], []).shape == (0,)
    assert expand_many(np.zeros((0, 3, 3)), np.zeros((0, 5), dtype=int),
                       np.zeros((0, 5), dtype=int)).shape == (0, 5)


def test_edge_submatrix_density_is_the_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = rng.poisson(0.7, size=(n, n)).astype(float)
        r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
        assert edge_submatrix_density(m, r, c) == oracle_expand(m, r, c)


def test_topk_matches_per_seed_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        m = rng.poisson(0.5, size=(n, n + 1)).astype(float)
        for k in (1, 3, 5, 200):
            assert anograph_k_density(m, k) == oracle_topk(m, k)
    window = HigherOrderSketch(3, 16, seed=5)
    for _ in range(400):
        window.update(int(rng.integers(0, 40)), int(rng.integers(0, 40)), 1.0)
    for k in (1, 5, 300):
        want = min(oracle_topk(window.matrices[j], k) for j in range(3))
        assert anograph_score(window, "topk", k) == want


def test_topk_memory_does_not_grow_with_k():
    rng = np.random.default_rng(11)
    window = HigherOrderSketch(2, 128, seed=11)
    for u, v in rng.integers(0, 512, size=(2000, 2)):
        window.update(int(u), int(v), 1.0)

    def peak(k):
        gc.collect()
        tracemalloc.start()
        anograph_score(window, "topk", k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    # Each matrix is copied once for all its seeds: one stacked copy of the
    # window (and its transpose) whatever k is, and per-seed state is small.
    assert peak(8) - peak(1) < 2 * window.counts.nbytes


# -- chunked scoring -------------------------------------------------------------

SHAPES = [
    # (n_rows, n_buckets, restored): a restored detector scores the second
    # half of the stream on a sketch restored from a mid-stream snapshot.
    (1, 4, False),
    (2, 32, False),
    (3, 64, False),
    (1, 64, True),
    (2, 4, True),
    (3, 32, True),
]


def _chunk(n_rows, n_buckets):
    return max(1, SNAPSHOT_BUDGET_BYTES // (n_rows * n_buckets * n_buckets * 8))


def _stream(kind, chunk, rng):
    """(source, dest, tick, weight) rows shaped by ``kind``, relative to the
    detector's chunk length."""
    if kind == "one_per_tick":
        n = min(chunk + 5, 400)
        ticks = np.arange(1, n + 1)
    elif kind == "big_tick":
        ticks = np.repeat([1, 2, 3], [4, 150, 3])
    elif kind == "straddle":
        # One tick covers positions chunk-3 .. chunk+3 of the stream.
        before = max(chunk - 3, 0)
        ticks = np.concatenate(
            [np.arange(1, before + 1), np.full(7, before + 1), [before + 2]]
        )
    elif kind == "three_chunks":
        n = 3 * chunk + 7
        ticks = np.sort(rng.integers(1, max(2, n // 6), size=n))
    elif kind == "weighted":
        ticks = np.sort(rng.integers(1, 30, size=300))
    else:
        raise AssertionError(kind)
    n = ticks.shape[0]
    sources = rng.integers(0, 40, size=n)
    dests = rng.integers(0, 40, size=n)
    if kind == "weighted":
        weights = rng.choice([0.0, 0.25, 1.0, 3.5, 1e-3, 7.0], size=n)
    else:
        weights = np.ones(n)
    return [
        EdgeEvent(int(u), int(v), int(t), float(w))
        for u, v, t, w in zip(sources, dests, ticks, weights)
    ]


@pytest.mark.parametrize("n_rows,n_buckets,restored", SHAPES)
@pytest.mark.parametrize(
    "kind", ["one_per_tick", "big_tick", "straddle", "three_chunks", "weighted"]
)
def test_score_many_matches_per_edge_oracle(kind, n_rows, n_buckets, restored):
    chunk = _chunk(n_rows, n_buckets)
    events = _stream(kind, chunk, np.random.default_rng(n_rows * 100 + n_buckets))
    params = dict(n_rows=n_rows, n_buckets=n_buckets, alpha=0.8, seed=13)
    fast = AnoEdgeGlobal(**params)
    assert fast._snapshots.shape[0] == chunk
    oracle = OracleAnoEdgeGlobal(**params)
    want = [oracle.score(event) for event in events]
    cut = len(events) // 2 if restored else len(events)
    got = fast.score_many(events[:cut])
    if restored:
        fast.sketch = HigherOrderSketch.from_bytes(fast.sketch.to_bytes())
    got += fast.score_many(events[cut:])
    assert got == want
    assert np.array_equal(fast.sketch.matrices, oracle.sketch.matrices)
    assert fast.clock.tick == oracle.clock.tick


def test_score_many_continues_across_calls_and_single_scores():
    events = _stream("weighted", 32, np.random.default_rng(6))
    oracle = OracleAnoEdgeGlobal(seed=6)
    want = [oracle.score(event) for event in events]
    detector = AnoEdgeGlobal(seed=6)
    got = detector.score_many(events[:70])
    got += [detector.score(event) for event in events[70:75]]
    got += detector.score_many(iter(events[75:]))
    assert got == want


def test_snapshot_buffer_is_fixed_and_bounded():
    rng = np.random.default_rng(7)

    def peak_while_scoring(events):
        detector = AnoEdgeGlobal(seed=7)
        buffer = detector._snapshots
        assert buffer.nbytes <= SNAPSHOT_BUDGET_BYTES
        gc.collect()
        tracemalloc.start()
        detector.score_many(events)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert detector._snapshots is buffer
        return peak

    def stream(n, n_ticks):
        ticks = np.sort(rng.integers(1, n_ticks + 1, size=n))
        return [EdgeEvent(int(rng.integers(0, 50)), int(rng.integers(0, 50)), int(t))
                for t in ticks]

    short = peak_while_scoring(stream(200, 25))
    long = peak_while_scoring(stream(2000, 250))
    one_tick = peak_while_scoring(stream(2000, 1))
    # The scores list itself grows by 1800 floats (under 100 KB); buffering
    # every snapshot would add 1800 * 16 KiB.
    allowance = 256 * 1024
    assert long - short < allowance
    assert one_tick - short < allowance


# -- the greedy peel and AnoEdge-L ------------------------------------------------

EXACT = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def peel_matrices(draw):
    """Up to 8x8, of small integers so that ties are common, with a few cells
    of 1e308 whose sums overflow to inf (and then to nan as lines drop)."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, 3), min_size=n_rows * n_cols, max_size=n_rows * n_cols)
    m = np.array(draw(cells), dtype=float).reshape(n_rows, n_cols)
    cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    for r, c in draw(st.lists(cell, max_size=3)):
        m[r, c] = 1e308
    return m


@EXACT
@given(peel_matrices())
def test_peel_matches_two_copy_oracle(m):
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e308 cells
        assert anograph_density(m) == oracle_peel(m)


# Every column and the last two rows sum to inf, so the starting density is
# inf; a peel that went on would drop row 0, then column 0, then column 0 again.
INF_LINES = np.array([[0.0, 0.0], [1e308, 1e308], [1e308, 1e308]])


@EXACT
@given(peel_matrices())
@example(INF_LINES)
def test_peel_drops_only_lines_still_in(m):
    move = _Submatrix.move

    def checked_move(sub, axis, i, matrix, step):
        assert step == -1 and sub.inside[axis][i], (axis, i)
        move(sub, axis, i, matrix, step)

    with mock.patch.object(_Submatrix, "move", checked_move):
        with np.errstate(over="ignore", invalid="ignore"):  # the 1e308 cells
            anograph_density(m)


@st.composite
def local_streams(draw):
    """A detector shape and a weighted stream with tick gaps of 0 to 3."""
    shape = {
        "n_rows": draw(st.integers(1, 3)),
        "n_buckets": draw(st.sampled_from([1, 2, 3, 8, 16])),
        "alpha": draw(st.sampled_from([0.1, 0.5, 0.9, 0.99])),
        "seed": draw(st.integers(0, 50)),
    }
    weights = st.sampled_from([1.0, 1.0, 0.0, 0.5, 2.5, 7.0]) | st.floats(0.0, 50.0)
    steps = st.tuples(st.integers(0, 3), st.integers(0, 12), st.integers(0, 12), weights)
    tick, events = 1, []
    for gap, source, dest, weight in draw(st.lists(steps, min_size=1, max_size=60)):
        tick += gap
        events.append(EdgeEvent(source, dest, tick, weight=weight))
    return shape, events


# Seed 2 starts the 2x2 layer at cell (1, 0) and hashes node ids 0 and 1 to
# rows and columns 0 and 1. The first three edges grow the submatrix to the
# whole matrix; after the fourth, [[1, 0], [2, 1]], row 0 and column 1 tie as
# the lightest lines and dropping either helps, so condense drops the column.
# Random streams seldom reach such a tie.
TIE = ({"n_rows": 1, "n_buckets": 2, "alpha": 0.5, "seed": 2},
       [EdgeEvent(u, v, 1) for u, v in [(1, 0), (0, 0), (1, 1), (1, 0)]])


@EXACT
@given(local_streams())
@example(TIE)
def test_anoedge_local_matches_two_copy_oracle(stream):
    shape, events = stream
    detector, oracle = AnoEdgeLocal(**shape), OracleAnoEdgeLocal(**shape)
    assert detector.score_many(events) == [oracle.score(event) for event in events]
    assert np.array_equal(detector.sketch.counts, oracle.sketch.counts)
    assert detector.clock.tick == oracle.clock.tick
    for state, want in zip(detector.states, oracle.states, strict=True):
        assert np.array_equal(state.inside[0], want.in_rows)
        assert np.array_equal(state.inside[1], want.in_cols)
        assert np.array_equal(state.gain[0], want.row_gain)
        assert np.array_equal(state.gain[1], want.col_gain)
        assert state.total == want.total
        assert state.size == [want.size_rows, want.size_cols]


# -- the command -----------------------------------------------------------------


def test_anoedge_g_cli_output_is_the_oracle(tmp_path, capsys):
    rng = np.random.default_rng(8)
    events = _stream("three_chunks", 32, rng)
    path = tmp_path / "edges.csv"
    path.write_text("".join(f"{e.source},{e.dest},{e.tick}\n" for e in events))
    oracle = OracleAnoEdgeGlobal(n_rows=2, n_buckets=32, alpha=0.9, seed=21)
    want = "".join(FORMAT.format(oracle.score(event)) + "\n" for event in events)
    assert main(["anoedge-g", "--input", str(path), "--seed", "21"]) == 0
    assert capsys.readouterr().out == want


def test_anoedge_l_cli_output_is_the_oracle(tmp_path, capsys):
    rng = np.random.default_rng(9)
    events = _stream("three_chunks", 32, rng)
    path = tmp_path / "edges.csv"
    path.write_text("".join(f"{e.source},{e.dest},{e.tick}\n" for e in events))
    oracle = OracleAnoEdgeLocal(n_rows=2, n_buckets=32, alpha=0.9, seed=21)
    want = "".join(FORMAT.format(oracle.score(event)) + "\n" for event in events)
    assert main(["anoedge-l", "--input", str(path), "--seed", "21"]) == 0
    assert capsys.readouterr().out == want
