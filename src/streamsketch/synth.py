"""Seeded synthetic streams for benchmarks and acceptance checks.

Every generator is a pure function of its seed: identical arguments produce
byte-identical streams on any platform, which keeps benchmark results
reproducible. Streams come back as materialised event lists with aligned
0/1 labels where ground truth applies.
"""

from __future__ import annotations

import numpy as np

from .events import EdgeEvent
from .hashing import DEFAULT_SEED


def _pairs(rng: np.random.Generator, n_nodes: int, n: int):
    """Sources and destinations of ``n`` uniform pairs of distinct nodes."""
    src = rng.integers(0, n_nodes, size=n)
    return src, (src + rng.integers(1, n_nodes, size=n)) % n_nodes


def _stream(rng: np.random.Generator, *groups) -> tuple[list[EdgeEvent], list[int]]:
    """The events of ``groups`` of (ticks, sources, dests, label) and their
    labels, sorted by tick and randomly shuffled within each tick; sources
    and dests are arrays, or one node for the whole group."""
    ticks, src, dst, labels = (
        np.concatenate([np.broadcast_to(group[i], group[0].shape) for group in groups])
        for i in range(4)
    )
    order = np.lexsort((rng.random(ticks.shape[0]), ticks))
    ticks, src, dst, labels = (column[order].tolist() for column in (ticks, src, dst, labels))
    return list(map(EdgeEvent, src, dst, ticks)), labels


def _at_least(minimum: int, **params) -> None:
    """Reject the first parameter below ``minimum``, by name."""
    for name, value in params.items():
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def synth_burst_stream(
    seed: int = DEFAULT_SEED,
    n_background: int = 10_000,
    n_burst: int = 500,
    n_nodes: int = 50,
    burst_tick: int = 50,
    n_ticks: int = 100,
    burst_span: int = 5,
) -> tuple[list[EdgeEvent], list[int]]:
    """Uniform background traffic with one concentrated source-destination
    burst: the smallest interesting microcluster.

    Background edges fall uniformly over node pairs and ticks 1..n_ticks.
    The burst pins ``n_burst`` edges on a single random pair across
    ``burst_span`` consecutive ticks starting at ``burst_tick`` (span 1
    reproduces a one-tick spike). Burst edges carry label 1.
    """
    _at_least(
        1, n_background=n_background, n_nodes=n_nodes, burst_tick=burst_tick,
        n_ticks=n_ticks, burst_span=burst_span,
    )
    _at_least(0, n_burst=n_burst)
    if n_nodes < 2:
        raise ValueError("need at least two nodes for distinct pairs")
    if burst_tick + burst_span - 1 > n_ticks:
        raise ValueError("burst does not fit inside the tick range")
    rng = np.random.default_rng(seed)

    bg_ticks = rng.integers(1, n_ticks + 1, size=n_background)
    bg_src, bg_dst = _pairs(rng, n_nodes, n_background)

    burst_src = int(rng.integers(0, n_nodes))
    burst_dst = (burst_src + int(rng.integers(1, n_nodes))) % n_nodes
    burst_ticks = burst_tick + (np.arange(n_burst) * burst_span) // max(n_burst, 1)
    return _stream(rng, (bg_ticks, bg_src, bg_dst, 0), (burst_ticks, burst_src, burst_dst, 1))


def synth_stationary_stream(
    seed: int = DEFAULT_SEED,
    n_ticks: int = 1000,
    n_nodes: int = 100,
    pair_rate: float = 1.0,
    background_per_tick: int = 99,
) -> tuple[list[EdgeEvent], tuple[int, int]]:
    """A stream with no anomalies: uniform background plus one monitored
    pair arriving at a stationary Poisson rate per tick.

    Returns the stream and the monitored pair, which uses dedicated node
    ids so background traffic never inflates its exact counts.
    """
    _at_least(1, n_ticks=n_ticks, n_nodes=n_nodes, background_per_tick=background_per_tick)
    if pair_rate <= 0:
        raise ValueError(f"pair_rate must be > 0, got {pair_rate}")
    rng = np.random.default_rng(seed)
    monitored = (n_nodes, n_nodes + 1)

    tick_values = np.arange(1, n_ticks + 1)
    bg_ticks = np.repeat(tick_values, background_per_tick)
    bg_src, bg_dst = _pairs(rng, n_nodes, bg_ticks.shape[0])
    pair_ticks = np.repeat(tick_values, rng.poisson(pair_rate, size=n_ticks))
    events, _ = _stream(rng, (bg_ticks, bg_src, bg_dst, 0), (pair_ticks, *monitored, 0))
    return events, monitored


def synth_graph_windows(
    seed: int = DEFAULT_SEED,
    n_windows: int = 20,
    window_ticks: int = 10,
    edges_per_window: int = 300,
    n_nodes: int = 64,
    block_side: int = 6,
    block_edges: int = 150,
    planted_window: int | None = None,
) -> tuple[list[EdgeEvent], list[int], int]:
    """Graph-window stream with one window hiding a dense bipartite block.

    Every window holds uniform background edges; the planted window gains
    ``block_edges`` extra edges concentrated on a ``block_side`` x
    ``block_side`` node block. Block edges carry label 1. Returns the
    stream, labels, and the planted window's index.
    """
    _at_least(
        1, n_windows=n_windows, window_ticks=window_ticks, edges_per_window=edges_per_window,
        n_nodes=n_nodes, block_side=block_side, block_edges=block_edges,
    )
    if block_side > n_nodes:
        raise ValueError("block does not fit inside the node range")
    rng = np.random.default_rng(seed)
    planted = (
        int(rng.integers(0, n_windows)) if planted_window is None else planted_window
    )
    if not 0 <= planted < n_windows:
        raise ValueError(f"planted window {planted} out of range")

    n_bg = n_windows * edges_per_window
    window_of = np.repeat(np.arange(n_windows), edges_per_window)
    lo = window_of * window_ticks
    bg_ticks = np.maximum(lo + rng.integers(0, window_ticks, size=n_bg), 1)
    bg_src, bg_dst = _pairs(rng, n_nodes, n_bg)

    block_src_nodes = rng.choice(n_nodes, size=block_side, replace=False)
    block_dst_nodes = rng.choice(n_nodes, size=block_side, replace=False)
    blk_src = block_src_nodes[rng.integers(0, block_side, size=block_edges)]
    blk_dst = block_dst_nodes[rng.integers(0, block_side, size=block_edges)]
    blk_lo = planted * window_ticks
    blk_ticks = np.maximum(blk_lo + rng.integers(0, window_ticks, size=block_edges), 1)
    events, labels = _stream(rng, (bg_ticks, bg_src, bg_dst, 0), (blk_ticks, blk_src, blk_dst, 1))
    return events, labels, planted


def synth_attack_stream(
    seed: int = DEFAULT_SEED,
    n_ticks: int = 400,
    n_nodes: int = 40,
    uniform_per_tick: int = 40,
    n_hot_pairs: int = 6,
    hot_rate: float = 6.0,
    hot_burst_every: int = 10,
    hot_burst_size: int = 16,
    attack_start: int = 100,
    attack_end: int = 380,
    attack_per_tick: int = 32,
) -> tuple[list[EdgeEvent], list[int]]:
    """Labelled stream with a sustained single-pair attack.

    Background mixes uniform pair traffic with a few persistent hot pairs
    that spike periodically, producing legitimate-looking bursts whose
    statistics sit close to the attack's. The attack pair fires steadily
    from ``attack_start`` through ``attack_end``; its edges carry label 1.
    The long attack makes baseline poisoning, and what labelled feedback
    can repair, actually measurable.
    """
    _at_least(
        1, n_ticks=n_ticks, n_nodes=n_nodes, uniform_per_tick=uniform_per_tick,
        attack_per_tick=attack_per_tick,
    )
    if not 1 <= attack_start <= attack_end <= n_ticks:
        raise ValueError("attack interval must fit inside the tick range")
    rng = np.random.default_rng(seed)

    tick_values = np.arange(1, n_ticks + 1)
    uni_ticks = np.repeat(tick_values, uniform_per_tick)
    groups = [(uni_ticks, *_pairs(rng, n_nodes, uni_ticks.shape[0]), 0)]
    for _ in range(n_hot_pairs):
        a = int(rng.integers(0, n_nodes))
        b = (a + int(rng.integers(1, n_nodes))) % n_nodes
        counts = rng.poisson(hot_rate, size=n_ticks)
        if hot_burst_every > 0:
            phase = int(rng.integers(0, hot_burst_every))
            counts = counts + np.where(
                (tick_values % hot_burst_every) == phase, hot_burst_size, 0
            )
        groups.append((np.repeat(tick_values, counts), a, b, 0))

    attack_ticks = np.repeat(
        np.arange(attack_start, attack_end + 1), attack_per_tick
    )
    # The attack pair is dedicated: no other traffic touches it.
    return _stream(rng, *groups, (attack_ticks, n_nodes, n_nodes + 1, 1))
