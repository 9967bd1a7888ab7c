"""Seeded input generators for the benchmark workloads.

The generators use numpy only and never import ``streamsketch``, so a change
to the program cannot change the inputs it is measured on. Each returns a
``Workload``: the CSV text the CLI reads, a one-item file of the same shape
(for the set-up measurement), the planted 0/1 label of every item and the
CLI arguments that score it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENSE_TICK_ITEMS = 32  # a tick holding at least this many items counts as dense


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # subcommand and options; "--input FILE" is appended
    text: str  # full input file
    one_item_text: str  # the same shape, one item only
    labels: np.ndarray  # planted anomaly label per item
    flag_column: bool  # output lines are "score,flag" rather than "score"
    properties: dict


def _interleave(rng, ticks, *columns):
    """Order items by tick, shuffling items that share a tick."""
    order = np.lexsort((rng.random(ticks.shape[0]), ticks))
    return (ticks[order],) + tuple(col[order] for col in columns)


def _properties(ticks, keys, id_kind) -> dict:
    _, per_tick = np.unique(ticks, return_counts=True)
    item_tick_size = np.repeat(per_tick, per_tick)
    return {
        "items": int(ticks.shape[0]),
        "distinct_ticks": int(per_tick.shape[0]),
        "items_per_tick_mean": float(per_tick.mean()),
        "items_per_tick_p90": float(np.percentile(per_tick, 90)),
        "dense_tick_item_share": float((item_tick_size >= DENSE_TICK_ITEMS).mean()),
        "distinct_keys": int(len(set(keys))),
        "id_kind": id_kind,
    }


def _edge_workload(name, argv, src, dst, ticks, labels, flag_column) -> Workload:
    lines = [f"{u},{v},{t}" for u, v, t in zip(src.tolist(), dst.tolist(), ticks.tolist())]
    props = _properties(ticks, zip(src.tolist(), dst.tolist()), "int")
    return Workload(
        name=name,
        argv=argv,
        text="\n".join(lines) + "\n",
        one_item_text=lines[0] + "\n",
        labels=labels.astype(np.int8),
        flag_column=flag_column,
        properties=props,
    )


def edge_burst(seed: int, n_items: int = 40_000) -> Workload:
    """About 500 edges per tick over 2000 nodes, plus 400 copies of one
    source-destination pair inside one tick of the second half."""
    rng = np.random.default_rng([seed, 1])
    n_nodes, per_tick, n_burst = 2000, 500, 400
    n_bg = n_items - n_burst
    ticks = 1 + np.arange(n_bg) // per_tick
    src = rng.integers(0, n_nodes, n_bg)
    dst = rng.integers(0, n_nodes, n_bg)
    n_ticks = int(ticks[-1])
    burst_tick = int(rng.integers(n_ticks // 2, n_ticks - 2))
    u, v = (int(x) for x in rng.integers(0, n_nodes, 2))
    ticks = np.concatenate([ticks, np.full(n_burst, burst_tick)])
    src = np.concatenate([src, np.full(n_burst, u)])
    dst = np.concatenate([dst, np.full(n_burst, v)])
    labels = np.concatenate([np.zeros(n_bg), np.ones(n_burst)])
    ticks, src, dst, labels = _interleave(rng, ticks, src, dst, labels)
    argv = ("midas-r", "--flag-epsilon", "0.05")
    return _edge_workload("edge-burst", argv, src, dst, ticks, labels, True)


def edge_sparse(seed: int, n_items: int = 14_000) -> Workload:
    """One or two edges per tick over 500 nodes, plus five same-tick bursts
    of 48 copies of one pair whose endpoints already have history."""
    rng = np.random.default_rng([seed, 2])
    n_nodes, n_bursts, burst_len = 500, 5, 48
    n_bg = n_items - n_bursts * burst_len
    ticks = 1 + np.cumsum(rng.random(n_bg) < 0.6)
    src = rng.integers(0, n_nodes, n_bg)
    dst = rng.integers(0, n_nodes, n_bg)
    positions = np.sort(rng.choice(np.arange(n_bg // 5, n_bg), n_bursts, replace=False))
    extra = [
        (np.full(burst_len, ticks[p]), np.full(burst_len, src[p - 1]), np.full(burst_len, dst[p - 2]))
        for p in positions.tolist()
    ]
    ticks = np.concatenate([ticks] + [e[0] for e in extra])
    src = np.concatenate([src] + [e[1] for e in extra])
    dst = np.concatenate([dst] + [e[2] for e in extra])
    labels = np.concatenate([np.zeros(n_bg), np.ones(n_bursts * burst_len)])
    ticks, src, dst, labels = _interleave(rng, ticks, src, dst, labels)
    return _edge_workload("edge-sparse", ("midas-f",), src, dst, ticks, labels, False)


def anoedge_dense(seed: int, n_items: int = 1_000) -> Workload:
    """8 edges per tick over 400 nodes, plus a 4x4 bipartite block that
    receives 150 edges inside the tick at 70% of the stream."""
    rng = np.random.default_rng([seed, 3])
    n_nodes, per_tick, n_block, block_side = 400, 8, 150, 4
    n_bg = n_items - n_block
    ticks = 1 + np.arange(n_bg) // per_tick
    src = rng.integers(0, n_nodes, n_bg)
    dst = rng.integers(0, n_nodes, n_bg)
    block_tick = int(0.7 * ticks[-1])
    block_src = rng.choice(n_nodes, block_side, replace=False)
    block_dst = rng.choice(n_nodes, block_side, replace=False)
    ticks = np.concatenate([ticks, np.full(n_block, block_tick)])
    src = np.concatenate([src, rng.choice(block_src, n_block)])
    dst = np.concatenate([dst, rng.choice(block_dst, n_block)])
    labels = np.concatenate([np.zeros(n_bg), np.ones(n_block)])
    ticks, src, dst, labels = _interleave(rng, ticks, src, dst, labels)
    return _edge_workload("anoedge-dense", ("anoedge-g",), src, dst, ticks, labels, False)


def records_mstream(seed: int, n_items: int = 20_000) -> Workload:
    """100 records per tick with string host and service columns and two
    numeric columns, plus 300 records from one host inside one tick."""
    rng = np.random.default_rng([seed, 4])
    n_hosts, n_services, per_tick, n_burst = 300, 20, 100, 300
    n_bg = n_items - n_burst
    ticks = 1 + np.arange(n_bg) // per_tick
    host = rng.integers(0, n_hosts, n_bg)
    service = rng.integers(0, n_services, n_bg)
    n_ticks = int(ticks[-1])
    burst_tick = int(rng.integers(n_ticks // 2, n_ticks - 2))
    ticks = np.concatenate([ticks, np.full(n_burst, burst_tick)])
    host = np.concatenate([host, np.full(n_burst, int(rng.integers(0, n_hosts)))])
    service = np.concatenate([service, rng.integers(0, n_services, n_burst)])
    size = rng.lognormal(6.0, 1.5, n_items)
    duration = rng.exponential(2.0, n_items)
    labels = np.concatenate([np.zeros(n_bg), np.ones(n_burst)])
    ticks, host, service, size, duration, labels = _interleave(
        rng, ticks, host, service, size, duration, labels
    )
    rows = [
        f"h{h},svc{s},{b:.1f},{d:.3f},{t}"
        for h, s, b, d, t in zip(
            host.tolist(), service.tolist(), size.tolist(), duration.tolist(), ticks.tolist()
        )
    ]
    header = "cat:host,cat:service,num:bytes,num:duration,tick\n"
    props = _properties(ticks, zip(host.tolist(), service.tolist()), "str")
    return Workload(
        name="records-mstream",
        argv=("mstream",),
        text=header + "\n".join(rows) + "\n",
        one_item_text=header + rows[0] + "\n",
        labels=labels.astype(np.int8),
        flag_column=False,
        properties=props,
    )


GENERATORS = {
    "edge-burst": edge_burst,
    "edge-sparse": edge_sparse,
    "anoedge-dense": anoedge_dense,
    "records-mstream": records_mstream,
}
