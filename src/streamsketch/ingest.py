"""File ingestion: edge CSV, multi-aspect record CSV, feedback files, and
window aggregation of edge streams into sealed graph sketches.

Formats are deliberately plain. Edge rows are ``u,v,t`` or ``u,v,w,t`` with
no header. Record files start with one header line tagging each column
``cat:NAME``, ``num:NAME`` or ``tick``. Feedback files carry one labelled
event per line: ``index,label`` for edges by stream position, or
``node,<id>,<label>`` for node labels.

Malformed rows abort with their 1-based line number; ticks must never
decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .densegraph import GraphWindow
from .events import EdgeEvent, MultiAspectRecord
from .hashing import DEFAULT_SEED
from .sess import FeedbackEvent
from .sketch import HigherOrderSketch

DELIMITER = ","


def _parse_node(text: str):
    """Node ids are integers when they look like integers, else raw strings."""
    try:
        return int(text)
    except ValueError:
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty node identifier")
        return stripped


def parse_edge_stream(lines: Iterable[str], has_weight: bool = False) -> Iterator[EdgeEvent]:
    """Yield EdgeEvents from CSV rows, validating arity and tick order."""
    arity = 4 if has_weight else 3
    last_tick = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(DELIMITER)
        if len(parts) != arity:
            raise ValueError(
                f"line {lineno}: expected {arity} fields, got {len(parts)}"
            )
        try:
            source = _parse_node(parts[0])
            dest = _parse_node(parts[1])
            weight = float(parts[2]) if has_weight else 1.0
            tick = int(parts[-1])
            event = EdgeEvent(source, dest, tick, weight)  # checks weight and tick
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if last_tick is not None and tick < last_tick:
            raise ValueError(
                f"line {lineno}: tick {tick} decreases from {last_tick}"
            )
        last_tick = tick
        yield event


@dataclass(frozen=True)
class RecordSchema:
    """Column layout of a record CSV: names plus which are numeric/tick."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]  # "cat" | "num" | "tick"

    @property
    def n_categorical(self) -> int:
        return sum(1 for k in self.kinds if k == "cat")

    @property
    def n_numeric(self) -> int:
        return sum(1 for k in self.kinds if k == "num")

    @property
    def has_tick(self) -> bool:
        return "tick" in self.kinds


def parse_record_header(header: str) -> RecordSchema:
    names, kinds = [], []
    tick_seen = False
    for field in header.strip().split(DELIMITER):
        field = field.strip()
        if field == "tick":
            if tick_seen:
                raise ValueError("header declares more than one tick column")
            tick_seen = True
            names.append("tick")
            kinds.append("tick")
        elif field.startswith("cat:"):
            names.append(field[4:])
            kinds.append("cat")
        elif field.startswith("num:"):
            names.append(field[4:])
            kinds.append("num")
        else:
            raise ValueError(
                f"header field {field!r} must be 'cat:NAME', 'num:NAME' or 'tick'"
            )
    if not any(k in ("cat", "num") for k in kinds):
        raise ValueError("header declares no attribute columns")
    return RecordSchema(tuple(names), tuple(kinds))


def parse_record_stream(
    lines: Iterable[str], tick_every: int = 1000
) -> tuple[RecordSchema, Iterator[MultiAspectRecord]]:
    """Parse a record CSV; returns the schema and a lazy record iterator.

    Files without a tick column get synthetic ticks advancing once every
    ``tick_every`` records so temporal decay still applies periodically.
    """
    if tick_every < 1:
        raise ValueError(f"tick_every (records per synthetic tick) must be >= 1, got {tick_every}")
    iterator = iter(lines)
    try:
        header = next(iterator)
    except StopIteration:
        raise ValueError("record file is empty") from None
    schema = parse_record_header(header)

    def generate() -> Iterator[MultiAspectRecord]:
        last_tick = None
        for offset, raw in enumerate(iterator):
            lineno = offset + 2  # header was line 1
            line = raw.strip()
            if not line:
                continue
            parts = line.split(DELIMITER)
            if len(parts) != len(schema.kinds):
                raise ValueError(
                    f"line {lineno}: expected {len(schema.kinds)} fields, got {len(parts)}"
                )
            cats, nums, tick = [], [], None
            for value, kind in zip(parts, schema.kinds):
                if kind == "cat":
                    cats.append(value.strip())
                elif kind == "num":
                    try:
                        number = float(value)
                    except ValueError:
                        raise ValueError(
                            f"line {lineno}: non-numeric value {value!r}"
                        ) from None
                    if not math.isfinite(number):
                        raise ValueError(
                            f"line {lineno}: numeric value must be finite, got {value!r}"
                        )
                    if number <= -1.0:  # outside log1p's domain
                        raise ValueError(
                            f"line {lineno}: numeric value must be > -1, got {value!r}"
                        )
                    nums.append(number)
                else:
                    try:
                        tick = int(value)
                    except ValueError:
                        raise ValueError(
                            f"line {lineno}: non-integer tick {value!r}"
                        ) from None
            if tick is None:
                tick = 1 + offset // tick_every
            try:
                record = MultiAspectRecord(tuple(cats), tuple(nums), tick)
            except ValueError as exc:  # the tick; the values are checked above
                raise ValueError(f"line {lineno}: {exc}") from None
            if last_tick is not None and tick < last_tick:
                raise ValueError(
                    f"line {lineno}: tick {tick} decreases from {last_tick}"
                )
            last_tick = tick
            yield record

    return schema, generate()


def parse_feedback(lines: Iterable[str]) -> tuple[dict[int, int], list[FeedbackEvent]]:
    """Edge labels by 0-based stream position, and node feedback in file order.

    An edge is resolved when its position is reached; when a position is
    labelled twice, the later line wins.
    """
    edge_labels: dict[int, int] = {}
    node_feedback: list[FeedbackEvent] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(DELIMITER)
        try:
            if parts[0] == "node":
                if len(parts) != 3:
                    raise ValueError("node feedback needs 'node,<id>,<label>'")
                label = int(parts[2])
                if label not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label}")
                node_feedback.append(FeedbackEvent(label, node=_parse_node(parts[1])))
            else:
                if len(parts) != 2:
                    raise ValueError("edge feedback needs 'index,label'")
                index = int(parts[0])
                if index < 0:
                    raise ValueError(f"index must be >= 0, got {index}")
                label = int(parts[1])
                if label not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label}")
                edge_labels[index] = label
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return edge_labels, node_feedback


@dataclass(frozen=True)
class WindowSpec:
    """How to cut an edge stream into graphs and label them.

    A window is every edge whose tick falls in one ``window_ticks``-wide
    span; it is anomalous when it contains at least ``anomaly_edge_threshold``
    positively-labelled edges.
    """

    window_ticks: int = 30
    anomaly_edge_threshold: int = 50

    def __post_init__(self):
        if self.window_ticks < 1:
            raise ValueError(f"window_ticks must be >= 1, got {self.window_ticks}")
        if self.anomaly_edge_threshold < 1:
            raise ValueError(
                f"anomaly_edge_threshold must be >= 1, got {self.anomaly_edge_threshold}"
            )

    def bucket(self, tick: int) -> int:
        return tick // self.window_ticks


def window_aggregate(
    edges,
    labels,
    spec: WindowSpec,
    n_rows: int = 2,
    n_buckets: int = 32,
    seed: int = DEFAULT_SEED,
) -> list[tuple[GraphWindow, int]]:
    """Bucket consecutive edges into sealed graph windows with labels.

    Every window gets a fresh sketch built from the same seed, so window
    scores are comparable and windows can be scored independently.
    """
    edges = list(edges)
    labels = list(labels)
    if len(edges) != len(labels):
        raise ValueError(
            f"edges ({len(edges)}) and labels ({len(labels)}) differ in length"
        )
    windows: list[tuple[GraphWindow, int]] = []
    current_bucket = None
    window = None
    positives = 0

    def seal():
        nonlocal window, positives
        if window is not None:
            label = 1 if positives >= spec.anomaly_edge_threshold else 0
            windows.append((window, label))
        window = None
        positives = 0

    for event, label in zip(edges, labels):
        bucket = spec.bucket(event.tick)
        if bucket != current_bucket:
            seal()
            current_bucket = bucket
            window = GraphWindow(HigherOrderSketch(n_rows, n_buckets, seed))
        window.add(event)
        positives += int(label)
    seal()
    return windows
