"""File ingestion: edge CSV, multi-aspect record CSV, feedback files, and
window aggregation of edge streams into sealed graph sketches.

Formats are deliberately plain. Edge rows are ``u,v,t`` or ``u,v,w,t`` with
no header. Record files start with one header line tagging each column
``cat:NAME``, ``num:NAME`` or ``tick``. Feedback files carry one labelled
event per line: ``index,label`` for edges by stream position, or
``node,<id>,<label>`` for node labels.

Every input, the CLI's side files included, is read through ``Lines``. Blank
lines are skipped (a record header is the first non-blank line; synthetic
ticks count records), and a malformed line aborts as ``line N: ...``, or
``PATH:N: ...`` in a named file. A ``TickClock`` keeps ticks from decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator

from .events import EdgeEvent, MultiAspectRecord, TickClock
from .hashing import DEFAULT_SEED
from .sketch import HigherOrderSketch

DELIMITER = ","


class Lines:
    """The non-blank lines of one input, stripped, numbered from 1.

    Used as a context manager, it re-raises a ``ValueError`` raised while a
    line is handled with the line's location in front: ``line N: ...``, or
    ``NAME:N: ...`` for an input given a ``name``. Decode errors pass
    through unchanged: the file is read ahead, so the number would be wrong.
    The stream parsers read a ``Lines`` they are given through it, so its
    owner can follow ``lineno``: the line of the item just parsed.
    """

    def __init__(self, lines: Iterable[str], name: str | None = None):
        self._lines = lines
        self.name = name
        self.lineno: int | None = None  # the line being handled, if any

    def __iter__(self) -> Iterator[str]:
        for lineno, raw in enumerate(self._lines, start=1):
            self.lineno = lineno
            line = raw.strip()
            if line:
                yield line
        self.lineno = None

    def __enter__(self) -> Lines:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, UnicodeError) and self.lineno:
            where = f"line {self.lineno}" if self.name is None else f"{self.name}:{self.lineno}"
            raise ValueError(f"{where}: {exc}") from None


def convert(kind, text: str, field: str):
    """``kind(text)``; text it rejects is reported as ``FIELD 'text'``."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{field} {text!r}") from None


def _parse_node(text: str):
    """Node ids are integers when they look like integers, else raw strings."""
    try:
        return int(text)
    except ValueError:
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty node identifier")
        return stripped


def _parse_label(text: str) -> int:
    label = convert(int, text, "non-integer label")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


def parse_edge_stream(lines: Iterable[str], has_weight: bool = False) -> Iterator[EdgeEvent]:
    """Yield EdgeEvents from CSV rows, validating arity and tick order."""
    arity = 4 if has_weight else 3
    clock = TickClock()
    with (lines if isinstance(lines, Lines) else Lines(lines)) as rows:
        for line in rows:
            parts = line.split(DELIMITER)
            if len(parts) != arity:
                raise ValueError(f"expected {arity} fields, got {len(parts)}")
            source = _parse_node(parts[0])
            dest = _parse_node(parts[1])
            weight = convert(float, parts[2], "non-numeric weight") if has_weight else 1.0
            event = EdgeEvent(source, dest, convert(int, parts[-1], "non-integer tick"), weight)
            clock.advance(event.tick)
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
    lines: Iterable[str], tick_every: int | None = None
) -> tuple[RecordSchema, Iterator[MultiAspectRecord]]:
    """Parse a record CSV; returns the schema and a lazy record iterator.

    Files without a tick column get synthetic ticks advancing once every
    ``tick_every`` records (1000 when None) so temporal decay still applies
    periodically. A file with a tick column rejects a ``tick_every``, which
    it could not use, at its header line.
    """
    if tick_every is not None and tick_every < 1:
        raise ValueError(f"tick_every (records per synthetic tick) must be >= 1, got {tick_every}")
    reader = lines if isinstance(lines, Lines) else Lines(lines)
    rows = iter(reader)
    with reader:
        header = next(rows, None)
        if header is None:
            raise ValueError("record file is empty")
        schema = parse_record_header(header)
        if schema.has_tick and tick_every is not None:
            raise ValueError(
                "tick_every (records per synthetic tick) needs a file without a tick column"
            )
    if tick_every is None:
        tick_every = 1000

    def generate() -> Iterator[MultiAspectRecord]:
        clock = TickClock()
        with reader:
            for index, line in enumerate(rows):
                parts = line.split(DELIMITER)
                if len(parts) != len(schema.kinds):
                    raise ValueError(f"expected {len(schema.kinds)} fields, got {len(parts)}")
                cats, nums, tick = [], [], 1 + index // tick_every
                for value, kind in zip(parts, schema.kinds):
                    if kind == "cat":
                        cats.append(value.strip())
                    elif kind == "num":
                        number = convert(float, value, "non-numeric value")
                        if not math.isfinite(number):
                            raise ValueError(f"numeric value must be finite, got {value!r}")
                        if number <= -1.0:  # outside log1p's domain
                            raise ValueError(f"numeric value must be > -1, got {value!r}")
                        nums.append(number)
                    else:
                        tick = convert(int, value, "non-integer tick")
                record = MultiAspectRecord(tuple(cats), tuple(nums), tick)
                clock.advance(tick)
                yield record

    return schema, generate()


def parse_feedback(
    lines: Iterable[str], name: str | None = None
) -> tuple[dict[int, int], list[tuple]]:
    """Edge labels by 0-based stream position, and ``(node, label)`` pairs in
    file order.

    An edge is resolved when its position is reached; when a position is
    labelled twice, the later line wins. Errors are located in ``name``.
    """
    edge_labels: dict[int, int] = {}
    node_labels: list[tuple] = []
    with Lines(lines, name) as rows:
        for line in rows:
            parts = line.split(DELIMITER)
            if parts[0] == "node":
                if len(parts) != 3:
                    raise ValueError("node feedback needs 'node,<id>,<label>'")
                label = _parse_label(parts[2])  # a bad label is reported before a bad node
                node_labels.append((_parse_node(parts[1]), label))
            else:
                if len(parts) != 2:
                    raise ValueError("edge feedback needs 'index,label'")
                index = convert(int, parts[0], "non-integer index")
                if index < 0:
                    raise ValueError(f"index must be >= 0, got {index}")
                edge_labels[index] = _parse_label(parts[1])
    return edge_labels, node_labels


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
) -> list[tuple[HigherOrderSketch, int]]:
    """Bucket consecutive edges into sealed graph windows, each the sketch of
    its edges, with labels, in one pass; ValueError unless labels match edges.

    Every window gets a fresh sketch built from the same seed, so window
    scores are comparable and windows can be scored independently.
    """
    windows: list[tuple[HigherOrderSketch, int]] = []
    pairs = zip(edges, labels, strict=True)
    for _, run in groupby(pairs, key=lambda pair: spec.bucket(pair[0].tick)):
        window = HigherOrderSketch(n_rows, n_buckets, seed)
        positives = 0
        for event, label in run:
            window.update(event.source, event.dest, event.weight)
            positives += int(label)
        windows.append((window, 1 if positives >= spec.anomaly_edge_threshold else 0))
    return windows
