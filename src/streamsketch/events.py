"""Stream element types: timestamped edges and multi-aspect records, the
tick clock every detector keeps, and the most items handled at once."""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

from .sketch import MAX_FLOAT, as_float, check_weight, shown

# The most items handled at once: the CLI reads and scores its input in
# chunks of this many, and ``midas.ChiSquaredTables.each_run`` hands a batch
# at most this many, so transient arrays stay a few MB however many items
# share a tick.
TICK_BATCH_MAX = 4096


class TickClock:
    """The current tick of one detector; ticks never decrease.

    Detector state changes only at tick boundaries, so ``advance`` reports
    each boundary once and the detector does its boundary work on that.
    """

    __slots__ = ("tick",)

    def __init__(self):
        self.tick: int | None = None

    def advance(self, tick: int) -> int | None:
        """Move to ``tick``; return the tick this closes, or None when
        ``tick`` is the first one seen or the current one."""
        current = self.tick
        if tick == current:
            return None
        if current is not None and tick < current:
            raise ValueError(f"tick regression: got {tick} after {current}")
        self.tick = tick
        return current


def _check_tick(tick: int) -> None:
    """Ticks are integers (``operator.index`` takes ints, numpy integers and
    bools) from 1 and must convert to a float: scores divide by them."""
    try:
        tick = operator.index(tick)
    except TypeError:
        raise ValueError(f"tick must be an integer, got {shown(tick)}") from None
    if tick < 1:
        raise ValueError(f"tick must be >= 1, got {shown(tick)}")
    try:
        float(tick)
    except OverflowError:
        raise ValueError("tick too large") from None


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One directed edge from a dynamic-graph stream.

    Ticks are discrete and non-decreasing across a stream; several edges may
    share a tick. Weight defaults to 1 for unweighted streams.
    """

    source: object
    dest: object
    tick: int
    weight: float = 1.0

    def __post_init__(self):
        if not (0 <= self.weight <= MAX_FLOAT):  # as check_weight, without a call per edge
            check_weight(self.weight, "edge weight")
        _check_tick(self.tick)


@dataclass(frozen=True, slots=True)
class MultiAspectRecord:
    """A data point with ordered categorical and numeric attributes.

    The attribute arity is fixed over the lifetime of a detector; every
    record scored by one detector must carry the same split.
    """

    categorical: tuple = field(default=())
    numeric: tuple = field(default=())
    tick: int = 1

    def __post_init__(self):
        object.__setattr__(self, "categorical", tuple(self.categorical))
        numeric = tuple(as_float(x, "numeric attribute") for x in self.numeric)
        if not all(map(math.isfinite, numeric)):
            raise ValueError(f"numeric attributes must be finite, got {numeric}")
        object.__setattr__(self, "numeric", numeric)
        _check_tick(self.tick)


# The parsers' constructors, for values already checked as __post_init__
# checks them. A frozen dataclass's slot descriptors set a field without its
# __setattr__: ~0.3 us an item against ~0.8 us for EdgeEvent(...) and ~1.5 us
# for MultiAspectRecord(...) (2-core x86). Edges come a block at a time, so
# each setter runs over a whole column in one map(), with no Python frame per
# edge; records come one at a time.
_new = object.__new__
_EDGE_SETTERS = tuple(
    getattr(EdgeEvent, name).__set__ for name in ("source", "dest", "tick", "weight")
)
_set_categorical, _set_numeric, _set_record_tick = (
    getattr(MultiAspectRecord, name).__set__ for name in ("categorical", "numeric", "tick")
)


def _checked_edges(sources: list, dests: list, ticks: list[int]) -> list[EdgeEvent]:
    """``EdgeEvent(source, dest, tick)`` for each row of three columns, for
    ticks already checked: each passes ``_check_tick``. The weight is 1."""
    events = list(map(_new, repeat(EdgeEvent, len(ticks))))
    for setter, column in zip(_EDGE_SETTERS, (sources, dests, ticks, repeat(1.0))):
        deque(map(setter, events, column), maxlen=0)
    return events


def _checked_record(categorical: tuple, numeric: tuple, tick: int) -> MultiAspectRecord:
    """``MultiAspectRecord(categorical, numeric, tick)`` for two tuples and a
    tick already checked: the numeric values are finite floats and
    ``_check_tick`` passes."""
    record = _new(MultiAspectRecord)
    _set_categorical(record, categorical)
    _set_numeric(record, numeric)
    _set_record_tick(record, tick)
    return record
