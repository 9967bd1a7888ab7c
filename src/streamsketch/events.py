"""Stream element types: timestamped edges and multi-aspect records, the
tick clock every detector keeps, and the most items handled at once."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

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
