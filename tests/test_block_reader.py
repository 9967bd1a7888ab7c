"""The edge reader's block path against the per-line reader.

``parse_edge_stream`` parses a block of integer-id lines in array passes and
hands any other block to the per-line parser from its first line. Whatever
the text and wherever blocks fall, it must yield the events the per-line
reader (``oracles.oracle_edge_lines``) yields, with the same id types and the
same ``lineno`` at each yield, and raise the same message.
"""

import io
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsketch import ingest
from streamsketch.events import EdgeEvent, MultiAspectRecord, _checked_edges, _checked_record
from streamsketch.ingest import Lines, _integer_edges, parse_edge_stream

from oracles import oracle_edge_lines

BLOCK_SIZES = (1, 2, 3, 7, ingest.BLOCK_LINES)
# Lines the block path must leave to the per-line parser, each for its own
# reason; most are errors there, some valid edges.
FALLBACK_LINES = [
    "",  # blank
    " \t",  # whitespace only
    " 1,2,3",  # spaces
    "1, 2,3",
    "+1,2,3",  # signs
    "-1,2,3",
    "1_000,2,3",  # an underscore, which int() takes
    "a,b,3",  # string ids
    "n1,h2,3",
    "\u0661,2,3",  # a digit int() takes that is not ASCII
    "1,2,3\r",  # a carriage return
    "1,2",  # field counts
    "1,2,3,4",
    "1,,3",
    ",2,3",
    "1,2,0",  # ticks
    "1,2,-1",
    "1,2,x",
    "1,2,1e3",
    f"{2**63},1,3",  # 19 digits and more
    f"-{2**63},1,3",
    f"{2**63 - 1},1,3",
    "9" * 20 + ",1,3",
    "0" * 18 + "7,1,3",
    "2,3," + "9" * 19,
]
ID = (
    st.integers(0, 30).map(str)
    | st.integers(0, 10**18 - 1).map(str)
    | st.tuples(st.integers(0, 99), st.integers(1, 18)).map(lambda pair: str(pair[0]).zfill(pair[1]))
)
WEIGHT = st.sampled_from(["1", "2.5", "0", "nan"])
RARELY = st.sampled_from([False] * 4 + [True])


@st.composite
def edge_texts(draw):
    """Digit-only lines with ticks that mostly never fall (a step of -1
    makes a regression, or a tick 0), with fallback lines anywhere, a last
    line with or without a newline and, rarely, a byte-order mark."""
    has_weight = draw(RARELY)
    tick, lines = draw(st.integers(1, 3)), []
    for _ in range(draw(st.integers(0, 30))):
        tick += draw(st.sampled_from([0, 0, 0, 1, 2, -1] if draw(RARELY) else [0, 0, 1]))
        weight = [draw(WEIGHT)] if has_weight else []
        lines.append(",".join([draw(ID), draw(ID), *weight, str(tick)]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FALLBACK_LINES)))
    text = "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")
    return ("\ufeff" if draw(RARELY) else "") + text, has_weight


def raw_lines(text: str, form: str, cuts: list[int]) -> list[str]:
    """``text`` as the raw lines of a file, as bare lines without their
    newlines, or cut at ``cuts`` into pieces that need not be lines."""
    if form == "file":
        return io.StringIO(text, newline=None).readlines()
    if form == "bare":
        return text.split("\n")
    bounds = [0, *sorted(cut % (len(text) + 1) for cut in cuts), len(text)]
    return [text[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def read_blocks(lines: list[str], has_weight: bool):
    """``(lineno, event)`` at each yield of ``parse_edge_stream``, and its
    error message or None."""
    reader, got = Lines(lines), []
    try:
        for event in parse_edge_stream(reader, has_weight=has_weight):
            got.append((reader.lineno, event))
    except ValueError as exc:
        return got, str(exc)
    return got, None


def read_per_line(lines: list[str], has_weight: bool):
    got = []
    try:
        for lineno, event in oracle_edge_lines(lines, has_weight):
            got.append((lineno, event))
    except ValueError as exc:
        return got, str(exc)
    return got, None


def types(got):
    return [tuple(map(type, (e.source, e.dest, e.tick, e.weight))) for _, e in got]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=edge_texts(), form=st.sampled_from(["file", "bare", "pieces"]),
       cuts=st.lists(st.integers(0, 10**4), max_size=6))
@example(text=("1,2,1\n3,4,2\n5,6,1\n7,8,3", False), form="file", cuts=[])  # a regression mid-block
@example(text=("1,2,2\n3,4,2\n5,6,1\n", False), form="file", cuts=[])  # at a boundary of 2
@example(text=("\ufeff1,2,1\n3,4,2\n", False), form="file", cuts=[])
@example(text=("1,2,1\n1,2,1\n", False), form="pieces", cuts=[4])  # "1,2," and "1\n1,2,1\n"
@example(text=("1,2\n3,4,5,6\n", False), form="file", cuts=[])  # two and four fields
@example(text=(f"1,2,1\n{2**63},3,1\n-{2**63},3,1\n", False), form="file", cuts=[])
@example(text=("1,2,1\n3,4,2\n", True), form="file", cuts=[])  # --has-weight
def test_block_reader_matches_the_per_line_reader(text, form, cuts):
    text, has_weight = text
    lines = raw_lines(text, form, cuts)
    expected = read_per_line(lines, has_weight)
    for size in BLOCK_SIZES:
        with mock.patch.object(ingest, "BLOCK_LINES", size):
            got = read_blocks(lines, has_weight)
        assert got == expected, size
        assert types(got[0]) == types(expected[0]), size


def test_integer_blocks_take_the_block_path():
    block = ["7,8,1\n", "000000000000000009,123456789012345678,1\n", "0,0,2"]
    assert _integer_edges(block, None) == [[7, 9, 0], [8, 123456789012345678, 0], [1, 1, 2]]
    assert _integer_edges(block, 1) is not None
    assert _integer_edges(block, 2) is None  # the first tick falls behind the clock
    assert _integer_edges(["1,2,5\n", "1,2,4\n"], None) is None
    assert _integer_edges(["1,2,3", "4,5,6\n"], None) is None  # a line without its newline
    assert _integer_edges(["1,2,3\n4,5,6\n"], None) is None  # two lines in one
    assert _integer_edges(["1,2,", "1\n1,2,1\n"], None) is None  # six fields, not on two lines
    assert _integer_edges(["1,2\n", "3,4,5,6\n"], None) is None  # six fields, not three a line
    for line in FALLBACK_LINES:
        assert _integer_edges(["1,2,3\n", line + "\n", "4,5,6\n"], None) is None, line


def test_checked_constructors_build_equal_items():
    events = _checked_edges([1, 7], [2, 8], [3, 3])
    assert events == [EdgeEvent(1, 2, 3), EdgeEvent(7, 8, 3)]
    assert all(type(event) is EdgeEvent and event.weight == 1.0 for event in events)
    with pytest.raises(AttributeError):
        events[0].tick = 4  # still frozen
    record = _checked_record(("a", "b"), (1.5,), 3)
    assert record == MultiAspectRecord(("a", "b"), (1.5,), 3)
    assert type(record) is MultiAspectRecord
