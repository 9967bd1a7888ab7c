"""Property tests: every detector command turns any input text into exit 0
or exit 1, every exit 1 names a line of the input and leaves stdout empty,
and blank lines change nothing."""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsketch import cli, midas
from streamsketch.cli import main

from oracles import oracle_sess

# Characters that make up valid rows, so examples reach the detectors and not
# only the parsers' first checks.
ROW_CHARS = "0123456789,.-+e \nnaif"
EDGE_TEXT = st.text(alphabet=ROW_CHARS) | st.text()
RECORD_HEADERS = ["cat:a,num:x,tick\n", "num:x,num:y\n", "cat:a,cat:b\n"]
RECORD_TEXT = st.tuples(
    st.sampled_from(RECORD_HEADERS + [""]),
    st.text(alphabet=ROW_CHARS + "abc") | st.text(),
)
SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
LINE_ERROR = re.compile(r"^error: line (\d+): ", re.MULTILINE)
EDGE_COMMANDS = ["midas", "midas-r", "midas-f", "anoedge-g", "anoedge-l", "anograph", "anograph-k", "sess"]


def run_on_text(argv: list[str], text: str) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and the number of lines the CLI reads in
    ``text``, given as ``--input``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8")
        with path.open(encoding="utf-8") as handle:
            n_lines = len(handle.readlines())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--input", str(path)])
        return code, out.getvalue(), err.getvalue(), n_lines


def assert_names_a_line(err: str, n_lines: int) -> None:
    match = LINE_ERROR.search(err)
    assert match is not None, err
    assert 1 <= int(match.group(1)) <= n_lines


@pytest.mark.parametrize("weight", [[], ["--has-weight"]], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("command", EDGE_COMMANDS)
@SETTINGS
# Weighted counts that overflow: the third edge scores nan under the
# chi-squared commands, midas, midas-r, midas-f and sess.
@example(text="u,v,1e308,1\nu,v,1e308,1\nu,v,1e308,2\n")
@example(text="1,2,1e308,1\n\n1,2,1e308,1\n 1,2,1e308,2\n")
@given(text=EDGE_TEXT)
def test_edge_commands_on_any_edge_text_exit_0_or_1(command, weight, text):
    feedback = ["--feedback", os.devnull] if command == "sess" else []  # no labels
    code, out, err, n_lines = run_on_text([command, *feedback, *weight], text)
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert_names_a_line(err, n_lines)


@SETTINGS
@given(RECORD_TEXT)
def test_mstream_on_any_record_text_exits_0_or_1(parts):
    header, body = parts
    code, out, err, n_lines = run_on_text(["mstream"], header + body)
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        if (header + body).strip():
            assert_names_a_line(err, n_lines)


# -- blank lines and side files --------------------------------------------------


def run_with_files(argv: list[str], files: dict[str, list[str]]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI. Each name in ``files`` is
    written as a file of those lines, and its path replaces the name in
    ``argv``; stderr shows the paths as the bare names."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in files.items():
            Path(tmp, name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([os.path.join(tmp, arg) if arg in files else arg for arg in argv])
        return code, out.getvalue(), err.getvalue().replace(tmp + os.sep, "")


def ticked(rows) -> list[str]:
    """``a,b,tick`` lines from ``(a, b, step)`` rows: ticks start at 1 and
    grow by each step."""
    tick, lines = 1, []
    for a, b, step in rows:
        tick += step
        lines.append(f"{a},{b},{tick}")
    return lines


STREAM = ticked((i % 4, (i * 3) % 5, i % 3 == 0) for i in range(20))
EDGES = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)), min_size=1)
RECORDS = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(0, 9), st.integers(0, 2)), min_size=1
)
FEEDBACK = st.tuples(st.integers(0, len(STREAM) - 1), st.integers(0, 1)).map("{0[0]},{0[1]}".format)
LABEL = st.sampled_from(["0", "1"])
SCORE = st.floats(allow_nan=False).map(repr)
BLANK = st.text(alphabet=" \t\x0b\x0c\u3000", max_size=3)  # stripped away, not a line break

BLANK_CASES = {
    "midas": (
        ["midas", "--input", "in.csv"], "in.csv", EDGES.map(ticked), {},
    ),
    "mstream-tick": (
        ["mstream", "--input", "in.csv"],
        "in.csv",
        RECORDS.map(lambda rows: ["cat:a,num:x,tick"] + ticked(rows)),
        {},
    ),
    "mstream-no-tick": (
        ["mstream", "--input", "in.csv", "--decay-every", "2"],
        "in.csv",
        RECORDS.map(lambda rows: ["cat:a,num:x"] + [f"{a},{x}" for a, x, _ in rows]),
        {},
    ),
    "sess-feedback": (
        ["sess", "--input", "in.csv", "--feedback", "fb.txt"], "fb.txt", st.lists(FEEDBACK),
        {"in.csv": STREAM},
    ),
    "eval-labels": (
        ["midas", "--input", "in.csv", "--eval", "--labels", "labels.txt"],
        "labels.txt",
        st.lists(LABEL, min_size=len(STREAM), max_size=len(STREAM)),
        {"in.csv": STREAM},
    ),
}


def with_blank_lines(lines: list[str], blanks) -> list[str]:
    """``lines`` with each ``(position, text)`` of ``blanks`` inserted as a line."""
    lines = list(lines)
    for position, text in blanks:
        lines.insert(position % (len(lines) + 1), text)
    return lines


BLANKS = st.lists(st.tuples(st.integers(0, 100), BLANK | st.just("\r")), min_size=1)


@pytest.mark.parametrize("case", list(BLANK_CASES))
@SETTINGS
@given(data=st.data())
def test_blank_lines_leave_exit_code_and_output_unchanged(case, data):
    argv, name, lines, fixed = BLANK_CASES[case]
    lines = data.draw(lines)
    padded = with_blank_lines(lines, data.draw(BLANKS))
    plain_code, plain_out, _ = run_with_files(argv, {**fixed, name: lines})
    code, out, _ = run_with_files(argv, {**fixed, name: padded})
    assert (code, out) == (plain_code, plain_out)


SIDE_FILES = {
    "feedback": (
        ["sess", "--input", "in.csv", "--feedback", "side.txt"],
        FEEDBACK,
        ["1,7", "x,1", "3,one", "node,5,x", "node,9", "-3,1", "1,2,3"],
    ),
    "labels": (
        ["midas", "--input", "in.csv", "--eval", "--labels", "side.txt"],
        LABEL,
        ["2", "x", "0.5", "1,0"],
    ),
    "anograph-labels": (
        ["anograph", "--input", "in.csv", "--labels", "side.txt"],
        LABEL,
        ["2", "x", "0.5", "1,0"],
    ),
    "scores": (
        ["eval", "--scores", "side.txt", "--labels", "labels.txt"],
        SCORE,
        ["abc", "nan", "1;2"],
    ),
}


@pytest.mark.parametrize("kind", list(SIDE_FILES))
@SETTINGS
@given(data=st.data())
def test_a_bad_side_file_line_is_reported_with_its_path(kind, data):
    argv, good, bad_lines = SIDE_FILES[kind]
    lines = data.draw(st.lists(good | BLANK, max_size=10))
    position = data.draw(st.integers(0, len(lines)))
    lines.insert(position, data.draw(st.sampled_from(bad_lines)))
    files = {"in.csv": STREAM, "labels.txt": ["0", "1"], "side.txt": lines}
    code, out, err = run_with_files(argv, files)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: side.txt:{position + 1}: "), err



# -- sess against its per-edge oracle ----------------------------------------------


IDS = st.integers(0, 5) | st.sampled_from(["a", "b", "n3", "h40"])
SESS_STREAM = st.lists(st.tuples(IDS, IDS, st.integers(0, 2)), min_size=5, max_size=40).map(ticked)
NODE_LABELS = st.lists(st.tuples(IDS, st.integers(0, 1)), min_size=1, max_size=2)
# Lines parse_edge_stream rejects; "0,1,1" only once a later tick has passed.
BAD_EDGE_LINES = ["1,2", "1,2,3,4", "x,y,0", "1,2,x", "1,,3", "0,1,1"]
RARELY = st.sampled_from([False] * 4 + [True])


@pytest.mark.parametrize("layout", ["flat", "3d"])
@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_sess_matches_its_per_edge_oracle_at_any_chunk_size(layout, data):
    """stdout, stderr and exit code of ``sess`` equal the per-edge loop's on
    both layouts, in chunks of 1, 3 and 7 edges, on string and integer ids,
    blank lines, a bad line anywhere, labels on both sides of a chunk
    boundary and a label past the end. Weights are 1, so no score is nan."""
    lines = data.draw(SESS_STREAM)
    n = len(lines)
    labels = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1), max_size=6))
    for size in (3, 7):  # the last edge of a chunk and the first of the next
        boundary = size * data.draw(st.integers(1, max(1, n // size)))
        labels.update({i: i % 2 for i in (boundary - 1, boundary) if i < n})
    if data.draw(RARELY):
        labels[n + data.draw(st.integers(0, 2))] = 1  # past the end
    nodes = data.draw(NODE_LABELS) if data.draw(RARELY) else []  # the flat layout exits 1
    feedback = [f"node,{node},{label}" for node, label in nodes]
    feedback += [f"{index},{label}" for index, label in labels.items()]
    if data.draw(st.booleans()):
        lines.insert(data.draw(st.integers(0, n)), data.draw(st.sampled_from(BAD_EDGE_LINES)))
    lines = with_blank_lines(lines, data.draw(BLANKS))

    text, feedback_text = ("".join(line + "\n" for line in part) for part in (lines, feedback))
    expected = oracle_sess(text, feedback_text, "fb.txt", layout, seed=3)
    argv = ["sess", "--layout", layout, "--seed", "3", "--input", "in.csv", "--feedback", "fb.txt"]
    for size in (1, 3, 7):
        with mock.patch.object(cli, "TICK_BATCH_MAX", size), mock.patch.object(midas, "TICK_BATCH_MAX", size):
            assert run_with_files(argv, {"in.csv": lines, "fb.txt": feedback}) == expected, size
