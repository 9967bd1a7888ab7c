"""Property tests: the CLI turns any input text into exit 0 or exit 1, and
every exit 1 names a line of the input."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from streamsketch.cli import main

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


def run_on_text(command: str, text: str) -> tuple[int, str, int]:
    """Exit code, stderr and the number of lines the CLI reads in ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8")
        with path.open(encoding="utf-8") as handle:
            n_lines = len(handle.readlines())
        out = Path(tmp) / "out.txt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), "--output", str(out)])
        return code, err.getvalue(), n_lines


def assert_names_a_line(err: str, n_lines: int) -> None:
    match = LINE_ERROR.search(err)
    assert match is not None, err
    assert 1 <= int(match.group(1)) <= n_lines


@SETTINGS
@given(EDGE_TEXT)
def test_midas_on_any_edge_text_exits_0_or_1(text):
    code, err, n_lines = run_on_text("midas", text)
    assert code in (0, 1)
    if code == 1:
        assert_names_a_line(err, n_lines)


@SETTINGS
@given(RECORD_TEXT)
def test_mstream_on_any_record_text_exits_0_or_1(parts):
    header, body = parts
    code, err, n_lines = run_on_text("mstream", header + body)
    assert code in (0, 1)
    if code == 1 and header:
        assert_names_a_line(err, n_lines)
