"""Property tests: the CLI turns any input text into exit 0 or exit 1."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from streamsketch.cli import main

# Characters that make up valid rows, so examples reach the detectors and not
# only the parsers' first checks.
ROW_CHARS = "0123456789,.-+e \nnaif"
EDGE_TEXT = st.text(alphabet=ROW_CHARS) | st.text()
RECORD_TEXT = st.tuples(
    st.sampled_from(["cat:a,num:x,tick\n", "num:x,num:y\n", "cat:a,cat:b\n", ""]),
    st.text(alphabet=ROW_CHARS + "abc") | st.text(),
).map("".join)
SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def run_on_text(command: str, text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out.txt"
        with contextlib.redirect_stderr(io.StringIO()):
            return main([command, "--input", str(path), "--output", str(out)])


@SETTINGS
@given(EDGE_TEXT)
def test_midas_on_any_edge_text_exits_0_or_1(text):
    assert run_on_text("midas", text) in (0, 1)


@SETTINGS
@given(RECORD_TEXT)
def test_mstream_on_any_record_text_exits_0_or_1(text):
    assert run_on_text("mstream", text) in (0, 1)
