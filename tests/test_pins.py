"""Fixed-seed CLI output pins, run in process through ``cli.main``.

Each pin is a command over a fixed input and the sha256 of its stdout. The
values are the ones ``.github/workflows/tier1.yml`` checks through the
installed script; they must never change, since fixed seeds must give
byte-identical output. The inputs are built here as the workflow builds them.
"""

import hashlib

import pytest

from streamsketch.cli import main


def _weighted(lines):
    """The workflow's weighted copy of the windows stream, as u,v,w,t: weight
    1e308 on every 211th line and on edge 10->26 in tick 160, 1 elsewhere.
    The rule there is

        awk -F, 'BEGIN {OFS = ","} {print $1, $2, (NR % 211 == 0 || ($1 == 10
        && $2 == 26 && $3 == 160) ? "1e308" : "1"), $3}' windows.csv
    """
    out = []
    for nr, line in enumerate(lines, start=1):
        u, v, t = line.split(",")
        heavy = nr % 211 == 0 or (int(u), int(v), int(t)) == (10, 26, 160)
        out.append(f"{u},{v},{'1e308' if heavy else '1'},{t}\n")
    return "".join(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``synth --kind windows --seed 3`` (6150 edges) and its weighted copy."""
    tmp_path = tmp_path_factory.mktemp("pins")
    windows = tmp_path / "windows.csv"
    assert main(["synth", "--kind", "windows", "--seed", "3", "--out-edges", str(windows)]) == 0
    weighted = tmp_path / "weighted.csv"
    weighted.write_text(_weighted(windows.read_text().splitlines()))
    return {"windows.csv": str(windows), "weighted.csv": str(weighted)}


# The workflow steps "dense submatrices" and "expansion kernel on degenerate
# and padded shapes": one bucket (every edge in one 1x1 cell), 2x2 matrices
# in three layers, and top-k asking for 9 seeds in windows of 4 cells.
DENSE_PINS = [
    ("anoedge-g --input windows.csv",
     "ae2a96cfb1b83c3c3a76d0f15abe66e00728f91fd96945305475e239f95f5040"),
    ("anoedge-g --input windows.csv --rows 3 --buckets 16 --alpha 0.5",
     "698ca933606843a77bad9481fa1f2216314ac9b130002aaa3112af75597f8779"),
    ("anoedge-l --input windows.csv",
     "6c947cdd313c8e3ef5d66c98c8122e3cddc39f5b473b48a7233b085e212a0a7f"),
    ("anoedge-l --input windows.csv --rows 3 --buckets 16 --alpha 0.5",
     "d820caddb2e797051fed94f6d3519c227c382005731f1864e52dcf145ff38b2a"),
    ("anograph --input windows.csv --window-ticks 10",
     "0bde22c273381a4e6c2f7c6fc337de65dc74e9818df1272dad772e245fd176b9"),
    ("anograph-k --input windows.csv --window-ticks 10",
     "4f7f01b27976deea8f29e0096419e0ec356e1367255129b5dd19be54dc0ec7f4"),
    ("anograph --input windows.csv --window-ticks 3 --rows 3 --buckets 8",
     "5d902426c92f13cda206f72f45cc54ee0f966f063077cdc8d363db28b2935811"),
    ("anoedge-g --input weighted.csv --has-weight",
     "fe33fbd7e50cbde69a2caf4fdd9521869c9615149dd191cf1643ebdbf7d3cddf"),
    ("anograph-k --input weighted.csv --has-weight --window-ticks 10",
     "9b8a1c28498371c2d3cc187b62251ae7b3469b9cc661ce3725df0dedab479d89"),
    ("anoedge-l --input weighted.csv --has-weight",
     "bb292d5e938f37c31500fd1d8e1a4ad572dc9030ecc4fe6bef0a35d0f339f8b6"),
    ("anoedge-g --input windows.csv --buckets 1",
     "aa83da14ed226748da22817ff5cb69a6baf86e1670702cca374a848e11cecb61"),
    ("anoedge-g --input windows.csv --rows 3 --buckets 2",
     "a917f96b2b57e0b2a24de6412dbf9249f89022478f497ddf0d98878bffa3a746"),
    ("anograph-k --input windows.csv --window-ticks 10 --buckets 2 --k 9",
     "e4edc713b3b57762012f824ac49619529465978f8605c0520c3c85891e13d334"),
]


@pytest.mark.parametrize("command,digest", DENSE_PINS, ids=[c for c, _ in DENSE_PINS])
def test_dense_pins(inputs, capsys, command, digest):
    argv = [inputs.get(arg, arg) for arg in command.split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
