"""Fixed-seed CLI output pins, run in process through ``cli.main``.

Each pin is a command over a fixed input and the sha256 of its stdout. The
values are the ones ``.github/workflows/tier1.yml`` checks through the
installed script; they must never change, since fixed seeds must give
byte-identical output. The inputs are built here as the workflow builds them.
"""

import hashlib
import sys
from pathlib import Path

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


def _string_ids(lines):
    """The workflow's copy of a stream with every id a string, n<u> for
    sources and h<v> for destinations:

        awk -F, '{print "n" $1 ",h" $2 "," $3}' attack.csv
    """
    return "".join("n{},h{},{}\n".format(*line.split(",")) for line in lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The workflow's edge streams: ``synth --kind windows --seed 3`` (6150
    edges) and its weighted copy, the README quick start's burst stream and
    its labels, the short-ticks burst stream (3040 edges), and ``synth
    --kind attack --seed 5`` (43146 edges) and its string-id copy."""
    tmp_path = tmp_path_factory.mktemp("pins")
    paths = {name: tmp_path / name for name in (
        "windows.csv", "weighted.csv", "edges.csv", "labels.txt", "sparse.csv", "attack.csv",
        "attack-str.csv",
    )}
    synth = [
        ["--kind", "windows", "--seed", "3", "--out-edges", paths["windows.csv"]],
        ["--kind", "burst", "--seed", "7", "--out-edges", paths["edges.csv"],
         "--out-labels", paths["labels.txt"]],
        ["--kind", "burst", "--seed", "7", "--n-background", "3000", "--n-ticks", "2000",
         "--n-burst", "40", "--burst-span", "1", "--burst-tick", "1500",
         "--out-edges", paths["sparse.csv"]],
        ["--kind", "attack", "--seed", "5", "--out-edges", paths["attack.csv"]],
    ]
    for argv in synth:
        assert main(["synth"] + [str(arg) for arg in argv]) == 0
    paths["weighted.csv"].write_text(_weighted(paths["windows.csv"].read_text().splitlines()))
    paths["attack-str.csv"].write_text(_string_ids(paths["attack.csv"].read_text().splitlines()))
    return {name: str(path) for name, path in paths.items()}


def _stdout_sha256(inputs, capsys, command):
    argv = [inputs.get(arg, arg) for arg in command.split()]
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
    assert _stdout_sha256(inputs, capsys, command) == digest


# The workflow steps "short ticks" (1-6 edges per tick and one tick of 42:
# nearly every edge takes the per-item step), "midas on string ids" and
# "midas on many pieces of long ticks" (about 108 edges per tick, 11 pieces
# of up to 4096 edges).
EDGE_PINS = [
    ("midas --input sparse.csv --flag-epsilon 0.05",
     "2098c9ac914714c2cc8956b284eacea5367031df941e921b8f517d621bd29201"),
    ("midas-r --input sparse.csv --flag-epsilon 0.05",
     "5e2738b4a0322d9a9b37a539d6c471a992eda99db21c9c6fc77ea7e622dc6e65"),
    ("midas-f --input sparse.csv",
     "ea4a84365e60c108082b1115443fa65984ad45fc1016e81a0e5d4700ef0ee0cd"),
    ("midas-r --input attack-str.csv --flag-epsilon 0.05",
     "9dce13e9e15e0aa5255bfd8c80a3e84715a367d03e8c50bd2be57f394866cb01"),
    ("midas-f --input attack-str.csv",
     "5eaa9a46324f5a6967fdacbcc8b6c9acedb2a72e2a0bf447e818d8de68beb8e2"),
    ("midas --input attack.csv --flag-epsilon 0.05",
     "6a2178e4758da3ff07f952c2e6c8641a8961721cb4bfb15e37beaf7f4698541a"),
    ("midas-r --input attack.csv --score-mode sum --flag-epsilon 0.05",
     "6361fd511644b6f28229883946785d12415fcbbc52f90b6dcaa9756fd89cc744"),
    ("midas-f --input attack.csv --score-mode sum",
     "520891a52bf4e5a2bc538ed3b1a785b08985d490ef27a1618d213e5a6a1dee50"),
]


@pytest.mark.parametrize("command,digest", EDGE_PINS, ids=[c for c, _ in EDGE_PINS])
def test_edge_pins(inputs, capsys, command, digest):
    assert _stdout_sha256(inputs, capsys, command) == digest


def test_readme_quick_start(inputs, capsys, monkeypatch, tmp_path):
    """The workflow's README quick start: the AUC string, then the same
    scores from stdin and from copies with a byte-order mark, CRLF line ends
    and no newline after the last line."""
    edges = inputs["edges.csv"]
    assert main(["midas-r", "--input", edges, "--eval", "--labels", inputs["labels.txt"]]) == 0
    assert capsys.readouterr().out == '{"auc": 0.9981764}\n'
    assert main(["midas-r", "--input", edges]) == 0
    scores = capsys.readouterr().out
    with open(edges, encoding="utf-8") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["midas-r"]) == 0
    assert capsys.readouterr().out == scores
    text = Path(edges).read_bytes()
    copies = {
        "edges-bom.csv": b"\xef\xbb\xbf" + text,
        "edges-crlf.csv": text.replace(b"\n", b"\r\n"),
        "edges-no-eol.csv": text.rstrip(b"\n"),
    }
    for name, data in copies.items():
        (tmp_path / name).write_bytes(data)
        assert main(["midas-r", "--input", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out == scores, name
