"""Scenario I/O against its previous implementation.

The loader parses with libyaml (``yaml.CSafeLoader``); the pure-Python
``yaml.SafeLoader`` it replaced is kept here as the oracle.  The emitters
format each cell once per table; a copy of the per-emitter formatting they
replaced is kept here as the oracle for their bytes.
"""

import csv
import math
import re
from pathlib import Path
from typing import Any

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from m3sim.cli import bundled_scenario
from m3sim.scenario import ResultTable, emit_csv, emit_plotdata

README = Path(__file__).resolve().parents[1] / "README.md"

LITERALS = """\
inf: .inf
minus_inf: -.inf
nan: .nan
exponent_with_point: 1.0e-6
exponent_without_point: 1e-6
plain_float: 0.15
whole_float: 1000.0
ints: [0, -7, 42, 0x1f, 017, 1_000]
booleans: [true, false, yes, no, on, off]
nulls: [~, null, NULL]
empty:
strings: [MDR, "u^7(4,15)", 'quoted', café]
flow_map: {H: 4, R: 1000.0, K: 7}
block_map:
  kind: mLIR
  p: 0.9
  fallback: false
pairs: [[3, 250], [4, 345.5], [2, -60]]
block_pairs:
  - [1, 30]
  - - 2
    - 90
"""


def _corpus():
    for name in ("default", "offload"):
        yield pytest.param(bundled_scenario(name).read_text(encoding="utf-8"), id=name)
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        yield pytest.param(block, id=f"readme-{i}")
    yield pytest.param(LITERALS, id="literals")


def _same(a: Any, b: Any) -> bool:
    """``==`` with ``type()`` checked at every level; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("text", list(_corpus()))
def test_libyaml_loader_agrees_with_the_pure_python_loader(text):
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert _same(yaml.load(text, Loader=yaml.CSafeLoader), expected)


def test_literal_corpus_covers_the_tricky_scalars():
    doc = yaml.load(LITERALS, Loader=yaml.CSafeLoader)
    assert doc["inf"] == math.inf and doc["minus_inf"] == -math.inf
    assert math.isnan(doc["nan"])
    assert doc["exponent_with_point"] == 1e-6
    assert doc["exponent_without_point"] == "1e-6"  # YAML 1.1 floats need the point
    assert doc["booleans"] == [True, False] * 3
    assert doc["nulls"] == [None] * 3 and doc["empty"] is None


# -- emitters ----------------------------------------------------------------


def _parent_fmt(value: Any) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    if hasattr(value, "item"):
        return _parent_fmt(value.item())
    return str(value)


def _parent_emit_csv(table: ResultTable, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_parent_fmt(v) for v in row])


def _parent_emit_plotdata(table: ResultTable, path: Path) -> None:
    sweep = table.sweep or table.columns[0]
    key = table.columns.index(sweep)
    rest = [j for j in range(len(table.columns)) if j != key]
    groups: dict[Any, list[tuple]] = {}
    for row in table.rows:
        groups.setdefault(row[key], []).append(row)
    lines = [f"# columns: {' '.join(table.columns[j] for j in rest)}"]
    for value, rows in groups.items():
        lines.append(f"# {sweep} = {_parent_fmt(value)}")
        for row in rows:
            lines.append(" ".join(_parent_fmt(row[j]) or "nan" for j in rest))
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


class Tagged(float):
    def __repr__(self):
        return "Tagged"

    __str__ = __repr__


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00")),
    st.text(alphabet=' ,"\n\r;x'),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats().map(Tagged),
)

_EQUAL_KEYS = st.sampled_from([0, 0.0, -0.0, False, np.float64(-0.0), 1, 1.0, True, np.int64(1)])


@st.composite
def tables(draw):
    width = draw(st.integers(1, 5))
    columns = tuple(f"c{j}" for j in range(width - 1)) + ("last,col",)
    key = draw(st.integers(0, width - 1))
    # the sweep column repeats a few values so the plot data has real blocks,
    # some of them equal as keys but printed differently (1, 1.0, True)
    keys = draw(st.lists(st.one_of(_CELLS, _EQUAL_KEYS), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = [draw(_CELLS) for _ in range(width)]
        row[key] = draw(st.sampled_from(keys))
        rows.append(tuple(row))
    sweep = draw(st.sampled_from([None, columns[key]]))
    if sweep is None:
        rows = [(row[key], *row[:key], *row[key + 1 :]) for row in rows]
        columns = (columns[key], *columns[:key], *columns[key + 1 :])
    return columns, rows, sweep


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables())
def test_emitters_match_the_parent_emitters(tmp_path_factory, case):
    columns, rows, sweep = case
    out = tmp_path_factory.mktemp("emit")
    _parent_emit_csv(ResultTable(columns, rows, sweep), out / "parent.csv")
    _parent_emit_plotdata(ResultTable(columns, rows, sweep), out / "parent.dat")
    expected = (out / "parent.csv").read_bytes(), (out / "parent.dat").read_bytes()

    csv_first = ResultTable(columns, rows, sweep)
    emit_csv(csv_first, out / "a.csv")
    emit_plotdata(csv_first, out / "a.dat")
    plot_first = ResultTable(columns, rows, sweep)
    emit_plotdata(plot_first, out / "b.dat")
    emit_csv(plot_first, out / "b.csv")
    emit_csv(csv_first, out / "c.csv")  # emitting again reads the same text
    emit_plotdata(csv_first, out / "c.dat")
    for name in "abc":
        got = (out / f"{name}.csv").read_bytes(), (out / f"{name}.dat").read_bytes()
        assert got == expected, name


# Tables whose text csv quotes somewhere, and one it does not, each with
# the bytes csv.writer gives.
CSV_LITERALS = {
    "single-column-with-empty-cells": (("only",), [(None,), ("x",), ("",), (1.5,)]),
    "quote": (("a", "b"), [('say "hi"', 1), ("x", 2.0)]),
    "comma": (("a", "b"), [("x,y", 1), ("x", 2.0)]),
    "carriage-return": (("a", "b"), [("cr\rhere", None), ("x", 2.0)]),
    "newline": (("a", "b"), [("line\nbreak", 3), ("x", 2.0)]),
    "all-four": (
        ("a", "b"),
        [('say "hi"', 1), ("x,y", 2.0), ("cr\rhere", None), ("line\nbreak", 3)],
    ),
    "comma-in-the-header": (("c0", "last,col"), [(1, 2.5), (2, 3.5)]),
    "comma-in-a-numeric-table": (
        ("power", "h", "label"),
        [(0.1, 2, "a"), (0.2, 3, "one, two"), (0.35, 4, "b")],
    ),
    "plain": (("step", "chi", "crossing"), [(1, 0.5, None), (1, 0.25, 1e-300), (2, -0.0, "x")]),
}


@pytest.mark.parametrize("name", CSV_LITERALS)
def test_csv_literals_match_csv_writer_bytes(tmp_path, name):
    columns, rows = CSV_LITERALS[name]
    _parent_emit_csv(ResultTable(columns, rows), tmp_path / "parent.csv")
    emit_csv(ResultTable(columns, rows), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "parent.csv").read_bytes()
