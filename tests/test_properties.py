"""Property tests of the canonical writer and the drawing canvas.

serialize() writes the canonical document by hand; json.dumps of the
equivalent plain document is the oracle it must match byte for byte.
The canvas search for a free connector column must agree with a
column-by-column loop over free().
"""
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from sldtree.render import _Canvas
from sldtree.serialize import (FORMAT_NAME, ViewEdge, ViewNode, ViewTree,
                               deserialize, serialize)

STATUSES = ("open", "success", "fail", "pruned", "truncated")

# characters the JSON writer must escape or pass through unescaped
TRICKY = '"\\/\n\r\t\b\f\x00\x1f\x7f  éß→😀'

texts = st.text(alphabet=st.one_of(st.sampled_from(TRICKY),
                                   st.characters()), max_size=6)
goals = st.lists(texts, max_size=3).map(tuple)
labels = st.lists(st.tuples(texts, texts), max_size=3).map(tuple)
leaves = st.builds(ViewNode, goals, st.sampled_from(STATUSES))


def _inner(children):
    edges = st.lists(st.builds(ViewEdge, labels, children), max_size=3)
    return st.builds(ViewNode, goals, st.sampled_from(STATUSES),
                     edges.map(tuple))


views = st.builds(ViewTree, st.recursive(leaves, _inner, max_leaves=25),
                  st.booleans())


def reference_doc(view: ViewTree) -> dict:
    def node(n: ViewNode) -> dict:
        return {"goals": list(n.goals),
                "status": n.status,
                "children": [{"label": [[a, b] for a, b in e.label],
                              "node": node(e.node)}
                             for e in n.children]}
    return {"format": FORMAT_NAME, "truncated": view.truncated,
            "root": node(view.root)}


@settings(deadline=None)
@given(views)
def test_serialize_prints_what_json_dumps_prints(view):
    want = json.dumps(reference_doc(view), indent=2, ensure_ascii=False)
    assert serialize(view) == want + "\n"


@settings(deadline=None)
@given(views)
def test_deserialize_inverts_serialize(view):
    assert deserialize(serialize(view)) == view


writes = st.lists(st.tuples(st.integers(0, 3), st.integers(-12, 20),
                            st.text(alphabet=" x/", min_size=1, max_size=5)),
                  max_size=8)


def _canvas(offset, ops) -> _Canvas:
    canvas = _Canvas(offset)
    for r, c, text in ops:
        canvas.write(r, c, text)
    return canvas


@given(st.integers(0, 6), writes, st.integers(0, 4), st.integers(-20, 30),
       st.integers(1, 5), st.sampled_from((1, -1)))
def test_free_window_is_the_first_free_step(offset, ops, r, c, width, step):
    canvas = _canvas(offset, ops)
    col = c
    while not canvas.free(r, col, col + width):
        col += step
    assert canvas.free_window(r, c, width, step) == col


@given(st.integers(0, 6), writes, st.integers(0, 4), st.integers(-20, 30),
       st.integers(0, 6))
def test_canvas_keeps_every_cell_written(offset, ops, r, c0, span):
    # a cell dictionary is the model: later writes win, nothing wraps
    canvas = _canvas(offset, ops)
    cells = {}
    for row, c, text in ops:
        for k, ch in enumerate(text):
            cells[row, c + k] = ch
    for (row, c), ch in cells.items():
        assert canvas.rows[row][c + canvas.off] == ch
    blank = all(cells.get((r, c), " ") == " " for c in range(c0, c0 + span))
    assert canvas.free(r, c0, c0 + span) == blank
