"""The drawing against the pasting layout it replaced, what it must
show, and that both kinds of node write the same text.

render_text keeps each child block where it is placed and paints the
drawing once; tests/reference_render.py keeps the layout that pasted
every child's lines into each of its ancestors. Both must draw the same
bytes: on generated view trees with fan-outs up to 12 (so children are
dropped onto bands of their own), multi-line labels, goal texts with
spaces and every status, at widths 40 to 140; and on every bundled
fixture and every program in tests/golden/db, at widths 40, 60 and 120.

Goals and labels are generated as the printer writes them: spaces
inside, never whitespace at either end.

On the same programs and widths, and on two trees that once lost text,
every open node's goal list and every label line of an edge that is not
pruned is drawn on one line, and the canvas writes each run and label
only on blank cells, with no child block waiting to be pasted. These
draw the SearchTree itself, as the command line does; a tree and its
to_view() copy are written to the same bytes by both writers.
"""
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_render import reference_render
from sldtree import render
from sldtree.engine import Limits, build_tree
from sldtree.fixtures import FIXTURES, fixture_names, load_fixture
from sldtree.reader import parse_program, parse_query
from sldtree.render import RenderOptions, render_text
from sldtree.serialize import (ViewEdge, ViewNode, ViewTree, serialize,
                               to_view)
from test_golden import DB, DRAWN, SCALED
from test_render import _open, perm, shown_strings

STATUSES = ("open", "success", "fail", "pruned", "truncated")

GOALS = ("p(X)", "q", "V < 10", "\\+ (p(a),q)", "X = 'a b'", "!", "fail",
         "append([a,b],Y,[a,b,c,d])", "long_predicate_name(Alpha,Beta,Gamma)")
TERMS = ("a", "[]", "[1,2,3]", "'a b'", "f(g(Y'),h)", "succ(succ(0))",
         "[H'''''|T''']")
NAMES = ("X", "Y", "Who", "H'''''", "T''")


def _printed(pool: tuple[str, ...]) -> st.SearchStrategy[str]:
    words = st.text(alphabet="abXY_(),[]<=+\\' ", min_size=1, max_size=16)
    return st.one_of(st.sampled_from(pool),
                     words.map(str.strip).filter(bool))


goals = st.lists(_printed(GOALS), max_size=4).map(tuple)
labels = st.lists(st.tuples(st.sampled_from(NAMES), _printed(TERMS)),
                  max_size=4).map(tuple)
leaves = st.builds(ViewNode, goals, st.sampled_from(STATUSES))


def _inner(children):
    edges = st.lists(st.builds(ViewEdge, labels, children), min_size=1,
                     max_size=12)
    return st.builds(ViewNode, goals, st.sampled_from(STATUSES),
                     edges.map(tuple))


views = st.builds(ViewTree, st.recursive(leaves, _inner, max_leaves=40),
                  st.booleans())


def _flat(n: int) -> ViewTree:
    leaf = ViewNode(("long_predicate_name(Alpha,Beta,Gamma)",), "fail")
    edges = tuple(ViewEdge((("X", f"k{i}"), ("Y", "'a b'")), leaf)
                  for i in range(n))
    return ViewTree(ViewNode(("p(X,Y)", "V < 10"), "open", edges), False)


# a dropped child's vertical run meets a kept child and steps around it
_CROSSED = ViewTree(_open((), [_open(), _open(["p(X)"] * 2),
                               _open((), [_open()] * 4), _open()]), False)


@settings(deadline=None)
@given(views, st.integers(40, 140))
@example(_flat(12), 40)
@example(_CROSSED, 40)
def test_the_drawing_is_the_pasting_layouts(view, width):
    assert render_text(view, RenderOptions(max_width=width)) == (
        reference_render(view, width))


def _program(db: str):
    if db in fixture_names():
        return load_fixture(db)
    return parse_program(Path(db).read_text(encoding="utf-8"))


def _cases():
    """(name, program, query, limits): the fixtures with their queries and
    the golden cases drawn from tests/golden/db."""
    out = [(f.name, f.name, f.query, Limits()) for f in FIXTURES]
    for name, db, query, extra in SCALED + tuple(d + ([],) for d in DRAWN):
        flags = dict(zip(extra[::2], extra[1::2]))
        depth = int(flags.get("--max-depth", Limits().max_depth))
        out.append((name, db, query, Limits(max_depth=depth)))
    return out


def test_the_cases_cover_every_golden_program():
    used = {Path(db).name for _, db, _, _ in _cases()}
    assert {p.name for p in DB.glob("*.pl")} <= used


@pytest.mark.parametrize("db, query, limits", [c[1:] for c in _cases()],
                         ids=[c[0] for c in _cases()])
def test_programs_draw_as_the_pasting_layout_does(db, query, limits):
    tree = build_tree(_program(db), parse_query(query), limits)
    for width in (40, 60, 120):
        assert render_text(tree, RenderOptions(max_width=width)) == (
            reference_render(to_view(tree), width)), width


@pytest.mark.parametrize("db, query, limits", [c[1:] for c in _cases()],
                         ids=[c[0] for c in _cases()])
def test_a_tree_and_its_view_write_the_same_text(db, query, limits):
    tree = build_tree(_program(db), parse_query(query), limits)
    view = to_view(tree)
    assert serialize(tree) == serialize(view)
    for width in (40, 60, 120):
        options = RenderOptions(max_width=width)
        assert render_text(tree, options) == render_text(view, options), width


def _missing(tree, width: int) -> list[str]:
    """The strings of shown_strings(to_view(tree)) that no line of the
    drawing of `tree` at `width` holds."""
    lines = render_text(tree, RenderOptions(max_width=width)).splitlines()
    return [s for s in shown_strings(to_view(tree))
            if not any(s in line for line in lines)]


@pytest.mark.parametrize("db, query, limits", [c[1:] for c in _cases()],
                         ids=[c[0] for c in _cases()])
def test_programs_draw_every_goal_list_and_label(db, query, limits):
    tree = build_tree(_program(db), parse_query(query), limits)
    for width in (40, 60, 120):
        assert _missing(tree, width) == [], width


@pytest.mark.parametrize("view", [_CROSSED, _flat(12)],
                         ids=("crossed", "flat-12"))
def test_runs_and_forced_labels_draw_every_string(view):
    # a vertical run once wrote over [p(X),p(X)] in the first; the second
    # forces its compose, which once skipped the labels that did not fit
    assert _missing(view, 40) == []


def _trees_written():
    """(name, tree, width): the cases at widths 40, 60 and 120, perm 3
    and the crossed tree."""
    for name, db, query, limits in _cases():
        tree = build_tree(_program(db), parse_query(query), limits)
        for width in (40, 60, 120):
            yield name, tree, width
    yield "perm-3", perm(3), 120
    yield "crossed", _CROSSED, 40


def test_every_write_lands_on_blank_cells_with_no_block_placed(monkeypatch):
    # every run glyph and label tests its cells first, and a test pastes
    # the placed blocks, so nothing is ever drawn over
    real_write = render._Canvas.write
    where = None

    def write(canvas, r, c, text):
        placed = len(canvas.kids)
        assert placed == 0, (where, r, c, text)
        assert canvas.free(r, c, c + len(text)), (where, r, c, text)
        real_write(canvas, r, c, text)

    monkeypatch.setattr(render._Canvas, "write", write)
    for name, tree, width in _trees_written():
        where = name, width
        render_text(tree, RenderOptions(max_width=width))
