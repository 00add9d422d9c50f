"""The drawing against the pasting layout it replaced.

render_text keeps each child block where it is placed and paints the
drawing once; tests/reference_render.py keeps the layout that pasted
every child's lines into each of its ancestors. Both must draw the same
bytes: on generated view trees with fan-outs up to 12 (so children are
dropped onto bands of their own), multi-line labels, goal texts with
spaces and every status, at widths 40 to 140; and on every bundled
fixture and every program in tests/golden/db, at widths 40, 60 and 120.

Goals and labels are generated as the printer writes them: spaces
inside, never whitespace at either end.
"""
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_render import reference_render
from sldtree.engine import Limits, build_tree
from sldtree.fixtures import FIXTURES, fixture_names, load_fixture
from sldtree.reader import parse_program, parse_query
from sldtree.render import RenderOptions, render_text
from sldtree.serialize import ViewEdge, ViewNode, ViewTree, to_view
from test_golden import DB, DRAWN, SCALED

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


def _open(goals=(), kids=()) -> ViewNode:
    return ViewNode(tuple(goals), "open",
                    tuple(ViewEdge((), kid) for kid in kids))


# a dropped child's vertical run crosses a kept child, and wins its cells
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
    view = to_view(build_tree(_program(db), parse_query(query), limits))
    for width in (40, 60, 120):
        assert render_text(view, RenderOptions(max_width=width)) == (
            reference_render(view, width)), width
