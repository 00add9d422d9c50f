"""What the drawing must show, that it is drawn by construction, and
that both kinds of node write the same text.

The layout places every piece once, so the properties are checked on
its blocks: no two pieces share a cell and every piece lies inside its
block; every run, a dropped child's branch too, has one glyph per row, each
/, | or \\ as the run steps left, down or right from the row above,
and its last glyph is directly above its child's anchor; the trunk that
dropped children hang on has a glyph on every row from the band down to
its last branch. And every open node's goal list and every label line
of an edge that is not pruned is drawn whole on one line.

Both are checked on generated view trees with fan-outs up to 12 (so
children are dropped onto the trunk), multi-line labels, goal texts
with spaces and every status, at widths 40 to 140; and on every bundled
fixture and every program in tests/golden/db, at widths 40, 60 and
120. Goals and labels are generated as the printer writes them: spaces
inside, never whitespace at either end. These draw the SearchTree
itself, as the command line does; a tree and its to_view() copy are
written to the same bytes by both writers.
"""
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sldtree import render
from sldtree.engine import Limits, build_tree
from sldtree.fixtures import FIXTURES, fixture_names, load_fixture
from sldtree.reader import parse_program, parse_query
from sldtree.render import RenderOptions, render_text
from sldtree.serialize import (ViewEdge, ViewNode, ViewTree, serialize,
                               to_view)
from test_golden import DB, DRAWN, SCALED
from test_render import _open, build, shown_strings

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


# a dropped child's run once crossed a kept child's box here
_CROSSED = ViewTree(_open((), [_open(), _open(["p(X)"] * 2),
                               _open((), [_open()] * 4), _open()]), False)


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


GLYPHS = ("/", "|", "\\")


def _check_steps(run: list, above: int) -> None:
    """Each glyph of `run` shows its step, /, | or \\, from the column
    of the row above; `above` is that of the row before its first."""
    columns = [above] + [c for _, c, _ in run]
    assert [t for _, _, t in run] == [GLYPHS[(c > a) - (c < a) + 1]
                                       for a, c in zip(columns, columns[1:])]


def _check_block(b: render._Block, top: int, left: int, cells: set) -> None:
    """The construction properties of block `b`, drawn with its row 0 at
    `top` and its column 0 at `left`; `cells` holds the cells drawn so
    far and gets those of b's pieces."""
    for stroke in b.strokes:
        for r, c, text in stroke:
            assert 0 <= r < b.height and 0 <= c <= b.width - len(text)
            for k in range(len(text)):
                assert (top + r, left + c + k) not in cells, (r, c, text)
                cells.add((top + r, left + c + k))
    for kid, r, c in b.kids:
        assert 0 < r <= b.height - kid.height
        assert 0 <= c <= b.width - kid.width
    runs = [s for s in b.strokes if all(t in GLYPHS for _, _, t in s)]
    for run in runs:  # one glyph per row, on the rows in order
        assert [r for r, _, _ in run] == list(range(run[0][0],
                                                    run[0][0] + len(run)))
        if run[0][0] == 1:  # a band's run leaves the parent's anchor
            _check_steps(run, b.anchor)
    ends = {run[-1][:2]: run for run in runs}
    above = [(ends.pop((r - 1, c + kid.anchor), None), c)
             for kid, r, c in b.kids]
    assert all(run for run, _ in above) and len(ends) <= 1
    branches = [(run, c) for run, c in above if run[0][0] > 1]
    if not branches:
        assert not ends
        return
    # the trunk: from the band's first row down to the row above its last
    # branch, | straight down below the band; each branch leaves it to
    # the right, and its block is 2 columns or more right of it
    (trunk,) = ends.values()
    band = b.kids[0][1] - 1
    _, column, _ = trunk[band - 1]
    assert trunk[0][0] == 1
    assert trunk[band:] == [(r, column, "|")
                            for r in range(band + 1, len(trunk) + 1)]
    assert max(run[0][0] for run, _ in branches) == len(trunk) + 1
    for run, c in branches:
        assert run[0][1] > column and c >= column + 2
        _check_steps(run, column)


def _check_layout(tree, width: int) -> None:
    """Check every block of the layout of `tree` at `width`."""
    cells: set = set()
    stack = [(render._layout(tree, width), 0, 0)]
    while stack:
        b, top, left = stack.pop()
        _check_block(b, top, left, cells)
        stack.extend((kid, top + r, left + c) for kid, r, c in b.kids)


@settings(deadline=None)
@given(views, st.integers(40, 140))
@example(_flat(12), 40)
@example(_CROSSED, 40)
def test_views_draw_by_construction(view, width):
    _check_layout(view, width)
    assert _missing(view, width) == []


def test_the_cases_cover_every_golden_program():
    used = {Path(db).name for _, db, _, _ in _cases()}
    assert {p.name for p in DB.glob("*.pl")} <= used


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
def test_programs_draw_by_construction(db, query, limits):
    tree = build_tree(_program(db), parse_query(query), limits)
    for width in (40, 60, 120):
        _check_layout(tree, width)


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
    # once forced its labels far from their runs, and before that lost them
    assert _missing(view, 40) == []


def test_a_run_that_does_not_move_is_drawn_straight():
    # the middle run was once drawn / on both band rows, one column left
    # of the parent's anchor, though it moves only on the first
    _check_layout(build("p(a). p(b). p(c) :- fail.", "p(X), fail"), 40)
