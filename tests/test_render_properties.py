"""What the drawing must show, and that it is drawn by construction.

The layout places every piece once, so the properties are checked on
its blocks: no two pieces share a cell and every piece lies inside its
block; every run, a dropped child's branch too, has one glyph per row, each
/, | or \\ as the run steps left, down or right from the row above,
and its last glyph is directly above its child's anchor; the trunk that
dropped children hang on has a glyph on every row from the band down to
its last branch. And every open node's goal list and every label line
of an edge that is not pruned is drawn whole on one line.

Both are checked on generated trees with fan-outs up to 12 (so
children are dropped onto the trunk), multi-line labels, names with
blanks, quotes and the characters JSON escapes, and every status, at
widths 40 to 140; on trees built from generated programs with
variables, truncated ones too, at widths 40 and 120, where the
canonical document must also be json.dumps of the plain one; and on
every bundled fixture and every program in tests/golden/db, at widths
40, 60 and 120. All of them draw the SearchTree itself, as the command
line does.
"""
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sldtree import render
from sldtree.engine import (EdgeLabel, Limits, NodeStatus, SearchNode,
                            SearchTree, build_tree)
from sldtree.errors import CyclicTermError
from sldtree.fixtures import FIXTURES, fixture_names, load_fixture
from sldtree.reader import parse_program, parse_query
from sldtree.render import RenderOptions, render_text
from sldtree.serialize import serialize
from sldtree.terms import Atom, Variable
from test_golden import DB, DRAWN, SCALED
from test_properties import (TRICKY, reference_doc, search_trees,
                             var_programs, var_queries)
from test_render import _open, _tree, build, shown_strings

# a goal list or a label line is drawn on one line: the names are made
# of the characters of test_properties' names that break no line
names = st.text(alphabet="".join(TRICKY.splitlines()) + "'a", max_size=16)
trees = search_trees(names, 40, 12)


def _flat(n: int) -> SearchTree:
    goals = parse_query("long_predicate_name(Alpha,Beta,Gamma)")
    x, y = Variable("X"), Variable("Y")
    kids = [SearchNode(goals, NodeStatus.FAIL,
                       EdgeLabel(((x, Atom(f"k{i}")), (y, Atom("a b")))))
            for i in range(n)]
    return _tree(SearchNode(parse_query("p(X,Y), V < 10"), children=kids))


# a dropped child's run once crossed a kept child's box here
_CROSSED = _tree(_open("", [_open(), _open("p(X), p(X)"),
                            _open("", [_open()] * 4), _open()]))


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
@given(trees, st.integers(40, 140))
@example(_flat(12), 40)
@example(_CROSSED, 40)
def test_generated_trees_draw_by_construction(tree, width):
    _check_layout(tree, width)
    assert _missing(tree, width) == []


def test_the_cases_cover_every_golden_program():
    used = {Path(db).name for _, db, _, _ in _cases()}
    assert {p.name for p in DB.glob("*.pl")} <= used


def _missing(tree, width: int) -> list[str]:
    """The strings of shown_strings(tree) that no line of the drawing of
    `tree` at `width` holds."""
    lines = render_text(tree, RenderOptions(max_width=width)).splitlines()
    return [s for s in shown_strings(tree)
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


@pytest.mark.parametrize("tree", [_CROSSED, _flat(12)],
                         ids=("crossed", "flat-12"))
def test_runs_and_forced_labels_draw_every_string(tree):
    # a vertical run once wrote over [p(X),p(X)] in the first; the second
    # once forced its labels far from their runs, and before that lost them
    assert _missing(tree, 40) == []


def test_a_run_that_does_not_move_is_drawn_straight():
    # the middle run was once drawn / on both band rows, one column left
    # of the parent's anchor, though it moves only on the first
    _check_layout(build("p(a). p(b). p(c) :- fail.", "p(X), fail"), 40)


@settings(deadline=None)
@given(var_programs, var_queries)
def test_programs_with_variables_write_and_draw_every_node(program, query):
    try:
        tree = build_tree(program, query, Limits(max_depth=6, max_nodes=200))
    except CyclicTermError:
        return
    want = json.dumps(reference_doc(tree), indent=2, ensure_ascii=False)
    assert serialize(tree) == want + "\n"
    for width in (40, 120):
        _check_layout(tree, width)
        assert _missing(tree, width) == [], width
