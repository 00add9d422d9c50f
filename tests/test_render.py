import re
import sys

import pytest

from sldtree.engine import (Limits, NodeStatus, SearchNode, SearchTree,
                            build_tree)
from sldtree import render
from sldtree.fixtures import FIXTURES, load_fixture
from sldtree.kb import goal_text
from sldtree.reader import parse_program, parse_query
from sldtree.render import MIN_WIDTH, RenderOptions, render_text
from test_golden import DB

GLYPHS = {"success": "[]", "fail": "x", "pruned": "X", "truncated": "..."}


def build(src, query, **kw):
    return build_tree(parse_program(src), parse_query(query), **kw)


def fixture_tree(name):
    (f,) = [f for f in FIXTURES if f.name == name]
    return build_tree(load_fixture(name), parse_query(f.query))


def test_two_fact_tree_golden():
    tree = build("p(a). p(b).", "p(X)")
    assert render_text(tree) == (
        "   [p(X)]\n"
        "     / \\\n"
        "X=a /    \\ X=b\n"
        "   []   []\n")


def test_three_way_tree_golden():
    tree = build("p(a). p(b). p(c) :- fail.", "p(X), fail")
    assert render_text(tree) == (
        "         [p(X),fail]\n"
        "         /   /     \\\n"
        "X=a /        | X=b      \\ X=c\n"
        " [fail]   [fail]   [fail,fail]\n"
        "    |        |          |\n"
        "    |        |          |\n"
        "    x        x          x\n")


def test_single_leaf_tree():
    tree = build("p.", "p")
    lines = render_text(tree).splitlines()
    assert lines[0] == "[p]"
    assert lines[-1] == "[]"


def test_leaf_glyphs():
    tree = build("p(a).", "p(b)")
    assert render_text(tree).splitlines()[-1].strip() == "x"
    tree = build("p(a). p(b).", "p(X), !")
    text = render_text(tree)
    assert "X" in text.split()  # pruned sibling, one level above the leaf
    assert text.splitlines()[-1].strip() == "[]"
    tree = build("p :- p.", "p", limits=Limits(max_depth=3))
    assert render_text(tree).splitlines()[-1].strip() == "..."


def test_width_floor_is_enforced():
    with pytest.raises(ValueError):
        RenderOptions(max_width=MIN_WIDTH - 1)
    RenderOptions(max_width=MIN_WIDTH)  # boundary is allowed


def test_pruned_branches_show_no_binding_labels():
    tree = build("p(a). p(zebra).", "p(X), !")
    text = render_text(tree)
    assert "X=a" in text
    # the pruned alternative keeps its position but loses its label
    assert "X=zebra" not in text
    assert "X" in text.split()


def test_no_trailing_spaces_and_final_newline():
    for name in ("member", "cut-abc", "youngest"):
        text = render_text(fixture_tree(name))
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert all(line == line.rstrip() for line in text.splitlines())


@pytest.mark.parametrize("fixture", [f.name for f in FIXTURES])
def test_rendering_is_deterministic(fixture):
    for width in (120, 60, 40):
        opts = RenderOptions(max_width=width)
        first = render_text(fixture_tree(fixture), opts)
        second = render_text(fixture_tree(fixture), opts)
        assert first == second


def dfs_leaf_glyphs(node):
    if not node.children:
        return [GLYPHS[node.status.value]]
    out = []
    for child in node.children:
        out.extend(dfs_leaf_glyphs(child))
    return out


@pytest.mark.parametrize("fixture", [f.name for f in FIXTURES])
def test_leaves_read_left_to_right_in_search_order(fixture):
    # wide enough that nothing is staggered into bands; every leaf then
    # occupies its own column range and a column scan is the search order
    tree = fixture_tree(fixture)
    text = render_text(tree, RenderOptions(max_width=100000))
    hits = []
    for line in text.splitlines():
        for m in re.finditer(r"\S+", line):
            if m.group() in GLYPHS.values():
                hits.append((m.start(), m.group()))
    hits.sort()
    columns = [c for c, _ in hits]
    assert len(set(columns)) == len(columns)
    assert [g for _, g in hits] == dfs_leaf_glyphs(tree.root)


def test_narrow_rendering_keeps_every_leaf():
    # staggered bands rearrange geometry but never drop leaves
    tree = fixture_tree("descend")
    expected = dfs_leaf_glyphs(tree.root)
    for width in (40, 60, 120):
        text = render_text(tree, RenderOptions(max_width=width))
        found = [m.group()
                 for line in text.splitlines()
                 for m in re.finditer(r"\S+", line)
                 if m.group() in GLYPHS.values()]
        assert sorted(found) == sorted(expected)


def test_different_trees_render_differently():
    one = render_text(build("p(a). p(b).", "p(X)"))
    two = render_text(build("p(a). p(c).", "p(X)"))
    three = render_text(build("p(a).", "p(X)"))
    assert len({one, two, three}) == 3


def test_edge_labels_stack_on_multi_binding_edges():
    tree = build("loves(vincent, mia). jealous(A, B) :- loves(A, C).",
                 "jealous(X, Y)")
    text = render_text(tree)
    assert "X=A" in text and "Y=B" in text


def test_flat_table_keeps_every_label():
    # a wide flat row keeps a few children and hangs the rest on the
    # trunk, each with its label beside its branch
    names = [f"k{i:03d}" for i in range(100)]
    tree = build("".join(f"fact({x}). " for x in names), "fact(X)")
    text = render_text(tree, RenderOptions(max_width=120))
    assert [x for x in names if f"X={x}" not in text] == []


def test_chain_deeper_than_the_recursion_limit_draws():
    # not serialized: at this depth the indented document is about 40 MB
    limit = sys.getrecursionlimit()
    tree = build("p :- p.", "p", limits=Limits(max_depth=limit + 100))
    depth = 0
    node = tree.root
    while node.children:
        (node,) = node.children
        depth += 1
    assert depth > limit and node.status is NodeStatus.TRUNCATED
    lines = render_text(tree).splitlines()
    assert lines.count("[p]") == depth and lines[-1] == "..."
    assert sys.getrecursionlimit() == limit


def shown_strings(tree):
    """Every open node's [goals] and every label line of a child that is
    not pruned: the text a drawing of `tree` has to show."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.status is NodeStatus.OPEN:
            out.append(f"[{','.join(map(goal_text, node.goals))}]")
        for child in node.children:
            if child.status is not NodeStatus.PRUNED:
                out += child.label.lines()
            stack.append(child)
    return out


def test_perm_3_draws_every_goal_list_and_label():
    # a dropped child's vertical run once wrote over two of them
    tree = build((DB / "perm.pl").read_text(), "perm([a,b,c],P)")
    text = render_text(tree, RenderOptions(max_width=120))
    wanted = shown_strings(tree)
    assert len(wanted) == 129
    assert [s for s in wanted if s not in text] == []


def _open(query="", kids=()) -> SearchNode:
    """An open node with the goals of `query` and these children."""
    return SearchNode(parse_query(query) if query else (),
                      children=list(kids))


def _tree(root: SearchNode) -> SearchTree:
    return SearchTree(root, (), [])


def test_a_run_does_not_step_into_the_blanks_of_a_quoted_atom():
    # the first and last kids are dropped; when runs tested cells, the
    # last one's run crossed the first one's band and stepped into the
    # three blanks inside 'a   b'
    tree = _tree(_open("", [_open("p('a   b'), p('a   b')")] + [_open()] * 5
                       + [_open("", [_open()] * 4)]))
    text = render_text(tree, RenderOptions(max_width=40))
    assert any("[p('a   b'),p('a   b')]" in line
               for line in text.splitlines())


def render_lines(tree):
    """Lines of render.py that render_text runs to draw `tree`: the
    layout and the painting, not the node text other modules write."""
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def in_render(frame, event, arg):
        if frame.f_code.co_filename == render.__file__:
            return count_lines
        return None

    sys.settrace(in_render)
    try:
        render_text(tree)
    finally:
        sys.settrace(None)
    return lines


def chain(depth):
    return build("p :- p.", "p", limits=Limits(max_depth=depth))


def append_split(n):
    items = ",".join(map(str, range(1, n + 1)))
    return build_tree(load_fixture("append"),
                      parse_query(f"append(X,Y,[{items}])"))


@pytest.mark.parametrize("shape, n", [(chain, 100), (append_split, 20)],
                         ids=("chain", "append-split"))
def test_drawing_is_linear_in_the_tree(shape, n):
    # the output of both shapes doubles with n; a layout that copied each
    # line into every ancestor would do about four times the work
    assert render_lines(shape(2 * n)) / render_lines(shape(n)) <= 2.5


def test_drawing_with_nested_drops_is_linear_in_its_output():
    # perm 4 drops bands inside dropped bands, which neither shape above
    # does, and its output is six times perm 3's; a drawing linear in its
    # output does no more traced work per byte on the bigger tree
    def lines_per_byte(items):
        tree = build((DB / "perm.pl").read_text(), f"perm([{items}],P)")
        return render_lines(tree) / len(render_text(tree))
    assert lines_per_byte("a,b,c,d") <= lines_per_byte("a,b,c")


def perm(n):
    items = ",".join("abcdefgh"[:n])
    return build((DB / "perm.pl").read_text(), f"perm([{items}],P)")


def fact_table(n):
    return build(" ".join(f"t({i})." for i in range(n)), "t(X)")


@pytest.mark.parametrize("shape, small, big",
                         [(perm, 3, 4), (fact_table, 40, 80)],
                         ids=("perm", "fact-table"))
def test_each_byte_drawn_is_inked_a_bounded_number_of_times(
        monkeypatch, shape, small, big):
    # traced lines miss the copying done inside one C-level call, so this
    # counts the characters of every row render._ink makes. The drawing
    # inks each of its rows once; a layout that inked a block's rows into
    # each of its ancestors, or once for each child it drops, would ink
    # more per byte on the bigger tree
    inked = 0
    real_ink = render._ink

    def ink(runs):
        nonlocal inked
        row = real_ink(runs)
        inked += len(row)
        return row

    monkeypatch.setattr(render, "_ink", ink)
    per_byte = []
    for n in (small, big):
        tree = shape(n)
        inked = 0
        text = render_text(tree)
        per_byte.append(inked / len(text))
    assert per_byte[1] <= 1.5 * per_byte[0]


def test_a_fact_table_draws_in_bytes_linear_in_its_fan_out():
    # a dropped fact hangs on the trunk on rows of its own; when each
    # dropped child's run crossed every row above it, the drawing grew
    # with the square of the fan-out, x4.2 from 500 facts to 1,000
    size = [len(render_text(fact_table(n))) for n in (500, 1000)]
    assert size[1] / size[0] <= 2.2
