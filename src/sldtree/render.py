"""ASCII layout for search trees.

Each node, read through serialize.node_parts() when the layout reaches
it, becomes a block: its own strokes, each a list of (row, column, text)
pieces (its text, a run, a label, the trunk), and its children's
blocks, each placed at a row and column of it. A block's anchor is the
middle of its top line. Every placement is free of collisions by
construction: nothing is tested cell by cell, searched for or retried.

A parent's text sits on row 0, centred over the anchors of its first
and last kept child. Below it is a band of h rows, h one more than the
most lines of any child's label and at least 2. The run to a child
whose anchor is column A has one glyph on each band row r, /, | or \\,
at column P + (A - P) * r // h, P the parent's anchor, so its last
glyph is directly above A; the child's block starts below the band.
Each glyph shows the run's step from the row above (from P on row 1). A
child's label lines sit on the band's bottom rows, a blank away from
its run: on its left for child i < n // 2 of n, on its right otherwise.

Kept children go side by side. Each gap is the smallest that keeps two
neighbouring blocks 3 columns apart, and, wherever the parent lands,
their runs a blank apart on every band row and a blank on either side
of each label line between those runs. A gap depends only on the two
children beside it, so while the row is wider than the width budget
and more than one child is kept, the widest is dropped, and only the
gaps beside it change.

Dropped children hang in source order on a trunk: one more run goes
from the parent's anchor to a one-column first slot of the row, and
then | straight down the left side. Each dropped child branches off it
to the right through a \\ run with its label on its right, its block at
least 2 columns right of the trunk and below everything drawn before
it. The budget is a soft target: a single over-wide leaf still renders
whole, and centred parents drift right down a spine of wide nodes.

render_text paints the drawing once, row by row, from one walk of the
blocks, in time and memory linear in its output.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import SearchTree
from .serialize import Parts, fold, node_parts

MIN_WIDTH = 40
# what a leaf that is not an open goal list is drawn as, by status
GLYPHS = {"success": "[]", "fail": "x", "pruned": "X", "truncated": "..."}

Piece = tuple[int, int, str]  # (row, column, text)


@dataclass(frozen=True)
class RenderOptions:
    max_width: int = 120

    def __post_init__(self):
        if self.max_width < MIN_WIDTH:
            raise ValueError(f"max_width must be at least {MIN_WIDTH}")


@dataclass(eq=False, slots=True)
class _Block:
    """A laid-out subtree: its own strokes and its children's blocks,
    each (block, row, column). Nothing in a block changes once it is
    made, and every piece and child lies inside its width and height."""
    strokes: list[list[Piece]]
    kids: list[tuple[_Block, int, int]]
    width: int
    height: int
    anchor: int


def _ink(runs: list[tuple[int, str]]) -> str:
    """One row from its runs, which never overlap."""
    if len(runs) == 1:
        c, text = runs[0]
        return " " * c + text
    row = ""
    for c, text in sorted(runs):
        row += " " * (c - len(row)) + text
    return row


def _line(lines: list[str], r: int, h: int) -> int:
    """The columns that the label line on band row r takes, with the
    blank beside it: the lines sit on the band's bottom rows."""
    k = r - 1 - h + len(lines)
    return len(lines[k]) + 1 if k >= 0 else 0


def _gap(h: int, u: tuple, v: tuple) -> int:
    """The blank columns between neighbouring slots u and v, each
    (width, anchor, label lines on its left, label lines on its right).
    Runs whose anchors are d apart are at least d * r // h apart on band
    row r, wherever the parent's anchor is."""
    d = max(-(-(2 + _line(u[3], r, h) + _line(v[2], r, h)) * h // r)
            for r in range(1, h + 1))
    return max(3, d - (u[0] - u[1]) - v[1])


def _glyph(above: int, column: int) -> str:
    """A run's glyph on a row: its step from the column on the row above."""
    return "/" if column < above else "\\" if column > above else "|"


def _compose(text: str, edges: list, blocks: list[_Block],
             max_width: int) -> _Block:
    n = len(blocks)
    labels = [[] if status == "pruned" else [f"{k}={t}" for k, t in label]
              for label, status, _ in edges]
    h = max(2, 1 + max(map(len, labels)))
    slots = [(b.width, b.anchor, ls, []) if i < n // 2
             else (b.width, b.anchor, [], ls)
             for i, (b, ls) in enumerate(zip(blocks, labels))]
    slots.append((1, 0, [], []))  # slot n: the trunk, once one is dropped

    # the row as a linked list of slots, with the gap after each
    before: list[int | None] = [None, *range(n - 1), None]
    after: list[int | None] = [*range(1, n), None, 0]
    gaps = [_gap(h, slots[i], slots[i + 1]) for i in range(n - 1)] + [0]
    row = sum(b.width for b in blocks) + sum(gaps)
    dropped: list[int] = []
    for c in sorted(range(n), key=lambda i: (blocks[i].width, i),
                    reverse=True):
        if row <= max_width or len(dropped) == n - 1:
            break
        if not dropped:
            before[0] = n
            gaps.append(_gap(h, slots[n], slots[0]))
            row += 1 + gaps[n]
        p, q = before[c], after[c]
        row -= blocks[c].width + gaps[p] + gaps[c]
        gaps[p] = 0 if q is None else _gap(h, slots[p], slots[q])
        row += gaps[p]
        after[p] = q
        if q is not None:
            before[q] = p
        dropped.append(c)
    dropped.sort()

    xs: list[tuple[int, int]] = []  # (slot, column) along the row
    x, i = 0, n if dropped else 0
    while i is not None:
        xs.append((i, x))
        x += slots[i][0] + gaps[i]
        i = after[i]
    anchors = [x + slots[i][1] for i, x in xs]
    first, last = anchors[1 if dropped else 0], anchors[-1]
    parent = (first + last) // 2

    strokes: list[list[Piece]] = [[(0, parent - len(text) // 2, text)]]
    kids: list[tuple[_Block, int, int]] = []
    bottom = h + 1
    for (i, x), a in zip(xs, anchors):
        run, above = [], parent
        for r in range(1, h + 1):
            col = parent + (a - parent) * r // h
            run.append((r, col, _glyph(above, col)))
            above = col
        strokes.append(run)
        if i == n:
            continue
        lines = labels[i]
        if lines:
            strokes.append([(r, c - 1 - len(t) if i < n // 2 else c + 2, t)
                            for t, (r, c, _) in zip(lines, run[-len(lines):])])
        kids.append((blocks[i], h + 1, x))
        bottom = max(bottom, h + 1 + blocks[i].height)

    if dropped:
        trunk = strokes[1]  # the run to the row's first slot, at column 0
        for i in dropped:
            b, lines = blocks[i], labels[i]
            # k rows of branch, each a column or more right of the last
            k = max(2, len(lines) + 1)
            x = max(2, k - b.anchor)
            trunk += [(r, 0, "|") for r in range(len(trunk) + 1, bottom)]
            run = [(bottom - 1 + j, (x + b.anchor) * j // k, "\\")
                   for j in range(1, k + 1)]
            strokes.append(run)
            if lines:
                strokes.append([(r, c + 2, t) for t, (r, c, _)
                                in zip(lines, run[-len(lines):])])
            kids.append((b, bottom + k, x))
            bottom += k + b.height

    left = min(0, min(c for s in strokes for _, c, _ in s))
    right = max(max(c + len(t) for s in strokes for _, c, t in s),
                max(c + b.width for b, _, c in kids))
    if left:
        strokes = [[(r, c - left, t) for r, c, t in s] for s in strokes]
        kids = [(b, r, c - left) for b, r, c in kids]
    return _Block(strokes, kids, right - left, bottom, parent - left)


def _layout(tree: SearchTree, max_width: int) -> _Block:
    def block(parts: Parts, blocks: list[_Block]) -> _Block:
        text = GLYPHS.get(parts[1]) or f"[{','.join(parts[0])}]"
        if not blocks:
            return _Block([[(0, 0, text)]], [], len(text), 1, len(text) // 2)
        return _compose(text, parts[2], blocks, max_width)
    return fold(node_parts(tree.root),
                lambda p: [node_parts(c) for _, _, c in p[2]], block)


def render_text(tree: SearchTree, options: RenderOptions | None = None) -> str:
    opts = options or RenderOptions()
    root = _layout(tree, opts.max_width)
    rows: list[list[tuple[int, str]]] = [[] for _ in range(root.height)]
    stack = [(root, 0, 0)]
    while stack:
        b, top, left = stack.pop()
        for stroke in b.strokes:
            for r, c, text in stroke:
                rows[top + r].append((left + c, text))
        stack.extend((kid, top + r, left + c) for kid, r, c in b.kids)
    return "\n".join(map(_ink, rows)) + "\n"
