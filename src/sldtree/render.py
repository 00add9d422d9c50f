"""ASCII layout for search trees.

Each node becomes a block with an anchor column (the center of its top
line). A parent block is built bottom-up: lay out the children, place
them side by side, then draw connector runs from the parent's anchor
down to each child's anchor using /, | and \\ glyphs at
integer-interpolated columns. Binding labels sit beside the runs; when
a label does not fit it walks down its run, flips sides, and as a last
resort the connector rows are made taller. No node is dropped, but text
can be lost: a vertical run is drawn over any box or label in its way
(perm([a,b,c],P) loses two strings so; ROADMAP item 4).
The canvas a parent is drawn on grows to the left when a run or label
reaches left of its origin; the block starts at its leftmost written
cell.

When a row of children is wider than the width budget, the widest
children are dropped out of the row one by one and drawn below the
remaining ones, each on its own band with a long connector run. The
budget is a soft target: a single over-wide leaf still renders whole.

A block holds only its own text, runs and labels. Each child stays a
block of its own, placed at a row and column of its parent, and a
block's width, anchor and height come from its own rows and its
children's numbers. A child lands on blank rows, and only runs and
labels drawn after it touch them, so each cell of the drawing is the
block's own where it wrote one, else its child's. A child's row is
copied into its parent only when a dropped child's run or label has to
test the cells of that row, once. render_text then paints the drawing
once, row by row, from one walk of the blocks that goes into a child
only for the rows its parent has not copied. Goals and labels never
start or end with whitespace, as the printer writes them, and only a
space is a blank cell.

Drawing takes time linear in its output, but for the rows a dropped
child's run or label tests: each such row is copied into the block that
tests it. A flat table's output is itself quadratic in its fan-out,
since each dropped child's run crosses every row above it.
"""
from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence, Set as AbstractSet
from dataclasses import dataclass
from operator import sub

from .engine import SearchTree
from .serialize import ViewEdge, ViewNode, ViewTree, fold, to_view

MIN_WIDTH = 40
# what a leaf that is not an open goal list is drawn as, by status
GLYPHS = {"success": "[]", "fail": "x", "pruned": "X", "truncated": "..."}
# the written cells of a row; only a space is a blank cell
_INK = re.compile(r"[^ ]+")


@dataclass(frozen=True)
class RenderOptions:
    max_width: int = 120

    def __post_init__(self):
        if self.max_width < MIN_WIDTH:
            raise ValueError(f"max_width must be at least {MIN_WIDTH}")


@dataclass(eq=False, slots=True)
class _Block:
    """A laid-out subtree. It holds only its own text, runs and labels;
    each child stays a block of its own, placed at a row and column of
    this one. Nothing in a block changes once it is made."""
    rows: Sequence[str]  # its own cells, in the columns of its canvas
    shift: int  # the canvas column of the block's column 0
    # (block, row, column) of each child with rows not built into `rows`,
    # by row, and each one's row, for bisect
    kids: Sequence[tuple[_Block, int, int]]
    tops: Sequence[int]
    # rows 0..full-1, and those in `built`, hold all the cells of their
    # kids, or have none; the rows of the others are still in the kids
    full: int
    built: AbstractSet[int]
    width: int
    height: int
    anchor: int


def _leaf_block(text: str) -> _Block:
    return _Block((text,), 0, (), (), 1, frozenset(), len(text), 1,
                  len(text) // 2)


def _covering(kids: Sequence[tuple[_Block, int, int]], tops: Sequence[int],
              lo: int, hi: int) -> list[tuple[_Block, int, int]]:
    """The kids with a row in lo..hi-1. Kids sit in bands: the kept ones
    share one top row, and each dropped one has a band of its own below
    all earlier kids, so only the last band that starts at or above lo
    can reach down into the range."""
    start = 0
    if lo > tops[0]:
        start = bisect_left(tops, tops[bisect_right(tops, lo) - 1])
    end = len(tops) if hi > tops[-1] else bisect_left(tops, hi)
    return [k for k in kids[start:end] if k[1] + k[0].height > lo]


def _gaps(built: AbstractSet[int], r0: int,
          r1: int) -> list[tuple[int, int]]:
    """The rows r0..r1-1 that are not in `built`, as half-open spans."""
    if not built:
        return [(r0, r1)] if r0 < r1 else []
    spans = []
    for r in sorted(r for r in built if r0 <= r < r1):
        if r > r0:
            spans.append((r0, r))
        r0 = r + 1
    if r0 < r1:
        spans.append((r0, r1))
    return spans


def _enter(stack: list[tuple[_Block, int, int, int, int]],
           ink: list[list[tuple[int, str]]], lo: int,
           kids: Sequence[tuple[_Block, int, int]], tops: Sequence[int],
           top: int, left: int, g0: int, g1: int) -> None:
    """Put on `stack`, as _walk takes it, the kids that have rows in
    g0..g1-1 of a block at row `top` and column `left`. A leaf needs no
    walk: its one row, its text, goes straight to `ink`."""
    for kid, r, c in _covering(kids, tops, g0, g1):
        if kid.kids:
            stack.append((kid, top + r, left + c, top + max(g0, r),
                          top + min(g1, r + kid.height)))
        else:
            ink[top + r - lo].append((left + c, kid.rows[0]))


def _walk(stack: list[tuple[_Block, int, int, int, int]], lo: int,
          ink: list[list[tuple[int, str]]]) -> None:
    """Append to ink[r - lo] the (column, text) runs that the placed
    blocks on `stack` show on row r. An entry is (block, its top row, its
    left column, the first and one past the last row to copy). A kid is
    entered only for the rows its block has not built, so no row of a
    subtree is copied twice. A block's runs come before its kids': the
    whole of a row that holds its kids' cells, which nothing else in the
    block's columns then paints, or else each written piece of the row."""
    while stack:
        b, top, left, r0, r1 = stack.pop()
        rows, shift, built = b.rows, b.shift, b.built
        whole = max(r0, min(r1, top + b.full))
        for line, text in zip(ink[r0 - lo:whole - lo],
                              rows[r0 - top:whole - top]):
            if text:
                line.append((left, text[shift:]))
        if whole == r1:
            continue
        for r in built:
            if whole <= r + top < r1 and rows[r]:
                ink[r + top - lo].append((left, rows[r][shift:]))
        for g0, g1 in _gaps(built, whole - top, r1 - top):
            for j in range(g0, min(g1, len(rows))):
                line = ink[j + top - lo]
                for m in _INK.finditer(rows[j], shift):
                    line.append((left + m.start() - shift, m.group()))
            _enter(stack, ink, lo, b.kids, b.tops, top, left, g0, g1)


def _ink(runs: list[tuple[int, str]]) -> str:
    """One row from its runs in walk order. Runs of one block or of
    blocks side by side never overlap; where a block's run covers a cell
    of its kid's (a vertical connector run does), the block wins, so the
    runs are then painted from the last."""
    if len(runs) == 1:
        c, text = runs[0]
        return " " * c + text
    row = ""
    for c, text in sorted(runs):
        if c < len(row):
            cells = [" "] * max(c + len(t) for c, t in runs)
            for c, text in reversed(runs):
                cells[c:c + len(text)] = text
            return "".join(cells)
        row += " " * (c - len(row)) + text
    return row


class _Canvas:
    """Grow-on-write character grid, one string per row. Columns are
    offset so the layout code may go temporarily negative; a write left
    of the offset grows every row to the left, and the finished block
    starts at the leftmost written cell. Cells left of the grid or past
    the end of a row are free.

    Placed blocks are not copied in. A row's cells from them are built
    into it, under what was written there, before `free` or
    `free_window` first tests that row; a block must be placed on blank
    rows, below every block placed before it or beside those of its
    band."""

    def __init__(self, offset: int):
        self.off = offset
        self.rows: list[str] = []
        self.kids: list[tuple[_Block, int, int]] = []
        self.tops: list[int] = []
        self.full = sys.maxsize  # as in _Block
        self.built: set[int] = set()

    def write(self, r: int, c: int, text: str) -> None:
        rows = self.rows
        if len(rows) <= r:
            rows.extend([""] * (r + 1 - len(rows)))
        c += self.off
        if c < 0:
            self.rows = rows = [" " * -c + row for row in rows]
            self.off -= c
            c = 0
        row = rows[r]
        if len(row) < c:
            row += " " * (c - len(row))
        rows[r] = row[:c] + text + row[c + len(text):]

    def place(self, block: _Block, r: int, c: int) -> None:
        """Put `block` with its column 0 at column c of row r."""
        if not self.kids:
            self.full = r
        self.kids.append((block, r, c))
        self.tops.append(r)

    def build(self, r0: int, r1: int) -> None:
        """Copy the cells of the placed blocks into rows r0..r1-1, under
        what is written there, unless a row holds them already."""
        if r1 <= self.full:
            return
        gaps = _gaps(self.built, max(r0, self.full), r1)
        if r0 <= self.full:
            self.full = max(self.full, r1)
        else:
            self.built.update(r for g0, g1 in gaps for r in range(g0, g1))
        if not gaps:
            return
        lo, rows, off = gaps[0][0], self.rows, self.off
        if len(rows) < r1:
            rows.extend([""] * (r1 - len(rows)))
        ink: list[list[tuple[int, str]]] = [[] for _ in range(lo, r1)]
        for g0, g1 in gaps:
            for r in range(g0, g1):
                if rows[r]:
                    ink[r - lo] = [(m.start(), m.group())
                                   for m in _INK.finditer(rows[r])]
        stack: list[tuple[_Block, int, int, int, int]] = []
        for g0, g1 in gaps:
            _enter(stack, ink, lo, self.kids, self.tops, 0, off, g0, g1)
        _walk(stack, lo, ink)
        for g0, g1 in gaps:
            for r in range(g0, g1):
                if ink[r - lo]:
                    rows[r] = _ink(ink[r - lo])

    def free(self, r: int, c0: int, c1: int) -> bool:
        # half-open column range, offset-adjusted
        if r >= self.full and r not in self.built:
            self.build(r, r + 1)
        if r >= len(self.rows):
            return True
        c0 = max(c0 + self.off, 0)
        return not self.rows[r][c0:max(c1 + self.off, c0)].strip(" ")

    def free_window(self, r: int, c: int, width: int, step: int) -> int:
        """The first of c, c + step, c + 2 * step, ... at which `width`
        cells of row r are free; step is 1 or -1."""
        if r >= self.full and r not in self.built:
            self.build(r, r + 1)
        if r >= len(self.rows):
            return c
        row = self.rows[r]
        start = c + self.off
        if start >= len(row):
            return c
        # the cells left of the row and past its end are free: a window
        # may reach into either
        blank = " " * width
        if step > 0:
            if start < 0:
                if not row[:max(start + width, 0)].strip(" "):
                    return c
                start = 0
            # every window from the last written cell on is free
            tail = max(start, len(row.rstrip(" ")))
            hit = row.find(blank, start, tail + width - 1)
            col = tail if hit < 0 else hit
        else:
            if start >= len(row.rstrip(" ")):
                return c
            col = row.rfind(blank, 0, start + width) if start >= 0 else -1
            if col < 0:  # no window in the row; left of it all are free
                lead = len(row) - len(row.lstrip(" "))
                col = start if lead == len(row) else min(start, lead - width)
        return col - self.off

    def block(self, anchor: int) -> _Block:
        """The finished block, with its anchor at column `anchor`. Its
        column 0 is the leftmost written cell, its own or a kid's."""
        rows = list(filter(None, map(str.rstrip, self.rows)))
        lead = min(map(sub, map(len, rows), map(len, map(str.lstrip, rows))))
        left = min(lead - self.off, min(c for _, _, c in self.kids))
        right = max(max(map(len, rows)) - self.off,
                    max(c + b.width for b, _, c in self.kids))
        height = max(len(self.rows),
                     max(r + b.height for b, r, _ in self.kids))
        # a kid whose rows are all built in is never read again; the last
        # one placed never is, as no run or label tests a row below it
        kids = [(b, r, c - left) for b, r, c in self.kids
                if r + b.height > self.full]
        return _Block(self.rows, left + self.off, kids,
                      [r for _, r, _ in kids], self.full,
                      self.built or frozenset(), right - left, height,
                      anchor - left)


def _paint(block: _Block) -> list[str]:
    """Every row of the drawing of `block`, from one walk of its blocks."""
    runs: list[list[tuple[int, str]]] = [[] for _ in range(block.height)]
    _walk([(block, 0, 0, 0, block.height)], 0, runs)
    return [_ink(row) if row else "" for row in runs]


def _node_text(node: ViewNode) -> str:
    return GLYPHS.get(node.status) or f"[{','.join(node.goals)}]"


def _label_lines(edge: ViewEdge) -> list[str]:
    if edge.node.status == "pruned":
        return []
    return [f"{name}={text}" for name, text in edge.label]


def _run_col(parent: int, anchor: int, row: int, height: int) -> int:
    return parent + ((anchor - parent) * row) // height


def _run_glyph(parent: int, anchor: int) -> str:
    if anchor < parent:
        return "/"
    if anchor > parent:
        return "\\"
    return "|"


def _place_label(canvas: _Canvas, lines: list[str], parent: int, anchor: int,
                 height: int, prefer_left: bool,
                 prefer_bottom: bool = False) -> bool:
    if not lines:
        return True
    # every caller passes height > len(lines), so each start row fits
    start_rows = list(range(max(1, (height + 1 - len(lines)) // 2),
                            height - len(lines) + 2))
    if prefer_bottom:
        start_rows.reverse()
    sides = (True, False) if prefer_left else (False, True)
    for start in start_rows:
        rows = range(start, start + len(lines))
        for left in sides:
            cols = [_run_col(parent, anchor, r, height) for r in rows]
            if left:
                # one shared left edge, lines never crossing their run
                base = min(c - 1 - len(t) for c, t in zip(cols, lines))
                spots = [(r, base, t) for r, t in zip(rows, lines)]
            else:
                base = max(cols) + 2
                spots = [(r, base, t) for r, t in zip(rows, lines)]
            if all(canvas.free(r, c - 1, c + len(t) + 1)
                   for r, c, t in spots):
                for r, c, t in spots:
                    canvas.write(r, c, t)
                return True
    return False


def _draw_run(canvas: _Canvas, parent: int, anchor: int,
              top: int, bottom: int, total: int,
              clearance: int = 0) -> None:
    glyph = _run_glyph(parent, anchor)
    step = -1 if anchor < parent else 1
    if glyph != "|":
        canvas.build(top, bottom + 1)  # every row is tested below
    for r in range(top, bottom + 1):
        col = _run_col(parent, anchor, r, total)
        if glyph != "|":
            col = canvas.free_window(r, col - clearance, 1 + 2 * clearance,
                                     step) + clearance
        canvas.write(r, col, glyph)


def _compose(text: str, edges: tuple[ViewEdge, ...],
             blocks: list[_Block], max_width: int) -> _Block:
    n = len(blocks)
    labels = [_label_lines(e) for e in edges]
    max_label = max((len(t) for ls in labels for t in ls), default=0)

    kept = list(range(n))
    dropped: list[int] = []
    while len(kept) > 1:
        gap = 3 * (len(kept) - 1)
        if sum(blocks[i].width for i in kept) + gap <= max_width:
            break
        widest = max(kept, key=lambda i: (blocks[i].width, i))
        kept.remove(widest)
        dropped.append(widest)
    dropped.sort()

    base_h = max(2, max((len(labels[i]) for i in kept + dropped),
                        default=0) + 1)
    gutter = 3
    for attempt in range(6):
        h = base_h + attempt % 3
        if attempt >= 3:
            gutter = 3 + max_label
        result = _try_compose(text, blocks, labels, kept, dropped,
                              h, gutter, max_label)
        if result is not None:
            return result
    return _try_compose(text, blocks, labels, kept, dropped,
                        base_h, 3 + max_label, max_label,
                        force=True)  # type: ignore[return-value]


def _try_compose(text: str, blocks: list[_Block], labels: list[list[str]],
                 kept: list[int], dropped: list[int], h: int, gutter: int,
                 max_label: int, force: bool = False) -> _Block | None:
    offs: dict[int, int] = {}
    x = 0
    for i in kept:
        offs[i] = x
        x += blocks[i].width + gutter
    anchors = {i: offs[i] + blocks[i].anchor for i in kept}
    first, last = kept[0], kept[-1]
    parent = (anchors[first] + anchors[last]) // 2

    canvas = _Canvas(len(text) + max_label + 8)
    canvas.write(0, parent - len(text) // 2, text)

    for i in kept:
        _draw_run(canvas, parent, anchors[i], 1, h, h)
    for i in kept:
        prefer_left = anchors[i] < parent
        if not _place_label(canvas, labels[i], parent, anchors[i], h,
                            prefer_left) and not force:
            return None
    bottom = h
    for i in kept:
        canvas.place(blocks[i], h + 1, offs[i])
        bottom = max(bottom, h + blocks[i].height)

    for i in dropped:
        top = bottom + 2
        left = 2
        anchor = left + blocks[i].anchor
        _draw_run(canvas, parent, anchor, 1, top - 1, top, clearance=1)
        if not _place_label(canvas, labels[i], parent, anchor, top - 1,
                            anchor < parent,
                            prefer_bottom=True) and not force:
            return None
        canvas.place(blocks[i], top, left)
        bottom = top + blocks[i].height - 1

    return canvas.block(parent)


def _layout(root: ViewNode, max_width: int) -> _Block:
    def block(node: ViewNode, blocks: list[_Block]) -> _Block:
        text = _node_text(node)
        if not blocks:
            return _leaf_block(text)
        return _compose(text, node.children, blocks, max_width)
    return fold(root, lambda n: [e.node for e in n.children], block)


def render_text(tree: SearchTree | ViewTree,
                options: RenderOptions | None = None) -> str:
    opts = options or RenderOptions()
    block = _layout(to_view(tree).root, opts.max_width)
    return "\n".join(_paint(block)) + "\n"
