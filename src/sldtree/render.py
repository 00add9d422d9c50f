"""ASCII layout for search trees.

Each node, read through serialize.node_parts() when the layout reaches
it, becomes a block with an anchor column (the center of its top line).
A parent block is built bottom-up: lay out the children, place them
side by side, then draw connector runs from the parent's anchor down to
each child's anchor using /, | and \\ glyphs at integer-interpolated
columns. Binding labels sit beside the runs; when a label does not fit
it walks down its run, flips sides, and as a last resort the connector
rows are made taller. Nothing is drawn over: each glyph of a run and
each label tests its cells before it is written. A run steps outward
past taken cells, a vertical one to the right, and a label that fits
nowhere moves right. The blanks inside a quoted atom are blank cells
too, so a run can still step into them (ROADMAP item 4). The canvas a
parent is drawn on grows to the left when a run or label reaches left
of its origin; the block starts at its leftmost written cell.

When a row of children is wider than the width budget, the widest
children are dropped out of the row one by one and drawn below the
remaining ones, each on its own band with a long connector run. The
budget is a soft target: a single over-wide leaf still renders whole.

A child is not copied into its parent when it is placed: it stays a
block of its own, kept as a placement at a row and column of its
parent. The first time a run or label tests a cell while placements are
kept, they are all pasted into the parent's rows, blank where they go,
and the list is cleared. Only a dropped child's run or label tests
cells after a child is placed, so a block keeps its rows, with every
child pasted in, and the children placed after the last test.
render_text then paints the drawing once, row by row, from one walk of
the blocks; pasting is the same walk over a canvas's placements. Goals
and labels never start or end with whitespace, as the printer writes
them, and only a space is a blank cell.

Drawing takes time linear in its output, except that a block with a
dropped child copies the rows above its last dropped band once. A flat
table's output is itself quadratic in its fan-out, since each dropped
child's run crosses every row above it.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from operator import sub

from .engine import SearchTree
from .serialize import Parts, ViewTree, fold, node_parts

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
    """A laid-out subtree: its rows, with every child pasted into them,
    and the children never pasted, each placed at a row and column of
    this block. Nothing in a block changes once it is made."""
    rows: Sequence[str]  # in the columns of its canvas
    shift: int  # the canvas column of the block's column 0
    kids: Sequence[tuple[_Block, int, int]]  # (block, row, column), by row
    width: int
    height: int
    anchor: int


def _leaf_block(text: str) -> _Block:
    return _Block((text,), 0, (), len(text), 1, len(text) // 2)


def _ink(runs: list[tuple[int, str]]) -> str:
    """One row from its runs, which never overlap."""
    if len(runs) == 1:
        c, text = runs[0]
        return " " * c + text
    row = ""
    for c, text in sorted(runs):
        row += " " * (c - len(row)) + text
    return row


def _paint(runs: list[list[tuple[int, str]]],
           stack: list[tuple[_Block, int, int]]) -> list[str]:
    """The rows that `runs`, the (column, text) runs already on each row,
    make with the blocks on `stack`, each (block, top row, left column).
    No two runs overlap. A block's runs are whole rows above its first
    kid, which nothing else in the block's columns paints, and each
    written piece of a row from there down."""
    while stack:
        b, top, left = stack.pop()
        rows, shift, kids = b.rows, b.shift, b.kids
        whole = min(kids[0][1], len(rows)) if kids else len(rows)
        for line, text in zip(runs[top:top + whole], rows[:whole]):
            if text:
                line.append((left, text[shift:]))
        for line, text in zip(runs[top + whole:top + len(rows)],
                              rows[whole:]):
            for m in _INK.finditer(text, shift):
                line.append((left + m.start() - shift, m.group()))
        for kid, r, c in kids:
            if kid.kids:
                stack.append((kid, top + r, left + c))
            else:  # a leaf needs no walk: its one row is its text
                runs[top + r].append((left + c, kid.rows[0]))
    return [_ink(line) if line else "" for line in runs]


class _Canvas:
    """Grow-on-write character grid, one string per row. Columns are
    offset so the layout code may go temporarily negative; a write left
    of the offset grows every row to the left, and the finished block
    starts at the leftmost written cell. Cells left of the grid or past
    the end of a row are free.

    Placed blocks are kept as placements. The first `free` or
    `free_window` test while any are kept pastes them all into the
    rows and clears the list; a block must be placed on blank rows,
    below every block placed before it or beside those of its band, and
    no cell may be written while placements are kept."""

    def __init__(self, offset: int):
        self.off = offset
        self.rows: list[str] = []
        self.kids: list[tuple[_Block, int, int]] = []

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
        self.kids.append((block, r, c))

    def paste(self) -> None:
        """Paint the placed blocks into the rows from the first one's
        down, where the rows are blank, and forget them."""
        rows, lo = self.rows, self.kids[0][1]
        end = max(r + b.height for b, r, _ in self.kids)
        rows.extend([""] * (end - len(rows)))
        runs = [[(m.start(), m.group()) for m in _INK.finditer(row)]
                for row in rows[lo:]]
        rows[lo:] = _paint(runs, [(b, r - lo, c + self.off)
                                  for b, r, c in self.kids])
        self.kids = []

    def free(self, r: int, c0: int, c1: int) -> bool:
        # half-open column range, offset-adjusted
        if self.kids:
            self.paste()
        if r >= len(self.rows):
            return True
        c0 = max(c0 + self.off, 0)
        return not self.rows[r][c0:max(c1 + self.off, c0)].strip(" ")

    def free_window(self, r: int, c: int, width: int, step: int) -> int:
        """The first of c, c + step, c + 2 * step, ... at which `width`
        cells of row r are free; step is 1 or -1."""
        if self.kids:
            self.paste()
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
        return _Block(self.rows, left + self.off,
                      [(b, r, c - left) for b, r, c in self.kids],
                      right - left, height, anchor - left)


def _run_col(parent: int, anchor: int, row: int, height: int) -> int:
    return parent + ((anchor - parent) * row) // height


def _run_glyph(parent: int, anchor: int) -> str:
    if anchor < parent:
        return "/"
    if anchor > parent:
        return "\\"
    return "|"


def _place_label(canvas: _Canvas, lines: list[str], parent: int, anchor: int,
                 height: int, prefer_left: bool, prefer_bottom: bool = False,
                 force: bool = False) -> bool:
    """Write `lines` beside the run from `parent` to `anchor` on free
    cells, a blank cell on either side of each, and say whether they
    fit. Under `force` they always do: at the first start row, right of
    the run, and as far right as the free cells are."""
    if not lines:
        return True

    def put(rows: range, base: int) -> bool:
        if not all(canvas.free(r, base - 1, base + len(t) + 1)
                   for r, t in zip(rows, lines)):
            return False
        for r, t in zip(rows, lines):
            canvas.write(r, base, t)
        return True

    # every caller passes height > len(lines), so each start row fits
    start_rows = list(range(max(1, (height + 1 - len(lines)) // 2),
                            height - len(lines) + 2))
    if prefer_bottom:
        start_rows.reverse()
    sides = (True, False) if prefer_left else (False, True)
    for start in start_rows:
        rows = range(start, start + len(lines))
        cols = [_run_col(parent, anchor, r, height) for r in rows]
        for left in sides:
            if left:
                # one shared left edge, lines never crossing their run
                base = min(c - 1 - len(t) for c, t in zip(cols, lines))
            else:
                base = max(cols) + 2
            if put(rows, base):
                return True
    if not force:
        return False
    rows = range(start_rows[0], start_rows[0] + len(lines))
    base = max(_run_col(parent, anchor, r, height) for r in rows) + 2
    # cells past the end of a row are free, so this ends
    while not put(rows, base):
        base += 1
    return True


def _draw_run(canvas: _Canvas, parent: int, anchor: int,
              top: int, bottom: int, total: int,
              clearance: int = 0) -> None:
    glyph = _run_glyph(parent, anchor)
    step = -1 if anchor < parent else 1
    for r in range(top, bottom + 1):
        col = _run_col(parent, anchor, r, total)
        col = canvas.free_window(r, col - clearance, 1 + 2 * clearance,
                                 step) + clearance
        canvas.write(r, col, glyph)


def _compose(text: str, edges: list, blocks: list[_Block],
             max_width: int) -> _Block:
    n = len(blocks)
    labels = [[] if status == "pruned" else [f"{k}={t}" for k, t in label]
              for label, status, _ in edges]
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
                            prefer_left, force=force):
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
                            anchor < parent, prefer_bottom=True,
                            force=force):
            return None
        canvas.place(blocks[i], top, left)
        bottom = top + blocks[i].height - 1

    return canvas.block(parent)


def _layout(tree: SearchTree | ViewTree, max_width: int) -> _Block:
    def block(parts: Parts, blocks: list[_Block]) -> _Block:
        text = GLYPHS.get(parts[1]) or f"[{','.join(parts[0])}]"
        if not blocks:
            return _leaf_block(text)
        return _compose(text, parts[2], blocks, max_width)
    return fold(node_parts(tree.root),
                lambda p: [node_parts(c) for _, _, c in p[2]], block)


def render_text(tree: SearchTree | ViewTree,
                options: RenderOptions | None = None) -> str:
    opts = options or RenderOptions()
    block = _layout(tree, opts.max_width)
    runs: list[list[tuple[int, str]]] = [[] for _ in range(block.height)]
    return "\n".join(_paint(runs, [(block, 0, 0)])) + "\n"
