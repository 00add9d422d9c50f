"""The pasting layout, kept as the reference the drawing must match.

Each block holds every line of its subtree: a parent pastes its
children's lines into its own canvas, strips the common indent, and
hands the result up. That copies each line once per ancestor, which is
what `sldtree.render` avoids, but the bytes it draws are the contract:
`reference_render(view, width)` must equal `render_text(view, width)`.
Shares no machinery with `sldtree.render` beyond the view types.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from sldtree.serialize import ViewEdge, ViewNode, ViewTree, fold

GLYPHS = {"success": "[]", "fail": "x", "pruned": "X", "truncated": "..."}


@dataclass
class _Block:
    lines: list[str]  # never changed once the block is made
    anchor: int
    width: int = field(init=False)

    def __post_init__(self) -> None:
        self.width = max(map(len, self.lines), default=0)

    @property
    def height(self) -> int:
        return len(self.lines)


class _Canvas:
    """Grow-on-write character grid, one string per row. Columns are
    offset so the layout code may go temporarily negative; a write left
    of the offset grows every row to the left, and the caller strips
    the slack. Cells left of the grid or past the end of a row are
    free."""

    def __init__(self, offset: int):
        self.off = offset
        self.rows: list[str] = []

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

    def free(self, r: int, c0: int, c1: int) -> bool:
        # half-open column range, offset-adjusted
        if r >= len(self.rows):
            return True
        c0 = max(c0 + self.off, 0)
        return not self.rows[r][c0:max(c1 + self.off, c0)].strip(" ")

    def free_window(self, r: int, c: int, width: int, step: int) -> int:
        """The first of c, c + step, c + 2 * step, ... at which `width`
        cells of row r are free; step is 1 or -1."""
        if r >= len(self.rows):
            return c
        row = self.rows[r]
        start = c + self.off
        if start >= len(row):
            return c
        # blank margins on both sides stand for the free cells beyond
        # the row, so the search always succeeds
        blank = " " * width
        lead = width + max(0, -start)
        padded = " " * lead + row + blank
        if step > 0:
            hit = padded.find(blank, start + lead)
        else:
            hit = padded.rfind(blank, 0, start + lead + width)
        return hit - lead - self.off

    def lines(self) -> list[str]:
        return [row.rstrip() for row in self.rows]


def _node_text(node: ViewNode) -> str:
    return GLYPHS.get(node.status) or f"[{','.join(node.goals)}]"


def _label_lines(edge: ViewEdge) -> list[str]:
    if edge.node.status == "pruned":
        return []
    return [f"{name}={text}" for name, text in edge.label]


def _leaf_block(text: str) -> _Block:
    return _Block([text], len(text) // 2)


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


def _paste(canvas: _Canvas, block: _Block, top: int, left: int) -> None:
    for i, line in enumerate(block.lines):
        if line:
            canvas.write(top + i, left, line)


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
                            prefer_left, force=force):
            return None
    bottom = h
    for i in kept:
        _paste(canvas, blocks[i], h + 1, offs[i])
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
        _paste(canvas, blocks[i], top, left)
        bottom = top + blocks[i].height - 1

    lines = canvas.lines()
    indent = min((len(ln) - len(ln.lstrip()) for ln in lines if ln),
                 default=0)
    return _Block([ln[indent:] for ln in lines],
                  parent + canvas.off - indent)


def _layout(root: ViewNode, max_width: int) -> _Block:
    def block(node: ViewNode, blocks: list[_Block]) -> _Block:
        text = _node_text(node)
        if not blocks:
            return _leaf_block(text)
        return _compose(text, node.children, blocks, max_width)
    return fold(root, lambda n: [e.node for e in n.children], block)


def reference_render(view: ViewTree, max_width: int = 120) -> str:
    block = _layout(view.root, max_width)
    return "\n".join(block.lines) + "\n"
