"""Canonical text form of a search tree.

The format is a fixed-shape JSON document: stable key order, two-space
indent, no ASCII escaping, one trailing newline. Identical trees
serialize to identical bytes, which is what golden tests and graders
diff against. deserialize() gives back a render-level view (goals and
labels as text) and is the exact inverse on serialize's output.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Callable, Sequence, TypeVar

from .engine import SearchNode, SearchTree
from .errors import PrologError
from .kb import goal_text
from .terms import term_text

FORMAT_NAME = "sld-search-tree/1"

_STATUSES = ("open", "success", "fail", "pruned", "truncated")

_N = TypeVar("_N")
_R = TypeVar("_R")


class FormatError(PrologError):
    def __init__(self, message: str, where: str):
        super().__init__(f"{where}: {message}")
        self.message = message
        self.where = where


@dataclass(frozen=True)
class ViewNode:
    goals: tuple[str, ...]
    status: str
    children: tuple["ViewEdge", ...] = ()


@dataclass(frozen=True)
class ViewEdge:
    label: tuple[tuple[str, str], ...]
    node: ViewNode


@dataclass(frozen=True)
class ViewTree:
    root: ViewNode
    truncated: bool = False


@contextmanager
def _stack_room(levels: int):
    """json.loads and _parse_node recurse a few frames per nesting
    level; a deep chain (a left-recursive program stopped only by the
    depth limit) outgrows the default interpreter stack."""
    need = 16 * levels + 1000
    old = sys.getrecursionlimit()
    if need > old:
        sys.setrecursionlimit(need)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def fold(root: _N, kids: Callable[[_N], Sequence[_N]],
         combine: Callable[[_N, list[_R]], _R]) -> _R:
    """combine(node, [results of its kids]) from the leaves up, with an
    explicit stack, so a tree of any depth folds without recursion."""
    done: list[_R] = []
    stack: list[tuple[_N, Sequence[_N] | None]] = [(root, None)]
    while stack:
        node, below = stack.pop()
        if below is None:
            below = kids(node)
            stack.append((node, below))
            stack.extend((k, None) for k in reversed(below))
        else:
            n = len(below)
            results = done[len(done) - n:]
            del done[len(done) - n:]
            done.append(combine(node, results))
    return done[0]


def _node_view(node: SearchNode, views: list[ViewNode]) -> ViewNode:
    children = tuple(
        ViewEdge(tuple((v.name, term_text(t)) for v, t in c.label.bindings),
                 view)
        for c, view in zip(node.children, views))
    return ViewNode(tuple(goal_text(g) for g in node.goals),
                    node.status.value, children)


def to_view(tree: SearchTree | ViewTree) -> ViewTree:
    if isinstance(tree, ViewTree):
        return tree
    return ViewTree(fold(tree.root, lambda n: n.children, _node_view),
                    tree.truncated)


def _array(out: list[str], items: list[tuple[str, ...]], inner: str,
           outer: str) -> None:
    """Append a JSON array with one item per line: each item is a tuple
    of pieces, `inner` and `outer` the line breaks before an item and
    before the closing bracket."""
    if not items:
        out.append("[]")
        return
    out.append("[")
    for k, item in enumerate(items):
        if k:
            out.append(",")
        out.append(inner)
        out.extend(item)
    out.extend((outer, "]"))


def serialize(tree: SearchTree | ViewTree) -> str:
    """The bytes of json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
    written in one pre-order walk. Indents are shared pieces, built
    once per level, so a deep tree costs no more than its text."""
    view = to_view(tree)
    q = encode_basestring
    nl = ["\n"]  # nl[k]: a line break and the indent of level k
    out = ['{\n  "format": ', q(FORMAT_NAME),
           ',\n  "truncated": ', "true" if view.truncated else "false",
           ',\n  "root": ']
    # (pieces to append, then the node to open or None, the node's
    # level: that of its closing brace, its keys one deeper)
    stack: list[tuple[list[str] | tuple[str, ...], ViewNode | None, int]]
    stack = [(("\n}\n",), None, 0), ((), view.root, 1)]
    while stack:
        pieces, node, d = stack.pop()
        out.extend(pieces)
        if node is None:
            continue
        while len(nl) < d + 6:
            nl.append(nl[-1] + "  ")
        i0, i1, i2, i3, i4, i5 = nl[d:d + 6]
        out.extend(("{", i1, '"goals": '))
        _array(out, [(q(g),) for g in node.goals], i2, i1)
        out.extend((",", i1, '"status": ', q(node.status),
                    ",", i1, '"children": '))
        if not node.children:
            out.extend(("[]", i0, "}"))
            continue
        out.append("[")
        stack.append(((i1, "]", i0, "}"), None, 0))
        last = len(node.children) - 1
        for k in range(last, -1, -1):
            edge = node.children[k]
            stack.append(((i2, "},") if k < last else (i2, "}"), None, 0))
            head = [i2, "{", i3, '"label": ']
            _array(head, [("[", i5, q(n), ",", i5, q(t), i4, "]")
                          for n, t in edge.label], i4, i3)
            head.extend((",", i3, '"node": '))
            stack.append((head, edge.node, d + 3))
    return "".join(out)


def _expect(cond: bool, message: str, where: str | list[str]) -> None:
    if not cond:
        raise FormatError(message, "".join(where))


def _parse_node(obj: object, path: list[str]) -> ViewNode:
    # steps from the root, joined only for an error: a path string at
    # every node would hold text in the square of the depth
    _expect(isinstance(obj, dict), "node must be an object", path)
    assert isinstance(obj, dict)
    _expect(set(obj) == {"goals", "status", "children"},
            "node needs exactly goals/status/children", path)
    goals = obj["goals"]
    _expect(isinstance(goals, list) and all(isinstance(g, str) for g in goals),
            "goals must be a list of strings", path)
    status = obj["status"]
    _expect(status in _STATUSES, f"unknown status {status!r}", path)
    raw_children = obj["children"]
    _expect(isinstance(raw_children, list), "children must be a list", path)
    children = []
    for i, edge in enumerate(raw_children):
        path.append(f".children[{i}]")
        _expect(isinstance(edge, dict) and set(edge) == {"label", "node"},
                "edge needs exactly label/node", path)
        label = edge["label"]
        _expect(isinstance(label, list), "label must be a list", path)
        pairs = []
        for p in label:
            _expect(isinstance(p, list) and len(p) == 2
                    and all(isinstance(x, str) for x in p),
                    "label entries are [name, term] string pairs", path)
            pairs.append((p[0], p[1]))
        path.append(".node")
        children.append(ViewEdge(tuple(pairs), _parse_node(edge["node"], path)))
        del path[-2:]
    return ViewNode(tuple(goals), status, tuple(children))


def deserialize(text: str) -> ViewTree:
    with _stack_room(text.count("{")):
        return _deserialize(text)


def _deserialize(text: str) -> ViewTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not well-formed: {e.msg}",
                          f"line {e.lineno}, column {e.colno}") from e
    _expect(isinstance(doc, dict), "document must be an object", "document")
    _expect(set(doc) == {"format", "truncated", "root"},
            "document needs exactly format/truncated/root", "document")
    _expect(doc["format"] == FORMAT_NAME,
            f"unsupported format {doc['format']!r}", "format")
    _expect(isinstance(doc["truncated"], bool),
            "truncated must be a boolean", "truncated")
    return ViewTree(_parse_node(doc["root"], ["root"]), doc["truncated"])
