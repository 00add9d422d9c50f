"""Canonical text form of a search tree.

The format is a fixed-shape JSON document: stable key order, two-space
indent, no ASCII escaping, one trailing newline. Identical trees
serialize to identical bytes, which is what golden tests and graders
diff against. Both writers take the SearchTree the build made and read
a node through node_parts() when they reach it. deserialize() gives
back a ViewTree, equal to to_view() of the tree written. Views are
terms.Value objects: they compare, hash and print at any depth.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Callable, Sequence, TypeVar

from .engine import NodeStatus, SearchNode, SearchTree
from .errors import PrologError
from .kb import goal_text
from .terms import Value, term_text

FORMAT_NAME = "sld-search-tree/1"

_STATUSES = tuple(s.value for s in NodeStatus)

# json.loads spends one level of the recursion limit, and ~130 B of C
# stack, per level of nesting: 10,000 levels read a tree 3,000 deep.
_JSON_NESTING = 10_000

_N = TypeVar("_N")
_R = TypeVar("_R")


class FormatError(PrologError):
    def __init__(self, message: str, where: str):
        super().__init__(f"{where}: {message}")
        self.message = message
        self.where = where


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ViewNode(Value):
    goals: tuple[str, ...]
    status: str
    children: tuple["ViewEdge", ...] = ()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ViewEdge(Value):
    label: tuple[tuple[str, str], ...]
    node: ViewNode


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ViewTree(Value):
    root: ViewNode
    truncated: bool = False


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


# a node as text: its goal texts, its status and, per child, the label's
# (name, text) pairs, the child's status and the child
Parts = tuple[tuple[str, ...], str, list[tuple[tuple, str, SearchNode]]]


def node_parts(node: SearchNode) -> Parts:
    return (tuple(map(goal_text, node.goals)), node.status.value,
            [(tuple((v.name, term_text(t)) for v, t in c.label.bindings),
              c.status.value, c) for c in node.children])


def to_view(tree: SearchTree) -> ViewTree:
    def view(parts: Parts, kids: list[ViewNode]) -> ViewNode:
        return ViewNode(parts[0], parts[1], tuple(
            ViewEdge(e[0], kid) for e, kid in zip(parts[2], kids)))
    root = fold(node_parts(tree.root),
                lambda p: [node_parts(c) for _, _, c in p[2]], view)
    return ViewTree(root, tree.truncated)


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


def serialize(tree: SearchTree) -> str:
    """The bytes of json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
    written in one pre-order walk. Indents are shared pieces, built
    once per level, so a deep tree costs no more than its text."""
    q = encode_basestring
    nl = ["\n"]  # nl[k]: a line break and the indent of level k
    out = ['{\n  "format": ', q(FORMAT_NAME),
           ',\n  "truncated": ', "true" if tree.truncated else "false",
           ',\n  "root": ']
    # (pieces to append, then the node to open or None, the node's
    # level: that of its closing brace, its keys one deeper)
    stack: list[tuple[list[str] | tuple[str, ...], object, int]]
    stack = [(("\n}\n",), None, 0), ((), tree.root, 1)]
    while stack:
        pieces, node, d = stack.pop()
        out.extend(pieces)
        if node is None:
            continue
        while len(nl) < d + 6:
            nl.append(nl[-1] + "  ")
        i0, i1, i2, i3, i4, i5 = nl[d:d + 6]
        goals, status, edges = node_parts(node)
        out.extend(("{", i1, '"goals": '))
        _array(out, [(q(g),) for g in goals], i2, i1)
        out.extend((",", i1, '"status": ', q(status),
                    ",", i1, '"children": '))
        if not edges:
            out.extend(("[]", i0, "}"))
            continue
        out.append("[")
        stack.append(((i1, "]", i0, "}"), None, 0))
        last = len(edges) - 1
        for k in range(last, -1, -1):
            label, _, child = edges[k]
            stack.append(((i2, "},") if k < last else (i2, "}"), None, 0))
            head = [i2, "{", i3, '"label": ']
            _array(head, [("[", i5, q(n), ",", i5, q(t), i4, "]")
                          for n, t in label], i4, i3)
            head.extend((",", i3, '"node": '))
            stack.append((head, child, d + 3))
    return "".join(out)


def _expect(cond: bool, message: str, where: str | tuple) -> None:
    if cond:
        return
    steps = []  # `where` as a link: its path is joined into text only here
    while isinstance(where, tuple):
        where, step, _ = where
        steps.append(step if isinstance(step, str) else f".children[{step}]")
    raise FormatError(message, "".join(reversed(steps)) if steps else where)


def _check(link: tuple) -> list[tuple]:
    """fold's kids for a document. An item is a link (parent, step, raw
    object): the root, or child i with step i, whose edge is checked before
    the node it leads to (step ".node"), so errors come in pre-order."""
    _, step, obj = link
    if isinstance(step, int):
        _expect(isinstance(obj, dict) and obj.keys() == {"label", "node"},
                "edge needs exactly label/node", link)
        label = obj["label"]
        _expect(isinstance(label, list), "label must be a list", link)
        _expect(all(isinstance(p, list) and len(p) == 2
                    and isinstance(p[0], str) and isinstance(p[1], str)
                    for p in label),
                "label entries are [name, term] string pairs", link)
        link = (link, ".node", obj["node"])
        obj = link[2]
    _expect(isinstance(obj, dict), "node must be an object", link)
    _expect(obj.keys() == {"goals", "status", "children"},
            "node needs exactly goals/status/children", link)
    goals = obj["goals"]
    _expect(isinstance(goals, list) and all(isinstance(g, str) for g in goals),
            "goals must be a list of strings", link)
    _expect(obj["status"] in _STATUSES,
            f"unknown status {obj['status']!r}", link)
    _expect(isinstance(obj["children"], list), "children must be a list",
            link)
    return [(link, i, edge) for i, edge in enumerate(obj["children"])]


def _view(link: tuple, edges: list[ViewEdge]) -> ViewNode | ViewEdge:
    """fold's combine for a document, on items _check has passed."""
    _, step, obj = link
    node = obj if isinstance(step, str) else obj["node"]
    view = ViewNode(tuple(node["goals"]), node["status"], tuple(edges))
    return view if isinstance(step, str) else ViewEdge(
        tuple(map(tuple, obj["label"])), view)


def deserialize(text: str) -> ViewTree:
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, _JSON_NESTING))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not well-formed: {e.msg}",
                          f"line {e.lineno}, column {e.colno}") from e
    except RecursionError as e:
        raise FormatError("nested too deeply", "document") from e
    finally:
        sys.setrecursionlimit(old)
    _expect(isinstance(doc, dict), "document must be an object", "document")
    _expect(set(doc) == {"format", "truncated", "root"},
            "document needs exactly format/truncated/root", "document")
    _expect(doc["format"] == FORMAT_NAME,
            f"unsupported format {doc['format']!r}", "format")
    _expect(isinstance(doc["truncated"], bool),
            "truncated must be a boolean", "truncated")
    root = fold((None, "root", doc["root"]), _check, _view)
    return ViewTree(root, doc["truncated"])
