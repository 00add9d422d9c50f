"""Exhaustive SLD search-tree construction.

The tree is built depth-first, always expanding the leftmost goal, with
one child per clause in source order. Failed unifications, branches cut
away by '!', and negation probes all stay in the tree; that is the
point of the exercise.

A cut names the depth, on the DFS path, of the node whose choice point
it commits: a call at depth d stamps d on the cuts of its clause bodies,
the query's cuts get 0, and a negation at depth d gives its probe's cuts
d + 1. Reaching a cut prunes the unexplored siblings at that node and at
every node below it on the path, so a cut that is the first goal of its
own target prunes nothing.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import CyclicTermError, InstantiationError, UnknownPredicateError
from .kb import (Call, Compare, Cut, Disjunction, FailGoal, GoalSeq,
                 Negation, Program, TrueGoal, goal_text, goal_variables)
from .terms import Integer, Term, Variable, indicator, term_text, variables_of
from .unify import RENAME_STYLES, Substitution, rename_clause, unify


class NodeStatus(Enum):
    OPEN = "open"
    SUCCESS = "success"
    FAIL = "fail"
    PRUNED = "pruned"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class EdgeLabel:
    """Bindings of the parent's selected-goal variables, shown on the edge."""
    bindings: tuple[tuple[Variable, Term], ...] = ()

    def lines(self) -> list[str]:
        return [f"{v.name}={term_text(t)}" for v, t in self.bindings]

    @property
    def is_empty(self) -> bool:
        return not self.bindings


@dataclass(eq=False)
class SearchNode:
    goals: GoalSeq
    status: NodeStatus = NodeStatus.OPEN
    label: EdgeLabel = EdgeLabel()
    children: list["SearchNode"] = field(default_factory=list)
    # image of the tree's query variables on the path to this node, or the
    # cyclic-term error met building it, raised only if a success leaf needs it
    answer: tuple[Term, ...] | CyclicTermError = ()
    # lowest generation a clause renamed to expand this node may take
    floor: int = 1

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Limits:
    max_depth: int = 500
    max_nodes: int = 10000

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_nodes < 1:
            raise ValueError("limits must be at least 1")


@dataclass(frozen=True)
class EngineOptions:
    unknown: str = "fail"  # or "error"
    rename: str = "prime"  # or another of RENAME_STYLES

    def __post_init__(self) -> None:
        if self.unknown not in ("fail", "error"):
            raise ValueError(f"unknown-predicate policy: {self.unknown}")
        if self.rename not in RENAME_STYLES:
            raise ValueError(f"rename style: {self.rename}")


@dataclass
class SearchTree:
    root: SearchNode
    truncated: bool
    query_vars: tuple[Variable, ...]


@dataclass(frozen=True)
class Answer:
    bindings: tuple[tuple[Variable, Term], ...]
    path: tuple[int, ...]

    @property
    def mapping(self) -> dict[Variable, Term]:
        return dict(self.bindings)

    def text(self) -> str:
        if not self.bindings:
            return "true"
        return ", ".join(f"{v.name} = {term_text(t)}" for v, t in self.bindings)


def _tag_cuts(goals: GoalSeq, depth: int) -> GoalSeq:
    """Scope unowned cuts to depth. Negations keep theirs until expanded."""
    out = []
    for g in goals:
        if isinstance(g, Cut) and g.depth is None:
            out.append(Cut(depth))
        elif isinstance(g, Disjunction):
            out.append(Disjunction(_tag_cuts(g.left, depth),
                                   _tag_cuts(g.right, depth)))
        else:
            out.append(g)
    return tuple(out)


def _names_of(goals: GoalSeq, label: EdgeLabel) -> frozenset[str]:
    vs = goal_variables(goals)
    for v, t in label.bindings:
        vs += [v, *variables_of(t)]
    return frozenset(v.name for v in vs if not v.is_anonymous)


def _label_for(goal_term: Term, sigma: Substitution) -> EdgeLabel:
    pairs = tuple((v, sigma.apply(v)) for v in variables_of(goal_term)
                  if not v.is_anonymous and sigma.binds(v))
    return EdgeLabel(pairs)


def _fail_leaf() -> SearchNode:
    return SearchNode((), status=NodeStatus.FAIL)


def _compare_holds(g: Compare) -> bool:
    for side in (g.lhs, g.rhs):
        if not isinstance(side, Integer):
            raise InstantiationError(
                f"comparison needs two integers: {goal_text(g)}")
    table = {"<": int.__lt__, ">": int.__gt__,
             "=<": int.__le__, ">=": int.__ge__}
    return table[g.op](g.lhs.value, g.rhs.value)


def apply_cut(path: list[tuple[SearchNode, int]], depth: int) -> None:
    """Prune unexplored branches from the node at `depth` down.

    `path` holds (node, index-of-active-child) pairs from the root down
    to the parent of the cut, so `path[depth]` is the cut's target. At
    each entry from there on, every sibling after the active child that
    is still open becomes Pruned. Already-failed siblings keep their x.
    """
    for node, index in path[depth:]:
        for child in node.children[index + 1:]:
            if child.status is NodeStatus.OPEN:
                child.status = NodeStatus.PRUNED


@dataclass
class _Frame:
    node: SearchNode
    names: frozenset[str]  # the node's own, as counted in _Builder.path
    index: int = -1


class _Builder:
    def __init__(self, program: Program, limits: Limits, options: EngineOptions):
        self.program = program
        self.limits = limits
        self.options = options
        # per variable name, how many nodes on the DFS path show it
        self.path: Counter[str] = Counter()
        self.node_count = 1  # the root
        self.truncated = False

    def run(self, root: SearchNode) -> None:
        frames: list[_Frame] = []
        self._visit(root, frames)
        while frames:
            f = frames[-1]
            f.index += 1
            if f.index >= len(f.node.children):
                frames.pop()
                for n in f.names:  # a name no node shows leaves the path
                    self.path[n] -= 1
                    if not self.path[n]:
                        del self.path[n]
                continue
            child = f.node.children[f.index]
            if child.status is NodeStatus.OPEN:
                self._visit(child, frames)

    def _visit(self, node: SearchNode, frames: list[_Frame]) -> None:
        if not node.goals:
            node.status = NodeStatus.SUCCESS
            return
        if len(frames) > self.limits.max_depth or self.node_count >= self.limits.max_nodes:
            node.status = NodeStatus.TRUNCATED
            self.truncated = True
            return
        names = _names_of(node.goals, node.label)
        self.path.update(names)
        node.children = self.expand(node, frames)
        self.node_count += len(node.children)
        frames.append(_Frame(node, names))

    # -- expansion ------------------------------------------------------

    def expand(self, node: SearchNode,
               frames: list[_Frame]) -> list[SearchNode]:
        """Children of `node`; `frames` is the path from the root to its
        parent, so the node's depth is len(frames)."""
        g, rest = node.goals[0], node.goals[1:]
        depth = len(frames)
        children: list[SearchNode]

        if isinstance(g, Call):
            key = indicator(g.term)
            if not self.program.defines(key):
                if self.options.unknown == "error":
                    raise UnknownPredicateError(
                        f"unknown predicate {key[0]}/{key[1]} in goal "
                        f"{term_text(g.term)}")
                children = [_fail_leaf()]
            else:
                children = [self._clause_child(node, g, rest, c, depth)
                            for c in self.program.clauses_for(key)]
        elif isinstance(g, TrueGoal):
            children = [self._plain_child(node, rest)]
        elif isinstance(g, FailGoal):
            children = [_fail_leaf()]
        elif isinstance(g, Cut):
            apply_cut([(f.node, f.index) for f in frames], g.depth or 0)
            children = [self._plain_child(node, rest)]
        elif isinstance(g, Compare):
            children = ([self._plain_child(node, rest)]
                        if _compare_holds(g) else [_fail_leaf()])
        elif isinstance(g, Disjunction):
            children = [self._plain_child(node, g.left + rest),
                        self._plain_child(node, g.right + rest)]
        elif isinstance(g, Negation):
            inner = _tag_cuts(g.inner, depth + 1)
            probe = inner + (Cut(depth), FailGoal())
            children = [self._plain_child(node, probe),
                        self._plain_child(node, rest)]
        else:
            raise TypeError(f"cannot expand goal {g!r}")
        return children

    def _plain_child(self, node: SearchNode, goals: GoalSeq) -> SearchNode:
        return SearchNode(goals, answer=node.answer, floor=node.floor)

    def _clause_child(self, node: SearchNode, call: Call, rest: GoalSeq,
                      clause, depth: int) -> SearchNode:
        fresh, floor = rename_clause(clause, self.path, node.floor,
                                     self.options.rename)
        sigma = unify(call.term, clause.head, fresh)
        if sigma is None:
            return _fail_leaf()
        goals = sigma.apply_goals(_tag_cuts(clause.body, depth) + rest)
        answer = node.answer
        if isinstance(answer, tuple):
            try:
                answer = tuple(sigma.apply(t) for t in answer)
            except CyclicTermError as e:
                answer = e
        return SearchNode(goals, label=_label_for(call.term, sigma),
                          answer=answer, floor=floor)


def build_tree(program: Program, query: GoalSeq,
               limits: Limits | None = None,
               options: EngineOptions | None = None) -> SearchTree:
    """Run `query` against `program`, materialising the whole search tree."""
    if not query:
        raise ValueError("query must contain at least one goal")
    limits = limits or Limits()
    options = options or EngineOptions()
    qvars = tuple(v for v in goal_variables(query) if not v.is_anonymous)
    root = SearchNode(_tag_cuts(query, 0), answer=qvars)
    builder = _Builder(program, limits, options)
    builder.run(root)
    return SearchTree(root, builder.truncated, qvars)


def expand(node: SearchNode, program: Program,
           options: EngineOptions | None = None) -> list[SearchNode]:
    """One expansion step on its own, mainly for poking at the rules."""
    builder = _Builder(program, Limits(), options or EngineOptions())
    builder.path.update(_names_of(node.goals, node.label))
    node.children = builder.expand(node, [])
    return node.children


def solutions(tree: SearchTree) -> list[Answer]:
    """Success-leaf answers in depth-first (left-to-right) order."""
    out: list[Answer] = []
    stack: list[tuple[SearchNode, tuple[int, ...]]] = [(tree.root, ())]
    while stack:
        node, path = stack.pop()
        if node.status is NodeStatus.SUCCESS:
            if isinstance(node.answer, CyclicTermError):
                raise node.answer
            # a query variable left unbound is not an answer binding
            out.append(Answer(tuple(
                (v, t) for v, t in zip(tree.query_vars, node.answer) if t != v),
                path))
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((node.children[i], path + (i,)))
    return out
