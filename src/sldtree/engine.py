"""Exhaustive SLD search-tree construction.

The tree is built depth-first, always expanding the leftmost goal, with
one child per clause in source order. Failed unifications, branches cut
away by '!', and negation probes all stay in the tree; that is the
point of the exercise.

Bindings are plain dicts in triangular form, as unify() returns them.
A clause child is built from one map: the call is unified with the
clause's head as written, and then only the clause variables that the
unifier leaves unbound get fresh variables, in that map. It costs one
walk of its terms: _rewrite() resolves its goals through the map and
scopes their unowned cuts, its edge label is resolved through the same
map and memo, and that walk collects the names the child shows, which
go on the path when it is visited. The root shows the query variables'
names, found once with them. The call's shown variables are found once
per node, not once per clause.

Answers are resolved at the success leaves, in the build's own walk.
A clause child's step binds each bound variable of the call to its
value resolved through the map, so no variable of a parsed clause
enters it. The step stays in its parent's frame only while the child's
subtree is built, and the builder keeps those of the steps on the path
in one dict. At a success leaf it resolves the query variables through
that dict. No node carries the answer so far, so the build is linear in
the tree.

There is no occurs check, so a unifier can hold a cyclic value. A child
whose goals, label or step meet one is built again with the clause
renamed in full first and its step kept triangular: a cyclic value in
its goals or label raises CyclicTermError there, and one that only its
step holds raises only at a success leaf that needs it.

A cut names the depth, on the DFS path, of the node whose choice point
it commits: a call at depth d stamps d on the cuts of its clause bodies,
the query's cuts get 0, and a negation at depth d gives its probe's cuts
d + 1. Reaching a cut prunes the unexplored siblings at that node and at
every node below it on the path, so a cut that is the first goal of its
own target prunes nothing.

A call tries only the clauses that kb.Program.candidates gives; a
clause it leaves out clashes with the call and becomes a failure leaf
without unification, and a head that does not unify becomes one without
renaming. Every failure leaf is one shared node, which the build never
changes.

The build makes no reference cycles, so the cyclic garbage collector is
paused while it runs.
"""
from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import count, islice
from string import ascii_uppercase

from .errors import (CyclicTermError, InstantiationError,
                     UnknownPredicateError)
from .kb import (Call, Compare, Cut, Disjunction, FailGoal, GoalSeq,
                 Negation, Program, TrueGoal, goal_text, goal_variables)
from .terms import (Compound, Integer, Term, Variable, indicator, term_text,
                    variables_of)
from .unify import RENAME_STYLES, rename_clause, resolve, unify

# a step's bindings, as (variable, value) pairs: the call's variables
# and their resolved values (triangular where a value is cyclic)
Step = tuple[tuple[Variable, Term], ...]


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


_NO_LABEL = EdgeLabel()  # shared by every node without bindings shown


class SearchNode:
    """A node of the tree: mutable, and equal only to itself. The build
    makes one for every clause child that is not a failure leaf, so this
    is a plain slotted class; all failure leaves are one shared node,
    which callers must not change."""
    __slots__ = ("goals", "status", "label", "children")

    def __init__(self, goals: GoalSeq, status: NodeStatus = NodeStatus.OPEN,
                 label: EdgeLabel = _NO_LABEL,
                 children: list[SearchNode] | tuple[()] | None = None
                 ) -> None:
        self.goals = goals
        self.status = status
        self.label = label
        self.children = [] if children is None else children

    def __repr__(self) -> str:  # the children by count: a tree is deep
        return (f"SearchNode(goals={self.goals!r}, status={self.status!r}, "
                f"label={self.label!r}, {len(self.children)} children)")


# the one failure leaf, a child wherever a branch fails: a head that
# clashes or does not unify, fail, a comparison that does not hold, an
# unknown predicate. The build never changes it: it visits only open
# nodes, and a cut prunes only open ones
_FAIL_LEAF = SearchNode((), NodeStatus.FAIL, children=())


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
    query_vars: tuple[Variable, ...]
    answers: list[Answer]  # one per success leaf, in depth-first order
    # the Limits fields that truncated a node, of "max_depth", "max_nodes"
    tripped: tuple[str, ...] = ()

    @property
    def truncated(self) -> bool:
        return bool(self.tripped)


# a node's place in the tree: the index of the child taken at its
# parent, and the parent's cell; the root's is None. Answers whose leaves
# share an ancestor share its cell, so paths take memory linear in the tree
PathCell = tuple[int, "PathCell"] | None


@dataclass(frozen=True, eq=False)  # equal only to itself
class Answer:
    bindings: tuple[tuple[Variable, Term], ...]
    # the success leaf's path cell; repr() leaves it out, as it would
    # walk a chain of cells as deep as the tree by recursion
    cell: PathCell = field(repr=False)
    # the query variables left unbound, which bound ones may share
    free: tuple[Variable, ...] = ()

    @property
    def path(self) -> tuple[int, ...]:
        """The child indices from the root to the success leaf."""
        indices = []
        cell = self.cell
        while cell is not None:
            index, cell = cell
            indices.append(index)
        return tuple(reversed(indices))

    @property
    def mapping(self) -> dict[Variable, Term]:
        return dict(self.bindings)

    def text(self) -> str:
        if not self.bindings:
            return "true"
        return _sharing_text(self.bindings, self.free)


def _sharing_text(bindings: tuple[tuple[Variable, Term], ...],
                  free: tuple[Variable, ...]) -> str:
    """Answer text that shows which unbound values are shared.

    Query variables whose value is one and the same unbound variable
    print as X = Y, Y = Z (a free query variable is its own value), and
    that variable shows the first one's name wherever else it occurs.
    Each other unbound variable that is anonymous, or whose name another
    variable of the answer shows too, gets a fresh name _A, _B, ... in
    order of first occurrence.
    """
    sharers: dict[Variable, list[Variable]] = {v: [v] for v in free}
    for v, t in bindings:
        if isinstance(t, Variable):
            sharers.setdefault(t, []).append(v)
    shown = {u: vs[0].name for u, vs in sharers.items() if len(vs) > 1}
    others = [w for w in dict.fromkeys(
        w for _, t in bindings for w in variables_of(t)) if w not in shown]
    query_names = {v.name for v, _ in bindings}.union(v.name for v in free)
    uses = Counter(w.name for w in others)
    fresh = (f"_{c}{n or ''}" for n in count() for c in ascii_uppercase)
    for w in others:
        if (w.is_anonymous or uses[w.name] > 1
                or (w.name in query_names and w not in free)):
            shown[w] = next(n for n in fresh
                            if n not in query_names and n not in uses)
    display = {w: Variable(n) for w, n in shown.items()}
    parts = []
    for v, t in bindings:
        if not isinstance(t, Variable) or len(sharers[t]) == 1:
            parts.append(f"{v.name} = {term_text(resolve(t, display, {}))}")
        elif sharers[t][0] is not v:
            group = sharers[t]
            parts.append(f"{group[group.index(v) - 1].name} = {v.name}")
    return ", ".join(parts)


def _rewrite(goals: GoalSeq, depth: int | None,
             bindings: dict[Variable, Term],
             memo: dict[Variable, Term],
             names: set[str] | None = None) -> GoalSeq:
    """goals with their terms resolved through the triangular `bindings`
    (see unify.resolve, which `memo` and `names` serve) and each unowned
    cut scoped to `depth`. A negation keeps its cuts unowned until it is
    expanded, and is kept whole when nothing in it can change: no
    bindings, no names to collect. A goal whose terms all come back
    unchanged is kept, so a child shares it with its parent."""
    out: list = []
    # per open ';' or '\+' goal: (it, the goals after it, depth, out)
    stack: list = []
    todo = iter(goals)
    while True:
        for g in todo:
            if isinstance(g, Call):
                term = resolve(g.term, bindings, memo, names)
                if term is not g.term:
                    g = Call(term)
            elif isinstance(g, Compare):
                lhs = resolve(g.lhs, bindings, memo, names)
                rhs = resolve(g.rhs, bindings, memo, names)
                if lhs is not g.lhs or rhs is not g.rhs:
                    g = Compare(g.op, lhs, rhs)
            elif isinstance(g, Cut) and g.depth is None:
                g = Cut(depth)
            elif isinstance(g, Disjunction):
                stack.append((g, todo, depth, out))
                todo, out = iter(g.left + g.right), []
                break
            elif isinstance(g, Negation) and (bindings or names is not None):
                stack.append((g, todo, depth, out))
                todo, depth, out = iter(g.inner), None, []
                break
            out.append(g)
        else:  # the goals in hand ran out
            if not stack:
                return tuple(out)
            g, todo, depth, outer = stack.pop()
            seq, out = tuple(out), outer
            out.append(Disjunction(seq[:len(g.left)], seq[len(g.left):])
                       if isinstance(g, Disjunction) else Negation(seq))


_COMPARE = {"<": int.__lt__, ">": int.__gt__,
            "=<": int.__le__, ">=": int.__ge__}


def _compare_holds(g: Compare) -> bool:
    for side in (g.lhs, g.rhs):
        if not isinstance(side, Integer):
            raise InstantiationError(
                f"comparison needs two integers: {goal_text(g)}")
    return _COMPARE[g.op](g.lhs.value, g.rhs.value)


def apply_cut(path: list[tuple[SearchNode, int]]) -> None:
    """Prune unexplored branches from the cut's target down.

    `path` holds (node, index-of-active-child) pairs from the cut's
    target down to the parent of the cut. At each entry, every sibling
    after the active child that is still open becomes Pruned.
    Already-failed siblings keep their x.
    """
    for node, index in path:
        for child in node.children[index + 1:]:
            if child.status is NodeStatus.OPEN:
                child.status = NodeStatus.PRUNED


# what the builder keeps for each child of a node on the DFS path: the
# bindings of its step, the names it shows, and its floor, the lowest
# generation a clause renamed to expand it may take. A clause child's
# names are collected as its goals are rewritten; a plain child (of true,
# '!', ';', '\+' or a comparison, or a failure leaf) has None, as its
# goals show no variable that its parent does not show
Kid = tuple[Step, "set[str] | None", int]


@dataclass
class _Frame:
    """A node on the DFS path, its path cell, and a Kid for each of its
    children, parallel to node.children."""
    node: SearchNode
    cell: PathCell
    # the names the node put on the path: those it shows and no ancestor does
    added: set[str]
    kids: list[Kid]
    index: int = -1


class _Builder:
    def __init__(self, program: Program, limits: Limits, options: EngineOptions,
                 query_vars: tuple[Variable, ...] = ()):
        self.program = program
        self.limits = limits
        self.options = options
        self.query_vars = query_vars
        self.answers: list[Answer] = []
        # the compounds the answers' values are made of, by functor and
        # argument ids (see unify.resolve): the value at a success leaf
        # shares what it can with the values at the leaves before it
        self.shared: dict[tuple, Compound] = {}
        # the bindings of the steps from the root to the node in hand; a
        # variable bound on a path is gone from the goals below it, so no
        # path binds one twice, and taking a step's out deletes its keys
        self.env: dict[Variable, Term] = {}
        # the names the nodes on the DFS path show; each name belongs to
        # the frame of the topmost node that shows it, and leaves with it
        self.path: set[str] = set()
        self.node_count = 1  # the root
        # whether a node was truncated by the depth, or the node, limit
        self.deep = self.full = False

    def run(self, root: SearchNode) -> None:
        frames: list[_Frame] = []
        env = self.env
        open_ = NodeStatus.OPEN
        self._visit(root, frames, {v.name for v in self.query_vars}, 1)
        while frames:
            f = frames[-1]
            i = f.index
            if i >= 0:  # back from a child: its step leaves the env
                for v, _ in f.kids[i][0]:
                    del env[v]
            # the next open child: most children of a wide call are failure
            # leaves, which have nothing to visit
            children = f.node.children
            i += 1
            while i < len(children) and children[i].status is not open_:
                i += 1
            if i == len(children):
                frames.pop()
                self.path -= f.added
                continue
            f.index = i
            step, names, floor = f.kids[i]
            env.update(step)
            self._visit(children[i], frames, names, floor)

    def _visit(self, node: SearchNode, frames: list[_Frame],
               names: set[str] | None, floor: int) -> None:
        """Expand `node`, unless it is a leaf, and push its frame;
        `names` are those it shows, or None if its parent shows them."""
        cell = (frames[-1].index, frames[-1].cell) if frames else None
        if not node.goals:
            node.status = NodeStatus.SUCCESS
            self._answer(cell)
            return
        deep = len(frames) > self.limits.max_depth
        full = self.node_count >= self.limits.max_nodes
        if deep or full:
            node.status = NodeStatus.TRUNCATED
            self.deep |= deep
            self.full |= full
            return
        added = names - self.path if names else set()
        self.path |= added
        node.children, kids = self.expand(node, frames, floor)
        self.node_count += len(node.children)
        frames.append(_Frame(node, cell, added, kids))

    def _answer(self, cell: PathCell) -> None:
        """Read the answer off the success leaf whose path cell is `cell`."""
        resolved: dict[Variable, Term] = {}
        qvars = self.query_vars
        values = [resolve(v, self.env, resolved, shared=self.shared)
                  for v in qvars]
        # a query variable left unbound is not an answer binding
        self.answers.append(Answer(
            tuple((v, t) for v, t in zip(qvars, values) if t is not v),
            cell,
            tuple(v for v, t in zip(qvars, values) if t is v)))

    # -- expansion ------------------------------------------------------

    def expand(self, node: SearchNode, frames: list[_Frame], floor: int
               ) -> tuple[list[SearchNode], list[Kid]]:
        """Children of `node`, whose floor is `floor`, and a Kid for each;
        `frames` is the path from the root to its parent, so the node's
        depth is len(frames). The call's shown variables are found once,
        not once per clause."""
        g, rest = node.goals[0], node.goals[1:]
        depth = len(frames)
        children: list[SearchNode]
        plain: Kid = ((), None, floor)

        if isinstance(g, Call):
            key = indicator(g.term)
            clauses = self.program.clauses_for(key)
            if not clauses:
                if self.options.unknown == "error":
                    raise UnknownPredicateError(
                        f"unknown predicate {key[0]}/{key[1]} in goal "
                        f"{term_text(g.term)}")
                children = [_FAIL_LEAF]
            else:
                # _rewrite resolved the call, as candidates() needs; a
                # clause it leaves out clashes, and stays a failure leaf
                found = variables_of(g.term)
                shown = [v for v in found if not v.is_anonymous]
                hidden = [v for v in found if v.is_anonymous]
                children = [_FAIL_LEAF] * len(clauses)
                kids = [plain] * len(clauses)
                for j in self.program.candidates(key, g.term):
                    children[j], kids[j] = self._clause_child(
                        g, shown, hidden, rest, clauses[j], depth, floor)
                return children, kids
        elif isinstance(g, TrueGoal):
            children = [SearchNode(rest)]
        elif isinstance(g, FailGoal):
            children = [_FAIL_LEAF]
        elif isinstance(g, Cut):
            apply_cut([(f.node, f.index) for f in frames[g.depth or 0:]])
            children = [SearchNode(rest)]
        elif isinstance(g, Compare):
            children = ([SearchNode(rest)]
                        if _compare_holds(g) else [_FAIL_LEAF])
        elif isinstance(g, Disjunction):
            children = [SearchNode(g.left + rest), SearchNode(g.right + rest)]
        elif isinstance(g, Negation):
            inner = _rewrite(g.inner, depth + 1, {}, {})
            probe = inner + (Cut(depth), FailGoal())
            children = [SearchNode(probe), SearchNode(rest)]
        else:
            raise TypeError(f"cannot expand goal {g!r}")
        return children, [plain] * len(children)

    def _clause_child(self, call: Call, shown: list[Variable],
                      hidden: list[Variable], rest: GoalSeq, clause,
                      depth: int, floor: int) -> tuple[SearchNode, Kid]:
        """The child for `clause`, of a node whose floor is `floor`, and
        its Kid: the bindings its step made, the names the child shows,
        and its floor.

        `shown` are the call's named variables and `hidden` its anonymous
        ones. One map: the call is unified with the head as written, and
        only the clause variables the unifier leaves unbound get fresh
        variables, in it. One walk: the goals and the edge label are
        resolved through it with one memo, collecting the names of the
        variables they put into them. The step binds each bound variable
        of the call to its resolved value, the label's where it has one.

        A value that is cyclic (there is no occurs check) is left to
        _cyclic_child."""
        sigma = unify(call.term, clause.head)
        if sigma is None:
            return _FAIL_LEAF, ((), None, floor)
        first = floor
        if clause.variables:
            floor = rename_clause(clause, self.path, floor,
                                  self.options.rename, sigma)
        # cuts in `rest` outside a negation are scoped already
        memo: dict[Variable, Term] = {}
        names: set[str] = set()
        try:
            goals = _rewrite(clause.body + rest, depth, sigma, memo, names)
            label = tuple([(v, resolve(v, sigma, memo, names))
                           for v in shown if v in sigma])
            # last: a walk without `names` leaves memo entries whose
            # names a later walk that collects them would miss
            step = label + tuple([(v, resolve(v, sigma, memo))
                                  for v in hidden if v in sigma])
        except CyclicTermError:
            return self._cyclic_child(call, shown, rest, clause, depth, first)
        names.update([v.name for v, _ in label])
        names.discard("_")
        return SearchNode(goals, label=EdgeLabel(label)), (step, names, floor)

    def _cyclic_child(self, call: Call, shown: list[Variable],
                      rest: GoalSeq, clause, depth: int, floor: int
                      ) -> tuple[SearchNode, Kid]:
        """_clause_child's result where a value of the child is cyclic.

        The clause is renamed in full first, as unify's starting
        bindings, so every clause variable the unifier binds has a fresh
        stand-in, and the step keeps the bindings triangular, renamed
        apart from the clause. A cyclic value in the goals or the label
        raises CyclicTermError here, naming the renamed variable. One
        that only the call's anonymous variables reach raises only at a
        success leaf that needs it, so a branch that fails has no answer
        and no error."""
        fresh: dict[Variable, Term] = {}
        floor = rename_clause(clause, self.path, floor, self.options.rename,
                              fresh)
        sigma = unify(call.term, clause.head, fresh)
        memo: dict[Variable, Term] = {}
        names: set[str] = set()
        goals = _rewrite(clause.body + rest, depth, sigma, memo, names)
        label = tuple([(v, resolve(v, sigma, memo, names))
                       for v in shown if v in sigma])
        names.update([v.name for v, _ in label])
        names.discard("_")
        # unify() copies `fresh` first, so the step's bindings follow it
        renamed: dict[Variable, Term] = {}
        step = tuple([(v, t if t.ground else resolve(t, fresh, renamed))
                      for v, t in islice(sigma.items(), len(fresh), None)])
        return SearchNode(goals, label=EdgeLabel(label)), (step, names, floor)


def build_tree(program: Program, query: GoalSeq,
               limits: Limits | None = None,
               options: EngineOptions | None = None) -> SearchTree:
    """Run `query` against `program`, materialising the whole search tree."""
    if not query:
        raise ValueError("query must contain at least one goal")
    limits = limits or Limits()
    options = options or EngineOptions()
    qvars = tuple(v for v in goal_variables(query) if not v.is_anonymous)
    root = SearchNode(_rewrite(query, 0, {}, {}))
    builder = _Builder(program, limits, options, qvars)
    # the build makes no reference cycles, and a full collection of a
    # big tree in the making walks every node of it, again and again
    collecting = gc.isenabled()
    gc.disable()
    try:
        builder.run(root)
    finally:
        if collecting:
            gc.enable()
    tripped = tuple(name for name, hit in (("max_depth", builder.deep),
                                           ("max_nodes", builder.full))
                    if hit)
    return SearchTree(root, qvars, builder.answers, tripped)


def solutions(tree: SearchTree) -> list[Answer]:
    """Success-leaf answers in depth-first (left-to-right) order."""
    return tree.answers
