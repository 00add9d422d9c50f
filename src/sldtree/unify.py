"""Unification without occurs-check, substitutions, clause renaming.

Substitutions are kept in resolved form: the term a variable maps to
contains no variable that is itself bound (the one exception is a
cyclic binding like X -> f(X), which unification is allowed to create
but apply() refuses to exercise).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CyclicTermError
from .kb import (Call, Clause, Compare, Cut, Disjunction, FailGoal, Goal,
                 GoalSeq, Negation, TrueGoal, goal_variables)
from .terms import Compound, Term, Variable, term_text, variables_of


def _subst(bindings: dict[Variable, Term], t: Term) -> Term:
    """One structural pass; enough for resolved bindings."""
    if isinstance(t, Variable):
        return bindings.get(t, t)
    if isinstance(t, Compound):
        args = tuple(_subst(bindings, a) for a in t.args)
        # identity, not ==: an equality test would walk both terms again
        if all(a is b for a, b in zip(args, t.args)):
            return t
        return Compound(t.functor, args)
    return t


def _map_goal(bindings: dict[Variable, Term], g: Goal) -> Goal:
    if isinstance(g, Call):
        return Call(_subst(bindings, g.term))
    if isinstance(g, Compare):
        return Compare(g.op, _subst(bindings, g.lhs), _subst(bindings, g.rhs))
    if isinstance(g, Disjunction):
        return Disjunction(tuple(_map_goal(bindings, x) for x in g.left),
                           tuple(_map_goal(bindings, x) for x in g.right))
    if isinstance(g, Negation):
        return Negation(tuple(_map_goal(bindings, x) for x in g.inner))
    return g  # Cut / TrueGoal / FailGoal carry no terms


class Substitution:
    """Immutable variable -> term mapping."""

    __slots__ = ("_bindings", "_cyclic")

    def __init__(self, bindings: dict[Variable, Term] | None = None,
                 cyclic: frozenset[Variable] = frozenset()):
        clean = {v: t for v, t in (bindings or {}).items() if t != v}
        self._bindings = clean
        self._cyclic = cyclic

    @property
    def is_empty(self) -> bool:
        return not self._bindings

    def get(self, v: Variable) -> Term | None:
        return self._bindings.get(v)

    def binds(self, v: Variable) -> bool:
        return v in self._bindings

    def apply(self, t: Term) -> Term:
        out = _subst(self._bindings, t)
        if self._cyclic:
            for v in variables_of(out):
                if v in self._cyclic:
                    raise CyclicTermError(
                        f"cyclic term: {v.name} is bound inside its own value")
        return out

    def apply_goal(self, g: Goal) -> Goal:
        if isinstance(g, Call):
            return Call(self.apply(g.term))
        if isinstance(g, Compare):
            return Compare(g.op, self.apply(g.lhs), self.apply(g.rhs))
        if isinstance(g, Disjunction):
            return Disjunction(self.apply_goals(g.left), self.apply_goals(g.right))
        if isinstance(g, Negation):
            return Negation(self.apply_goals(g.inner))
        return g

    def apply_goals(self, goals: GoalSeq) -> GoalSeq:
        return tuple(self.apply_goal(g) for g in goals)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Substitution)
                and self._bindings == other._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}->{term_text(t)}"
                          for v, t in self._bindings.items())
        return f"Substitution({{{inner}}})"


def _occurs(v: Variable, t: Term) -> bool:
    if isinstance(t, Variable):
        return t == v
    if isinstance(t, Compound):
        return any(_occurs(v, a) for a in t.args)
    return False


def unify(t1: Term, t2: Term) -> Substitution | None:
    """Most general unifier of t1 and t2, or None.

    No occurs-check: unify(X, f(X)) succeeds with a cyclic binding.
    When both sides are variables the left one is bound, so callers
    passing (goal, clause head) get goal-variable-first bindings.
    """
    bindings: dict[Variable, Term] = {}
    cyclic: set[Variable] = set()

    def bind(v: Variable, t: Term) -> None:
        if _occurs(v, t):
            cyclic.add(v)
        one = {v: t}
        for w in bindings:
            bindings[w] = _subst(one, bindings[w])
        bindings[v] = t

    queue: deque[tuple[Term, Term]] = deque([(t1, t2)])
    while queue:
        a, b = queue.popleft()
        a = _subst(bindings, a)
        b = _subst(bindings, b)
        if a == b:
            continue
        if isinstance(a, Variable):
            bind(a, b)
        elif isinstance(b, Variable):
            bind(b, a)
        elif (isinstance(a, Compound) and isinstance(b, Compound)
              and a.functor == b.functor and len(a.args) == len(b.args)):
            queue.extend(zip(a.args, b.args))
        else:
            return None
    return Substitution(bindings, frozenset(cyclic))


@dataclass(frozen=True)
class RenameCounter:
    """Counts clause-renaming generations within one tree build."""
    next_index: int = 1
    style: str = "prime"  # "prime": X', X''  "numeric": X1, X2

    def __post_init__(self) -> None:
        if self.style not in ("prime", "numeric"):
            raise ValueError(f"unknown rename style: {self.style}")
        if self.next_index < 1:
            raise ValueError("rename index starts at 1")

    def derive(self, base: str, k: int) -> str:
        if self.style == "prime":
            return base + "'" * k
        return base + str(k)


def clause_variables(c: Clause) -> list[Variable]:
    seen: dict[Variable, None] = {}
    for v in variables_of(c.head):
        seen.setdefault(v)
    for v in goal_variables(c.body):
        seen.setdefault(v)
    return list(seen)


def rename_clause(c: Clause, ctr: RenameCounter,
                  avoid: frozenset[str] | set[str]) -> tuple[Clause, RenameCounter]:
    """Copy c with fresh variables.

    Every variable gets a new id. Display names are kept as written
    unless one of them collides with `avoid`; then all of them move to
    the next generation (X', L' ... or X1, L1 ...) together, skipping
    generations that still collide. Anonymous variables stay '_'.
    """
    vs = clause_variables(c)
    named = [v for v in vs if not v.is_anonymous]
    mapping: dict[Variable, Term] = {}
    if named and any(v.name in avoid for v in named):
        k = ctr.next_index
        while any(ctr.derive(v.name, k) in avoid for v in named):
            k += 1
        for v in named:
            mapping[v] = Variable(ctr.derive(v.name, k))
        ctr = RenameCounter(k + 1, ctr.style)
    else:
        for v in named:
            mapping[v] = Variable(v.name)
    for v in vs:
        if v.is_anonymous:
            mapping[v] = Variable("_")
    head = _subst(mapping, c.head)
    body = tuple(_map_goal(mapping, g) for g in c.body)
    return Clause(head, body), ctr
