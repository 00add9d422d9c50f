"""Goals, clauses and programs.

A conjunction is not a goal variant: the engine works on goal sequences
(tuples), so "a, b, c" is just three goals in a row. Disjunction and
negation hold whole sequences for the same reason. Every goal class is
a slotted class that sets its fields through its slot descriptors, and
a terms.Value, so a goal nested any depth in ';' and '\\+' compares,
hashes and prints as a flat one does.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .terms import (Compound, Term, Value, Variable, indicator, is_callable,
                    variables_of, write)

COMPARE_OPS = ("<", ">", "=<", ">=")


class Call(Value):
    """A goal that calls a predicate: the most common goal, made at every
    resolution step, so a plain slotted class like the terms."""
    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        if not is_callable(term):
            raise ValueError(f"goal is not callable: {term!r}")
        _set_term(self, term)


class Disjunction(Value):
    __slots__ = ("left", "right")

    def __init__(self, left: GoalSeq, right: GoalSeq) -> None:
        _set_left(self, left)
        _set_right(self, right)


class Negation(Value):
    __slots__ = ("inner",)

    def __init__(self, inner: GoalSeq) -> None:
        _set_inner(self, inner)


class Cut(Value):
    # depth on the search path of the node whose choice point the cut
    # commits, stamped by the engine; parsed cuts start out unscoped.
    __slots__ = ("depth",)

    def __init__(self, depth: int | None = None) -> None:
        _set_depth(self, depth)


class TrueGoal(Value):
    __slots__ = ()


class FailGoal(Value):
    __slots__ = ()


class Compare(Value):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Term, rhs: Term) -> None:
        if op not in COMPARE_OPS:
            raise ValueError(f"unsupported comparison operator: {op}")
        _set_op(self, op)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)


_set_term = Call.term.__set__
_set_left = Disjunction.left.__set__
_set_right = Disjunction.right.__set__
_set_inner = Negation.inner.__set__
_set_depth = Cut.depth.__set__
_set_op = Compare.op.__set__
_set_lhs = Compare.lhs.__set__
_set_rhs = Compare.rhs.__set__


Goal = Union[Call, Disjunction, Negation, Cut, TrueGoal, FailGoal, Compare]
GoalSeq = tuple[Goal, ...]


@dataclass(frozen=True)
class Clause:
    head: Term
    body: GoalSeq = ()

    def __post_init__(self) -> None:
        if not is_callable(self.head):
            raise ValueError(f"clause head is not callable: {self.head!r}")

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        """Head then body variables, first occurrence first."""
        return tuple(variables_of(self, _goal_pieces))

    @cached_property
    def names(self) -> frozenset[str]:
        """The display names of the named variables, which choose the
        generation a renaming moves them to (see unify.rename_clause)."""
        return frozenset(v.name for v in self.variables if not v.is_anonymous)

    @cached_property
    def head_keys(self) -> tuple:
        """arg_keys of the head."""
        return arg_keys(self.head)


class Program:
    """Clauses grouped by (name, arity), source order preserved, and
    indexed by the argument key at each position as calls need it."""

    def __init__(self, clauses: list[Clause] | tuple[Clause, ...] = ()):
        self._order = tuple(clauses)
        by_pred: dict[tuple[str, int], list[Clause]] = {}
        for c in self._order:
            by_pred.setdefault(indicator(c.head), []).append(c)
        self._by_pred = {k: tuple(cs) for k, cs in by_pred.items()}
        # per (predicate, argument position): the positions of the heads
        # with each key there, and of those with a variable there
        self._index: dict[tuple[tuple[str, int], int],
                          tuple[dict, tuple[int, ...]]] = {}

    def clauses_for(self, key: tuple[str, int]) -> tuple[Clause, ...]:
        return self._by_pred.get(key, ())

    def candidates(self, key: tuple[str, int], call: Term) -> Sequence[int]:
        """The source-order positions, in clauses_for(key), of the clauses
        whose head does not clash with the resolved `call`: wherever the
        call's argument key (see arg_keys) is not None, the head's is the
        same or None. The index, which holds each position once, serves
        the first such argument, and the others are checked on that."""
        bound = [(i, k) for i, k in enumerate(arg_keys(call)) if k is not None]
        if not bound:
            return range(len(self._by_pred[key]))
        position, arg_key = bound.pop(0)
        entry = self._index.get((key, position))
        if entry is None:
            by_key: dict = {}
            unkeyed: list[int] = []
            for i, c in enumerate(self._by_pred[key]):
                k = c.head_keys[position]
                if k is None:
                    unkeyed.append(i)
                else:
                    by_key.setdefault(k, []).append(i)
            entry = self._index[key, position] = (
                {k: tuple(ps) for k, ps in by_key.items()}, tuple(unkeyed))
        by_key, unkeyed = entry
        keyed = by_key.get(arg_key, ())
        if keyed and unkeyed:
            keyed = sorted(keyed + unkeyed)  # two runs: a linear merge
        found = keyed or unkeyed
        if not bound:
            return found
        clauses = self._by_pred[key]
        return [j for j in found
                if all(clauses[j].head_keys[i] in (None, k) for i, k in bound)]

    @property
    def clauses(self) -> list[Clause]:
        return list(self._order)


def arg_keys(t: Term) -> tuple:
    """One key per argument of the callable t: an atom or an integer is
    its own key (there is one object per name and per value), a
    compound's is its (functor, arity), a variable's None.

    Two arguments whose keys are both not None and differ do not unify.
    """
    if not isinstance(t, Compound):
        return ()
    return tuple([None if type(a) is Variable
                  else (a.functor, len(a.args)) if type(a) is Compound
                  else a
                  for a in t.args])


def goal_text(g: Goal) -> str:
    """One goal, written the way the parser reads it."""
    if type(g) is Call:  # the most common goal, written as its term
        return write(g.term)
    return write(g, _goal_pieces)


def _goal_pieces(x) -> tuple:
    """What a goal, a goal sequence or a clause is made of, in order:
    strings, terms, goals and goal sequences. terms.write reads the parts
    as text, and terms.variables_of reads their variables."""
    if type(x) is tuple:  # a goal sequence: its goals, ',' between them
        return tuple([p for g in x for p in (",", g)][1:])
    if isinstance(x, Call):
        return (x.term,)
    if isinstance(x, TrueGoal):
        return ("true",)
    if isinstance(x, FailGoal):
        return ("fail",)
    if isinstance(x, Cut):
        return ("!",)
    if isinstance(x, Compare):
        return (x.lhs, f" {x.op} ", x.rhs)
    if isinstance(x, Disjunction):
        return ("(", x.left, ";", x.right, ")")
    if isinstance(x, Negation):
        if len(x.inner) == 1 and isinstance(x.inner[0], Call):
            return ("\\+ ", x.inner[0])
        return ("\\+ (", x.inner, ")")
    if isinstance(x, Clause):
        if not x.body:
            return (x.head, ".")
        return (x.head, " :- ", x.body, ".")
    raise TypeError(f"not a goal, goal sequence or clause: {x!r}")


def seq_text(goals: GoalSeq) -> str:
    return write(goals, _goal_pieces)


def goal_variables(goals: GoalSeq) -> list[Variable]:
    """Variables of a goal sequence, first occurrence first, found on an
    explicit stack, so a goal nested any depth in ';' and '\\+' is no
    deeper for it than a flat one."""
    return variables_of(goals, _goal_pieces)


def clause_text(c: Clause) -> str:
    return write(c, _goal_pieces)


__all__ = [
    "COMPARE_OPS", "Call", "Disjunction", "Negation", "Cut", "TrueGoal",
    "FailGoal", "Compare", "Goal", "GoalSeq", "Clause", "Program",
    "arg_keys", "goal_text", "seq_text", "goal_variables", "clause_text",
]
