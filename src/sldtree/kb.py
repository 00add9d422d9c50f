"""Goals, clauses and programs.

A conjunction is not a goal variant: the engine works on goal sequences
(tuples), so "a, b, c" is just three goals in a row. Disjunction and
negation hold whole sequences for the same reason.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .terms import (Atom, Compound, Frozen, Term, Variable, indicator,
                    is_callable, variables_of, write)

COMPARE_OPS = ("<", ">", "=<", ">=")


class Call(Frozen):
    """A goal that calls a predicate: the most common goal, made at every
    resolution step, so a plain slotted class like the terms."""
    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        if not is_callable(term):
            raise ValueError(f"goal is not callable: {term!r}")
        _set_term(self, term)

    def __repr__(self) -> str:
        return f"Call(term={self.term!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is Call:
            return self.term == other.term
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.term)


_set_term = Call.term.__set__


class _Nest(Frozen):
    """A goal that holds goal sequences, one per slot. ==, hash() and
    repr() loop over an explicit stack, so a goal nested any depth in
    ';' and '\\+' compares, hashes and prints as a flat one does; the
    other goals and the terms do not recurse."""
    __slots__ = ()

    def _seqs(self) -> list[GoalSeq]:
        return [getattr(self, name) for name in self.__slots__]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack: list = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Nest):
                for x, y in zip(a._seqs(), b._seqs()):
                    if len(x) != len(y):
                        return False
                    stack.extend(zip(x, y))
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        # the hash of the goal's pre-order tokens, a nest giving its class
        # and the lengths of its sequences: equal goals give equal tokens
        tokens: list = []
        stack: list = [self]
        while stack:
            g = stack.pop()
            if isinstance(g, _Nest):
                seqs = g._seqs()
                tokens += type(g).__name__, *map(len, seqs)
                for seq in reversed(seqs):
                    stack.extend(reversed(seq))
            else:
                tokens.append(g)
        return hash(tuple(tokens))

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # goals, and the text that goes between them
        while stack:
            g = stack.pop()
            if type(g) is str:
                out.append(g)
            elif isinstance(g, _Nest):
                out.append(f"{type(g).__name__}(")
                parts: list = []
                for name, seq in zip(g.__slots__, g._seqs()):
                    parts.append(f"{name}=(")
                    parts += [p for x in seq for p in (", ", x)][1:]
                    parts += ",)" if len(seq) == 1 else ")", ", "
                parts[-1] = ")"  # for the ", " after the last sequence
                stack.extend(reversed(parts))
            else:
                out.append(repr(g))
        return "".join(out)


class Disjunction(_Nest):
    __slots__ = ("left", "right")

    def __init__(self, left: GoalSeq, right: GoalSeq) -> None:
        _set_left(self, left)
        _set_right(self, right)


class Negation(_Nest):
    __slots__ = ("inner",)

    def __init__(self, inner: GoalSeq) -> None:
        _set_inner(self, inner)


_set_left = Disjunction.left.__set__
_set_right = Disjunction.right.__set__
_set_inner = Negation.inner.__set__


@dataclass(frozen=True)
class Cut:
    # depth on the search path of the node whose choice point the cut
    # commits, stamped by the engine; parsed cuts start out unscoped.
    depth: int | None = None


@dataclass(frozen=True)
class TrueGoal:
    pass


@dataclass(frozen=True)
class FailGoal:
    pass


@dataclass(frozen=True)
class Compare:
    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unsupported comparison operator: {self.op}")


Goal = Union[Call, Disjunction, Negation, Cut, TrueGoal, FailGoal, Compare]
GoalSeq = tuple[Goal, ...]


@dataclass(frozen=True)
class Clause:
    head: Term
    body: GoalSeq = ()

    def __post_init__(self) -> None:
        if not is_callable(self.head):
            raise ValueError(f"clause head is not callable: {self.head!r}")

    @property
    def is_fact(self) -> bool:
        return not self.body

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        """Head then body variables, first occurrence first."""
        return tuple(variables_of(self, _goal_pieces))

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

    def candidates(self, key: tuple[str, int], position: int,
                   arg_key) -> Sequence[int]:
        """The source-order positions, in clauses_for(key), of the clauses
        whose head key (see arg_keys) at `position` is `arg_key` or None:
        the others clash with an argument whose key is `arg_key`. The
        index holds each position once, and a variable's are merged in."""
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
        if not (keyed and unkeyed):
            return keyed or unkeyed
        return sorted(keyed + unkeyed)  # two runs: a linear merge

    def defines(self, key: tuple[str, int]) -> bool:
        return key in self._by_pred

    @property
    def clauses(self) -> list[Clause]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)


def arg_keys(t: Term) -> tuple:
    """One key per argument of the callable t: an atom's name, an
    integer's value, a compound's (functor, arity), None for a variable.

    Two arguments whose keys are both not None and differ do not unify.
    """
    if not isinstance(t, Compound):
        return ()
    return tuple([None if type(a) is Variable
                  else a.name if type(a) is Atom
                  else (a.functor, len(a.args)) if type(a) is Compound
                  else a.value
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
        if x.is_fact:
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
