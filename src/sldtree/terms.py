"""First-order term algebra.

Terms are immutable. A Variable's identity is the object, never its
display name: each Variable(name) is a new variable, so two variables
with the same name in different clauses are different, and renaming a
clause makes new variables even when the printed name stays the same.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Union


@dataclass(frozen=True, eq=False)
class Variable:
    name: str
    ground = False

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_anonymous(self) -> bool:
        return self.name == "_"


@dataclass(frozen=True)
class Atom:
    name: str
    ground = True

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Integer:
    value: int
    ground = True

    def __repr__(self) -> str:
        return f"Integer({self.value})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("compound terms need at least one argument")
        # no variable below: a walk that only rewrites variables skips it
        object.__setattr__(self, "ground", all(map(_ground, self.args)))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"Compound({self.functor!r}, ({inner}))"


Term = Union[Variable, Atom, Integer, Compound]

_ground = attrgetter("ground")

EMPTY_LIST = Atom("[]")
CONS = "."


def is_callable(t: Term) -> bool:
    """Atoms and compounds can head a clause or be called as goals."""
    return isinstance(t, (Atom, Compound))


def indicator(t: Term) -> tuple[str, int]:
    """(name, arity) key of a callable term."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    raise TypeError(f"not a callable term: {t!r}")


def list_term(items: list[Term] | tuple[Term, ...], tail: Term = EMPTY_LIST) -> Term:
    """Build the '.'/2 chain for [i1, i2, ... | tail]."""
    out = tail
    for item in reversed(items):
        out = Compound(CONS, (item, out))
    return out


def list_parts(t: Term) -> tuple[list[Term], Term]:
    """Split a term into leading list items and the final tail.

    Proper lists end with the [] atom; anything else (a variable, or a
    non-list term) is returned as the tail unchanged.
    """
    items: list[Term] = []
    while isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def variables_of(t: Term) -> list[Variable]:
    """All variables in t, first occurrence first, no duplicates."""
    seen: dict[Variable, None] = {}
    stack = [t]
    while stack:
        term = stack.pop()
        if isinstance(term, Variable):
            seen.setdefault(term)
        elif not term.ground:
            stack.extend(reversed(term.args))
    return list(seen)


_PLAIN_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def atom_text(name: str) -> str:
    """Quote an atom name unless it reads back as a plain atom."""
    if _PLAIN_ATOM.match(name) or name in ("[]", "!"):
        return name
    escaped = name.replace("'", "''")
    return f"'{escaped}'"


def term_text(t: Term) -> str:
    """Render a term the way the parser accepts it, lists in sugar form."""
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Atom):
        return atom_text(t.name)
    if isinstance(t, Integer):
        return str(t.value)
    if t.functor == CONS and len(t.args) == 2:
        items, tail = list_parts(t)
        body = ",".join(term_text(i) for i in items)
        if tail == EMPTY_LIST:
            return f"[{body}]"
        return f"[{body}|{term_text(tail)}]"
    inner = ",".join(term_text(a) for a in t.args)
    return f"{atom_text(t.functor)}({inner})"
