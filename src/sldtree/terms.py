"""First-order term algebra.

Terms are immutable. A Variable's identity is the object, never its
display name: each Variable(name) is a new variable, so two variables
with the same name in different clauses are different, and renaming a
clause makes new variables even when the printed name stays the same.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=4096)  # the names a program uses are few and recur
def atom_text(name: str) -> str:
    """Quote an atom name unless it reads back as a plain atom."""
    if _PLAIN_ATOM.match(name) or name in ("[]", "!"):
        return name
    escaped = name.replace("'", "''")
    return f"'{escaped}'"


def term_text(t: Term) -> str:
    """Render a term the way the parser accepts it, lists in sugar form."""
    return write(t)


def write(root, pieces=None) -> str:
    """The text of root, written on an explicit stack, so a term nested
    any depth prints as a flat one does.

    A term is written the way the parser reads it, lists in sugar form,
    and a str as it is. Any other item is written as the items that
    `pieces(item)` returns, in order: kb writes goals so.
    """
    out: list[str] = []
    stack = [root]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is str:
            out.append(x)
        elif tx is Atom:
            out.append(atom_text(x.name))
        elif tx is Variable:
            out.append(x.name)
        elif tx is Integer:
            out.append(str(x.value))
        elif tx is Compound:
            items = x.args
            if x.functor == CONS and len(items) == 2:
                items, tail = list_parts(x)
                out.append("[")
                if tail == EMPTY_LIST:
                    stack.append("]")
                else:
                    stack += "]", tail, "|"
            else:
                out.append(f"{atom_text(x.functor)}(")
                stack.append(")")
            for item in reversed(items[1:]):
                stack += item, ","
            stack.append(items[0])
        else:
            stack.extend(reversed(pieces(x)))
    return "".join(out)
