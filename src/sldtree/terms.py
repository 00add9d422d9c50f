"""First-order term algebra.

Terms are immutable. A Variable's identity is the object, never its
display name: each Variable(name) is a new variable, so two variables
with the same name in different clauses are different, and renaming a
clause makes new variables even when the printed name stays the same.
Atoms, integers and compounds are equal, and hash equal, when their
structure is.

Every resolution step makes terms, so the four classes are plain ones
with __slots__ and their own __init__: no dataclass machinery runs per
object. Each __init__ writes its fields through the slot descriptors,
and assigning to a field afterwards raises AttributeError. A compound,
like a goal or a view, is a Value: its ==, hash() and repr() read it
through walk(), one explicit-stack loop, so a value nested any depth
compares, hashes and prints as a flat one does. write() and
variables_of() run at every step, and keep loops of their own.
"""
from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import Union


class Frozen:
    """Base of the immutable slotted classes: no field is set, or
    deleted, once __init__ has written it through its slot descriptor."""
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable "
            f"{type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of an immutable "
            f"{type(self).__name__}")


class Variable(Frozen):
    """A logic variable; equal, and hashed, by identity only."""
    __slots__ = ("name",)
    ground = False

    def __init__(self, name: str) -> None:
        _set_variable_name(self, name)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_anonymous(self) -> bool:
        return self.name == "_"


class Atom(Frozen):
    __slots__ = ("name",)
    ground = True

    def __init__(self, name: str) -> None:
        _set_atom_name(self, name)

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is Atom:
            return self.name == other.name
        return NotImplemented

    # unify tests atoms with !=, which would otherwise go through __eq__
    def __ne__(self, other: object) -> bool:
        if type(other) is Atom:
            return self.name != other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)


class Integer(Frozen):
    __slots__ = ("value",)
    ground = True

    def __init__(self, value: int) -> None:
        _set_integer_value(self, value)

    def __repr__(self) -> str:
        return f"Integer({self.value})"

    def __eq__(self, other: object) -> bool:
        if type(other) is Integer:
            return self.value == other.value
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if type(other) is Integer:
            return self.value != other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


class Value(Frozen):
    """Base of the immutable classes that hold other values: ==, hash()
    and repr() read the value through walk(), so a value nested any
    depth compares, hashes and prints as a flat one does."""
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or walk(self, _parts) == walk(other, _parts)

    def __hash__(self) -> int:
        return hash(tuple(walk(self, _parts)))

    def __repr__(self) -> str:
        return "".join(walk(self, _text))


class Compound(Value):
    __slots__ = ("functor", "args", "ground")

    def __init__(self, functor: str, args: tuple[Term, ...]) -> None:
        if not args:
            raise ValueError("compound terms need at least one argument")
        _set_functor(self, functor)
        _set_args(self, args)
        # no variable below: a walk that only rewrites variables skips it
        _set_ground(self, all(map(_ground, args)))


def walk(root, parts) -> list:
    """The leaves of root in pre-order, from an explicit stack: an item
    for which parts(item) is not None stands for the items it returns."""
    out: list = []
    stack = [root]
    while stack:
        x = stack.pop()
        inner = parts(x)
        if inner is None:
            out.append(x)
        else:
            stack.extend(reversed(inner))
    return out


def _parts(x):
    """What == and hash() read: a value is its class, then its slots (a
    compound's functor and arguments only); a tuple is its length, then
    its items. Equal values give equal leaves."""
    if type(x) is tuple:
        return (len(x), *x)
    if type(x) is Compound:
        return (Compound, x.functor, x.args)
    if isinstance(x, Value):
        return (type(x), *[getattr(x, name) for name in x.__slots__])
    return None


def _text(x):
    """What repr() reads: text, and the values and tuples it prints as
    text. A compound prints positionally, any other value by keyword."""
    if type(x) is str:
        return None
    names = None
    if type(x) is tuple:
        head, items, tail = "(", x, ",)" if len(x) == 1 else ")"
    elif type(x) is Compound:
        head, items, tail = f"Compound({x.functor!r}, (", x.args, "))"
    else:
        head, tail, names = f"{type(x).__name__}(", ")", x.__slots__
        items = [getattr(x, name) for name in names]
    out = [head]
    for i, item in enumerate(items):
        if i:
            out.append(", ")
        if names:
            out.append(f"{names[i]}=")
        out.append(item if type(item) is tuple or isinstance(item, Value)
                   else repr(item))
    out.append(tail)
    return out


_set_variable_name = Variable.name.__set__
_set_atom_name = Atom.name.__set__
_set_integer_value = Integer.value.__set__
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__
_set_ground = Compound.ground.__set__

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


_NO_VARIABLES = frozenset((Atom, Integer, str))


def variables_of(root, pieces=None) -> list[Variable]:
    """All variables in root, first occurrence first, no duplicates.

    Items are read as write() reads them: a term as itself, a str
    skipped, and any other item as the items `pieces(item)` returns.
    """
    seen: dict[Variable, None] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is Compound:
            if not x.ground:
                stack.extend(reversed(x.args))
        elif tx is Variable:
            seen.setdefault(x)
        elif tx not in _NO_VARIABLES:
            stack.extend(reversed(pieces(x)))
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
