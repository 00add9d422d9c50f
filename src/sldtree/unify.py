"""Unification without occurs-check, resolving, clause renaming.

Bindings are a plain dict from variables to terms in triangular form,
as unify() makes them: a value may name variables that are bound in
turn. resolve() is the one walk that reads them, resolving each variable
once and raising CyclicTermError on a variable met inside its own value.
unify() decomposes each pair of compound subterms at most once, so it
terminates on cyclic terms too.
"""
from __future__ import annotations

from collections.abc import Mapping, Set as AbstractSet
from operator import is_not

from .errors import CyclicTermError
from .kb import Clause
from .terms import Compound, Term, Variable


def resolve(t: Term, bindings: Mapping[Variable, Term],
            resolved: dict[Variable, Term],
            names: set[str] | None = None,
            shared: dict[tuple, Compound] | None = None) -> Term:
    """t with each variable bound in `bindings` replaced by its value.

    `bindings` are triangular: a value may name variables bound in turn.
    One iterative walk. Unchanged subterms, ground ones among them
    unwalked, are kept by identity, and the compound at the end of each
    variable chain is resolved once: `resolved` memoizes it for the walks
    that share it. A variable met inside its own value raises
    CyclicTermError and empties `resolved`.

    The name of each unbound variable put into the result, anonymous
    ones too, goes into `names`. A memoized value's names went in when
    it was walked, so walks that share `resolved` share `names`: the
    engine collects a step's shown names this way, in the walk that
    rewrites its goals. A ground term, an unbound variable, and a
    variable whose chain ends in one return before any stack is made.

    A compound that must be rebuilt is first looked up in `shared`, if
    given, by its functor and the ids of its new arguments, and made and
    put there only when it is not found: values resolved with one table
    share their compounds. The table holds each compound, and so its
    arguments, so an id in a key stays that object's.
    """
    if t.ground:
        return t
    value = t
    while type(value) is Variable and value in bindings:
        value = bindings[value]
    if type(value) is Variable:
        if names is not None:
            names.add(value.name)
        return value
    if value.ground:
        return value
    if names is None:
        names = set()
    name = names.add
    done: list[Term] = []
    # terms to resolve, and 1-tuples: rebuild this compound, or keep
    # this variable's value, from the top of `done`
    todo: list = [t]
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            (term,) = item
            if isinstance(term, Variable):
                resolved[term] = done[-1]
                continue
            k = len(done) - len(term.args)
            if any(map(is_not, done[k:], term.args)):
                args = tuple(done[k:])
                if shared is None:
                    term = Compound(term.functor, args)
                else:
                    key = (term.functor, *map(id, args))
                    term = shared.get(key)
                    if term is None:
                        term = shared[key] = Compound(key[0], args)
            done[k:] = [term]
        elif item.ground:
            done.append(item)
        elif isinstance(item, Compound):
            todo += (item,), *reversed(item.args)
        elif item not in bindings:
            name(item.name)
            done.append(item)
        else:
            value = bindings[item]
            while isinstance(value, Variable) and value in bindings:
                item, value = value, bindings[value]
            if value.ground:
                done.append(value)
            elif not isinstance(value, Compound):
                name(value.name)
                done.append(value)
            elif (memo := resolved.get(item)) is None:
                resolved[item] = item  # open: its value is being walked
                todo += (item,), value
            elif memo is item:
                resolved.clear()  # drops the open marks
                raise CyclicTermError(
                    f"cyclic term: {item.name} is bound inside its own value")
            else:
                done.append(memo)
    return done[0]


def unify(t1: Term, t2: Term,
          bindings: Mapping[Variable, Term] | None = None
          ) -> dict[Variable, Term] | None:
    """Most general unifier of t1 and t2 as triangular bindings, or None.

    No occurs-check: unify(X, f(X)) succeeds with a cyclic binding.
    When both sides are variables the left one is bound, so callers
    passing (goal, clause head) get goal-variable-first bindings.
    `bindings`, if given, are the triangular bindings to start from and
    are not changed, and the result holds them too. The engine unifies
    a call with a clause's head as written, from no bindings, and
    renames afterwards only what stays unbound (see rename_clause); it
    passes a clause's full renaming this way only to rebuild a child
    whose values are cyclic.

    Pairs are unified breadth first, in one loop over a list that grows
    by the argument pairs of each compound pair decomposed. The argument
    pairs of two compounds at the top start it, and the set of compound
    pairs decomposed, which stops a cyclic term from looping, is made
    only when a compound pair is met below them.
    """
    bindings = dict(bindings) if bindings else {}
    while isinstance(t1, Variable) and t1 in bindings:
        t1 = bindings[t1]
    while isinstance(t2, Variable) and t2 in bindings:
        t2 = bindings[t2]
    if isinstance(t1, Compound) and isinstance(t2, Compound) and t1 is not t2:
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return None
        pairs = list(zip(t1.args, t2.args))
    else:
        pairs = [(t1, t2)]
    decomposed = None  # ids of compound pairs
    for a, b in pairs:  # grows as it goes: a queue
        while isinstance(a, Variable) and a in bindings:
            a = bindings[a]
        while isinstance(b, Variable) and b in bindings:
            b = bindings[b]
        if a is b:
            continue
        if isinstance(a, Variable):
            bindings[a] = b
        elif isinstance(b, Variable):
            bindings[b] = a
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            if decomposed is None:
                decomposed = {(id(t1), id(t2))}
            if (id(a), id(b)) not in decomposed:
                decomposed.add((id(a), id(b)))
                pairs.extend(zip(a.args, b.args))
        else:
            return None
    return bindings


RENAME_STYLES = ("prime", "numeric")  # X', X'' ...  or  X1, X2 ...


def derive(base: str, k: int, style: str) -> str:
    """The generation-k display name of base."""
    return base + "'" * k if style == "prime" else base + str(k)


def rename_clause(c: Clause, avoid: AbstractSet[str], first: int,
                  style: str, bindings: dict[Variable, Term]) -> int:
    """Bind each variable of c that `bindings` leaves unbound to a fresh
    variable, in place, and return the next floor.

    The generation is chosen from all of c's named variables, bound or
    not. Display names are kept as written unless one of them is in
    `avoid`; then all of them move together to the first generation
    k >= first whose names `avoid` does not hold, and the next floor is
    k + 1. Otherwise it stays `first`. Anonymous variables stay '_'.

    Given an empty dict, it renames every variable of c. The engine
    passes the unifier of a call and c's head as written, so a variable
    that the unifier binds gets no fresh variable.
    """
    moved = not c.names.isdisjoint(avoid)
    if moved:
        while any(derive(n, first, style) in avoid for n in c.names):
            first += 1
    for v in c.variables:
        if v not in bindings:
            bindings[v] = Variable(derive(v.name, first, style)
                                   if moved and not v.is_anonymous
                                   else v.name)
    return first + 1 if moved else first
