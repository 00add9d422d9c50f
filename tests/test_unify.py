import sys

import pytest

from sldtree.errors import CyclicTermError
from sldtree.reader import parse_program, parse_term
from sldtree.terms import (Atom, Compound, Integer, Variable, term_text,
                           variables_of)
from sldtree.unify import derive, rename_clause, resolve, unify


def v(name):
    return Variable(name)


# -- unify ----------------------------------------------------------------

def test_unify_identical_atoms_gives_empty_mgu():
    s = unify(Compound("p", (Atom("a"),)), Compound("p", (Atom("a"),)))
    assert s == {}


def test_unify_mismatched_functors_fails():
    x = v("X")
    assert unify(Compound("f", (x,)), Compound("g", (x,))) is None
    assert unify(Atom("a"), Atom("b")) is None
    assert unify(Integer(1), Integer(2)) is None
    assert unify(Atom("p"), Compound("p", (Atom("a"),))) is None


def test_unify_binds_goal_variables_to_fact_constants():
    a, c = v("A"), v("C")
    goal = Compound("loves", (a, c))
    fact = Compound("loves", (Atom("vincent"), Atom("mia")))
    s = unify(goal, fact)
    assert resolve(a, s, {}) == Atom("vincent")
    assert resolve(c, s, {}) == Atom("mia")
    assert len(s) == 2


def test_unify_var_var_binds_left_to_right():
    x, y = v("X"), v("Y")
    s = unify(x, y)
    assert resolve(x, s, {}) == y
    assert y not in s


def test_unify_result_is_resolved():
    # X = f(Y) together with Y = a must leave X -> f(a), not f(Y)
    x, y = v("X"), v("Y")
    t1 = Compound("p", (x, y))
    t2 = Compound("p", (Compound("f", (y,)), Atom("a")))
    s = unify(t1, t2)
    assert resolve(x, s, {}) == Compound("f", (Atom("a"),))
    assert resolve(y, s, {}) == Atom("a")


def test_unify_equalizes():
    x, y, z = v("X"), v("Y"), v("Z")
    t1 = Compound("f", (x, Compound("g", (y,)), y))
    t2 = Compound("f", (Compound("h", (z,)), z, Atom("b")))
    s = unify(t1, t2)
    assert s is not None
    assert resolve(t1, s, {}) == resolve(t2, s, {})


def test_unify_lists():
    t1 = parse_term("[H|T]")
    t2 = parse_term("[a,b,c]")
    h, tail = variables_of(t1)
    s = unify(t1, t2)
    assert resolve(h, s, {}) == Atom("a")
    assert term_text(resolve(tail, s, {})) == "[b,c]"


def test_unify_without_occurs_check_is_cyclic():
    x = v("X")
    s = unify(x, Compound("f", (x,)))
    assert s is not None
    with pytest.raises(CyclicTermError) as info:
        resolve(x, s, {})
    assert "bound inside its own value" in str(info.value)


def _sides(text):
    # both sides come from one term, so they share their variables
    t = parse_term(text)
    return t.args


def test_unify_terminates_when_a_variable_meets_its_own_image():
    # once X -> f(X) is bound, the pair (f(X), X) resolves to itself
    t1, t2 = _sides("eq(p(X,X), p(f(X),f(X)))")
    s = unify(t1, t2)
    assert s is not None
    with pytest.raises(CyclicTermError):
        resolve(t1.args[0], s, {})


def test_unify_terminates_on_two_cyclic_bindings_unified():
    # X = f(X), Y = f(Y), X = Y as one term pair
    t1, t2 = _sides("eq(q(X,Y,X), q(f(X),f(Y),Y))")
    s = unify(t1, t2)
    assert s is not None
    for x in variables_of(t1):
        with pytest.raises(CyclicTermError):
            resolve(x, s, {})


def test_bindings_stay_triangular_until_applied():
    # X is bound to f(Y) as it stands; Y's binding shows only on resolve
    x, y = v("X"), v("Y")
    s = unify(Compound("p", (x, y)),
              Compound("p", (Compound("f", (y,)), Atom("a"))))
    assert s == {x: Compound("f", (y,)), y: Atom("a")}
    assert resolve(x, s, {}) == Compound("f", (Atom("a"),))


def test_apply_keeps_unchanged_subterms_by_identity():
    x = v("X")
    ground = parse_term("g([a,b,c], h(1))")
    t = Compound("p", (x, ground))
    s = {x: Atom("a")}
    assert resolve(t, s, {}).args[1] is ground
    assert resolve(ground, s, {}) is ground


def test_apply_walks_terms_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    x = v("X")
    t = x
    for _ in range(depth):
        t = Compound("f", (t,))
    s = unify(Compound("p", (x, t)), Compound("p", (Atom("a"), t)))
    out = resolve(t, s, {})
    for _ in range(depth):
        out = out.args[0]
    assert out == Atom("a")


def test_anonymous_variables_unify_independently():
    t1 = parse_term("p(_, _)")
    s = unify(t1, parse_term("p(a, b)"))
    assert s is not None and len(s) == 2


# -- resolve --------------------------------------------------------------

def test_apply_leaves_unbound_variables_alone():
    x, y = v("X"), v("Y")
    s = {x: Atom("a")}
    assert resolve(y, s, {}) == y
    assert (resolve(Compound("f", (x, y)), s, {})
            == Compound("f", (Atom("a"), y)))


def test_apply_is_idempotent():
    x, y = v("X"), v("Y")
    s = unify(Compound("p", (x, Compound("f", (y,)))),
              Compound("p", (Compound("g", (y,)), Compound("f", (Atom("c"),)))))
    t = Compound("q", (x, y))
    assert resolve(resolve(t, s, {}), s, {}) == resolve(t, s, {})


def test_identity_bindings_are_dropped():
    # unify never binds a variable to itself
    x = v("X")
    assert unify(x, x) == {}


# -- rename_clause --------------------------------------------------------

def first_clause(src):
    return parse_program(src).clauses[0]


def test_renaming_a_fact_keeps_display_names():
    c = first_clause("member(X, [X|_]).")
    fresh = {}
    floor = rename_clause(c, frozenset(), 1, "prime", fresh)
    assert floor == 1  # no collision, generation not consumed
    old = c.variables
    assert list(fresh) == list(old)
    new = list(fresh.values())
    assert [w.name for w in new] == [w.name for w in old]
    assert all(a != b for a, b in zip(old, new))  # ids always change


def test_renaming_moves_all_named_variables_on_any_collision():
    c = first_clause("member(X, [_|L]) :- member(X, L).")
    fresh = {}
    floor = rename_clause(c, {"X"}, 1, "prime", fresh)
    assert floor == 2
    names = {w.name for w in fresh.values()}
    assert names == {"X'", "L'", "_"}


def test_renaming_skips_colliding_generations():
    c = first_clause("p(X) :- q(X).")
    fresh = {}
    floor = rename_clause(c, {"X", "X'", "X''"}, 1, "prime", fresh)
    assert fresh[c.variables[0]].name == "X'''"
    assert floor == 4


def test_renaming_starts_at_the_floor():
    c = first_clause("p(X) :- q(X).")
    fresh = {}
    floor = rename_clause(c, {"X"}, 3, "prime", fresh)
    assert fresh[c.variables[0]].name == "X'''"
    assert floor == 4


def test_numeric_rename_style():
    c = first_clause("descend(X,Y) :- child(X,Z), descend(Z,Y).")
    fresh = {}
    floor = rename_clause(c, {"Z"}, 1, "numeric", fresh)
    names = [fresh[w].name for w in c.variables]
    assert names == ["X1", "Y1", "Z1"]
    assert floor == 2


def test_renaming_is_a_bijection_on_occurrences():
    c = first_clause("append([H|T], L2, [H|L3]) :- append(T, L2, L3).")
    fresh = {}
    rename_clause(c, {"H"}, 1, "prime", fresh)
    head = resolve(c.head, fresh, {})
    head_h = head.args[0].args[0]
    out_h = head.args[2].args[0]
    assert head_h == out_h  # shared occurrences stay shared
    assert head_h.name == "H'"
    assert len(set(fresh.values())) == len(set(c.variables))


def test_renamed_anonymous_variables_stay_anonymous_and_fresh():
    c = first_clause("p(_, _, X).")
    fresh = {}
    rename_clause(c, {"X"}, 1, "prime", fresh)
    a, b, x = (fresh[w] for w in c.head.args)
    assert a.name == "_" and b.name == "_" and a != b
    assert x.name == "X'"


def test_renamed_clause_shares_no_variables_with_original():
    c = first_clause("p(X, Y) :- q(X), r(Y).")
    fresh = {}
    rename_clause(c, frozenset(), 1, "prime", fresh)
    assert not set(c.variables) & set(fresh.values())


def test_a_clause_without_variables_gets_no_fresh_variables():
    c = first_clause("p(a, [b]) :- q(c), \\+ r.")
    fresh = {}
    floor = rename_clause(c, {"X"}, 3, "prime", fresh)
    assert fresh == {}
    assert floor == 3


def test_a_bound_variable_gets_no_fresh_one_and_still_chooses_the_generation():
    c = first_clause("p(X, Y) :- q(Y).")
    x, y = c.variables
    bindings = {x: Atom("a")}
    # X's name alone collides, and Y moves with it
    floor = rename_clause(c, {"X"}, 1, "prime", bindings)
    assert floor == 2
    assert bindings[x] is Atom("a")
    assert list(bindings) == [x, y]
    assert bindings[y].name == "Y'" and bindings[y] is not y


def test_unify_starts_from_the_given_bindings():
    c = first_clause("p(X, Y) :- q(Y).")
    fresh = {}
    rename_clause(c, frozenset(), 1, "prime", fresh)
    a = v("A")
    sigma = unify(Compound("p", (a, Atom("b"))), c.head, fresh)
    x, y = (fresh[w] for w in c.variables)
    # the call variable binds to the fresh one
    assert resolve(a, sigma, {}) is x
    assert resolve(c.head, sigma, {}) == Compound("p", (x, Atom("b")))
    assert resolve(y, sigma, {}) == Atom("b")
    assert len(fresh) == 2  # the starting bindings are not changed


def test_derive_names_a_generation_in_each_style():
    assert derive("X", 3, "prime") == "X'''"
    assert derive("X", 3, "numeric") == "X3"
