import sys
import threading

import pytest

from sldtree.kb import (Call, Compare, Cut, Disjunction, Negation,
                        goal_variables)
from sldtree.reader import parse_program, parse_query, parse_term
from sldtree.serialize import ViewNode
from sldtree.terms import (Atom, Compound, Integer, Variable, atom_text,
                           indicator, is_callable, list_parts, list_term,
                           term_text, variables_of)
from sldtree.unify import unify


P_A = Call(parse_term("p(a)"))


def test_variable_identity_is_the_object_not_the_name():
    a = Variable("X")
    b = Variable("X")
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_compound_requires_args():
    with pytest.raises(ValueError):
        Compound("f", ())


def test_equal_terms_and_goals_are_equal_and_hash_equal():
    x = Variable("X")  # one variable, in both copies

    def make():
        return [Compound("f", (Atom("a"), Compound("g", (x,)))),
                Call(Compound("p", (Integer(1), x))), Call(Atom("q"))]
    for a, b in zip(make(), make()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    # a leaf is equal only to itself: its two copies are one object
    assert Atom("a") is Atom("a") and Integer(7) is Integer(7)
    fa = Compound("f", (Atom("a"),))
    for a, b in [(Atom("a"), Atom("b")), (Integer(1), Integer(2)),
                 (Atom("1"), Integer(1)), (fa, Atom("f")),
                 (fa, Compound("g", (Atom("a"),))),
                 (fa, Compound("f", (Atom("a"), Atom("a")))),
                 (Compound("f", (x,)), Compound("f", (Variable("X"),))),
                 (Call(Atom("p")), Call(Atom("q")))]:
        assert a != b and not a == b


def test_each_atom_name_and_integer_value_is_one_object():
    assert Atom("a") is not Atom("b") and Integer(-7) is not Integer(7)
    assert Atom("1") is not Integer(1)
    assert unify(Atom("1"), Integer(1)) is None
    assert unify(Atom("1"), Atom("1")) == {}
    # the program's atoms are the query's
    (clause,) = parse_program("p(a).").clauses
    (goal,) = parse_query("p(a)")
    assert clause.head.args[0] is goal.term.args[0]
    for leaf, field in ((Atom("a"), "name"), (Integer(7), "value")):
        with pytest.raises(AttributeError):
            setattr(leaf, field, "b")
    assert Atom("a").name == "a" and Integer(7).value == 7


def test_threads_that_make_the_same_leaves_get_the_same_objects():
    n = 2000
    made = [[] for _ in range(8)]

    def make(out):
        for k in range(n):  # each key a new str and a new int object
            out.append((Atom(f"thread-{k}"), Integer(10**30 + k)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make, args=(out,)) for out in made]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first = made[0]
    assert len(first) == n
    for out in made[1:]:
        assert all(a is b and i is j for (a, i), (b, j) in zip(first, out))
        assert len(out) == len(first)


def test_ground_marks_compounds_without_variables():
    a = Atom("a")
    assert Compound("f", (a, Compound("g", (Integer(1),)))).ground
    assert not Compound("f", (a, Compound("g", (Variable("X"),)))).ground
    assert a.ground and Integer(0).ground and not Variable("X").ground


@pytest.mark.parametrize("obj, field", [
    (Variable("X"), "name"), (Atom("a"), "name"), (Integer(1), "value"),
    (Compound("f", (Atom("a"),)), "functor"),
    (Compound("f", (Atom("a"),)), "args"),
    (Compound("f", (Atom("a"),)), "ground"),
    (Call(Atom("p")), "term"),
    (Disjunction((Call(Atom("p")),), ()), "left"),
    (Negation((Call(Atom("p")),)), "inner"),
    (Cut(1), "depth"),
    (Compare("<", Integer(1), Integer(2)), "op"),
    (ViewNode(("p",), "open"), "children"),
])
def test_terms_and_goals_are_immutable(obj, field):
    # a frozen dataclass raises FrozenInstanceError, an AttributeError
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, Atom("b"))
    assert getattr(obj, field) is before


def test_a_comparison_with_an_unknown_operator_is_refused():
    with pytest.raises(ValueError, match="unsupported comparison operator"):
        Compare("=:=", Integer(1), Integer(2))


def test_terms_and_goals_repr():
    t = Compound("f", (Variable("X"), Atom("a"), Integer(-3)))
    assert repr(t) == ("Compound('f', (Variable('X'), Atom('a'), "
                       "Integer(-3)))")
    assert repr(Compound("g", (Atom("[]"),))) == "Compound('g', (Atom('[]'),))"
    assert repr(Call(t)) == ("Call(term=Compound('f', (Variable('X'), "
                             "Atom('a'), Integer(-3))))")
    p, q = Call(Atom("p")), Call(Atom("q"))
    assert repr(Disjunction((p,), (q, Negation(())))) == (
        "Disjunction(left=(Call(term=Atom('p')),), "
        "right=(Call(term=Atom('q')), Negation(inner=())))")


def test_terms_nested_100000_deep_compare_hash_and_repr_at_the_default_limit():
    n = 100_000
    text = "f(" * n + "a" + ")" * n
    one, two = parse_term(text), parse_term(text)
    assert one == two and not one != two
    assert hash(one) == hash(two)
    other = parse_term(text.replace("a", "b"))  # differs at the innermost leaf
    assert one != other and not one == other
    assert repr(one) == "Compound('f', (" * n + "Atom('a')" + ",))" * n


@pytest.mark.parametrize("opener, nest", [
    ("(p(a);", lambda seq: Disjunction((P_A,), seq)),
    ("\\+ (", Negation),
], ids=("disjunction", "negation"))
def test_goals_nested_100000_deep_compare_hash_and_repr_at_the_default_limit(
        opener, nest):
    n = 100_000
    (one,) = parse_query(opener * n + "p(a)" + ")" * n)

    def built(leaf):
        seq = (leaf,)
        for _ in range(n):
            seq = (nest(seq),)
        return seq[0]
    two = built(P_A)
    assert one == two
    assert hash(one) == hash(two)
    other = built(Call(parse_term("p(b)")))  # differs at the innermost goal
    assert one != other
    head = repr(nest((P_A,)))[:-len(repr(P_A) + ",))")]
    assert repr(one) == head * n + repr(P_A) + ",))" * n


def test_variables_of_first_occurrence_order():
    x, y = Variable("X"), Variable("Y")
    t = Compound("f", (x, Compound("g", (y, x)), y))
    assert variables_of(t) == [x, y]
    assert variables_of(Atom("a")) == []


def test_list_round_trip():
    items = [Atom("a"), Atom("b"), Atom("c")]
    t = list_term(items, Atom("[]"))
    got_items, tail = list_parts(t)
    assert got_items == items and tail == Atom("[]")
    assert list_term(got_items, tail) == t


def test_list_term_empty_is_nil():
    assert list_term((), Atom("[]")) == Atom("[]")


def test_list_term_single_cons():
    h, t = Variable("H"), Variable("T")
    cell = list_term((h,), t)
    assert cell == Compound(".", (h, t))


def test_term_text_list_sugar():
    t = list_term((Atom("a"), Atom("b"), Atom("c")), Atom("[]"))
    assert term_text(t) == "[a,b,c]"
    partial = list_term((Atom("a"), Atom("b")), Variable("T"))
    assert term_text(partial) == "[a,b|T]"


def test_term_text_nested_compound():
    t = Compound("succ", (Compound("succ", (Integer(0),)),))
    assert term_text(t) == "succ(succ(0))"


def test_term_text_negative_integer():
    assert term_text(Integer(-7)) == "-7"


def test_atom_quoting():
    assert atom_text("mia") == "mia"
    assert atom_text("[]") == "[]"
    assert atom_text("!") == "!"
    assert atom_text("McConagall") == "'McConagall'"
    assert atom_text("two words") == "'two words'"
    assert atom_text("don't") == "'don''t'"


def test_is_callable_and_indicator():
    assert is_callable(Atom("p"))
    assert is_callable(Compound("f", (Atom("a"),)))
    assert not is_callable(Integer(1))
    assert not is_callable(Variable("X"))
    assert indicator(Compound("f", (Atom("a"), Atom("b")))) == ("f", 2)
    assert indicator(Atom("p")) == ("p", 0)


def test_variables_of_walks_terms_deeper_than_the_recursion_limit():
    x, y = Variable("X"), Variable("Y")
    t = x
    for _ in range(sys.getrecursionlimit() + 100):
        t = Compound("f", (t, y))
    assert variables_of(Compound("g", (y, t))) == [y, x]
    assert variables_of(t) == [x, y]


def test_goal_variables_walks_goals_nested_deeper_than_the_recursion_limit():
    x, y = Variable("X"), Variable("Y")
    goals = (Call(Compound("p", (x,))),)
    for i in range(5000):  # alternating '\+' and ';', built without the reader
        goals = ((Negation(goals),) if i % 2
                 else (Disjunction(goals, (Call(Atom("q")),)),))
    assert goal_variables(goals) == [x]
    assert goal_variables((Compare("<", y, x),) + goals) == [y, x]
