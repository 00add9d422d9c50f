import sys

import pytest

from sldtree.kb import Call, Compare, Disjunction, Negation, goal_variables
from sldtree.terms import (Atom, Compound, Integer, Variable, atom_text,
                           indicator, is_callable, list_parts, list_term,
                           term_text, variables_of)


def test_variable_identity_is_the_object_not_the_name():
    a = Variable("X")
    b = Variable("X")
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_compound_requires_args():
    with pytest.raises(ValueError):
        Compound("f", ())


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
