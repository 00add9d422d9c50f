import gc
import tracemalloc

import pytest

from sldtree.kb import (Call, Clause, Compare, Cut, Disjunction, FailGoal,
                        Negation, TrueGoal, clause_text, goal_text, seq_text)
from sldtree.reader import (ParseError, SourcePosition, parse_program,
                            parse_query, parse_term)
from sldtree.terms import (Atom, Compound, Integer, Variable, list_parts,
                           term_text)


def test_source_position_text():
    assert str(SourcePosition(3, 14)) == "line 3, column 14"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_program("p :- .")
    err = info.value
    assert str(err) == "line 1, column 6: expected a term"
    assert err.position == SourcePosition(1, 6)
    assert err.message == "expected a term"


def test_error_position_spans_lines():
    with pytest.raises(ParseError) as info:
        parse_program("p(a).\nq :- )(.\n")
    assert info.value.position.line == 2


def test_facts_and_rules():
    prog = parse_program("p(a). q(X) :- p(X).")
    assert len(prog.clauses) == 2
    fact, rule = prog.clauses
    assert fact == Clause(Compound("p", (Atom("a"),)))
    assert not fact.body
    assert rule.head == Compound("q", (rule.body[0].term.args[0],))
    assert isinstance(rule.body[0], Call)


def test_disjunction_binds_looser_than_conjunction():
    q = parse_query("a;b,c")
    assert q == (Disjunction((Call(Atom("a")),),
                             (Call(Atom("b")), Call(Atom("c")))),)


def test_disjunction_is_right_associative():
    (d,) = parse_query("a;b;c")
    assert d.left == (Call(Atom("a")),)
    (inner,) = d.right
    assert inner == Disjunction((Call(Atom("b")),), (Call(Atom("c")),))


def test_negation_binds_tighter_than_comma():
    q = parse_query("\\+ a, b")
    assert q == (Negation((Call(Atom("a")),)), Call(Atom("b")))


def test_negation_of_parenthesised_conjunction():
    q = parse_query("\\+ (a, b)")
    assert q == (Negation((Call(Atom("a")), Call(Atom("b")))),)


def test_double_negation():
    q = parse_query("\\+ \\+ a")
    assert q == (Negation((Negation((Call(Atom("a")),)),)),)


A, B, C = (Call(Atom(n)) for n in "abc")


BODIES = [
    ("(a, b), c", (A, B, C)),
    ("\\+ ((a, b))", (Negation((A, B)),)),
    ("not((a, b))", (Negation((A, B)),)),
    ("((a, b) ; c)", (Disjunction((A, B), (C,)),)),
    ("((a))", (A,)),
    ("\\+ (a)", (Negation((A,)),)),
]


@pytest.mark.parametrize("body,goals", BODIES, ids=[b for b, _ in BODIES])
def test_parenthesised_conjunction_flattens_in_a_body(body, goals):
    prog = parse_program(f"p :- {body}.")
    assert prog.clauses[0].body == goals


def test_not_call_reads_as_negation():
    q = parse_query("not(q)")
    assert q == (Negation((Call(Atom("q")),)),)


def test_control_atoms():
    assert parse_query("true") == (TrueGoal(),)
    assert parse_query("fail") == (FailGoal(),)
    assert parse_query("false") == (FailGoal(),)
    assert parse_query("!") == (Cut(),)
    assert parse_query("!")[0].depth is None


def test_comparison_goals():
    q = parse_query("X < 3, 4 >= Y")
    assert q == (Compare("<", q[0].lhs, Integer(3)),
                 Compare(">=", Integer(4), q[1].rhs))
    assert isinstance(q[0].lhs, Variable) and q[0].lhs.name == "X"


def test_quoted_atoms():
    prog = parse_program("witch('McConagall'). says('don''t').")
    first, second = prog.clauses
    assert first.head.args[0] == Atom("McConagall")
    assert second.head.args[0] == Atom("don't")


def test_comments_are_skipped():
    prog = parse_program("% leading note\np(a). % trailing\n% done\n")
    assert len(prog.clauses) == 1


def test_variables_scope_per_clause():
    prog = parse_program("p(X) :- q(X). r(X).")
    rule, fact = prog.clauses
    head_var = rule.head.args[0]
    body_var = rule.body[0].term.args[0]
    assert head_var == body_var  # same X within one clause
    assert fact.head.args[0] != head_var  # different clause, different X


def test_anonymous_variable_is_always_fresh():
    prog = parse_program("p(_, _).")
    a, b = prog.clauses[0].head.args
    assert a.name == "_" and b.name == "_"
    assert a != b


def test_parse_term_lists():
    t = parse_term("[a,b|T]")
    items, tail = list_parts(t)
    assert items == [Atom("a"), Atom("b")]
    assert isinstance(tail, Variable) and tail.name == "T"
    assert parse_term("[]") == Atom("[]")
    assert term_text(parse_term("[a,[b,c],0]")) == "[a,[b,c],0]"


def test_parse_term_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_term("f(a) b")


def test_goal_must_be_callable():
    with pytest.raises(ParseError) as info:
        parse_program("p :- 1.")
    assert info.value.message == "goal must be an atom or compound term"


def test_clause_head_must_be_callable():
    with pytest.raises(ParseError):
        parse_program("3.")


def test_empty_query_rejected():
    with pytest.raises(ParseError):
        parse_query("")


def test_unterminated_quote():
    with pytest.raises(ParseError) as info:
        parse_program("p('oops).")
    assert info.value.message == "unterminated quoted atom"


@pytest.mark.parametrize("char", [
    "\t", "\f", "\v", "\x1b", "\x7f", "\x85", "\u2028", "\u2029",
], ids=("tab", "form-feed", "vertical-tab", "escape", "delete",
        "next-line", "line-separator", "paragraph-separator"))
def test_a_control_or_line_separator_character_ends_a_quoted_atom(char):
    # written raw, any of them would break a line of the drawing
    with pytest.raises(ParseError) as info:
        parse_program(f"p(ok).\np('a{char}b').")
    assert info.value.message == "unterminated quoted atom"
    assert info.value.position == SourcePosition(2, 3)  # the opening quote
    assert parse_term("'a b'") is Atom("a b")


def test_print_parse_round_trip():
    texts = [
        "f(a,g(X,Y),[1,2|Z])",
        "[a,'two words',succ(succ(0))]",
        "-5",
        "'McConagall'",
    ]
    for text in texts:
        t = parse_term(text)
        assert term_text(parse_term(term_text(t))) == term_text(t)


def test_goal_text_round_trip_for_bodies():
    src = "p :- \\+ (a,b), (c;d,e), X < 2, !, true, fail."
    body = parse_program(src).clauses[0].body
    again = parse_program(f"p :- {seq_text(body)}.").clauses[0].body
    assert seq_text(again) == seq_text(body)
    assert goal_text(body[0]) == "\\+ (a,b)"
    assert goal_text(body[1]) == "(c;d,e)"


def test_clause_text():
    prog = parse_program("add(succ(X),Y,succ(Z)) :- add(X,Y,Z).")
    assert clause_text(prog.clauses[0]) == "add(succ(X),Y,succ(Z)) :- add(X,Y,Z)."
    assert clause_text(parse_program("p(a).").clauses[0]) == "p(a)."


# nested n deep: a term, and goal sequences in ';', '\\+' and 'not'
NESTINGS = {
    "term": lambda n: "p(" + "f(" * n + "a" + ")" * n + ")",
    "disjunction": lambda n: "(a;" * n + "b" + ")" * n,
    "negation": lambda n: "\\+ (" * n + "a,b" + ")" * n,
    "not": lambda n: "not(" * n + "a" + ")" * n,
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_a_query_nested_100000_deep_reads_and_prints_back(shape):
    query = want = NESTINGS[shape](100_000)
    if shape == "not":  # printed as '\\+', a lone call without parentheses
        want = "\\+ (" * 99_999 + "\\+ a" + ")" * 99_999
    assert seq_text(parse_query(query)) == want


def peak_of_parse_query(text: str) -> int:
    """The peak of the bytes parse_query(text) holds while it runs."""
    gc.collect()
    tracemalloc.start()
    try:
        parse_query(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", NESTINGS)
def test_parse_query_peak_memory_is_linear_in_the_nesting(shape):
    text = NESTINGS[shape]
    ratio = peak_of_parse_query(text(10_000)) / peak_of_parse_query(text(5_000))
    assert ratio <= 2.5
