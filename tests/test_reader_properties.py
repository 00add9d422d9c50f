"""Property tests of the reader.

The recursive descent parser the reader used before it read a token
list on explicit stacks is kept here as the oracle. On generated
programs, queries and terms, most of them corrupted, both must read the
same clauses (the same text and the same variable sharing) or raise a
ParseError with the same message at the same place. The token texts
that one findall lists must be those _tokenize reads, at its offsets.
Terms and goal sequences nested up to 10,000 deep must read, print and
read back to the same text.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sldtree.kb import (Call, Clause, Compare, Cut, Disjunction, FailGoal,
                        Negation, Program, TrueGoal, clause_text, seq_text)
from sldtree.reader import (_TOKEN, ParseError, SourcePosition, _position,
                            _tokenize, parse_program, parse_query,
                            parse_term)
from sldtree.terms import (Atom, Compound, Integer, Variable, is_callable,
                           list_term, term_text)

# -- the recursive reader, kept as the oracle -------------------------------

_ATOM, _VAR, _INT, _PUNCT, _EOF = "atom", "var", "int", "punct", "eof"


class RecursiveParser:
    """The reader's earlier parser, unchanged but for its name: one method
    per grammar level, each calling the next, over _tokenize's tokens."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.scope: dict[str, Variable] = {}

    # -- token plumbing ----------------------------------------------

    @property
    def tok(self):
        return self.tokens[self.i]

    def advance(self):
        t = self.tok
        self.i += 1
        return t

    def at_punct(self, value: str) -> bool:
        kind, text, _ = self.tok
        return kind == _PUNCT and text == value

    def expect(self, value: str):
        if not self.at_punct(value):
            raise self.fail(f"expected {value!r}")
        return self.advance()

    def fail(self, message: str, offset: int | None = None) -> ParseError:
        """An error at `offset`, by default the current token's."""
        if offset is None:
            offset = self.tok[2]
        return ParseError(message, _position(self.text, offset))

    # -- terms --------------------------------------------------------

    def variable(self, name: str) -> Variable:
        if name == "_":
            return Variable("_")  # each occurrence is fresh
        if name not in self.scope:
            self.scope[name] = Variable(name)
        return self.scope[name]

    def term(self):
        kind, value, _ = self.tok
        if kind == _VAR:
            self.advance()
            return self.variable(value)
        if kind == _INT:
            self.advance()
            return Integer(int(value))
        if kind == _ATOM:
            self.advance()
            if self.at_punct("("):
                self.advance()
                args = [self.term()]
                while self.at_punct(","):
                    self.advance()
                    args.append(self.term())
                self.expect(")")
                return Compound(value, tuple(args))
            return Atom(value)
        if self.at_punct("["):
            return self.list_tail()
        raise self.fail("expected a term")

    def list_tail(self):
        self.expect("[")
        if self.at_punct("]"):
            self.advance()
            return Atom("[]")
        items = [self.term()]
        while self.at_punct(","):
            self.advance()
            items.append(self.term())
        tail = Atom("[]")
        if self.at_punct("|"):
            self.advance()
            tail = self.term()
        self.expect("]")
        return list_term(items, tail)

    # -- goals --------------------------------------------------------

    def goal_seq(self):
        """Disjunction level: ';' binds loosest and associates right."""
        left = self.conjunction()
        if self.at_punct(";"):
            self.advance()
            right = self.goal_seq()
            return (Disjunction(left, right),)
        return left

    def conjunction(self):
        goals = list(self.negation())
        while self.at_punct(","):
            self.advance()
            goals.extend(self.negation())
        return tuple(goals)

    def negation(self):
        if self.at_punct("\\+"):
            self.advance()
            return (Negation(self.negation()),)
        return self.primary_goal()

    def primary_goal(self):
        """One goal as a 1-tuple, or a parenthesised sequence as parsed."""
        if self.at_punct("!"):
            self.advance()
            return (Cut(),)
        if self.at_punct("("):
            self.advance()
            inner = self.goal_seq()
            self.expect(")")
            return inner
        kind, value, offset = self.tok
        if (kind == _ATOM and value == "not"
                and self.tokens[self.i + 1][:2] == (_PUNCT, "(")):
            self.advance()
            self.advance()
            inner = self.goal_seq()
            self.expect(")")
            return (Negation(inner),)
        term = self.term()
        kind, op, _ = self.tok
        if kind == _PUNCT and op in ("<", ">", "=<", ">="):
            self.advance()
            rhs = self.term()
            return (Compare(op, term, rhs),)
        if isinstance(term, Atom):
            if term.name == "true":
                return (TrueGoal(),)
            if term.name in ("fail", "false"):
                return (FailGoal(),)
        if not is_callable(term):
            raise self.fail("goal must be an atom or compound term", offset)
        return (Call(term),)

    # -- clauses and entry points --------------------------------------

    def clause(self):
        self.scope = {}
        offset = self.tok[2]
        head = self.term()
        if not is_callable(head):
            raise self.fail("clause head must be an atom or compound term",
                            offset)
        if self.at_punct(":-"):
            self.advance()
            body = self.goal_seq()
            self.expect(".")
            return Clause(head, body)
        self.expect(".")
        return Clause(head)

    def program(self):
        clauses = []
        while self.tok[0] != _EOF:
            clauses.append(self.clause())
        return Program(clauses)

    def query(self):
        self.scope = {}
        goals = self.goal_seq()
        if self.at_punct("."):
            self.advance()
        if self.tok[0] != _EOF:
            raise self.fail("unexpected input after query")
        return goals


def reference_query(text: str):
    goals = RecursiveParser(text).query()
    if not goals:
        raise ParseError("empty query", SourcePosition(1, 1))
    return goals


def reference_term(text: str):
    p = RecursiveParser(text)
    t = p.term()
    if p.tok[0] != _EOF:
        raise p.fail("unexpected input after term")
    return t


# -- what a reading shows ----------------------------------------------------

def sharing(items) -> list[int]:
    """Each variable occurrence in items, goals and terms alike, in text
    order, as the number of the first distinct variable it is."""
    first: dict[Variable, int] = {}
    out = []
    stack = list(reversed(items))
    while stack:
        x = stack.pop()
        if isinstance(x, Variable):
            out.append(first.setdefault(x, len(first)))
        elif isinstance(x, Compound):
            stack.extend(reversed(x.args))
        elif isinstance(x, Clause):
            stack += [*reversed(x.body), x.head]
        elif isinstance(x, Call):
            stack.append(x.term)
        elif isinstance(x, Compare):
            stack += x.rhs, x.lhs
        elif isinstance(x, Disjunction):
            stack.extend(reversed(x.left + x.right))
        elif isinstance(x, Negation):
            stack.extend(reversed(x.inner))
    return out


def outcome(read, text):
    """What read(text) shows: its text and variable sharing, or its
    error's message and place."""
    try:
        got = read(text)
    except ParseError as e:
        return ("error", e.message, e.position)
    if isinstance(got, Program):
        return ("program", [clause_text(c) for c in got.clauses],
                sharing(got.clauses))
    if isinstance(got, tuple):
        return ("query", seq_text(got), sharing(got))
    return ("term", term_text(got), sharing([got]))


# -- generated texts, as token lists -----------------------------------------

def _sep(items, sep):
    out = []
    for item in items:
        if out:
            out.append(sep)
        out += item
    return out


leaf_terms = st.sampled_from([
    "a", "foo", "'x y'", "'don''t'", "''", "'['", "[]", "not", "'not'",
    "true", "false", "X", "Y", "_", "_Z", "0", "42", "-7",
]).map(lambda t: [t])


def _bigger_terms(inner):
    compound = st.tuples(st.sampled_from(["f", "g", "'h i'", "'not'"]),
                         st.lists(inner, min_size=1, max_size=3)).map(
        lambda p: [p[0], "("] + _sep(p[1], ",") + [")"])
    plain_list = st.lists(inner, max_size=3).map(
        lambda items: ["["] + _sep(items, ",") + ["]"])
    tailed_list = st.tuples(st.lists(inner, min_size=1, max_size=2),
                            inner).map(
        lambda p: ["["] + _sep(p[0], ",") + ["|"] + p[1] + ["]"])
    return st.one_of(compound, plain_list, tailed_list)


terms = st.recursive(leaf_terms, _bigger_terms, max_leaves=6)

leaf_goals = st.one_of(
    terms,
    st.just(["!"]),
    st.tuples(terms, st.sampled_from(["<", ">", "=<", ">="]), terms).map(
        lambda p: p[0] + [p[1]] + p[2]),
)


def _bigger_goals(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(
            lambda gs: _sep(gs, ",")),
        st.tuples(inner, inner).map(lambda p: p[0] + [";"] + p[1]),
        inner.map(lambda g: ["\\+"] + g),
        inner.map(lambda g: ["("] + g + [")"]),
        inner.map(lambda g: ["not", "("] + g + [")"]),
    )


goal_seqs = st.recursive(leaf_goals, _bigger_goals, max_leaves=6)

clauses = st.tuples(terms, st.one_of(st.none(), goal_seqs)).map(
    lambda p: p[0] + ([] if p[1] is None else [":-"] + p[1]) + ["."])
programs = st.lists(clauses, max_size=4).map(lambda cs: sum(cs, []))
queries = st.tuples(goal_seqs, st.booleans()).map(
    lambda p: p[0] + (["."] if p[1] else []))

# a character that starts no token, an unterminated quote, a name that
# starts without case (², ǅ and 中), and ⅷ, a lowercase numeral that
# reads as an atom
BAD = ["@", "\"", "=", ":", "\\", "-", "'", "'oops", "²", "ǅ", "中", "ⅷ"]


@st.composite
def corrupted(draw, tokens):
    """Tokens with one to three corruptions: one dropped, duplicated,
    swapped with the next, or a bad token put in."""
    toks = list(draw(tokens))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(toks)))
        how = draw(st.sampled_from(["drop", "dup", "swap", "bad"]))
        if how == "bad" or not toks:
            toks.insert(k, draw(st.sampled_from(BAD)))
        elif how == "drop":
            del toks[min(k, len(toks) - 1)]
        elif how == "dup":
            k = min(k, len(toks) - 1)
            toks.insert(k, toks[k])
        elif len(toks) > 1:
            k = min(k, len(toks) - 2)
            toks[k], toks[k + 1] = toks[k + 1], toks[k]
    return toks


# layout between tokens; a comment always runs to the end of its line
LAYOUT = [" ", "  ", "\n", "\t", "\r\n", " % note\n", "\n%\n"]


@st.composite
def source(draw, tokens):
    """The tokens, each pair split by layout, maybe ending in a comment."""
    toks = draw(tokens)
    parts = [draw(st.sampled_from(["", " ", "\n", "% first\n"]))]
    for k, t in enumerate(toks):
        if k:
            parts.append(draw(st.sampled_from(LAYOUT)))
        parts.append(t)
    parts.append(draw(st.sampled_from(["", "\n", " ", "\n% last",
                                       " % last"])))
    return "".join(parts)


def either(tokens):
    return st.one_of(source(tokens), source(corrupted(tokens)))


@settings(max_examples=300, deadline=None)
@given(either(programs))
@example("p(X, Y) :- q(X), \\+ (r(Y) ; not(s)), [a|T] < -3.\n% last")
@example("p :- (a, b ; c.")
@example("p(X) :- X. @")
@example("q :- 'it''s' ; \\+ \\+ a, ².")
def test_programs_read_as_the_recursive_reader_reads_them(text):
    assert outcome(parse_program, text) == outcome(
        lambda t: RecursiveParser(t).program(), text)


@settings(max_examples=300, deadline=None)
@given(either(queries))
@example("")
@example("% only a comment")
@example("a ;")
@example("not(a, (b ; c)), \\+ (d).")
@example("'not'(a) , X")
def test_queries_read_as_the_recursive_reader_reads_them(text):
    assert outcome(parse_query, text) == outcome(reference_query, text)


@settings(max_examples=300, deadline=None)
@given(either(terms))
@example("[a, b | [c]]")
@example("f(a,")
def test_terms_read_as_the_recursive_reader_reads_them(text):
    assert outcome(parse_term, text) == outcome(reference_term, text)


# -- the findall token texts --------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(either(programs), either(queries)))
@example("p('a''b', -1) % c")
@example("p(\n% c\n")
def test_findall_lists_the_texts_tokenize_reads(text):
    texts = _TOKEN.findall(text)
    try:
        tokens = _tokenize(text)
    except ParseError:
        return
    n = len(tokens) - 1
    # '' ends the list, twice when the text holds no token
    assert texts[n:] == ([""] if n else ["", ""] if text else [""])
    for t, (kind, value, offset) in zip(texts, tokens[:n]):
        assert text.startswith(t, offset)
        assert value == (t[1:-1].replace("''", "'") if t[0] == "'" else t)


# -- deep nesting ---------------------------------------------------------------

# (open, close) pairs that each nest one level
TERM_LEVELS = [("f(", ")"), ("[", "]"), ("[a,", "]"), ("'h i'(X,", ",-1)"),
               ("[X|", "]")]
GOAL_LEVELS = [("(a;", ")"), ("\\+ (", ",b)"), ("(a,b;", ")"),
               ("\\+ (\\+ ", ")")]


@st.composite
def nested(draw, levels, core):
    depth = draw(st.integers(1, 10**4))
    shape = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=3))
    opens = [shape[k % len(shape)] for k in range(depth)]
    return ("".join(o for o, _ in opens) + core
            + "".join(c for _, c in reversed(opens)))


@settings(max_examples=20, deadline=None)
@given(nested(TERM_LEVELS, "a"))
@example("f(" * 10**4 + "a" + ")" * 10**4)
def test_a_deep_term_reads_prints_and_reads_back(text):
    printed = term_text(parse_term(text))
    assert term_text(parse_term(printed)) == printed


@settings(max_examples=20, deadline=None)
@given(nested(GOAL_LEVELS, "c"))
@example("\\+ (" * 10**4 + "a,b" + ")" * 10**4)
def test_a_deep_query_reads_prints_and_reads_back(text):
    printed = seq_text(parse_query(text))
    assert seq_text(parse_query(printed)) == printed
