"""Tokenizer and parser for the supported Prolog subset.

The operator inventory is fixed: ':-', ',', ';', '\\+', '!', the four
integer comparisons, and 'true'/'fail'/'false'. Precedence, loosest
first: ';' then ',' then '\\+' then comparisons. 'not(G)' is read as
negation. '%' starts a line comment, clauses end with '.'.

A text is read in two steps. One `findall` of `_TOKEN` lists the token
texts, with layout and comments skipped inside the pattern and '' last,
for the end of the text. Each distinct token text is then classified
once, by its first character, into a table of what it reads as: the
`Atom` or `Integer` it names, or a variable's name. A text that starts
no token hands over to `_tokenize`, which raises the error of the first
such token with its place.

The parser walks the token list by index. A term is read on an explicit
stack of the compounds and lists still open around it; a goal sequence
on a stack of the parentheses still open around it. No method calls
itself, directly or through another, so input nested any depth costs
heap, not interpreter stack. Offsets are computed only for an error:
`_tokenize` finds the offset of the failing token from its index.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PrologError
from .kb import (COMPARE_OPS, Call, Clause, Compare, Cut, Disjunction,
                 FailGoal, GoalSeq, Negation, Program, TrueGoal)
from .terms import (EMPTY_LIST, Atom, Compound, Integer, Term, Variable,
                    is_callable, list_term)


@dataclass(frozen=True)
class SourcePosition:
    line: int  # 1-based
    column: int  # 1-based

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(PrologError):
    def __init__(self, message: str, position: SourcePosition):
        super().__init__(f"{position}: {message}")
        self.message = message
        self.position = position


# token kinds
_ATOM, _VAR, _INT, _PUNCT, _EOF = "atom", "var", "int", "punct", "eof"

_Token = tuple[str, str, int]  # kind, value, offset into the text

# One token and the layout and comments around it. The only group is the
# token's text, or '' at the end of the text. After the first match the
# layout before a token is always taken by the match before, so the skip
# before the group is used only at the start, and the group never
# backtracks into a comment. A text without a token gets '' twice: the
# second, empty match follows the one that took its layout. The group's
# alternatives are tried in order, so the digits of 1a are an integer;
# \d is exactly the digits int() reads. A quoted atom holds no control
# character (U+0000-U+001F, U+007F-U+009F) and no line or paragraph
# separator (U+2028, U+2029), any of which, written raw, would break a
# line of output: a quote before one is an unterminated atom. The
# closing quote of a quoted atom may not start a '' pair, so
# backtracking cannot end an unterminated atom inside one. '.' takes any
# character that starts no token.
_LAYOUT = r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*"
_TOKEN = re.compile(_LAYOUT + r"""
    ( [()\[\],|;!.]
    | \d+
    | \w+
    | :-|=<|>=|\\\+|[<>]
    | -\d+
    | '[^'\x00-\x1f\x7f-\x9f\u2028\u2029]*
       (?:''[^'\x00-\x1f\x7f-\x9f\u2028\u2029]*)*'(?!')
    | .
    | \Z )
""" + _LAYOUT, re.VERBOSE | re.DOTALL)

_PUNCTS = frozenset((":-", "=<", ">=", "\\+", "(", ")", "[", "]", ",", "|",
                     ";", "!", ".", "<", ">"))
_NOT = ("not", "'not'")  # the texts of the atom not

# frame tags of a list still open on the term stack, before and after '|'
_LIST, _TAIL = object(), object()


def _position(text: str, offset: int) -> SourcePosition:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourcePosition(text.count("\n", 0, offset) + 1,
                          offset - line_start + 1)


def _kind(token: str) -> str | None:
    """The kind of a token text, read off its first character; None for
    a text that starts no token."""
    c = token[0]
    if c == "'":
        return _ATOM if len(token) > 1 else None
    if c.isdecimal() or c == "-" and len(token) > 1:
        return _INT
    if c.islower():
        return _ATOM
    if c.isupper() or c == "_":
        return _VAR
    return _PUNCT if token in _PUNCTS else None


def _atom_name(token: str) -> str:
    return token[1:-1].replace("''", "'") if token[0] == "'" else token


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, ending with an EOF token."""
    tokens: list[_Token] = []
    end = 0
    for m in _TOKEN.finditer(text):
        value, offset = m.group(1), m.start(1)
        if not value:
            break
        kind = _kind(value)
        if kind is None:  # a letter without case, or no token at all
            raise ParseError("unterminated quoted atom" if value == "'"
                             else f"unexpected character {value[0]!r}",
                             _position(text, offset))
        if kind == _ATOM:
            value = _atom_name(value)
        tokens.append((kind, value, offset))
        end = m.end(1)
    # a comment moves no column: a text that ends in one ends where the
    # comment starts
    rest = text[end:]
    comment = rest.find("%", rest.rfind("\n") + 1)
    tokens.append((_EOF, "", end + comment if comment >= 0 else len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        # what each token text that starts a term reads as: the Atom or
        # Integer it names, which terms makes once per name or value, or
        # a variable's name; each distinct text is classified once
        self.table: dict[str, Term | str] = {}
        texts = set(self.toks)
        texts.discard("")
        for t in texts:
            kind = _kind(t)
            if kind == _ATOM:
                self.table[t] = Atom(_atom_name(t))
            elif kind == _INT:
                self.table[t] = Integer(int(t))
            elif kind == _VAR:
                self.table[t] = t
            elif kind is None:
                _tokenize(text)  # raises the first bad token's error
        self.scope: dict[str, Variable] = {}

    def fail(self, message: str, index: int) -> ParseError:
        """An error at the token with this index."""
        offset = _tokenize(self.text)[index][2]
        return ParseError(message, _position(self.text, offset))

    # -- terms --------------------------------------------------------

    def variable(self, name: str) -> Variable:
        if name == "_":
            return Variable("_")  # each occurrence is fresh
        v = self.scope.get(name)
        if v is None:
            v = self.scope[name] = Variable(name)
        return v

    def term(self, i: int) -> tuple[Term, int]:
        """The term that starts at token i, and the index after it."""
        toks, table = self.toks, self.table
        # compounds and lists still open: (functor or list tag, items)
        stack: list[tuple[object, list[Term]]] = []
        while True:
            t = toks[i]
            i += 1
            x = table.get(t)
            if type(x) is Atom:
                if toks[i] == "(":
                    stack.append((x.name, []))
                    i += 1
                    continue
            elif type(x) is str:
                x = self.variable(x)
            elif x is None:
                if t != "[":
                    raise self.fail("expected a term", i - 1)
                if toks[i] != "]":
                    stack.append((_LIST, []))
                    continue
                i += 1
                x = EMPTY_LIST
            # x is whole: close each open term that it ends
            while stack:
                tag, items = stack[-1]
                t = toks[i]
                i += 1
                if tag is _TAIL:
                    if t != "]":
                        raise self.fail("expected ']'", i - 1)
                    x = list_term(items, x)
                else:
                    items.append(x)
                    if t == ",":
                        break
                    if tag is not _LIST:
                        if t != ")":
                            raise self.fail("expected ')'", i - 1)
                        x = Compound(tag, tuple(items))
                    elif t == "|":
                        stack[-1] = (_TAIL, items)
                        break
                    elif t != "]":
                        raise self.fail("expected ']'", i - 1)
                    else:
                        x = list_term(items)
                stack.pop()
            else:
                return x, i

    # -- goals --------------------------------------------------------

    def goal(self, i: int) -> tuple[GoalSeq, int]:
        """A call or a comparison that starts at token i, as a 1-tuple."""
        term, j = self.term(i)
        op = self.toks[j]
        if op in COMPARE_OPS:
            rhs, j = self.term(j + 1)
            return (Compare(op, term, rhs),), j
        if isinstance(term, Atom):
            if term.name == "true":
                return (TrueGoal(),), j
            if term.name in ("fail", "false"):
                return (FailGoal(),), j
        if not is_callable(term):
            raise self.fail("goal must be an atom or compound term", i)
        return (Call(term),), j

    def goals(self, i: int) -> tuple[GoalSeq, int]:
        """The goal sequence that starts at token i, and the index after
        it. ';' binds loosest and associates right, then ',', then '\\+';
        a parenthesised sequence joins the conjunction around it."""
        toks = self.toks
        # the sequences still open around this one, each with the token
        # that opened it ('(', 'not', or None for the outermost), the
        # count of '\\+' before that token, its alternatives so far and
        # the goals of its current alternative
        stack: list[tuple[str | None, int, list[GoalSeq], list]] = []
        opener, negs, alts, conj = None, 0, [], []
        while True:
            n = 0
            while toks[i] == "\\+":
                n += 1
                i += 1
            t = toks[i]
            if t == "(" or t in _NOT and toks[i + 1] == "(":
                stack.append((opener, negs, alts, conj))
                opener, negs, alts, conj = t, n, [], []
                i += 1 if t == "(" else 2
                continue
            if t == "!":
                seq: GoalSeq = (Cut(),)
                i += 1
            else:
                seq, i = self.goal(i)
            # seq is whole: add it to its conjunction, and close each
            # sequence that it ends
            while True:
                for _ in range(n):
                    seq = (Negation(seq),)
                conj.extend(seq)
                t = toks[i]
                if t == "," or t == ";":
                    if t == ";":
                        alts.append(tuple(conj))
                        conj = []
                    i += 1
                    break
                seq = tuple(conj)
                for left in reversed(alts):
                    seq = (Disjunction(left, seq),)
                if opener is None:
                    return seq, i
                if t != ")":
                    raise self.fail("expected ')'", i)
                i += 1
                if opener != "(":
                    seq = (Negation(seq),)
                n = negs
                opener, negs, alts, conj = stack.pop()

    # -- clauses and entry points --------------------------------------

    def clause(self, i: int) -> tuple[Clause, int]:
        self.scope = {}
        head, j = self.term(i)
        if not is_callable(head):
            raise self.fail("clause head must be an atom or compound term",
                            i)
        body: GoalSeq = ()
        if self.toks[j] == ":-":
            body, j = self.goals(j + 1)
        if self.toks[j] != ".":
            raise self.fail("expected '.'", j)
        return Clause(head, body), j + 1

    def program(self) -> Program:
        clauses = []
        i = 0
        while self.toks[i]:
            clause, i = self.clause(i)
            clauses.append(clause)
        return Program(clauses)

    def query(self) -> GoalSeq:
        goals, i = self.goals(0)
        if self.toks[i] == ".":
            i += 1
        if self.toks[i]:
            raise self.fail("unexpected input after query", i)
        return goals


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def parse_query(text: str) -> GoalSeq:
    return _Parser(text).query()


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t, i = p.term(0)
    if p.toks[i]:
        raise p.fail("unexpected input after term", i)
    return t
