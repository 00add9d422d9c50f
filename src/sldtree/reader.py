"""Tokenizer and parser for the supported Prolog subset.

The operator inventory is fixed: ':-', ',', ';', '\\+', '!', the four
integer comparisons, and 'true'/'fail'/'false'. Precedence, loosest
first: ';' then ',' then '\\+' then comparisons. 'not(G)' is read as
negation. '%' starts a line comment, clauses end with '.'.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PrologError
from .kb import (Call, Clause, Compare, Cut, Disjunction, FailGoal, GoalSeq,
                 Negation, Program, TrueGoal)
from .terms import (Atom, Compound, Integer, Term, Variable, is_callable,
                    list_term)


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

# one alternative per token kind, tried in order at each offset. \d is
# exactly the digits int() reads. The closing quote of a quoted atom may
# not start a '' pair, so backtracking cannot end an unterminated atom
# inside one. `bad` takes any character that starts no token.
_TOKEN = re.compile(r"""
    (?P<layout>[ \t\r\n]+)
  | (?P<comment>%[^\n]*)
  | (?P<int>-?\d+)
  | (?P<name>\w+)
  | (?P<quoted>'[^'\n]*(?:''[^'\n]*)*'(?!'))
  | (?P<punct>:-|=<|>=|\\\+|[()\[\],|;!.<>])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _position(text: str, offset: int) -> SourcePosition:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourcePosition(text.count("\n", 0, offset) + 1,
                          offset - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, ending with an EOF token."""
    tokens: list[_Token] = []
    eof = len(text)
    for m in _TOKEN.finditer(text):
        kind, value, offset = m.lastgroup, m.group(), m.start()
        if kind == "layout":
            continue
        if kind == "comment":
            # a comment moves no column: a text that ends in one ends
            # where the comment starts
            if m.end() == len(text):
                eof = offset
            continue
        if kind == "name":
            if value[0].islower():
                kind = _ATOM
            elif value[0].isupper() or value[0] == "_":
                kind = _VAR
            else:  # a letter without case, or a digit int() rejects
                raise ParseError(f"unexpected character {value[0]!r}",
                                 _position(text, offset))
        elif kind == "quoted":
            kind, value = _ATOM, value[1:-1].replace("''", "'")
        elif kind == "bad":
            raise ParseError("unterminated quoted atom" if value == "'"
                             else f"unexpected character {value!r}",
                             _position(text, offset))
        tokens.append((kind, value, offset))
    tokens.append((_EOF, "", eof))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.scope: dict[str, Variable] = {}

    # -- token plumbing ----------------------------------------------

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def at_punct(self, value: str) -> bool:
        kind, text, _ = self.tok
        return kind == _PUNCT and text == value

    def expect(self, value: str) -> _Token:
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

    def term(self) -> Term:
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

    def list_tail(self) -> Term:
        self.expect("[")
        if self.at_punct("]"):
            self.advance()
            return Atom("[]")
        items = [self.term()]
        while self.at_punct(","):
            self.advance()
            items.append(self.term())
        tail: Term = Atom("[]")
        if self.at_punct("|"):
            self.advance()
            tail = self.term()
        self.expect("]")
        return list_term(items, tail)

    # -- goals --------------------------------------------------------

    def goal_seq(self) -> GoalSeq:
        """Disjunction level: ';' binds loosest and associates right."""
        left = self.conjunction()
        if self.at_punct(";"):
            self.advance()
            right = self.goal_seq()
            return (Disjunction(left, right),)
        return left

    def conjunction(self) -> GoalSeq:
        goals = list(self.negation())
        while self.at_punct(","):
            self.advance()
            goals.extend(self.negation())
        return tuple(goals)

    def negation(self) -> GoalSeq:
        if self.at_punct("\\+"):
            self.advance()
            return (Negation(self.negation()),)
        return self.primary_goal()

    def primary_goal(self) -> GoalSeq:
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

    def clause(self) -> Clause:
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

    def program(self) -> Program:
        clauses = []
        while self.tok[0] != _EOF:
            clauses.append(self.clause())
        return Program(clauses)

    def query(self) -> GoalSeq:
        self.scope = {}
        goals = self.goal_seq()
        if self.at_punct("."):
            self.advance()
        if self.tok[0] != _EOF:
            raise self.fail("unexpected input after query")
        return goals


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def parse_query(text: str) -> GoalSeq:
    goals = _Parser(text).query()
    if not goals:
        raise ParseError("empty query", SourcePosition(1, 1))
    return goals


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    if p.tok[0] != _EOF:
        raise p.fail("unexpected input after term")
    return t
