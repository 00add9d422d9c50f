"""Bundled knowledge bases with their canonical queries."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

from .kb import Program
from .reader import parse_program


@dataclass(frozen=True)
class Fixture:
    name: str
    query: str
    resource: str


FIXTURES = (
    Fixture("romance", "jealous(X,Y)", "romance.pl"),
    Fixture("animals", "animal(Animal)", "animals.pl"),
    Fixture("member", "member(X,[a,b,c])", "member.pl"),
    Fixture("cut-abc", "a(A)", "cut_abc.pl"),
    Fixture("youngest", "youngest(Who)", "youngest.pl"),
    Fixture("proof-search-k", "k(Y)", "proof_search_k.pl"),
    Fixture("descend", "descend(anne,donna)", "descend.pl"),
    Fixture("add", "add(succ(succ(succ(0))),succ(succ(0)),R)", "add.pl"),
    Fixture("append", "append([a,b,c],[1,2,3],X)", "append.pl"),
    Fixture("magic", "magic(Hermione)", "magic.pl"),
)

_BY_NAME = {f.name: f for f in FIXTURES}


def fixture_names() -> tuple[str, ...]:
    return tuple(f.name for f in FIXTURES)


def get_fixture(name: str) -> Fixture:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(fixture_names())
        raise KeyError(f"no fixture named {name!r} (known: {known})") from None


@cache  # the bundled files do not change while the process runs
def fixture_text(name: str) -> str:
    f = get_fixture(name)
    return (resources.files(__package__) / "fixtures" / f.resource).read_text(
        encoding="utf-8")


def load_fixture(name: str) -> Program:
    return parse_program(fixture_text(name))
