"""The benchmark's workloads: operation lists and their expected results.

This module never imports sldtree. Every expected answer here is worked
out in plain Python (or, for the bundled fixtures, written by hand from
the Prolog semantics), so the checks in run.py compare the program
against something it did not compute itself.

The seed picks atom names, list elements, table contents and row order.
It never changes the shape of a tree or the length of any text, so the
work one pass does is the same for every seed.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

ASCII, CANONICAL, ANSWERS = "ascii", "canonical", "answers-only"

# the CLI's default limits, written out so an operation means the same
# thing if those defaults ever move
MAX_DEPTH = 500
MAX_NODES = 10000


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    kind "run" goes through sldtree.cli.run; kind "deserialize" reads
    back the canonical document that operation `source` printed in the
    same pass. `answers` are the expected answer blocks in DFS order.
    """
    name: str
    kind: str
    db: str = ""          # fixture name, or a key of Workload.files
    query: str = ""
    format: str = ANSWERS
    width: int = 120
    answers: tuple[str, ...] = ()
    truncated: bool = False
    source: int = -1
    chain_depth: int = 0  # >0: a `p :- p.` chain cut at this depth
    oracle_pool: tuple[str, ...] | None = None  # None: no oracle check

    @property
    def exit_code(self) -> int:
        if self.truncated:
            return 3
        return 0 if self.answers else 1

    @property
    def answers_text(self) -> str:
        if not self.answers:
            return "false.\n"
        return "\n\n".join(self.answers) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    files: dict  # key -> database text, written to disk by the runner
    # operations that fail on every run because of a known fault
    known_failing: tuple[str, ...] = ()


def _binds(*pairs: tuple[str, str]) -> str:
    return ", ".join(f"{n} = {t}" for n, t in pairs)


def _plist(items) -> str:
    return "[" + ",".join(items) + "]"


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct atoms, all len(prefix) + 3 letters long."""
    codes = rng.sample(range(26 ** 3), n)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [prefix + letters[c // 676] + letters[c // 26 % 26] + letters[c % 26]
            for c in codes]


# -- corpus -----------------------------------------------------------

# canonical query and expected answers of every bundled fixture, in DFS
# order; oracle_pool is None for the fixtures the bottom-up oracle cannot
# evaluate (cut, negation, comparison), otherwise the ground terms that
# must join its Herbrand pool for the answers to be reachable
FIXTURE_CASES = (
    ("romance", "jealous(X,Y)",
     [_binds(("X", a), ("Y", b)) for a in ("vincent", "marsellus")
      for b in ("vincent", "marsellus")], ()),
    ("animals", "animal(Animal)",
     [_binds(("Animal", a)) for a in
      ("fox", "whale", "bat", "snake", "pelican", "swan")], ()),
    ("member", "member(X,[a,b,c])",
     [_binds(("X", a)) for a in "abc"], ()),
    # b/1 commits to d(3); a/1's second clause still yields c/1
    ("cut-abc", "a(A)", [_binds(("A", a)) for a in "312"], None),
    # only ben has nobody younger
    ("youngest", "youngest(Who)", [_binds(("Who", "ben"))], None),
    ("proof-search-k", "k(Y)", [_binds(("Y", "b"))], ()),
    # one proof: anne -> bridget -> caroline -> donna
    ("descend", "descend(anne,donna)", ["true."], ()),
    ("add", "add(succ(succ(succ(0))),succ(succ(0)),R)",
     [_binds(("R", "succ(succ(succ(succ(succ(0)))))"))],
     ("succ(succ(succ(succ(succ(0)))))",)),
    ("append", "append([a,b,c],[1,2,3],X)",
     [_binds(("X", "[a,b,c,1,2,3]"))], ("[a,b,c,1,2,3]",)),
    # wizard/1 has no clauses, so that branch is a failure leaf
    ("magic", "magic(Hermione)",
     [_binds(("Hermione", a)) for a in
      ("dobby", "hermione", "'McConagall'", "rita_skeeter")], ()),
)

CORPUS_MODES = ((ASCII, 120), (ASCII, 60), (CANONICAL, 120), (ANSWERS, 120))


def corpus(seed: int) -> Workload:
    """The bundled fixtures; fixed inputs, so the seed is unused."""
    ops = []
    for name, query, answers, pool in FIXTURE_CASES:
        for fmt, width in CORPUS_MODES:
            ops.append(Op(f"{name}/{fmt}/{width}", "run", db=name,
                          query=query, format=fmt, width=width,
                          answers=tuple(answers), oracle_pool=pool))
    return Workload("corpus", tuple(ops), {})


# -- shared programs ----------------------------------------------------

APPEND = ("append([],L,L).\n"
          "append([H|T],L2,[H|L3]):- append(T,L2,L3).\n")
NREV = ("nrev([],[]).\n"
        "nrev([H|T],R):- nrev(T,RT), append(RT,[H],R).\n")
PERM = ("perm([],[]).\n"
        "perm(L,[H|T]):- sel(H,L,R), perm(R,T).\n"
        "sel(X,[X|T],T).\n"
        "sel(X,[H|T],[H|R]):- sel(X,T,R).\n")
PEANO = ("len([],0).\n"
         "len([_|T],s(N)):- len(T,N).\n")


def _perm_answers(var: str, items: list[str]) -> tuple[str, ...]:
    return tuple(_binds((var, _plist(p)))
                 for p in itertools.permutations(items))


# -- deep -------------------------------------------------------------

SPLIT_N, NREV_N, PERM_N, PEANO_N = 30, 20, 5, 40
NESTED_DEPTH = 1000
NESTED_OP = "nested-query"


def deep(seed: int) -> Workload:
    rng = random.Random(seed)
    db = APPEND + NREV + PERM + PEANO + "p(X).\n"
    split = _names(rng, SPLIT_N, "k")
    rev = _names(rng, NREV_N, "k")
    perm = _names(rng, PERM_N, "k")
    peano = _names(rng, PEANO_N, "k")
    ops = [
        Op("append-split", "run", db="deep", query=f"append(X,Y,{_plist(split)})",
           answers=tuple(_binds(("X", _plist(split[:i])), ("Y", _plist(split[i:])))
                         for i in range(SPLIT_N + 1))),
        Op("nrev", "run", db="deep", query=f"nrev({_plist(rev)},R)",
           answers=(_binds(("R", _plist(rev[::-1]))),)),
        Op("perm", "run", db="deep", query=f"perm({_plist(perm)},P)",
           answers=_perm_answers("P", perm)),
        Op("peano-length", "run", db="deep", query=f"len({_plist(peano)},N)",
           answers=(_binds(("N", "s(" * PEANO_N + "0" + ")" * PEANO_N)),)),
        # fixed input: the reader recurses once per nesting level
        Op(NESTED_OP, "run", db="deep",
           query="p(" + "f(" * NESTED_DEPTH + "a" + ")" * NESTED_DEPTH + ")",
           answers=("true.",)),
    ]
    return Workload("deep", tuple(ops), {"deep": db}, (NESTED_OP,))


# -- wide -------------------------------------------------------------

EMPS, DEPTS, BANNED, VALS, ITEMS = 200, 20, 7, 40, 150
CLASSES = ((5, "small"), (50, "medium"), (500, "large"))
CLASSIFY = ("cls(V,small):- V < 10, !.\n"
            "cls(V,medium):- V < 100, !.\n"
            "cls(_,large).\n")
# one fixed order of the values; the seed only shifts them, so every
# seed probes the same number of rivals before the negation settles
_VAL_SHAPE = random.Random(0).sample(range(VALS), VALS)


def wide(seed: int) -> Workload:
    rng = random.Random(seed)
    emps = _names(rng, EMPS, "e")
    depts = _names(rng, DEPTS, "d")
    floors = _names(rng, DEPTS, "f")
    # each department gets the same head count, in a seeded order
    emp_dept = [depts[i % DEPTS] for i in range(EMPS)]
    rng.shuffle(emp_dept)
    banned = rng.sample(depts, BANNED)
    base = rng.randrange(100, 900)
    vals = [base + v for v in _VAL_SHAPE]
    items = _names(rng, ITEMS, "i")
    # a third of the items in each class, in a seeded order
    item_class = [CLASSES[i % 3] for i in range(ITEMS)]
    rng.shuffle(item_class)
    item_vals = [lo + rng.randrange(4) for lo, _ in item_class]

    db = "".join(
        [f"emp({e},{d}).\n" for e, d in zip(emps, emp_dept)]
        + [f"dept({d},{f}).\n" for d, f in zip(depts, floors)]
        + [f"banned({d}).\n" for d in banned]
        + [f"val({v}).\n" for v in vals]
        + [f"item({i},{v}).\n" for i, v in zip(items, item_vals)]) + CLASSIFY
    floor_of = dict(zip(depts, floors))
    top = max(vals)
    ops = [
        Op("join", "run", db="wide", query="emp(E,D), dept(D,F)",
           answers=tuple(_binds(("E", e), ("D", d), ("F", floor_of[d]))
                         for e, d in zip(emps, emp_dept))),
        Op("negation-filter", "run", db="wide", query="emp(E,D), \\+ banned(D)",
           answers=tuple(_binds(("E", e), ("D", d))
                         for e, d in zip(emps, emp_dept) if d not in banned)),
        Op("max-by-negation", "run", db="wide",
           query="val(X), \\+ (val(Y), Y > X)",
           answers=tuple(_binds(("X", str(v))) for v in vals if v == top)),
        Op("cut-classify", "run", db="wide", query="item(I,V), cls(V,C)",
           answers=tuple(_binds(("I", i), ("V", str(v)), ("C", c))
                         for i, v, (_, c) in zip(items, item_vals, item_class))),
    ]
    return Workload("wide", tuple(ops), {"wide": db})


# -- draw -------------------------------------------------------------

FLAT_N, DRAW_NREV_N = 80, 8
SMALL_PERMS = (3, 4)
# fixed input: its drawing loses labels and boxes to connector runs
PERM_ASCII_OP = "perm-ascii"
PERM_ASCII_ITEMS = ["a", "b", "c", "d"]


def draw(seed: int) -> Workload:
    rng = random.Random(seed)
    flat = _names(rng, FLAT_N, "k")
    rev = _names(rng, DRAW_NREV_N, "k")
    perm = _names(rng, max(SMALL_PERMS), "k")
    (chain,) = _names(rng, 1, "q")
    db = ("".join(f"fact({x}).\n" for x in flat) + APPEND + NREV + PERM
          + f"{chain}:- {chain}.\n")
    documents = [
        Op("chain-canonical", "run", db="draw", query=chain, format=CANONICAL,
           truncated=True, chain_depth=MAX_DEPTH),
    ] + [Op(f"perm{n}-canonical", "run", db="draw",
            query=f"perm({_plist(perm[:n])},P)", format=CANONICAL,
            answers=_perm_answers("P", perm[:n])) for n in SMALL_PERMS]
    ops = [
        Op("flat-ascii", "run", db="draw", query="fact(X)", format=ASCII,
           answers=tuple(_binds(("X", x)) for x in flat)),
        Op("nrev-ascii", "run", db="draw", query=f"nrev({_plist(rev)},R)",
           format=ASCII, answers=(_binds(("R", _plist(rev[::-1]))),)),
        Op(PERM_ASCII_OP, "run", db="draw",
           query=f"perm({_plist(PERM_ASCII_ITEMS)},P)", format=ASCII,
           answers=_perm_answers("P", PERM_ASCII_ITEMS)),
    ]
    for doc in documents:
        ops.append(doc)
        ops.append(Op(f"{doc.name}/deserialize", "deserialize",
                      source=len(ops) - 1))
    return Workload("draw", tuple(ops), {"draw": db}, (PERM_ASCII_OP,))


WORKLOADS = {"corpus": corpus, "deep": deep, "wide": wide, "draw": draw}
