"""Acceptance checklist for the whole package.

One test per advertised behaviour, each ending in a single printed
PASS line so `pytest -s` reads as a checklist. The bottom-up oracle in
bottomup_oracle.py is an independent evaluator; nothing in it touches
the engine under test.
"""
import io
import random

import bottomup_oracle as oracle

from sldtree.cli import EXIT_TRUNCATED, RunConfig, run
from sldtree.engine import Limits, NodeStatus, build_tree, solutions
from sldtree.errors import CyclicTermError
from sldtree.fixtures import FIXTURES, get_fixture, load_fixture
from sldtree.kb import Clause, Cut, Disjunction, Negation, Program, seq_text
from sldtree.reader import parse_program, parse_query
from sldtree.render import RenderOptions, render_text
from sldtree.serialize import serialize
from sldtree.terms import Atom, Compound, Variable
from sldtree.unify import rename_clause, resolve, unify

SUCCESS = NodeStatus.SUCCESS
FAIL = NodeStatus.FAIL
PRUNED = NodeStatus.PRUNED
TRUNCATED = NodeStatus.TRUNCATED


def ok(n, text):
    print(f"CRITERION {n:2d}: PASS - {text}")


def fixture_tree(name):
    return build_tree(load_fixture(name), parse_query(get_fixture(name).query))


def leaves(node):
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if n.children:
            stack.extend(reversed(n.children))
        else:
            out.append(n)
    return out


def leaf_statuses(node):
    return [leaf.status for leaf in leaves(node)]


def answer_texts(tree):
    return [a.text() for a in solutions(tree)]


def strip_cuts(goals):
    out = []
    for g in goals:
        if isinstance(g, Cut):
            continue
        if isinstance(g, Disjunction):
            out.append(Disjunction(strip_cuts(g.left), strip_cuts(g.right)))
        elif isinstance(g, Negation):
            out.append(Negation(strip_cuts(g.inner)))
        else:
            out.append(g)
    return tuple(out)


def without_cuts(program):
    return Program([Clause(c.head, strip_cuts(c.body))
                    for c in program.clauses])


def is_subsequence(xs, ys):
    it = iter(ys)
    return all(any(x == y for y in it) for x in xs)


# ---------------------------------------------------------------------------

def test_criterion_01_jealousy():
    tree = fixture_tree("romance")
    assert answer_texts(tree) == [
        "X = vincent, Y = vincent",
        "X = vincent, Y = marsellus",
        "X = marsellus, Y = vincent",
        "X = marsellus, Y = marsellus",
    ]
    assert leaf_statuses(tree.root).count(SUCCESS) == 4
    ok(1, "jealous(X,Y) gives the four pairs in order, four success leaves")


def test_criterion_02_animals():
    program = load_fixture("animals")
    tree = build_tree(program, parse_query("animal(bat)"))
    assert leaf_statuses(tree.root).count(SUCCESS) == 1
    branches = tree.root.children
    assert [seq_text(b.goals) for b in branches] == [
        "mammal(bat)", "reptile(bat)", "bird(bat)"]
    outcomes = [SUCCESS if SUCCESS in leaf_statuses(b) else FAIL
                for b in branches]
    assert outcomes == [SUCCESS, FAIL, FAIL]

    tree = build_tree(program, parse_query("animal(Animal)"))
    assert answer_texts(tree) == [
        "Animal = fox", "Animal = whale", "Animal = bat",
        "Animal = snake", "Animal = pelican", "Animal = swan"]
    ok(2, "animal(bat) branches go success/fail/fail; animal(Animal) "
          "lists all six in order")


def test_criterion_03_member_recursion():
    tree = fixture_tree("member")
    assert answer_texts(tree) == ["X = a", "X = b", "X = c"]
    spine = []
    node = tree.root
    while node.children:
        spine.append(seq_text(node.goals))
        node = node.children[-1]
    assert spine == ["member(X,[a,b,c])", "member(X',[b,c])",
                     "member(X'',[c])", "member(X''',[])"]
    bottom = tree.root
    while bottom.children and bottom.children[-1].children:
        bottom = bottom.children[-1]
    assert [c.status for c in bottom.children] == [FAIL, FAIL]
    ok(3, "member walks X'/X''/X''' down to member(X''',[]) and two fails")


def test_criterion_04_cut_prunes_alternatives():
    program = load_fixture("cut-abc")
    tree = build_tree(program, parse_query("a(A)"))
    assert answer_texts(tree) == ["A = 3", "A = 1", "A = 2"]
    assert leaf_statuses(tree.root).count(PRUNED) == 2

    free = build_tree(without_cuts(program), parse_query("a(A)"))
    assert answer_texts(free) == ["A = 3", "A = 4", "A = 5", "A = 1", "A = 2"]
    assert PRUNED not in leaf_statuses(free.root)
    ok(4, "a(A) answers 3,1,2 with two pruned leaves; cut-free KB answers "
          "3,4,5,1,2")


def test_criterion_05_youngest():
    tree = fixture_tree("youngest")
    assert answer_texts(tree) == ["Who = ben"]
    ann, ben, cai = tree.root.children[0].children
    assert seq_text(ann.goals) == "\\+ (age(_,Z),Z < 5)"
    # inside Ann's negation probe the ben-age branch reaches the cut,
    # pruning both the cai alternative and the negation's own success arm
    assert leaf_statuses(ann) == [FAIL, FAIL, PRUNED, PRUNED]
    probe, continuation = ann.children
    assert probe.children[2].status is PRUNED
    assert continuation.status is PRUNED
    assert leaf_statuses(ben) == [FAIL, FAIL, FAIL, SUCCESS]
    ok(5, "youngest(Who) = ben only; Ann's branch dies by cut inside "
          "the negation")


def test_criterion_06_worked_corpus():
    tree = fixture_tree("proof-search-k")
    assert answer_texts(tree) == ["Y = b"]

    tree = fixture_tree("descend")
    assert leaf_statuses(tree.root).count(SUCCESS) == 1

    tree = fixture_tree("add")
    assert answer_texts(tree) == ["R = succ(succ(succ(succ(succ(0)))))"]

    tree = fixture_tree("append")
    assert answer_texts(tree) == ["X = [a,b,c,1,2,3]"]
    assert leaf_statuses(tree.root).count(SUCCESS) == 1
    bottom = tree.root
    while bottom.children and bottom.children[-1].children:
        bottom = bottom.children[-1]
    assert [c.status for c in bottom.children] == [SUCCESS, FAIL]

    program = load_fixture("member")
    tree = build_tree(program, parse_query("member(a,[c,b,a,y])"))
    assert answer_texts(tree) == ["true"]
    assert leaf_statuses(tree.root) == [FAIL, FAIL, SUCCESS, FAIL, FAIL, FAIL]
    tree = build_tree(program, parse_query("member(x,[a,b,c])"))
    assert answer_texts(tree) == []
    assert leaf_statuses(tree.root) == [FAIL] * 5
    ok(6, "k/descend/add/append/member worked examples all check out")


def random_term(rng, pool, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice((Atom("a"), Atom("b"), Atom("c")))
    if roll < 0.55:
        return rng.choice(pool)
    arity = rng.randint(1, 2)
    return Compound(rng.choice("fgh"),
                    tuple(random_term(rng, pool, depth - 1)
                          for _ in range(arity)))


def test_criterion_07_unifier_properties():
    rng = random.Random(20260817)
    unified = cyclic = 0
    for _ in range(10000):
        pool = [Variable(n) for n in ("X", "Y", "Z")]
        t1 = random_term(rng, pool, 2)
        t2 = random_term(rng, pool, 2)
        sigma = unify(t1, t2)
        if sigma is None:
            continue
        try:
            a1, a2 = resolve(t1, sigma, {}), resolve(t2, sigma, {})
        except CyclicTermError:
            cyclic += 1  # no finite unifier exists; flagged, not crashed
            continue
        unified += 1
        assert a1 == a2, f"mgu failed to equalize {t1!r} and {t2!r}"
        assert resolve(a1, sigma, {}) == a1, f"mgu not idempotent on {t1!r}"

    renamed_ok = 0
    for _ in range(2000):
        pool = [Variable(n) for n in ("X", "Y", "_")]
        head = Compound("p", tuple(random_term(rng, pool, 1)
                                   for _ in range(rng.randint(1, 3))))
        clause = Clause(head)
        avoid = frozenset(rng.sample(("X", "Y", "X'", "Y'"), rng.randint(0, 4)))
        fresh = {}
        rename_clause(clause, avoid, 1, "prime", fresh)
        old, new = clause.variables, tuple(fresh.values())
        assert not set(old) & set(new)
        assert all(v.name == "_" or v.name not in avoid for v in new)
        assert len(set(new)) == len(set(old))
        renamed = resolve(clause.head, fresh, {})
        assert unify(clause.head, renamed) is not None
        renamed_ok += 1

    assert unified >= 2000  # enough non-trivial cases to mean something
    assert renamed_ok == 2000
    ok(7, f"{unified} random mgus equalize and are idempotent "
          f"({cyclic} cyclic pairs flagged); 2000 renamings fresh")


def test_criterion_08_bottom_up_oracle_agrees():
    cases = [
        ("romance", "jealous(X,Y)"),
        ("animals", "animal(Animal)"),
        ("member", "member(X,[a,b,c])"),
        ("member", "member(a,[c,b,a,y])"),
    ]
    for name, query_text in cases:
        program = load_fixture(name)
        query = parse_query(query_text)
        tree = build_tree(program, query)
        got = set()
        for answer in solutions(tree):
            mapping = answer.mapping
            got.add(tuple(mapping[v] for v in tree.query_vars))
        assert got == oracle.answers(program, query), (name, query_text)
    ok(8, "engine answer sets match the naive bottom-up oracle")


def random_cut_program(rng):
    # Layered so every call goes to a later predicate: always terminates.
    # X must reach the body somewhere, or the answer is a free renamed
    # variable whose display name depends on how much of the tree was
    # explored, and the two runs would not be text-comparable. Sizes are
    # small: the law only relates two complete trees, so the cut-free
    # run must stay far away from the node budget.
    consts = "abcd"
    lines = []
    for i in range(3):
        for const in rng.sample(consts, rng.randint(1, 2)):
            lines.append(f"p{i}({const}).")
        if i < 2:
            for _ in range(rng.randint(1, 2)):
                body = []
                for _ in range(rng.randint(1, 2)):
                    j = rng.randint(i + 1, 2)
                    arg = "X" if rng.random() < 0.7 else rng.choice(consts)
                    body.append((f"p{j}", arg))
                if all(arg != "X" for _, arg in body):
                    body[0] = (body[0][0], "X")
                goals = [f"{pred}({arg})" for pred, arg in body]
                if rng.random() < 0.6:
                    goals.insert(rng.randint(0, len(goals)), "!")
                lines.append(f"p{i}(X) :- {', '.join(goals)}.")
    return "\n".join(lines)


def test_criterion_09_cut_only_removes_answers():
    program = load_fixture("cut-abc")
    with_cut = answer_texts(build_tree(program, parse_query("a(A)")))
    without = answer_texts(build_tree(without_cuts(program),
                                      parse_query("a(A)")))
    assert is_subsequence(with_cut, without)

    rng = random.Random(1729)
    room = Limits(max_nodes=200000)
    checked = 0
    for _ in range(100):
        src = random_cut_program(rng)
        program = parse_program(src)
        query = parse_query("p0(X)")
        cut_tree = build_tree(program, query, limits=room)
        full_tree = build_tree(without_cuts(program), query, limits=room)
        assert not cut_tree.truncated and not full_tree.truncated, src
        assert is_subsequence(answer_texts(cut_tree),
                              answer_texts(full_tree)), src
        checked += 1
    assert checked == 100
    ok(9, "answers with cuts are a subsequence of answers without, on the "
          "layered KB and 100 random programs")


def test_criterion_10_runs_are_reproducible():
    for f in FIXTURES:
        first = fixture_tree(f.name)
        second = fixture_tree(f.name)
        assert serialize(first) == serialize(second), f.name
        for width in (120, 60):
            opts = RenderOptions(max_width=width)
            assert render_text(first, opts) == render_text(second, opts), f.name
    ok(10, "all bundled examples serialize and render byte-identically "
           "across rebuilds")


def test_criterion_11_left_recursion_is_cut_off(tmp_path):
    tree = build_tree(parse_program("p :- p."), parse_query("p"))
    assert tree.truncated
    assert leaf_statuses(tree.root) == [TRUNCATED]
    assert answer_texts(tree) == []

    db = tmp_path / "loop.pl"
    db.write_text("p :- p.\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(db=str(db), query="p"), out, err)
    assert code == EXIT_TRUNCATED == 3
    assert "truncated" in err.getvalue()
    assert out.getvalue().endswith("false.\n")
    ok(11, "p :- p. stops at the default limits with a truncated tree and "
           "exit code 3")
