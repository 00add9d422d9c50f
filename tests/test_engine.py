import gc
import sys
import tracemalloc
from itertools import chain

import pytest

import sldtree.engine as engine
from sldtree.cli import _build_parser, _load_db
from sldtree.engine import (Answer, EngineOptions, Limits, NodeStatus,
                            SearchNode, apply_cut, build_tree, solutions)
from sldtree.errors import (CyclicTermError, InstantiationError,
                            UnknownPredicateError)
from sldtree.fixtures import load_fixture
from sldtree.kb import (Call, Cut, Disjunction, Negation, goal_variables,
                        seq_text)
from sldtree.reader import parse_program, parse_query
from sldtree.render import render_text
from sldtree.serialize import serialize
from sldtree.terms import (Atom, Compound, Variable, indicator, term_text,
                           variables_of)
from sldtree.unify import rename_clause, unify
from test_golden import DB, cases as golden_cases

OPEN = NodeStatus.OPEN
SUCCESS = NodeStatus.SUCCESS
FAIL = NodeStatus.FAIL
PRUNED = NodeStatus.PRUNED
TRUNCATED = NodeStatus.TRUNCATED


def build(src, query, **kw):
    return build_tree(parse_program(src), parse_query(query), **kw)


def expand(node, program, options=None, floor=1):
    """One expansion step on its own, for poking at the rules: the node's
    children, and for each the bindings its step made, the names it shows
    and its floor."""
    builder = engine._Builder(program, Limits(), options or EngineOptions())
    builder.path = {v.name for v in goal_variables(
        (*node.goals, *chain(*node.label.bindings))) if not v.is_anonymous}
    node.children, kids = builder.expand(node, [], floor)
    return node.children, kids


def leaves(node):
    if not node.children:
        return [node]
    out = []
    for child in node.children:
        out.extend(leaves(child))
    return out


def leaf_statuses(tree):
    return [leaf.status for leaf in leaves(tree.root)]


def answers(tree):
    return [a.text() for a in solutions(tree)]


# -- one-step expansion behaviour ------------------------------------------

def test_true_steps_to_the_rest():
    tree = build("p(a).", "true, p(X)")
    (child,) = tree.root.children
    assert seq_text(child.goals) == "p(X)"
    assert not child.label.bindings
    assert answers(tree) == ["X = a"]


def test_fail_is_a_dead_end():
    tree = build("p(a).", "fail")
    (child,) = tree.root.children
    assert child.status is FAIL and not child.children
    assert answers(tree) == []


def test_comparison_that_holds_steps_on():
    tree = build("p(a).", "4 < 5, p(X)")
    (child,) = tree.root.children
    assert seq_text(child.goals) == "p(X)"


def test_comparison_that_fails_is_a_dead_end():
    tree = build("p(a).", "5 < 5, !, fail")
    (child,) = tree.root.children
    assert child.status is FAIL and not child.children


def test_cut_then_fail_chain():
    tree = build("p(a).", "4 < 5, !, fail")
    (step,) = tree.root.children
    assert seq_text(step.goals) == "!,fail"
    assert answers(tree) == []
    assert leaf_statuses(tree) == [FAIL]


def test_comparison_needs_ground_integers():
    with pytest.raises(InstantiationError) as info:
        build("p(a).", "X < 3")
    assert str(info.value) == "comparison needs two integers: X < 3"
    with pytest.raises(InstantiationError):
        build("p(a).", "a < 3")


def test_call_spawns_one_child_per_clause_in_source_order():
    tree = build_tree(load_fixture("animals"), parse_query("animal(Animal)"))
    kids = tree.root.children
    assert [seq_text(k.goals) for k in kids] == ["mammal(X)", "reptile(X)", "bird(X)"]
    assert [k.label.lines() for k in kids] == [["Animal=X"]] * 3


def test_a_clause_child_shares_the_rest_goals_its_step_leaves_unchanged():
    tree = build("p(1). q(1).", "p(X), q(Y), Y < 2, q(X), X < 2")
    root = tree.root
    (child,) = root.children
    assert seq_text(child.goals) == "q(Y),Y < 2,q(1),1 < 2"
    assert child.goals[0] is root.goals[1]
    assert child.goals[1] is root.goals[2]
    assert child.goals[2] is not root.goals[3]
    assert child.goals[3] is not root.goals[4]


def test_failed_head_unifications_stay_in_the_tree():
    tree = build("p(a). p(b). p(c).", "p(b)")
    assert leaf_statuses(tree) == [FAIL, SUCCESS, FAIL]


def test_unknown_predicate_fails_by_default():
    tree = build("p(a).", "q(X)")
    assert leaf_statuses(tree) == [FAIL]
    assert answers(tree) == []


def test_unknown_predicate_can_raise():
    with pytest.raises(UnknownPredicateError) as info:
        build("p(a).", "q(X), p(X)",
              options=EngineOptions(unknown="error"))
    assert str(info.value) == "unknown predicate q/1 in goal q(X)"


def test_disjunction_forks_both_ways():
    tree = build("a. b(1).", "(a ; b(X)), true")
    left, right = tree.root.children
    assert seq_text(left.goals) == "a,true"
    assert seq_text(right.goals) == "b(X),true"
    assert answers(tree) == ["true", "X = 1"]


# -- cut --------------------------------------------------------------------

def test_cut_commits_to_first_clause():
    tree = build("p(a). p(b).", "p(X), !")
    assert answers(tree) == ["X = a"]
    assert leaf_statuses(tree) == [SUCCESS, PRUNED]


def test_cut_alone_succeeds():
    tree = build("p(a).", "!")
    assert answers(tree) == ["true"]


def test_cut_in_clause_body_spares_other_query_alternatives():
    src = "b(1) :- !. b(2). top(X) :- b(X). top(3)."
    tree = build(src, "top(X)")
    # the cut inside b/1 prunes b's second clause but not top's
    assert answers(tree) == ["X = 1", "X = 3"]
    statuses = leaf_statuses(tree)
    assert statuses.count(PRUNED) == 1 and statuses.count(SUCCESS) == 2


def test_cut_statuses_on_layered_clauses():
    tree = build_tree(load_fixture("cut-abc"), parse_query("a(A)"))
    assert answers(tree) == ["A = 3", "A = 1", "A = 2"]
    statuses = leaf_statuses(tree)
    assert statuses.count(PRUNED) == 2
    assert statuses.count(SUCCESS) == 3


def test_earlier_siblings_keep_their_failed_status():
    tree = build("d(3). d(4). b(X) :- d(X), !.", "b(9)")
    # hunting for d(9): both d clauses fail before any cut is reached
    assert leaf_statuses(tree) == [FAIL, FAIL]


# -- negation as failure ------------------------------------------------------

def test_negation_expands_to_probe_and_continuation():
    tree = build("q(a).", "\\+ q(b), true")
    probe, rest = tree.root.children
    assert seq_text(probe.goals) == "q(b),!,fail"
    assert seq_text(rest.goals) == "true"
    assert not probe.label.bindings and not rest.label.bindings
    assert answers(tree) == ["true"]


def test_negation_fails_when_inner_goal_succeeds():
    tree = build("q(a).", "\\+ q(a)")
    assert answers(tree) == []
    # the probe ends in fail; the continuation is cut away
    statuses = leaf_statuses(tree)
    assert statuses.count(FAIL) == 1 and statuses.count(PRUNED) == 1


def test_negation_prunes_remaining_inner_alternatives():
    tree = build("q(a). q(b).", "\\+ q(X)")
    statuses = leaf_statuses(tree)
    # first q clause already proves q(X); the second and the continuation
    # are both cut away
    assert statuses.count(PRUNED) == 2
    assert answers(tree) == []


def test_negation_does_not_bind_outer_variables():
    tree = build("q(a).", "\\+ \\+ q(X)")
    assert answers(tree) == ["true"]


def test_cut_inside_negation_is_local_to_it():
    src = "p(a). p(b). t :- \\+ (p(X), !, fail). t :- u. u."
    tree = build(src, "t")
    # the inner cut stops p's second clause, not t's second clause
    assert answers(tree) == ["true", "true"]


NEGCUT = "m(1). m(2). t(X) :- m(X), \\+ (!, fail)."


@pytest.mark.parametrize("query,want", [
    ("t(X)", ["X = 1", "X = 2"]),
    ("m(X), not((!, fail))", ["X = 1", "X = 2"]),
    ("\\+ \\+ !", ["true"]),
    ("m(X), \\+ !", []),
])
def test_a_leading_cut_inside_negation_stays_in_the_probe(query, want):
    tree = build(NEGCUT, query)
    assert answers(tree) == want
    # the only branch a probe may prune outside itself is the continuation
    # of its own negation; m's second clause, X=2, is always expanded
    seen = [tree.root]
    while seen:
        node = seen.pop()
        for i, child in enumerate(node.children):
            if child.status is PRUNED:
                assert isinstance(node.goals[0], Negation) and i == 1
        seen.extend(node.children)


def test_negation_of_unprovable_goal_succeeds():
    tree = build("p(a).", "\\+ fail, p(X)")
    assert answers(tree) == ["X = a"]


def test_youngest_via_negation():
    tree = build_tree(load_fixture("youngest"), parse_query("youngest(Who)"))
    assert answers(tree) == ["Who = ben"]


# -- ';' and '\+' nested deep -------------------------------------------------

X = Variable("X")


def nest(kind, n, bottom):
    """`bottom` inside n goals of `kind`, each with a leading cut: the
    cut on a ';' goal's left, the cut and the rest in a '\\+' goal."""
    g = bottom
    for _ in range(n):
        g = (Disjunction((Cut(),), (g,)) if kind == ";"
             else Negation((Cut(), g)))
    return g


@pytest.mark.parametrize("kind", [";", "\\+"])
def test_rewrite_walks_goals_nested_100000_deep(kind):
    # at the interpreter's default recursion limit
    n = 100_000
    names = set()
    (g,) = engine._rewrite((nest(kind, n, Call(Compound("p", (X,)))),), 0,
                           {X: Atom("a")}, {}, names)
    for _ in range(n):
        cut, g = g.left + g.right if kind == ";" else g.inner
        # a ';' goal's cuts are scoped, a negation's stay unowned
        assert cut == Cut(0 if kind == ";" else None)
    assert g == Call(Compound("p", (Atom("a"),)))
    assert names == set()


def test_a_negation_with_nothing_to_rewrite_is_kept_whole():
    g = nest("\\+", 100_000, Call(Compound("p", (X,))))
    assert engine._rewrite((g,), 0, {}, {})[0] is g


NESTED = 10_000


@pytest.mark.parametrize("query, want", [
    ("(p(a);" * NESTED + "p(a)" + ")" * NESTED, ["true"] * (NESTED + 1)),
    ("\\+ (" * NESTED + "p(a)" + ")" * NESTED, ["true"]),
], ids=(";", "\\+"))
def test_a_query_nested_10000_deep_is_built(query, want):
    tree = build("p(_).", query,
                 limits=Limits(max_depth=2 * NESTED, max_nodes=100000))
    assert not tree.truncated
    assert answers(tree) == want


def rewrite_lines(n):
    """Lines _rewrite runs while a query of n nested '\\+' goals is built."""
    code, lines = engine._rewrite.__code__, 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    program = parse_program("p(_).")
    query = parse_query("\\+ (" * n + "p(a)" + ")" * n)
    limits = Limits(max_depth=2 * n, max_nodes=100000)
    sys.settrace(lambda frame, event, arg:
                 count_lines if frame.f_code is code else None)
    try:
        build_tree(program, query, limits)
    finally:
        sys.settrace(None)
    return lines


def test_expanding_nested_negations_is_linear_in_the_nest():
    # each negation's expansion keeps the negations inside it whole; one
    # that walked them would rewrite the nest below it at every level
    assert rewrite_lines(2000) / rewrite_lines(1000) <= 2.5


# -- limits -------------------------------------------------------------------

def test_depth_limit_truncates_instead_of_erroring():
    tree = build("p :- p.", "p", limits=Limits(max_depth=10))
    assert tree.truncated
    assert tree.tripped == ("max_depth",)
    assert leaf_statuses(tree) == [TRUNCATED]
    assert answers(tree) == []


def test_node_limit_truncates():
    tree = build("p :- p, p.", "p", limits=Limits(max_nodes=30))
    assert tree.truncated
    assert tree.tripped == ("max_nodes",)
    assert TRUNCATED in leaf_statuses(tree)


def test_finite_trees_are_not_truncated():
    tree = build_tree(load_fixture("member"), parse_query("member(X, [a,b,c])"))
    assert not tree.truncated
    assert TRUNCATED not in leaf_statuses(tree)
    assert tree.tripped == ()


# -- the cyclic garbage collector ----------------------------------------------

@pytest.fixture
def collector_on():
    """The collector on for the test, and as it was again after it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_the_build_pauses_the_collector_and_turns_it_back_on(
        collector_on, monkeypatch):
    seen = []
    real_run = engine._Builder.run

    def run(self, root):
        seen.append(gc.isenabled())
        return real_run(self, root)

    monkeypatch.setattr(engine._Builder, "run", run)
    build("p(a). p(b).", "p(X)")
    assert seen == [False]
    assert gc.isenabled()


def test_a_build_that_raises_turns_the_collector_back_on(collector_on):
    with pytest.raises(UnknownPredicateError):
        build("p(a).", "p(X), q(X)",
              options=EngineOptions(unknown="error"))
    assert gc.isenabled()


def test_the_build_leaves_the_collector_off_if_it_was_off(collector_on):
    gc.disable()
    build("p(a). p(b).", "p(X)")
    assert not gc.isenabled()
    with pytest.raises(UnknownPredicateError):
        build("p(a).", "p(X), q(X)",
              options=EngineOptions(unknown="error"))
    assert not gc.isenabled()


def test_limits_validate():
    with pytest.raises(ValueError):
        Limits(max_depth=0)
    with pytest.raises(ValueError):
        Limits(max_nodes=0)
    with pytest.raises(ValueError):
        EngineOptions(unknown="panic")
    with pytest.raises(ValueError):
        EngineOptions(rename="greek")


# -- renaming ---------------------------------------------------------------

def goal_lists(tree):
    """Each node's goals as text, in depth-first order."""
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        out.append(seq_text(node.goals))
        stack.extend(reversed(node.children))
    return out


def test_a_name_off_the_path_is_kept():
    # X was shown only on the branch of a, which is done when b expands
    tree = build("s :- a. s :- b. a :- c(X). b :- c(X). c(1).", "s")
    assert goal_lists(tree) == ["s", "a", "c(X)", "", "b", "c(X)", ""]


def test_a_name_stays_on_the_path_while_an_ancestor_shows_it():
    # q(X) also showed X, but the root still does when r expands
    tree = build("q(1). w. r :- t(X). t(2).", "(q(X) ; r), w")
    assert "t(X'),w" in goal_lists(tree)


def test_a_name_shown_only_on_an_edge_label_is_on_the_path():
    tree = build("p(Y) :- r. r :- t(Y). t(1).", "p(X)")
    assert goal_lists(tree) == ["p(X)", "r", "t(Y')", ""]


def test_a_name_issued_on_another_branch_is_reused():
    # the first branch renames A1 to A11 and climbs to generation 11, but
    # none of that is on b's path, so b's clause takes generation 1 again
    nine = "s(" * 9 + "z" + ")" * 9
    tree = build(f"s :- a(A1). s :- b(A). a(A1) :- c({nine}, A1)."
                 " c(z, _). c(s(N), V) :- c(N, V). b(A) :- e(A). e(_).",
                 "s", options=EngineOptions(rename="numeric"))
    assert goal_lists(tree)[-4:] == ["", "b(A)", "e(A1)", ""]


def test_clause_children_of_one_node_start_from_the_same_floor():
    # the first clause is renamed to X' before its head fails; the second
    # takes X' as well, not X''
    tree = build("p(X, b) :- q(X). p(X, a) :- q(X). q(1).", "p(X, a)")
    assert goal_lists(tree) == ["p(X,a)", "", "q(X')", ""]


def test_a_renamed_child_raises_the_floor_for_its_subtree():
    # X' is bound to a and no node shows it, but p's clause was renamed
    # to generation 1 on the way, so the next renaming starts at 2
    tree = build("p(X, Y) :- r. r :- t(X). t(1).", "p(a, X)")
    assert goal_lists(tree) == ["p(a,X)", "r", "t(X'')", ""]


def shown_variables(node):
    """The variables a node shows: in its goals and on its edge label."""
    vs = goal_variables(node.goals)
    for v, t in node.label.bindings:
        vs += [v, *variables_of(t)]
    return {v for v in vs if not v.is_anonymous}


def golden_trees():
    """One tree per distinct database, query and limits of the goldens."""
    seen = {}
    for argv in golden_cases().values():
        args = _build_parser().parse_args(argv)
        key = (args.db, args.query, args.max_depth, args.max_nodes)
        if key not in seen:
            program = parse_program(_load_db(args.db))
            seen[key] = program, build_tree(
                program, parse_query(args.query),
                Limits(args.max_depth, args.max_nodes))
    return list(seen.values())


def test_a_renamed_variable_never_shows_a_name_of_its_path():
    renamed = 0
    for program, tree in golden_trees():
        # (node, names shown by the node and its ancestors)
        stack = [(tree.root, frozenset())]
        while stack:
            node, above = stack.pop()
            own = shown_variables(node)
            path = above | {v.name for v in own}
            g = node.goals[0] if node.goals else None
            clauses = (program.clauses_for(indicator(g.term))
                       if isinstance(g, Call) else [])
            for i, child in enumerate(node.children):
                if i < len(clauses):
                    for v in shown_variables(child) - own:
                        assert v.name not in path, (seq_text(node.goals), v)
                        renamed += v.name.endswith("'")
                stack.append((child, path))
    assert renamed > 100  # primed names: the rule was exercised


def test_a_fact_is_renamed_apart_from_the_path():
    # the fact's Z reaches the resolvent through X, beside the query's Z
    tree = build("q(Z, Z). r(_, _).", "q(X, Y), r(Z, X)")
    stack = [tree.root]
    while stack:
        node = stack.pop()
        names = [v.name for v in shown_variables(node)]
        assert len(names) == len(set(names)), (seq_text(node.goals), names)
        stack.extend(node.children)
    assert seq_text(tree.root.children[0].goals) == "r(Z,Z')"


def tree_variables(node):
    """Every variable in a node's goals and edge label."""
    vs = set(goal_variables(node.goals))
    for v, t in node.label.bindings:
        vs |= {v, *variables_of(t)}
    return vs


def test_no_variable_of_a_parsed_clause_enters_the_tree():
    # each clause's variables start out bound to fresh ones; the facts
    # tree leaves variables of facts unbound, and in the last tree an
    # anonymous variable's value is cyclic, which no success leaf needs
    facts = parse_program("q(Z, Z). r(_, _).")
    cyclic = parse_program("p(_). eq(A, g(A)).")
    with pytest.raises(CyclicTermError):  # the success leaf needs it
        build_tree(cyclic, parse_query("p(Y), eq(Y, Y)"))
    trees = golden_trees() + [
        (facts, build_tree(facts, parse_query("q(X, Y), r(Z, X)"))),
        (cyclic, build_tree(cyclic, parse_query("p(Y), eq(Y, Y), fail")))]
    checked = clause_vars_seen = answers_seen = 0
    for program, tree in trees:
        clause_vars = {v for c in program.clauses for v in c.variables}
        clause_vars_seen += len(clause_vars)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert not tree_variables(node) & clause_vars, seq_text(node.goals)
            checked += 1
            stack.extend(node.children)
        for a in solutions(tree):
            vs = set(a.free)
            for v, t in a.bindings:
                vs |= {v, *variables_of(t)}
            assert not vs & clause_vars, a.text()
            answers_seen += 1
    assert checked > 500 and clause_vars_seen > 50 and answers_seen > 50


def test_a_step_binds_the_call_variables_to_resolved_values():
    # the clause variable the unifier binds gets no fresh variable, and
    # shows nowhere: not in the child, its label or its step
    program = parse_program("p(X, X) :- q(X).")
    (child,), ((step, _, _),) = expand(
        SearchNode(parse_query("p(a, B)")), program)
    assert seq_text(child.goals) == "q(a)"
    assert [(v.name, term_text(t)) for v, t in step] == [("B", "a")]
    seen = tree_variables(child).union(
        *[{v, *variables_of(t)} for v, t in step])
    assert "X" not in {v.name for v in seen}
    # an unbound one gets a fresh variable, which the step's value and
    # the child's goal share
    program = parse_program("p(f(Y)) :- q(Y).")
    (y,) = program.clauses[0].variables
    (child,), ((step, _, _),) = expand(
        SearchNode(parse_query("p(Z), r(Y)")), program,
        EngineOptions(rename="numeric"))
    ((z, value),) = step
    assert (z.name, term_text(value)) == ("Z", "f(Y1)")
    assert seq_text(child.goals) == "q(Y1),r(Y)"
    assert child.goals[0].term.args[0] is value.args[0] is not y


def top_level_clash(call, head) -> bool:
    """Whether two top-level arguments of call and head, neither of them
    a variable, differ in kind, atom name, integer value, or functor or
    arity of a compound."""
    for a, b in zip(getattr(call, "args", ()), getattr(head, "args", ())):
        if isinstance(a, Variable) or isinstance(b, Variable):
            continue
        if type(a) is not type(b):
            return True
        if isinstance(a, Compound):
            if (a.functor, len(a.args)) != (b.functor, len(b.args)):
                return True
        elif a != b:
            return True
    return False


def record_tries(monkeypatch) -> list:
    """The ("rename", clause) and ("unify", call, head) calls the engine
    makes from now on, in order."""
    events = []

    def counted_rename(clause, *args):
        events.append(("rename", clause))
        return rename_clause(clause, *args)

    def counted_unify(call, head, *args):
        events.append(("unify", call, head))
        return unify(call, head, *args)

    monkeypatch.setattr(engine, "rename_clause", counted_rename)
    monkeypatch.setattr(engine, "unify", counted_unify)
    return events


def test_each_clause_tried_is_unified_once(monkeypatch):
    events = record_tries(monkeypatch)
    program = parse_program((DB / "perm.pl").read_text(encoding="utf-8"))
    clashes = failed = ground = 0
    # sel(c, [a,b,c], R)'s first clause passes the key check, and fails
    # to unify, below perm([a,b,c], [c,a,b])
    for query, count in (("perm([a,b,c], P)", 6),
                         ("perm([a,b,c], [c,a,b])", 1)):
        events.clear()
        tree = build_tree(program, parse_query(query))
        # nodes are expanded in DFS pre-order, all of a node's clauses at once
        want = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.children and isinstance(node.goals[0], Call):
                call = node.goals[0].term
                for c, child in zip(program.clauses_for(indicator(call)),
                                    node.children):
                    if top_level_clash(call, c.head):
                        clashes += 1
                        continue
                    # the head as written; the clause is renamed only
                    # after it unifies, and only if it has variables
                    want.append(("unify", call, c.head))
                    if child.status is FAIL:
                        failed += 1
                    elif c.variables:
                        want.append(("rename", c))
                    else:
                        ground += 1
            stack.extend(reversed(node.children))
        assert len(solutions(tree)) == count
        assert want and events == want
    assert clashes > 0 and failed > 0 and ground > 0


def test_a_bound_first_argument_unifies_only_the_matching_facts(monkeypatch):
    n = 40
    src = "".join(f"d({i % 5}, {'vw'[i % 2]}(X), X).\n" for i in range(n))
    program = parse_program(src)
    events = record_tries(monkeypatch)
    tree = build_tree(program, parse_query("d(3, A, B)"))
    call = tree.root.goals[0].term
    matching = [c for c in program.clauses if c.head.args[0].value == 3]
    assert len(matching) == n // 5
    assert events == [e for c in matching
                      for e in (("unify", call, c.head), ("rename", c))]
    assert [c.status for c in tree.root.children] == \
        [SUCCESS if i % 5 == 3 else FAIL for i in range(n)]
    assert answers(tree) == [f"A = {c.head.args[1].functor}(X), B = X"
                             for c in matching]
    # the index of the second position serves a call bound only there
    events.clear()
    tree = build_tree(program, parse_query("d(A, v(1), B)"))
    call = tree.root.goals[0].term
    matching = program.clauses[::2]
    assert events == [e for c in matching
                      for e in (("unify", call, c.head), ("rename", c))]
    assert [c.status for c in tree.root.children] == \
        [FAIL if i % 2 else SUCCESS for i in range(n)]
    assert answers(tree) == [f"A = {i % 5}, B = 1" for i in range(0, n, 2)]


def test_every_failure_leaf_is_one_shared_node():
    program = parse_program("".join(f"n({i}).\n" for i in range(1000)))
    tree = build_tree(program, parse_query("n(7)"))
    children = tree.root.children
    assert len(children) == 1000
    assert [i for i, c in enumerate(children) if c.status is not FAIL] == [7]
    assert len({id(c) for c in children if c.status is FAIL}) == 1
    # the writers still show each of them
    doc = serialize(tree)
    assert doc.count('"status": "fail"') == 999
    assert render_text(tree).split().count("x") == 999


# -- tree shape invariants ------------------------------------------------------

@pytest.mark.parametrize("name,query", [
    ("romance", "jealous(X, Y)"),
    ("cut-abc", "a(A)"),
    ("youngest", "youngest(Who)"),
    ("member", "member(X, [a,b,c])"),
])
def test_leaves_are_settled_and_interior_nodes_are_open(name, query):
    tree = build_tree(load_fixture(name), parse_query(query))
    seen = [tree.root]
    while seen:
        node = seen.pop()
        if not node.children:
            assert node.status is not OPEN
        else:
            assert node.status is OPEN
            seen.extend(node.children)


def test_empty_query_is_rejected():
    with pytest.raises(ValueError):
        build_tree(parse_program("p."), ())


# -- answers ---------------------------------------------------------------------

def test_solutions_come_back_in_depth_first_order():
    tree = build_tree(load_fixture("member"), parse_query("member(X, [a,b,c])"))
    found = solutions(tree)
    assert [a.text() for a in found] == ["X = a", "X = b", "X = c"]
    paths = [a.path for a in found]
    assert paths == sorted(paths)


def test_answer_paths_lead_to_success_leaves():
    tree = build_tree(load_fixture("romance"), parse_query("jealous(X, Y)"))
    for answer in solutions(tree):
        node = tree.root
        for i in answer.path:
            node = node.children[i]
        assert node.status is SUCCESS and not node.children


def test_answer_bindings_follow_query_variable_order():
    tree = build_tree(load_fixture("romance"), parse_query("jealous(X, Y)"))
    first = solutions(tree)[0]
    assert [v.name for v, _ in first.bindings] == ["X", "Y"]
    assert first.text() == "X = vincent, Y = vincent"
    assert first.mapping == dict(first.bindings)


def test_anonymous_query_variables_never_appear_in_answers():
    tree = build("p(a, b).", "p(_, Y)")
    assert answers(tree) == ["Y = b"]


def test_ground_query_answers_true():
    tree = build("p(a).", "p(a)")
    (answer,) = solutions(tree)
    assert answer.bindings == () and answer.text() == "true"


def test_success_leaves_carry_their_answers():
    tree = build_tree(load_fixture("append"), parse_query("append(X, Y, [a])"))
    x, y = tree.query_vars
    success = []
    stack = [(tree.root, ())]
    while stack:
        node, path = stack.pop()
        if node.status is SUCCESS:
            success.append(path)
        stack.extend((c, path + (i,)) for i, c in
                     reversed(list(enumerate(node.children))))
    found = solutions(tree)
    assert [a.path for a in found] == success
    assert [tuple((v, term_text(t)) for v, t in a.bindings) for a in found] == [
        ((x, "[]"), (y, "[a]")), ((x, "[a]"), (y, "[]"))]


def test_cyclic_binding_on_a_failing_branch_is_no_answer():
    # the anonymous variable is never shown on an edge, and no success
    # leaf needs the cyclic value of Y, so the query simply fails
    tree = build("p(f(_)). eq(A, A).", "p(Y), eq(Y, f(Y)), fail")
    assert solutions(tree) == []
    with pytest.raises(CyclicTermError):
        solutions(build("p(f(_)). eq(A, A).", "p(Y), eq(Y, f(Y))"))


@pytest.mark.parametrize("src, query, want", [
    # one variable shared, printed the way Prolog top levels print it
    ("s(A, A).", "s(X, Y)", "X = Y"),
    ("q(Z, Z). r(_, _).", "q(X, Y), r(Z, X)", "X = Y, Z = _A"),
    # distinct anonymous values get distinct names
    ("r(_, _).", "r(X, Y)", "X = _A, Y = _B"),
    # one name shown by two variables: both renamed. The first W is
    # bound through an anonymous variable, so no edge label shows it,
    # and the path no longer holds its name when d/1's W is renamed
    ("a(f(_)). c(f(g(W))). d(h(W)).", "a(X), c(X), d(Y)",
     "X = f(g(_A)), Y = h(_B)"),
    # a query variable left unbound is its own value
    ("eq(A, A).", "eq(f(X), f(Y))", "X = Y"),
    ("eq(A, A).", "eq(f(X, X, Z), f(Y, W, g(Y)))", "Z = g(X), X = Y, Y = W"),
    ("p(A, B, f(A)).", "p(X, Y, Z)", "X = A, Y = B, Z = f(A)"),
])
def test_answers_show_which_query_variables_share_a_value(src, query, want):
    (answer,) = solutions(build(src, query))
    assert answer.text() == want


def test_rebuilding_gives_identical_answers_and_statuses():
    src = "loves(vincent, mia). loves(marsellus, mia)." \
          " jealous(A, B) :- loves(A, C), loves(B, C)."
    one = build(src, "jealous(X, Y)")
    two = build(src, "jealous(X, Y)")
    assert answers(one) == answers(two)
    assert leaf_statuses(one) == leaf_statuses(two)


def held(make):
    """make()'s result, and the bytes it still holds once make returns."""
    # a full collection empties the free lists of tuples and the like:
    # an object make took from them was allocated before tracing began,
    # and would go uncounted, more so the warmer the process
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def held_after_build(shape, n):
    """Bytes a build of `shape` at size n still holds once it returns."""
    if shape == "chain":  # n steps deep
        src, query = "m(s(X)) :- m(X).", "m(X)"
    else:  # a table of n facts, one in 7 an answer
        src = "".join(f"fact(k{i:05}, v{i % 7}).\n" for i in range(n))
        query = "fact(K, v3)"
    program, goals = parse_program(src), parse_query(query)
    tree, size = held(lambda: build_tree(
        program, goals, Limits(max_depth=n, max_nodes=100000),
        EngineOptions(rename="numeric")))
    assert tree.truncated == (shape == "chain")
    return size


@pytest.mark.parametrize("shape, n", [("chain", 400), ("table", 1000)],
                         ids=("chain", "table"))
def test_the_build_holds_memory_linear_in_the_depth(shape, n):
    # a chain step binds X to s(X1): an answer carried on every node
    # would make the chain grow with the square of its depth
    assert held_after_build(shape, 2 * n) / held_after_build(shape, n) <= 2.5


def held_by_answers(tree_of, n):
    """Bytes the n + 1 answers of tree_of(n) hold once the build that
    made them returns: what dropping them gives back."""
    gc.collect()
    tracemalloc.start()
    try:
        tree = tree_of(n)
        assert len(solutions(tree)) == n + 1
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tree.answers.clear()
        gc.collect()  # empties the free lists the answers' tuples went to
        return before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def nat_tree(n):
    """The nat tree n steps deep: the answer at depth k is succ^k(0)."""
    return build("n(0). n(succ(X)) :- n(X).", "n(X)",
                 limits=Limits(max_depth=n))


def disjunction_tree(n):
    """The tree of a ';' nest n deep: its answers bind nothing, and the
    one at depth k has a path k long."""
    return build("p(_).", "(p(a);" * n + "p(a)" + ")" * n,
                 limits=Limits(max_depth=2 * n, max_nodes=4 * n))


def test_the_answers_hold_memory_linear_in_the_depth():
    # answers that shared the value their shallower sibling resolved
    # would grow linearly
    assert (held_by_answers(nat_tree, 200)
            / held_by_answers(nat_tree, 100)) <= 2.5


def test_the_answer_paths_hold_memory_linear_in_the_depth():
    # answers that each kept their path whole would hold memory
    # quadratic in n; sharing the cells of common ancestors is linear
    assert (held_by_answers(disjunction_tree, 4000)
            / held_by_answers(disjunction_tree, 2000)) <= 2.5


# -- smaller pieces ------------------------------------------------------------

def test_expand_wrapper_steps_once():
    program = parse_program("p(a). p(b).")
    node = SearchNode(parse_query("p(X)"))
    children, kids = expand(node, program)
    assert node.children == children
    assert len(children) == 2
    assert [[(v.name, term_text(t)) for v, t in s] for s, _, _ in kids] == \
        [[("X", "a")], [("X", "b")]]
    assert all(c.status is OPEN for c in children)


def test_expand_wrapper_renames_away_from_the_node_names():
    # as in a real build, a rule variable whose name the node shows moves
    # to the next generation
    program = parse_program("p(X) :- q(X, Y).")
    (child,), _ = expand(SearchNode(parse_query("p(X)")), program)
    assert seq_text(child.goals) == "q(X',Y')"


def test_apply_cut_stops_at_the_target_depth():
    grandparent = SearchNode(parse_query("g"))
    parent = SearchNode(parse_query("p"))
    grandparent.children = [parent, SearchNode(parse_query("s1"))]
    parent.children = [SearchNode(parse_query("c0")),
                       SearchNode(parse_query("c1"))]
    path = [(grandparent, 0), (parent, 0)]
    apply_cut(path[1:])
    assert parent.children[1].status is PRUNED
    # the cut's target is the parent; the grandparent's sibling is intact
    assert grandparent.children[1].status is OPEN


def test_apply_cut_skips_settled_siblings():
    parent = SearchNode(parse_query("p"))
    done = SearchNode(parse_query("c1"))
    done.status = FAIL
    parent.children = [SearchNode(parse_query("c0")), done,
                       SearchNode(parse_query("c2"))]
    apply_cut([(parent, 0)])
    assert parent.children[1].status is FAIL
    assert parent.children[2].status is PRUNED
