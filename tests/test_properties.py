"""Property tests of the canonical writer, unify and the tokenizer.

serialize() writes the canonical document by hand; on generated
SearchTrees, json.dumps of the plain document, made from the goal and
term texts, is the oracle it must match byte for byte, and deserialize()
must give back the tree's to_view(). On documents with a few
corruptions, deserialize() must report the error, its place and its
message, that a recursive reader finds first.
unify() must agree with a textbook
unifier that does the occurs check, and a head that expand() fails
without unifying must not unify with the call. On generated heads and
calls, each call node the build makes must have one child per clause,
the one shared failure leaf exactly where unify() finds no unifier, and
a fact table's success leaves must be the facts that unify, in order,
whichever clauses the index skips. Program.candidates must give the
heads that clash with the call at no argument, the heads that unify
with it among them. unify() must also bind
the same variables to the same terms, in the same order, as its earlier
queue-only form. The reader's pattern tokenizer must agree with the
character loop it replaced. expand() on one clause, renamed through the
call's unifier with its head, must agree with renaming a copy of the
clause first. On generated programs with
variables, the answers the build resolves at the success leaves must
equal those of an answer kept on every node and mapped through each
step's unifier, a cyclic one raising in both, each call node's children
must follow its clauses in source order, and two query variables
must print as aliases exactly when they share one unbound value, and at
each clause tried the builder's path set must hold exactly the names
shown from the root down to the node it expands, and the names it
hands each node it visits must be those the node shows in its goals and
on its edge label, while the engine finds the variables of goals once,
for the query, and the CLI must exit 3 exactly when the tree is
truncated, naming each limit that tripped, and otherwise 0 or 1 as the
tree has answers or none. The engine's goal rewrite must agree with its earlier
recursive form, goal for goal and name for name, and keep the same
calls and comparisons. On propositional programs with cut, `;` and
`\\+`, the solutions of the built tree must be as many as a generator
solver over goal lists finds. Terms, goals and views must compare as a
recursive reference does, hash equal when equal, and read back from
their repr() when they hold no variable. On generated function-free
programs with variables, the ground instances of the answers must be
the bottom-up oracle's, each call node must have one child per clause
of its predicate, and the CLI must exit 0 or 1 to match the answers.
"""
import io
import json
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

import bottomup_oracle as oracle
import sldtree.engine as engine
import sldtree.cli as cli
from sldtree.cli import (EXIT_NO_ANSWERS, EXIT_OK, EXIT_TRUNCATED, RunConfig,
                         run)
from sldtree.engine import (EdgeLabel, EngineOptions, Limits, NodeStatus,
                            SearchNode, SearchTree, build_tree, solutions)
from sldtree.errors import CyclicTermError
from sldtree.kb import (COMPARE_OPS, Call, Clause, Compare, Cut, Disjunction,
                        FailGoal, Negation, Program, TrueGoal, clause_text,
                        goal_text, goal_variables, seq_text)
from sldtree.reader import ParseError, SourcePosition, _position, _tokenize
from sldtree.serialize import (FORMAT_NAME, FormatError, ViewEdge, ViewNode,
                               ViewTree, deserialize, serialize, to_view)
from sldtree.terms import (Atom, Compound, Integer, Variable, indicator,
                           list_term, term_text, variables_of)
from sldtree.unify import RENAME_STYLES, rename_clause, resolve, unify
from test_engine import expand

STATUSES = ("open", "success", "fail", "pruned", "truncated")

# characters the JSON writer must escape or pass through unescaped
TRICKY = '"\\/\n\r\t\b\f\x00\x1f\x7f  éß→😀'

# names of atoms and variables: plain ones, and ones atom_text must quote,
# with blanks and quotes inside
texts = st.text(alphabet=st.one_of(st.sampled_from(TRICKY + "'a"),
                                   st.characters()), max_size=6)


def search_trees(names, max_leaves: int, max_kids: int):
    """SearchTrees of any shape, as the writers read them: a goal is a
    call of an atom or a comparison, an edge label binds variables to
    atoms, every name is drawn from `names`, a node has any status and
    up to `max_kids` children, and the tree may be truncated."""
    atoms = names.map(Atom)
    goal_seqs = st.lists(st.one_of(
        atoms.map(Call),
        st.builds(Compare, st.sampled_from(COMPARE_OPS), names.map(Variable),
                  st.integers(-9, 99).map(Integer))), max_size=4).map(tuple)
    edge_labels = st.lists(st.tuples(names.map(Variable), atoms),
                           max_size=4).map(lambda b: EdgeLabel(tuple(b)))

    def node(kids):
        return st.builds(SearchNode, goal_seqs, st.sampled_from(NodeStatus),
                         edge_labels, kids)

    root = st.recursive(node(st.just(())), lambda children: node(
        st.lists(children, min_size=1, max_size=max_kids)),
        max_leaves=max_leaves)
    return st.builds(lambda r, tripped: SearchTree(r, (), [], tripped), root,
                     st.sampled_from(((), ("max_depth",))))


trees = search_trees(texts, 25, 3)
views = trees.map(to_view)


def reference_doc(tree: SearchTree) -> dict:
    def node(n: SearchNode) -> dict:
        return {"goals": list(map(goal_text, n.goals)),
                "status": n.status.value,
                "children": [{"label": [[v.name, term_text(t)]
                                        for v, t in c.label.bindings],
                              "node": node(c)}
                             for c in n.children]}
    return {"format": FORMAT_NAME, "truncated": tree.truncated,
            "root": node(tree.root)}


@settings(deadline=None)
@given(trees)
def test_serialize_prints_what_json_dumps_prints(tree):
    want = json.dumps(reference_doc(tree), indent=2, ensure_ascii=False)
    assert serialize(tree) == want + "\n"


@settings(deadline=None)
@given(trees)
def test_deserialize_inverts_serialize(tree):
    assert deserialize(serialize(tree)) == to_view(tree)


def _expect(cond, message, path):
    if not cond:
        raise FormatError(message, "".join(path))


def reference_parse_node(obj, path):
    """The recursive node reader deserialize() once used: each check in
    document order, the first that fails reported at its path."""
    _expect(isinstance(obj, dict), "node must be an object", path)
    _expect(set(obj) == {"goals", "status", "children"},
            "node needs exactly goals/status/children", path)
    goals = obj["goals"]
    _expect(isinstance(goals, list) and all(isinstance(g, str) for g in goals),
            "goals must be a list of strings", path)
    status = obj["status"]
    _expect(status in STATUSES, f"unknown status {status!r}", path)
    raw_children = obj["children"]
    _expect(isinstance(raw_children, list), "children must be a list", path)
    children = []
    for i, edge in enumerate(raw_children):
        path.append(f".children[{i}]")
        _expect(isinstance(edge, dict) and set(edge) == {"label", "node"},
                "edge needs exactly label/node", path)
        label = edge["label"]
        _expect(isinstance(label, list), "label must be a list", path)
        pairs = []
        for p in label:
            _expect(isinstance(p, list) and len(p) == 2
                    and all(isinstance(x, str) for x in p),
                    "label entries are [name, term] string pairs", path)
            pairs.append((p[0], p[1]))
        path.append(".node")
        children.append(ViewEdge(tuple(pairs),
                                 reference_parse_node(edge["node"], path)))
        del path[-2:]
    return ViewNode(tuple(goals), status, tuple(children))


# (objects it applies to, key, bad values): each makes one object invalid
CORRUPTIONS = st.one_of(
    st.tuples(st.just("node"), st.just("status"),
              st.sampled_from(["maybe", "", 3, None, ["open"]])),
    st.tuples(st.just("node"), st.just("goals"),
              st.sampled_from(["p", None, {"p": 1}, [1], ["p", None]])),
    st.tuples(st.just("node"), st.just("children"),
              st.sampled_from(["", None, {}])),
    st.tuples(st.sampled_from(["node", "edge"]), st.just("extra"),
              st.just(1)),
    st.tuples(st.just("edge"), st.just("label"),
              st.sampled_from([[["X"]], [["X", 3]], [["X", "a", "b"]],
                               [[1, "a"]], ["X"], "X=a", None])),
    st.tuples(st.just("edge"), st.just("node"),
              st.sampled_from([3, None, [], "p"])),
)


@settings(deadline=None)
@given(trees, st.lists(st.tuples(CORRUPTIONS, st.integers(0, 10**6)),
                       min_size=1, max_size=3))
def test_deserialize_reports_the_errors_the_recursive_reader_reports(
        tree, corruptions):
    doc = reference_doc(tree)
    objects = {"node": [], "edge": []}
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        objects["node"].append(node)
        objects["edge"].extend(node["children"])
        stack.extend(e["node"] for e in reversed(node["children"]))
    for (kind, key, value), k in corruptions:
        pool = objects[kind] or objects["node"]
        pool[k % len(pool)][key] = value
    with pytest.raises(FormatError) as want:
        reference_parse_node(doc["root"], ["root"])
    with pytest.raises(FormatError) as got:
        deserialize(json.dumps(doc))
    assert (got.value.where, got.value.message) == (
        want.value.where, want.value.message)


# -- unify ------------------------------------------------------------------

# one shared pool, so a variable repeats within and across the two sides
POOL = (Variable("X"), Variable("Y"), Variable("Z"))

terms = st.recursive(
    st.sampled_from(POOL + (Atom("a"), Atom("b"))),
    lambda kids: st.one_of(
        st.builds(lambda x: Compound("f", (x,)), kids),
        st.builds(lambda x, y: Compound("g", (x, y)), kids, kids),
        st.builds(lambda x, y: Compound("h", (x, y)), kids, kids)),
    max_leaves=8)


def _subst(s: dict, t):
    if isinstance(t, Variable):
        return s.get(t, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_subst(s, a) for a in t.args))
    return t


def _occurs(v: Variable, t) -> bool:
    return t == v or (isinstance(t, Compound)
                      and any(_occurs(v, a) for a in t.args))


def textbook_unify(t1, t2) -> dict | None:
    """Robinson's algorithm with the occurs check: an idempotent mgu, or
    None when t1 and t2 have no finite common instance."""
    s: dict = {}
    pairs = [(t1, t2)]
    while pairs:
        a, b = (_subst(s, t) for t in pairs.pop())
        if a == b:
            continue
        if not isinstance(a, Variable):
            a, b = b, a
        if isinstance(a, Variable):
            if _occurs(a, b):
                return None
            s = {v: _subst({a: b}, t) for v, t in s.items()}
            s[a] = b
        elif (isinstance(a, Compound) and isinstance(b, Compound)
              and a.functor == b.functor and len(a.args) == len(b.args)):
            pairs.extend(zip(a.args, b.args))
        else:
            return None
    return s


def is_variant(t1, t2) -> bool:
    """Equal up to a one-to-one renaming of variables."""
    fwd: dict = {}
    back: dict = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Variable) and isinstance(b, Variable):
            if fwd.setdefault(a, b) != b or back.setdefault(b, a) != a:
                return False
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif a != b or isinstance(a, Variable) or isinstance(b, Variable):
            return False
    return True


X, Y, _ = POOL
FX = Compound("f", (X,))


@settings(max_examples=500, deadline=None)
@given(terms, terms)
@example(Compound("g", (X, X)), Compound("g", (FX, FX)))
@example(Compound("g", (X, Compound("g", (Y, X)))),
         Compound("g", (FX, Compound("g", (Compound("f", (Y,)), Y)))))
def test_unify_agrees_with_a_textbook_occurs_check_unifier(t1, t2):
    want = textbook_unify(t1, t2)
    s = unify(t1, t2)
    try:
        both = None if s is None else resolve(Compound("p", (t1, t2)), s, {})
    except CyclicTermError:
        both = None
    assert (both is None) == (want is None)
    if want is None:
        return
    assert resolve(t1, s, {}) == resolve(t2, s, {})
    assert _subst(want, t1) == _subst(want, t2)
    assert resolve(both, s, {}) == both
    assert is_variant(resolve(t1, s, {}), _subst(want, t1))


# -- head keys --------------------------------------------------------------

# kinds that clash at the top: an atom named like a functor or an integer
_key_leaves = st.sampled_from(POOL + (Atom("a"), Atom("f"), Atom("1"),
                                      Integer(0), Integer(1)))
key_terms = st.recursive(
    _key_leaves,
    lambda kids: st.one_of(
        st.builds(lambda x: Compound("f", (x,)), kids),
        st.builds(lambda x, y: Compound("f", (x, y)), kids, kids),
        st.builds(lambda x, y: Compound("g", (x, y)), kids, kids)),
    max_leaves=6)
key_args = st.lists(key_terms, min_size=1, max_size=3)


@settings(max_examples=500, deadline=None)
@given(key_args, key_args)
@example([Atom("f")], [Compound("f", (X,))])
@example([Integer(1), X], [Atom("1"), X])
def test_a_head_key_clash_means_no_unifier(call_args, head_args):
    n = min(len(call_args), len(head_args))
    call = Compound("p", tuple(call_args[:n]))
    head = Compound("p", tuple(head_args[:n]))
    with mock.patch.object(engine, "unify", wraps=unify) as tried:
        try:
            (child,), _ = expand(SearchNode((Call(call),)),
                                 Program([Clause(head)]))
        except CyclicTermError:  # met after unifying
            pass
    if not tried.called:
        assert child.status is NodeStatus.FAIL
        assert unify(call, head) is None


# -- the clause index --------------------------------------------------------

# the heads' variables and the call's are apart, as a renamed clause's are
HEAD_POOL = (Variable("A"), Variable("B"), Variable("_"))
INDEX_CALL_POOL = (Variable("X"), Variable("Y"), Variable("_"))
# keys that clash at the top and print alike or share a functor: '1' and 1,
# f and f/1 and f/2, [] and a list
_index_leaves = (Atom("a"), Atom("f"), Atom("1"), Atom("[]"), Integer(1),
                 Integer(-1))


def _index_terms(pool):
    return st.recursive(
        st.sampled_from(pool + _index_leaves),
        lambda kids: st.one_of(
            st.builds(lambda x: Compound("f", (x,)), kids),
            st.builds(lambda x, y: Compound("f", (x, y)), kids, kids),
            st.builds(lambda xs, t: list_term(xs, t),
                      st.lists(kids, min_size=1, max_size=2),
                      st.sampled_from(pool + (Atom("[]"),)))),
        max_leaves=4)


@st.composite
def indexed_programs(draw, rules=True):
    """A predicate p/n of facts and, when `rules`, rules that call it,
    and a call of p/n whose arguments are bound, unbound or partly bound."""
    n = draw(st.integers(1, 3))
    args = st.lists(_index_terms(HEAD_POOL), min_size=n, max_size=n)
    heads = draw(st.lists(args, min_size=1, max_size=8))
    program = []
    for head in heads:
        body = ()
        if rules and draw(st.booleans()):
            body = (Call(Compound("p", tuple(draw(args)))),)
        program.append(Clause(Compound("p", tuple(head)), body))
    call = draw(st.lists(_index_terms(INDEX_CALL_POOL), min_size=n,
                         max_size=n))
    return Program(program), Call(Compound("p", tuple(call)))


def _call_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.children and isinstance(node.goals[0], Call):
            yield node
        stack.extend(node.children)


@settings(max_examples=200, deadline=None)
@given(indexed_programs())
@example((Program([Clause(Compound("p", (Integer(1),))),
                   Clause(Compound("p", (Atom("1"),))),
                   Clause(Compound("p", (HEAD_POOL[0],)))]),
          Call(Compound("p", (Integer(1),)))))
def test_the_index_agrees_with_unification_clause_by_clause(case):
    program, call = case
    try:
        tree = build_tree(program, (call,), Limits(max_depth=4,
                                                   max_nodes=300))
    except CyclicTermError:  # a head unified into a cyclic binding
        return
    clauses = program.clauses
    for node in _call_nodes(tree):
        term = node.goals[0].term
        assert len(node.children) == len(clauses)
        for clause, child in zip(clauses, node.children):
            assert (child.status is NodeStatus.FAIL) == (
                unify(term, clause.head) is None)
            if child.status is NodeStatus.FAIL:
                assert child is engine._FAIL_LEAF


@settings(max_examples=200, deadline=None)
@given(indexed_programs(rules=False))
def test_a_fact_table_answers_with_the_facts_that_unify(case):
    program, call = case
    try:
        tree = build_tree(program, (call,))
    except CyclicTermError:
        return
    unifying = [i for i, c in enumerate(program.clauses)
                if unify(call.term, c.head) is not None]
    assert [i for i, c in enumerate(tree.root.children)
            if c.status is NodeStatus.SUCCESS] == unifying
    assert [a.path for a in solutions(tree)] == [(i,) for i in unifying]


def _clash(a, b) -> bool:
    """Whether two arguments differ at the top: neither is a variable, and
    they are not the same atom, integer, or functor and arity."""
    if isinstance(a, Variable) or isinstance(b, Variable):
        return False
    if type(a) is not type(b):
        return True
    if isinstance(a, Compound):
        return (a.functor, len(a.args)) != (b.functor, len(b.args))
    return a != b


@st.composite
def index_calls(draw):
    """A fact table of p/n and up to four calls of it: the index entry
    the first call builds serves the calls after it."""
    program, call = draw(indexed_programs(rules=False))
    n = len(call.term.args)
    more = draw(st.lists(st.lists(_index_terms(INDEX_CALL_POOL), min_size=n,
                                  max_size=n), max_size=3))
    return program, [call.term] + [Compound("p", tuple(a)) for a in more]


@settings(max_examples=300, deadline=None)
@given(index_calls())
@example((Program([Clause(Compound("p", (Integer(1), Atom("a")))),
                   Clause(Compound("p", (HEAD_POOL[0], Atom("b")))),
                   Clause(Compound("p", (Atom("1"), HEAD_POOL[0])))]),
          [Compound("p", (Integer(1), Atom("b"))),
           Compound("p", (Atom("1"), Atom("a")))]))
def test_the_candidates_are_the_heads_that_clash_nowhere(case):
    program, calls = case
    heads = [c.head for c in program.clauses]
    for term in calls:
        got = list(program.candidates(indicator(term), term))
        assert got == [j for j, h in enumerate(heads)
                       if not any(map(_clash, term.args, h.args))]
        assert {j for j, h in enumerate(heads)
                if unify(term, h) is not None} <= set(got)


# -- unify against its queue-only form ---------------------------------------

def queue_unify(t1, t2):
    """unify() as it was before it took the top-level argument pairs in
    one loop, kept as the oracle: every pair, the top one too, goes
    through one queue."""
    bindings = {}
    decomposed = set()
    queue = deque([(t1, t2)])
    while queue:
        a, b = queue.popleft()
        while isinstance(a, Variable) and a in bindings:
            a = bindings[a]
        while isinstance(b, Variable) and b in bindings:
            b = bindings[b]
        if a is b:
            continue
        if isinstance(a, Variable):
            bindings[a] = b
        elif isinstance(b, Variable):
            bindings[b] = a
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            if (id(a), id(b)) not in decomposed:
                decomposed.add((id(a), id(b)))
                queue.extend(zip(a.args, b.args))
        elif a != b:
            return None
    return bindings


# shared named variables, two distinct anonymous ones, and variables that
# u_bindings never binds, so no chain of variables loops
U_BOUND = (Variable("X"), Variable("Y"), Variable("_"), Variable("_"))
U_FREE = (Variable("A"), Variable("B"))
u_terms = st.recursive(
    st.sampled_from(U_BOUND + U_FREE + (Atom("a"), Atom("f"))),
    lambda kids: st.one_of(
        st.builds(lambda x: Compound("f", (x,)), kids),
        st.builds(lambda x, y: Compound("g", (x, y)), kids, kids)),
    max_leaves=5)
# a value may hold its own variable: X = f(X) is a cyclic binding
u_bindings = st.dictionaries(
    st.sampled_from(U_BOUND),
    st.one_of(st.sampled_from(U_FREE), u_terms.filter(
        lambda t: not isinstance(t, Variable))),
    max_size=3)


@st.composite
def u_sides(draw):
    """One side of a pair: a term, or a compound whose arguments are
    drawn, repeats and all, from a few terms, so that one pair of
    compounds can come up again at the top."""
    if draw(st.booleans()):
        return draw(u_terms)
    parts = draw(st.lists(u_terms, min_size=1, max_size=3))
    args = draw(st.lists(st.sampled_from(parts), min_size=1, max_size=4))
    return Compound(draw(st.sampled_from(("t", "g"))), tuple(args))


def _same_bindings(got, want):
    """None alike, or the same keys bound to the same objects in the
    same order."""
    if got is None or want is None:
        return got is want
    return (list(got) == list(want)
            and all(got[v] is want[v] for v in want))


G, H = Compound("g", (U_BOUND[0], U_FREE[0])), Compound("f", (U_BOUND[1],))


# the cyclic examples bind X -> f(X), or Y -> f(Y), with their first
# pair, and the pairs after it meet that binding; the second example's
# two f(X) are two objects
@settings(max_examples=500, deadline=None)
@given(u_sides(), u_sides())
@example(Compound("t", (G, G, H)), Compound("t", (H, H, G)))
@example(Compound("t", (U_BOUND[0], U_BOUND[0])),
         Compound("t", (Compound("f", (U_BOUND[0],)),
                        Compound("f", (U_BOUND[0],)))))
@example(Compound("t", (U_BOUND[1], U_BOUND[2], U_BOUND[3], U_BOUND[2])),
         Compound("t", (H, U_BOUND[3], U_FREE[0], H)))
def test_unify_agrees_with_its_queue_only_form(t1, t2):
    assert _same_bindings(unify(t1, t2), queue_unify(t1, t2))


# -- tokenizer --------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    pos: SourcePosition


# what a quoted atom may not hold: the control characters and the line
# and paragraph separators
_UNQUOTABLE = frozenset([*map(chr, range(0x20)), *map(chr, range(0x7f, 0xa0)),
                         "\u2028", "\u2029"])


def char_tokenize(text: str) -> list[_Token]:
    """The reader's earlier character-by-character tokenizer, kept as the
    oracle. One line is added: the parser converted each integer token
    with int(), so the oracle does too, and raises ValueError where int()
    rejects the digits that isdigit() accepted. One line is changed: a
    quoted atom ends unterminated at any character of _UNQUOTABLE, as the
    reader's does, where it ended so only at a newline."""
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def here() -> SourcePosition:
        return SourcePosition(line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = here()
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            int(text[i:j])  # the added line
            tokens.append(_Token("int", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch.islower():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("atom", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch.isupper() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("var", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch == "'":
            j = i + 1
            buf: list[str] = []
            while True:
                if j >= n or text[j] in _UNQUOTABLE:  # the changed line
                    raise ParseError("unterminated quoted atom", start)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # '' is a literal quote
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                buf.append(text[j])
                j += 1
            tokens.append(_Token("atom", "".join(buf), start))
            col += j - i
            i = j
            continue
        for p in (":-", "=<", ">=", "\\+", "(", ")", "[", "]",
                  ",", "|", ";", "!", ".", "<", ">"):
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, start))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(_Token("eof", "", here()))
    return tokens


# pieces that make tokens, half-tokens and layout; ª is lowercase, Ⅻ is
# uppercase, ǅ is titlecase, 中 has no case, ² and ⅷ are digits that int()
# rejects, ٣ is a decimal digit it accepts
PIECES = ("p", "foo", "X", "_", "_a", "a1", "'", "''", "'a b'", "%", "% c",
          " ", "\t", "\r", "\n", "-", "-1", "1", "42", "(", ")", "[", "]",
          ",", "|", ";", "!", ".", ":", ":-", "=", "=<", ">=", "<", ">", "\\",
          "\\+", "é", "ß", "Ä", "ª", "Ⅻ", "ǅ", "中", "²", "ⅷ", "٣", "@", "\"")

source_texts = st.lists(st.sampled_from(PIECES), max_size=14).map("".join)


@settings(max_examples=2000, deadline=None)
@given(source_texts)
@example("p(X % c")
@example("'ab''")
@example("'a''' b")
@example("p(X) :- 'it''s'.\r\n% done")
@example("p(²).")
@example("- 1 -1 -٣")
def test_tokenize_agrees_with_the_character_loop(text):
    try:
        want = char_tokenize(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert str(got.value) == str(e)
        return
    except ValueError:
        # an integer int() rejects: now an error, no longer a crash
        with pytest.raises(ParseError, match="unexpected character"):
            _tokenize(text)
        return
    got = [(kind, value, _position(text, offset))
           for kind, value, offset in _tokenize(text)]
    assert got == [(t.kind, t.value, t.pos) for t in want]


# -- one clause, renamed through the unifier, against renaming a copy -------

# apart from the clause's, and with names its renaming can collide with
CLAUSE_POOL = (Variable("X"), Variable("Y"), Variable("_"), Variable("_"))
CALL_POOL = (Variable("X"), Variable("Y'"), Variable("Y1"), Variable("Z"),
             Variable("_"))


def _terms(pool):
    return st.recursive(
        st.sampled_from(pool + (Atom("a"),)),
        lambda kids: st.one_of(
            st.builds(lambda x: Compound("f", (x,)), kids),
            st.builds(lambda x, y: Compound("g", (x, y)), kids, kids)),
        max_leaves=5)


def _pairs(pool):
    return st.builds(lambda x, y: Compound("p", (x, y)),
                     _terms(pool), _terms(pool))


_calls = _terms(CLAUSE_POOL).map(lambda t: Call(Compound("q", (t,))))
_body_goals = st.one_of(
    _calls, st.just(Cut()),
    st.lists(_calls, min_size=1, max_size=2).map(
        lambda gs: Negation(tuple(gs))),
    st.builds(lambda l, r: Disjunction((l,), (r,)), _calls, _calls))
clauses = st.builds(Clause, _pairs(CLAUSE_POOL),
                    st.lists(_body_goals, max_size=3).map(tuple))


def resolved_bindings(bindings, call):
    """Each bound variable of `call` with its value resolved through
    `bindings`, as text, or the cyclic-term message met doing so."""
    try:
        return [f"{v.name}={term_text(resolve(v, bindings, {}))}"
                for v in variables_of(call) if v in bindings]
    except CyclicTermError as e:
        return str(e)


def mapped_goals(goals, bindings):
    """goals with every term resolved through `bindings`, cuts as they are."""
    def goal(g):
        if isinstance(g, Call):
            return Call(resolve(g.term, bindings, {}))
        if isinstance(g, Compare):
            return Compare(g.op, resolve(g.lhs, bindings, {}),
                           resolve(g.rhs, bindings, {}))
        if isinstance(g, Disjunction):
            return Disjunction(mapped_goals(g.left, bindings),
                               mapped_goals(g.right, bindings))
        if isinstance(g, Negation):
            return Negation(mapped_goals(g.inner, bindings))
        return g
    return tuple(map(goal, goals))


def copying_child(clause, call, floor, style):
    """Expanding `call` with a copy of `clause` renamed in full first:
    None on a clash, the cyclic-term message, or the child's goal text,
    label lines, bindings and floor."""
    avoid = frozenset(v.name for v in variables_of(call) if not v.is_anonymous)
    fresh = {}
    floor = rename_clause(clause, avoid, floor, style, fresh)
    sigma = unify(call, resolve(clause.head, fresh, {}))
    if sigma is None:
        return None
    try:
        goals = seq_text(mapped_goals(mapped_goals(clause.body, fresh), sigma))
        bindings = resolved_bindings(sigma, call)
        label = [f"{v.name}={term_text(resolve(v, sigma, {}))}"
                 for v in variables_of(call)
                 if not v.is_anonymous and v in sigma]
    except CyclicTermError as e:
        return str(e)
    return goals, label, bindings, floor


CX, CY = CLAUSE_POOL[:2]


@settings(max_examples=500, deadline=None)
@given(clauses, _pairs(CALL_POOL), st.integers(1, 3),
       st.sampled_from(RENAME_STYLES))
@example(Clause(Compound("p", (CX, CX)), (Call(Compound("q", (CX,))),)),
         Compound("p", (CALL_POOL[0], Compound("f", (CALL_POOL[0],)))), 1,
         "prime")
@example(Clause(Compound("p", (CX, CY))),
         Compound("p", (CALL_POOL[0], CALL_POOL[0])), 2, "numeric")
@example(Clause(Compound("p", (CX, CX))),
         Compound("p", (CALL_POOL[4], Compound("f", (CALL_POOL[4],)))), 1,
         "prime")
# only the anonymous _ is bound inside its own value, and the clause
# moves: the stand-in the step binds it to shows the renamed name, X'
@example(Clause(Compound("p", (CX, CX, CY))),
         Compound("p", (CALL_POOL[4], Compound("f", (CALL_POOL[4],)),
                        CALL_POOL[0])), 1, "prime")
def test_expand_agrees_with_renaming_by_copying(clause, call, floor, style):
    node = SearchNode((Call(call),))
    want = copying_child(clause, call, floor, style)
    try:
        (child,), ((step, _, child_floor),) = expand(
            node, Program([clause]), EngineOptions(rename=style), floor)
    except CyclicTermError as e:
        assert str(e) == want
        return
    if child.status is NodeStatus.FAIL:
        assert want is None
        return
    bindings = resolved_bindings(dict(step), call)
    assert (seq_text(child.goals), child.label.lines(), bindings,
            child_floor) == want


# -- answers resolved at the leaves, against a per-node answer map ----------

# q/1 clauses whose bodies call p/2, so the programs below recurse
_p_calls = _pairs(CLAUSE_POOL).map(Call)
_q_body_goals = st.one_of(
    _p_calls, _calls, st.just(Cut()),
    st.lists(_p_calls, min_size=1, max_size=2).map(
        lambda gs: Negation(tuple(gs))),
    st.builds(lambda l, r: Disjunction((l,), (r,)), _p_calls, _calls))
q_clauses = st.builds(Clause, _calls.map(lambda c: c.term),
                      st.lists(_q_body_goals, max_size=2).map(tuple))
# facts over bare variables, such as p(X, X), make query variables share
_bare = st.sampled_from(CLAUSE_POOL + (Atom("a"),))
bare_facts = st.builds(lambda x, y: Clause(Compound("p", (x, y))),
                       _bare, _bare)
var_programs = st.lists(st.one_of(clauses, q_clauses, bare_facts),
                        min_size=1, max_size=5).map(Program)
# bare variables often, so that two of them can come to share a value
_query_args = st.one_of(st.sampled_from(CALL_POOL), _terms(CALL_POOL))
_query_calls = st.one_of(
    st.builds(lambda x, y: Call(Compound("p", (x, y))),
              _query_args, _query_args),
    _query_args.map(lambda t: Call(Compound("q", (t,)))))
# a branch of ';' or a probe of '\+' binds what its sibling leaves free
var_queries = st.lists(st.one_of(
    _query_calls,
    st.builds(lambda l, r: Disjunction((l,), (r,)),
              _query_calls, _query_calls),
    st.lists(_query_calls, min_size=1, max_size=2).map(
        lambda gs: Negation(tuple(gs)))),
    min_size=1, max_size=3).map(tuple)


@dataclass
class Caught:
    """What the builder made while it ran: the root, the query variables,
    the most general unifier of each clause child's step (None for a
    clash), and the call and unifier of a step whose goals or edge label
    raised."""
    root: SearchNode = None
    query_vars: tuple = ()
    mgus: dict = field(default_factory=dict)
    raised_at: tuple = None


def build_with_mgus(program, query, limits):
    """The tree, or the CyclicTermError the build raised, and what the
    builder made up to then."""
    caught, made = Caught(), []
    real_unify, real_child = engine.unify, engine._Builder._clause_child
    real_run = engine._Builder.run

    def unify_(*args):
        made.append(real_unify(*args))
        return made[-1]

    def clause_child(self, call, *args):
        try:
            made_child = real_child(self, call, *args)
        except CyclicTermError:
            caught.raised_at = (call.term, made.pop())
            raise
        caught.mgus[made_child[0]] = made.pop()  # the child comes first
        return made_child

    def run(self, root):
        caught.root, caught.query_vars = root, self.query_vars
        return real_run(self, root)

    with mock.patch.object(engine, "unify", unify_), \
            mock.patch.object(engine._Builder, "_clause_child", clause_child), \
            mock.patch.object(engine._Builder, "run", run):
        try:
            return build_tree(program, query, limits), caught
        except CyclicTermError as e:
            return e, caught


def answers_by_mapping(root, qvars, mgus):
    """(bindings, path) of each success leaf under `root`, from an answer
    kept on every node: a clause child maps its parent's through its
    step's unifier. A cyclic image is kept as the error and raised at a
    success leaf."""
    out = []
    stack = [(root, qvars, ())]
    while stack:
        node, answer, path = stack.pop()
        if node.status is NodeStatus.SUCCESS:
            if isinstance(answer, CyclicTermError):
                raise answer
            out.append((tuple((v, t) for v, t in zip(qvars, answer)
                              if t is not v), path))
        for i in range(len(node.children) - 1, -1, -1):
            child, image = node.children[i], answer
            sigma = mgus.get(child)
            if sigma is not None and isinstance(answer, tuple):
                try:
                    image = tuple(resolve(t, sigma, {}) for t in answer)
                except CyclicTermError as e:
                    image = e
            stack.append((child, image, path + (i,)))
    return out


@settings(max_examples=400, deadline=None)
@given(var_programs, var_queries)
@example(Program([Clause(Compound("q", (Compound("f", (CLAUSE_POOL[2],)),))),
                  Clause(Compound("p", (CX, CX)))]),
         (Call(Compound("q", (CALL_POOL[0],))),
          Call(Compound("p", (CALL_POOL[4], Compound("f", (CALL_POOL[4],)))))))
# the success leaf raises: X = f(_), and only the anonymous _ is bound
# inside its own value, so no edge label shows it
@example(Program([Clause(Compound("q", (Compound("f", (CLAUSE_POOL[2],)),))),
                  Clause(Compound("p", (CX, CX)))]),
         (Call(Compound("q", (CALL_POOL[0],))),
          Call(Compound("p", (CALL_POOL[0], Compound("f", (CALL_POOL[0],)))))))
def test_answers_resolved_at_the_leaves_agree_with_a_per_node_map(
        program, query):
    tree, caught = build_with_mgus(program, query,
                                   Limits(max_depth=8, max_nodes=400))
    if isinstance(tree, CyclicTermError):
        if caught.raised_at is not None:
            # the step's goals or edge label raised: a variable of the
            # call reaches a cycle of its unifier
            call, sigma = caught.raised_at
            assert isinstance(resolved_bindings(sigma, call), str)
        else:
            # a success leaf raised: over the part of the tree built so
            # far, whose last success leaf is that one, the map raises too
            with pytest.raises(CyclicTermError):
                answers_by_mapping(caught.root, caught.query_vars,
                                   caught.mgus)
        return
    want = answers_by_mapping(tree.root, tree.query_vars, caught.mgus)
    assert [(a.bindings, a.path) for a in solutions(tree)] == want


@settings(max_examples=300, deadline=None)
@given(var_programs, var_queries)
def test_a_call_node_has_its_clause_children_in_source_order(program, query):
    try:
        tree = build_tree(program, query, Limits(max_depth=6, max_nodes=300))
    except CyclicTermError:
        return
    for node in _call_nodes(tree):
        call = node.goals[0].term
        clauses = program.clauses_for(indicator(call))
        if not clauses:
            assert node.children == [engine._FAIL_LEAF]
            continue
        assert len(node.children) == len(clauses)
        for clause, child in zip(clauses, node.children):
            assert (child is engine._FAIL_LEAF) == (
                unify(call, clause.head) is None)
            if child is not engine._FAIL_LEAF:
                assert len(child.goals) == (len(clause.body)
                                            + len(node.goals) - 1)


def alias_classes(text, query_names):
    """For each query variable's name, a representative of the names the
    answer text prints as its aliases."""
    parent = {}

    def root(n):
        while parent.get(n, n) != n:
            n = parent[n]
        return n

    for part in text.split(", "):
        left, right = part.split(" = ")
        if right in query_names:
            parent[root(right)] = root(left)
    return root


def _p(x, y):
    return Call(Compound("p", (x, y)))


QX, QZ, QY1 = CALL_POOL[0], CALL_POOL[3], CALL_POOL[2]


@settings(max_examples=300, deadline=None)
@given(var_programs, var_queries)
@example(Program([Clause(Compound("p", (CX, CX)))]), (_p(QX, QZ), _p(QZ, QY1)))
@example(Program([Clause(Compound("p", (CX, CX)))]),
         (_p(Compound("f", (QX,)), Compound("f", (QZ,))),))
def test_query_variables_print_as_aliases_when_they_share_a_value(
        program, query):
    try:
        answers = solutions(build_tree(program, query,
                                       Limits(max_depth=8, max_nodes=400)))
    except CyclicTermError:
        return
    for a in answers:
        if not a.bindings:
            continue
        shown = [v for v, _ in a.bindings] + list(a.free)
        root = alias_classes(a.text(), {v.name for v in shown})
        value = dict(a.bindings)
        for i, x in enumerate(shown):
            for y in shown[:i]:
                vx, vy = value.get(x, x), value.get(y, y)
                same = vx is vy and isinstance(vx, Variable)
                assert (root(x.name) == root(y.name)) == same, a.text()


def paths_at_each_expansion(program, query, limits):
    """The tree, and (node, a copy of the builder's path set) at each
    node expanded, caught as the builder expands it: the set the clauses
    tried for the node are renamed away from."""
    seen = []
    real_expand = engine._Builder.expand

    def expand(self, node, *args):
        seen.append((node, set(self.path)))
        return real_expand(self, node, *args)

    with mock.patch.object(engine._Builder, "expand", expand):
        tree = build_tree(program, query, limits)
    return tree, seen


def shown_names(node):
    """The names a node shows in its goals and on its edge label."""
    vs = goal_variables(node.goals)
    for v, t in node.label.bindings:
        vs += [v, *variables_of(t)]
    return {v.name for v in vs if not v.is_anonymous}


@settings(max_examples=300, deadline=None)
@given(var_programs, var_queries)
def test_the_path_set_holds_the_names_shown_from_the_root(program, query):
    try:
        tree, seen = paths_at_each_expansion(
            program, query, Limits(max_depth=8, max_nodes=400))
    except CyclicTermError:
        return
    want = {}
    stack = [(tree.root, set())]
    while stack:
        node, above = stack.pop()
        want[node] = names = above | shown_names(node)
        stack.extend((child, names) for child in node.children)
    for node, path in seen:
        assert path == want[node]


def names_at_each_visit(program, query, limits):
    """The tree, the goal sequences the engine's goal_variables was called
    on, and (node, the names the builder handed it, a copy of the path
    set) at each node visited."""
    seen, calls = [], []
    real_visit, real_goal_variables = (engine._Builder._visit,
                                       engine.goal_variables)

    def visit(self, node, frames, names, floor):
        seen.append((node, names, set(self.path)))
        return real_visit(self, node, frames, names, floor)

    def goal_variables_spy(goals):
        calls.append(goals)
        return real_goal_variables(goals)

    with mock.patch.object(engine._Builder, "_visit", visit), \
            mock.patch.object(engine, "goal_variables", goal_variables_spy):
        tree = build_tree(program, query, limits)
    return tree, calls, seen


@settings(max_examples=300, deadline=None)
@given(var_programs, var_queries)
def test_the_names_a_visited_node_is_handed_are_those_it_shows(
        program, query):
    try:
        tree, calls, seen = names_at_each_visit(
            program, query, Limits(max_depth=8, max_nodes=400))
    except CyclicTermError:
        return
    # once, for the query variables, whose names the root is handed
    assert len(calls) == 1 and calls[0] is query
    assert seen[0][0] is tree.root
    for node, names, path in seen:
        shown = shown_names(node)
        if names is None:  # a plain child shows only what its parent does
            assert shown <= path
        else:
            assert names == shown


# the depth limit and the node limit each trip on some of these programs,
# alone or together
TRUNCATING = Limits(max_depth=5, max_nodes=12)


@settings(max_examples=300, deadline=None)
@given(var_programs, var_queries)
def test_the_cli_exits_3_exactly_when_the_tree_is_truncated(program, query):
    try:
        tree = build_tree(program, query, TRUNCATING)
    except CyclicTermError:
        return
    err = io.StringIO()
    # the generated program and query, as the reader would give them
    with mock.patch.object(cli, "parse_program", lambda text: program), \
            mock.patch.object(cli, "parse_query", lambda text: query):
        code = run(RunConfig(db="romance", query="q", format="answers-only",
                             limits=TRUNCATING), io.StringIO(), err)
    if not tree.truncated:
        assert code == (EXIT_OK if tree.answers else EXIT_NO_ANSWERS)
        assert err.getvalue() == ""
        return
    assert code == EXIT_TRUNCATED
    assert err.getvalue().startswith("warning: tree truncated by the ")
    assert err.getvalue().count("\n") == 1
    for name, text in (("max_depth", "the depth limit (5)"),
                       ("max_nodes", "the node limit (12)")):
        assert (text in err.getvalue()) == (name in tree.tripped)


# -- the goal rewrite against its recursive form -----------------------------

def recursive_rewrite(goals, depth, bindings, memo, names=None):
    """The engine's earlier recursive _rewrite, kept as the oracle."""
    out = []
    for g in goals:
        if isinstance(g, Call):
            term = resolve(g.term, bindings, memo, names)
            if term is not g.term:
                g = Call(term)
        elif isinstance(g, Compare):
            lhs = resolve(g.lhs, bindings, memo, names)
            rhs = resolve(g.rhs, bindings, memo, names)
            if lhs is not g.lhs or rhs is not g.rhs:
                g = Compare(g.op, lhs, rhs)
        elif isinstance(g, Cut) and g.depth is None:
            g = Cut(depth)
        elif isinstance(g, Disjunction):
            g = Disjunction(
                recursive_rewrite(g.left, depth, bindings, memo, names),
                recursive_rewrite(g.right, depth, bindings, memo, names))
        elif isinstance(g, Negation):
            g = Negation(recursive_rewrite(g.inner, None, bindings, memo,
                                           names))
        out.append(g)
    return tuple(out)


_rw_sides = st.one_of(u_terms, st.integers(0, 3).map(Integer))
_rw_leaves = st.one_of(
    u_terms.map(lambda t: Call(Compound("p", (t,)))),
    st.just(Call(Atom("q"))),
    st.builds(Compare, st.sampled_from(COMPARE_OPS), _rw_sides, _rw_sides),
    st.builds(Cut, st.one_of(st.none(), st.integers(0, 3))),
    st.sampled_from((TrueGoal(), FailGoal())))


def _rw_goals(levels):
    """Goals with ';' and '\\+' goals nested up to `levels` deep."""
    if not levels:
        return _rw_leaves
    seqs = st.lists(_rw_goals(levels - 1), max_size=3).map(tuple)
    return st.one_of(_rw_leaves, st.builds(Disjunction, seqs, seqs),
                     seqs.map(Negation))


rw_goal_seqs = st.lists(_rw_goals(4), max_size=4).map(tuple)
rw_depths = st.one_of(st.none(), st.integers(0, 3))
rw_bindings = st.one_of(st.just({}), u_bindings)
rw_names = st.one_of(st.none(), st.sets(st.sampled_from(("X", "A", "Q")),
                                        max_size=2))


def rewritten(rewrite, goals, depth, bindings, names):
    """What `rewrite` returns, or the cyclic-term message it raises, and
    the names it collected, into a copy of `names`."""
    names = None if names is None else set(names)
    try:
        return rewrite(goals, depth, bindings, {}, names), names
    except CyclicTermError as e:
        return str(e), names


def goals_in_order(goals):
    """Each goal of `goals`, and of the ';' and '\\+' goals among them,
    in the order the rewrite meets them."""
    out = []
    for g in goals:
        out.append(g)
        if isinstance(g, Disjunction):
            out += goals_in_order(g.left + g.right)
        elif isinstance(g, Negation):
            out += goals_in_order(g.inner)
    return out


_QX = Compound("p", (U_BOUND[0],))


@settings(max_examples=500, deadline=None)
@given(rw_goal_seqs, rw_depths, rw_bindings, rw_names)
@example((Negation((Cut(), Negation((Call(_QX),)))),), 0, {}, None)
@example((Disjunction((Cut(),), (Negation((Call(_QX), Cut())),)),), 1,
         {U_BOUND[0]: _QX}, set())
def test_rewrite_agrees_with_its_recursive_form(goals, depth, bindings,
                                                names):
    got, got_names = rewritten(engine._rewrite, goals, depth, bindings,
                               names)
    want, want_names = rewritten(recursive_rewrite, goals, depth, bindings,
                                 names)
    assert (got, got_names) == (want, want_names)
    if isinstance(want, str):
        return
    # a call or comparison is kept by identity exactly when the oracle
    # keeps it
    for g, new, old in zip(goals_in_order(goals), goals_in_order(got),
                           goals_in_order(want)):
        if isinstance(g, (Call, Compare)):
            assert (new is g) == (old is g)


# -- cut, ';' and '\+' against a generator solver ---------------------------

PROPS = tuple(Atom(f"p{i}") for i in range(4))
_prop_leaves = st.one_of(st.sampled_from(PROPS).map(Call),
                         st.sampled_from((TrueGoal(), FailGoal(), Cut())))


def _prop_compound(goal):
    seqs = st.lists(goal, min_size=1, max_size=3).map(tuple)
    return st.one_of(st.builds(Disjunction, seqs, seqs), seqs.map(Negation))


_prop_goals = st.recursive(_prop_leaves, _prop_compound, max_leaves=6)
prop_programs = st.lists(
    st.builds(Clause, st.sampled_from(PROPS),
              st.lists(_prop_goals, max_size=3).map(tuple)),
    max_size=6).map(Program)
prop_queries = st.lists(_prop_goals, min_size=1, max_size=3).map(tuple)


def reference_count(program: Program, query, max_steps: int) -> int:
    """Solutions of `query` by a generator over goal lists.

    Each goal travels with the frame its cuts commit: the clause that
    called it, a negation's own probe, or the query. A solver returns
    the frame of a cut it ran, or None; every choice point on the way
    stops trying alternatives until the frame's owner swallows it.
    """
    def solve(goals, steps):
        if not goals:
            yield
            return None
        if steps > max_steps:
            raise AssertionError("the solver went deeper than the engine")
        (g, frame), rest = goals[0], goals[1:]
        if isinstance(g, Call):
            me = object()
            for clause in program.clauses_for(indicator(g.term)):
                body = tuple((b, me) for b in clause.body)
                cut = yield from solve(body + rest, steps + 1)
                if cut is not None:
                    return None if cut is me else cut
            return None
        if isinstance(g, Disjunction):
            for branch in (g.left, g.right):
                cut = yield from solve(
                    tuple((b, frame) for b in branch) + rest, steps + 1)
                if cut is not None:
                    return cut
            return None
        if isinstance(g, Negation):
            probe = object()
            for _ in solve(tuple((b, probe) for b in g.inner), steps + 1):
                return None  # the probe succeeded, so the negation fails
        elif isinstance(g, FailGoal):
            return None
        cut = yield from solve(rest, steps + 1)
        return frame if isinstance(g, Cut) and cut is None else cut

    root = object()
    return sum(1 for _ in solve(tuple((g, root) for g in query), 0))


MAX_DEPTH = 12


@settings(max_examples=300, deadline=None)
@given(prop_programs, prop_queries)
@example(Program([Clause(Atom("p0")), Clause(Atom("p0")),
                  Clause(Atom("p1"), (Call(Atom("p0")),
                                      Negation((Cut(), FailGoal()))))]),
         (Call(Atom("p1")),))
def test_cut_disjunction_and_negation_agree_with_a_generator_solver(
        program, query):
    tree = build_tree(program, query, Limits(max_depth=MAX_DEPTH,
                                             max_nodes=2000))
    if tree.truncated:
        return
    assert len(solutions(tree)) == reference_count(program, query,
                                                   4 * MAX_DEPTH)


# -- ==, hash() and repr() of terms, goals and views --------------------------

# the fields of each class that holds other values, as the reference reads
# them: a compound's are its functor and its arguments
FIELDS = {Compound: ("functor", "args"), Call: ("term",),
          Disjunction: ("left", "right"), Negation: ("inner",),
          Cut: ("depth",), TrueGoal: (), FailGoal: (),
          Compare: ("op", "lhs", "rhs"), ViewTree: ("root", "truncated"),
          ViewNode: ("goals", "status", "children"),
          ViewEdge: ("label", "node")}
GOALS = (Call, Disjunction, Negation, Cut, TrueGoal, FailGoal, Compare)


def _kids(x) -> list:
    if type(x) is tuple:
        return list(x)
    return [getattr(x, name) for name in FIELDS.get(type(x), ())]


def reference_eq(a, b) -> bool:
    """Structural equality, by recursion: variables by identity, atoms
    and integers by their name or value, a cut by its depth, and any
    other value field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Variable):
        return a is b
    if isinstance(a, Atom):
        return a.name == b.name
    if isinstance(a, Integer):
        return a.value == b.value
    if type(a) is tuple or type(a) in FIELDS:
        ka, kb = _kids(a), _kids(b)
        return len(ka) == len(kb) and all(map(reference_eq, ka, kb))
    return a == b  # str, int, bool, None


def rebuilt(x):
    """x made again of new objects; only its variables are shared."""
    if type(x) is tuple:
        return tuple(map(rebuilt, x))
    if isinstance(x, Atom):
        return Atom(x.name)
    if isinstance(x, Integer):
        return Integer(x.value)
    if type(x) in FIELDS:
        return type(x)(*map(rebuilt, _kids(x)))
    return x


def has_variable(x) -> bool:
    return isinstance(x, Variable) or any(map(has_variable, _kids(x)))


# the names repr() writes, for eval() to read back
NAMESPACE = {**{cls.__name__: cls for cls in FIELDS},
             "Atom": Atom, "Integer": Integer, "Compound": Compound}

goal_values = rw_goal_seqs.map(Negation)
values = st.one_of(terms, goal_values, views)
value_pairs = st.one_of(st.tuples(terms, terms),
                        st.tuples(goal_values, goal_values),
                        st.tuples(views, views))


def goals_of(x) -> list:
    """The goals in x, in pre-order."""
    here = [x] if isinstance(x, GOALS) else []
    return here + [g for kid in _kids(x) for g in goals_of(kid)]


def edited(x, target):
    """x made again with `target`, a goal in it, changed in one place
    only: its class, a cut's depth, or which sequence of a ';' holds a
    goal."""
    if x is target:
        if isinstance(x, Cut):
            return Cut(None if x.depth is not None else 1)
        if isinstance(x, Disjunction):
            if x.left:
                return Disjunction(x.left[:-1], x.left[-1:] + x.right)
            return Negation(x.right)
        if isinstance(x, Negation):
            return Disjunction(x.inner, ())
        if isinstance(x, Call) and x.term == Atom("true"):
            return TrueGoal()
        return FailGoal() if isinstance(x, TrueGoal) else TrueGoal()
    if type(x) is tuple:
        return tuple(edited(kid, target) for kid in x)
    if type(x) in FIELDS:
        return type(x)(*(edited(kid, target) for kid in _kids(x)))
    return x


@settings(max_examples=200, deadline=None)
@given(value_pairs, st.integers(0, 50))
def test_equality_agrees_with_a_recursive_reference(pair, k):
    a, b = pair
    goals = goals_of(a)[1:] or goals_of(a)  # below the top, if it can
    near = edited(a, goals[k % len(goals)]) if goals else rebuilt(b)
    for x, y in ((a, b), (a, rebuilt(a)), (rebuilt(b), b), (a, near)):
        want = reference_eq(x, y)
        assert (x == y, x != y) == (want, not want)
        if want:
            assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(values)
def test_a_value_without_variables_reads_back_from_its_repr(x):
    if not has_variable(x):
        assert eval(repr(x), NAMESPACE) == x


def test_goals_that_differ_only_inside_compare_unequal():
    assert Negation((Cut(1),)) != Negation((Cut(2),))
    assert (Disjunction((Call(Atom("true")),), ())
            != Disjunction((TrueGoal(),), ()))


# -- function-free programs with variables, against the bottom-up oracle -----

DF_ATOMS = tuple(Atom(name) for name in "abcd")
DF_ARITY = {"p": 1, "q": 2, "r": 2}
# a clause's variables and the query's are apart, as renaming keeps them
DF_CLAUSE_VARS = (Variable("X"), Variable("Y"), Variable("Z"))
DF_QUERY_VARS = (Variable("A"), Variable("B"))
DF_LIMITS = Limits(max_depth=8, max_nodes=2000)


def _df_calls(pool):
    def call(name, args):
        return Call(Compound(name, tuple(args[:DF_ARITY[name]])))
    return st.builds(call, st.sampled_from(sorted(DF_ARITY)),
                     st.lists(st.sampled_from(pool + DF_ATOMS),
                              min_size=2, max_size=2))


df_programs = st.lists(
    st.builds(lambda head, body: Clause(head.term, tuple(body)),
              _df_calls(DF_CLAUSE_VARS),
              st.lists(_df_calls(DF_CLAUSE_VARS), max_size=2)),
    min_size=1, max_size=6).map(Program)
df_queries = st.lists(_df_calls(DF_QUERY_VARS), min_size=1,
                      max_size=2).map(tuple)


def ground_instances(tree, pool):
    """Each answer's values for the query variables, its unbound
    variables replaced in every way by terms of `pool`."""
    out = set()
    for answer in solutions(tree):
        values = [answer.mapping.get(v, v) for v in tree.query_vars]
        free = list(dict.fromkeys(t for t in values
                                  if isinstance(t, Variable)))
        for combo in product(pool, repeat=len(free)):
            env = dict(zip(free, combo))
            out.add(tuple(env.get(t, t) for t in values))
    return out


@settings(max_examples=300, deadline=None)
@given(df_programs, df_queries)
def test_function_free_programs_agree_with_the_bottom_up_oracle(
        tmp_path_factory, program, query):
    tree = build_tree(program, query, DF_LIMITS)
    if tree.truncated:
        return
    # the oracle's universe: the ground terms of the program and query
    pool: set = set()
    for t in [c.head for c in program.clauses] + [
            g.term for goals in [query, *(c.body for c in program.clauses)]
            for g in goals]:
        oracle.ground_subterms(t, pool)
    assert ground_instances(tree, pool) == oracle.answers(program, query)

    stack = [tree.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.goals and isinstance(node.goals[0], Call):
            key = indicator(node.goals[0].term)
            assert len(node.children) == (len(program.clauses_for(key)) or 1)

    db = tmp_path_factory.getbasetemp() / "function-free.pl"
    db.write_text("".join(clause_text(c) + "\n" for c in program.clauses))
    cfg = RunConfig(db=str(db), query=seq_text(query), format="answers-only",
                    limits=DF_LIMITS)
    assert run(cfg, io.StringIO(), io.StringIO()) == (
        EXIT_OK if solutions(tree) else EXIT_NO_ANSWERS)
