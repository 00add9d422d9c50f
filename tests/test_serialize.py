import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sldtree
from sldtree.cli import EXIT_OK, RunConfig, run
from sldtree.engine import Limits, build_tree
from sldtree.fixtures import FIXTURES, load_fixture
from sldtree.reader import parse_program, parse_query
from sldtree.render import render_text
from sldtree.serialize import (_JSON_NESTING, FORMAT_NAME, FormatError,
                               ViewNode, deserialize, serialize, to_view)
from test_golden import DB
from test_render import perm


def fixture_tree(name):
    (f,) = [f for f in FIXTURES if f.name == name]
    return build_tree(load_fixture(name), parse_query(f.query))


def test_serialize_module_is_not_shadowed_by_its_function():
    import sldtree.serialize as m
    assert m.deserialize is deserialize and m.serialize is serialize


def test_document_shape():
    tree = build_tree(parse_program("p(a)."), parse_query("p(X)"))
    text = serialize(tree)
    assert text.startswith('{\n  "format": "sld-search-tree/1",\n  "truncated": false,')
    assert text.endswith("}\n")
    doc = json.loads(text)
    assert list(doc) == ["format", "truncated", "root"]
    assert list(doc["root"]) == ["goals", "status", "children"]
    edge = doc["root"]["children"][0]
    assert list(edge) == ["label", "node"]
    assert edge["label"] == [["X", "a"]]


def test_goals_and_labels_are_plain_text():
    tree = build_tree(parse_program("q(a) :- 1 < 2, \\+ r. r :- fail."),
                      parse_query("q(X)"))
    doc = json.loads(serialize(tree))
    assert doc["root"]["goals"] == ["q(X)"]
    assert doc["root"]["children"][0]["node"]["goals"] == ["1 < 2", "\\+ r"]


def test_truncated_flag_is_carried():
    tree = build_tree(parse_program("p :- p."), parse_query("p"),
                      limits=Limits(max_depth=5))
    doc = json.loads(serialize(tree))
    assert doc["truncated"] is True
    assert deserialize(serialize(tree)).truncated


@pytest.mark.parametrize("fixture", [f.name for f in FIXTURES])
def test_round_trip_is_identity(fixture):
    tree = fixture_tree(fixture)
    text = serialize(tree)
    view = deserialize(text)
    assert view == to_view(tree)
    assert serialize(view) == text


@pytest.mark.parametrize("fixture", [f.name for f in FIXTURES])
def test_serialization_is_deterministic(fixture):
    assert serialize(fixture_tree(fixture)) == serialize(fixture_tree(fixture))


@pytest.mark.xfail(sys.version_info[:2] == (3, 12), raises=FormatError,
                   strict=True,
                   reason="3.12's C JSON decoder stops short of a 500-deep "
                          "document whatever the recursion limit, and the "
                          "reader reports it as nested too deeply; ROADMAP "
                          "item 7's iterative reader mends it")
def test_a_500_deep_chain_round_trips_with_the_recursion_limit_unchanged():
    tree = build_tree(parse_program("p :- p."), parse_query("p"),
                      limits=Limits(max_depth=500))
    doc = serialize(tree)
    limit = sys.getrecursionlimit()
    view = deserialize(doc)
    assert view == to_view(tree)
    assert serialize(view) == doc
    assert sys.getrecursionlimit() == limit


def test_views_of_a_3000_deep_chain_compare_hash_and_print_at_the_default_limit():
    chain = parse_program("p :- p.")
    tree = build_tree(chain, parse_query("p"), limits=Limits(max_depth=3000))
    shorter = build_tree(chain, parse_query("p"), limits=Limits(max_depth=2999))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        one, two = to_view(tree), to_view(tree)
        assert one == two and hash(one) == hash(two)
        assert one != to_view(shorter)
        text = repr(one)
    finally:
        sys.setrecursionlimit(old)
    step = ("ViewNode(goals=('p',), status='open', children=("
            "ViewEdge(label=(), node=")
    leaf = "ViewNode(goals=('p',), status='truncated', children=())"
    assert text == ("ViewTree(root=" + step * 3001 + leaf + "),))" * 3001
                    + ", truncated=True)")


def test_the_reader_lends_json_a_fixed_limit_and_never_lowers_the_callers(
        monkeypatch):
    seen = []
    real_loads = json.loads

    def loads(text):
        seen.append(sys.getrecursionlimit())
        return real_loads(text)

    monkeypatch.setattr(json, "loads", loads)
    doc = serialize(fixture_tree("animals"))
    old = sys.getrecursionlimit()
    try:
        for limit in (1000, 4 * _JSON_NESTING):
            sys.setrecursionlimit(limit)
            assert serialize(deserialize(doc)) == doc
            assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old)
    assert seen == [_JSON_NESTING, 4 * _JSON_NESTING]


def test_the_writers_make_no_view_of_a_search_tree(monkeypatch):
    # they read each node of the tree the build made, not a copy of it
    def refuse(self, *args, **kwargs):
        raise AssertionError("a ViewNode was made")

    tree = perm(3)
    monkeypatch.setattr(ViewNode, "__init__", refuse)
    render_text(tree)
    serialize(tree)
    for fmt in ("ascii", "canonical"):
        cfg = RunConfig(db=str(DB / "perm.pl"), query="perm([a,b,c],P)",
                        format=fmt)
        assert run(cfg, io.StringIO(), io.StringIO()) == EXIT_OK, fmt


def test_non_ascii_atoms_stay_readable():
    tree = build_tree(parse_program("name('Zoë')."), parse_query("name(X)"))
    text = serialize(tree)
    assert "Zoë" in text  # no \u escapes
    assert deserialize(text) == to_view(tree)


# -- rejected inputs --------------------------------------------------------

def reject(text):
    with pytest.raises(FormatError) as info:
        deserialize(text)
    return info.value


def test_rejects_malformed_json():
    err = reject("{")
    assert err.message.startswith("not well-formed")
    assert err.where.startswith("line 1")


def test_rejects_non_object_document():
    assert reject("[1, 2]").where == "document"


def test_rejects_missing_or_extra_document_keys():
    err = reject('{"format": "sld-search-tree/1", "root": {}}')
    assert err.where == "document"
    err = reject('{"format": "sld-search-tree/1", "truncated": false,'
                 ' "root": {}, "extra": 1}')
    assert err.where == "document"


def test_rejects_other_formats():
    err = reject('{"format": "sld-search-tree/2", "truncated": false, "root": {}}')
    assert err.where == "format"
    assert "sld-search-tree/2" in err.message


def test_rejects_non_boolean_truncated():
    err = reject('{"format": "sld-search-tree/1", "truncated": "no",'
                 ' "root": {}}')
    assert err.where == "truncated"


def tree_doc():
    tree = build_tree(parse_program("p(a). p(b)."), parse_query("p(X)"))
    return json.loads(serialize(tree))


def test_rejects_bad_status_with_a_path():
    doc = tree_doc()
    doc["root"]["children"][1]["node"]["status"] = "maybe"
    err = reject(json.dumps(doc))
    assert err.where == "root.children[1].node"
    assert "maybe" in err.message


def test_rejects_bad_label_pairs():
    doc = tree_doc()
    doc["root"]["children"][0]["label"] = [["X", "a", "extra"]]
    assert reject(json.dumps(doc)).where == "root.children[0]"
    doc["root"]["children"][0]["label"] = [["X", 3]]
    assert reject(json.dumps(doc)).where == "root.children[0]"


def test_rejects_bad_goals():
    doc = tree_doc()
    doc["root"]["goals"] = [1]
    assert reject(json.dumps(doc)).where == "root"


def test_rejects_missing_edge_keys():
    doc = tree_doc()
    del doc["root"]["children"][0]["label"]
    assert reject(json.dumps(doc)).where == "root.children[0]"


def test_format_name_constant():
    assert FORMAT_NAME == "sld-search-tree/1"


def test_100000_nested_objects_are_a_format_error_not_a_crash():
    # in a child process, so that a crash fails this test, not the run
    script = ("from sldtree.serialize import FormatError, deserialize\n"
              "try:\n"
              "    deserialize('{\"a\": ' * 100_000 + '1' + '}' * 100_000)\n"
              "except FormatError as e:\n"
              "    print(e)\n")
    src = str(Path(sldtree.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, "document: nested too deeply\n", "")


def test_5000_nested_arrays_are_a_format_error():
    # as deep as the limit allows, json.loads reads them, and a list is
    # not a document; past it (3.12's C limit), they nest too deeply
    err = reject("[" * 5000 + "]" * 5000)
    assert err.where == "document"
    assert err.message in ("document must be an object", "nested too deeply")


def chain_text(depth):
    """A `p :- p.` chain cut at `depth`, without indent: its canonical
    text would cost the square of the depth."""
    step = ('{"goals": ["p"], "status": "open", '
            '"children": [{"label": [], "node": ')
    return ('{"format": "sld-search-tree/1", "truncated": true, "root": '
            + step * (depth + 1)
            + '{"goals": ["p"], "status": "truncated", "children": []}'
            + "}]}" * (depth + 1) + "}")


def test_a_chain_nested_past_the_limit_is_an_error_and_restores_it():
    assert serialize(deserialize(chain_text(3))) == serialize(
        build_tree(parse_program("p :- p."), parse_query("p"),
                   limits=Limits(max_depth=3)))
    # a tree nests three levels a step
    text = chain_text(_JSON_NESTING // 3)
    limit = sys.getrecursionlimit()
    err = reject(text)
    assert (err.where, err.message) == ("document", "nested too deeply")
    assert sys.getrecursionlimit() == limit
