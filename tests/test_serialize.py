import json
import sys

import pytest

from sldtree.engine import Limits, build_tree
from sldtree.fixtures import FIXTURES, load_fixture
from sldtree.reader import parse_program, parse_query
from sldtree.serialize import (FORMAT_NAME, FormatError, ViewEdge, ViewNode,
                               ViewTree, deserialize, serialize, to_view)


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


@pytest.mark.xfail(sys.version_info[:2] == (3, 12), raises=RecursionError,
                   strict=True,
                   reason="3.12's C JSON decoder recurses past any limit on a "
                          "500-deep document; ROADMAP item 7's iterative "
                          "reader mends it")
def test_a_500_deep_chain_round_trips_with_the_recursion_limit_unchanged():
    tree = build_tree(parse_program("p :- p."), parse_query("p"),
                      limits=Limits(max_depth=500))
    doc = serialize(tree)
    limit = sys.getrecursionlimit()
    # documents, not views: == on a 500-deep view recurses by itself
    assert serialize(deserialize(doc)) == doc
    assert sys.getrecursionlimit() == limit


def test_to_view_passes_views_through():
    view = ViewTree(ViewNode(("p",), "open",
                             (ViewEdge((), ViewNode((), "success")),)))
    assert to_view(view) is view


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
