from importlib import resources

import pytest

from sldtree.engine import build_tree, solutions
from sldtree.fixtures import (FIXTURES, fixture_names, fixture_text,
                              get_fixture, load_fixture)
from sldtree.reader import parse_query


def test_names_are_unique_and_ordered():
    names = fixture_names()
    assert len(set(names)) == len(names) == len(FIXTURES)
    assert names[0] == "romance"


def test_get_fixture_round_trip():
    for f in FIXTURES:
        assert get_fixture(f.name) is f


def test_get_fixture_reports_known_names():
    with pytest.raises(KeyError) as info:
        get_fixture("nonsense")
    assert "romance" in str(info.value)


def test_each_fixture_is_read_once(monkeypatch):
    fixture_text.cache_clear()
    opened = []
    files = resources.files
    monkeypatch.setattr(resources, "files",
                        lambda package: opened.append(package) or files(package))
    texts = [fixture_text(f.name) for f in FIXTURES]
    assert [fixture_text(f.name) for f in FIXTURES] == texts
    assert len(opened) == len(FIXTURES)
    for _ in range(2):
        with pytest.raises(KeyError, match="romance"):
            fixture_text("nonsense")


def test_sources_parse():
    for f in FIXTURES:
        assert load_fixture(f.name).clauses
        assert fixture_text(f.name).rstrip().endswith(".")


@pytest.mark.parametrize("fixture", [f.name for f in FIXTURES])
def test_canonical_queries_run_to_finite_trees(fixture):
    f = get_fixture(fixture)
    tree = build_tree(load_fixture(fixture), parse_query(f.query))
    assert not tree.truncated
    assert solutions(tree)


def test_wizard_is_deliberately_undefined():
    program = load_fixture("magic")
    assert not program.clauses_for(("wizard", 1))
    assert program.clauses_for(("witch", 1))
