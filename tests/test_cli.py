import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sldtree
from sldtree import cli
from sldtree.cli import (EXIT_ERROR, EXIT_NO_ANSWERS, EXIT_OK, EXIT_TRUNCATED,
                         FORMATS, RunConfig, main, run)
from sldtree.engine import Limits
from sldtree.fixtures import FIXTURES
from test_golden import DB
from test_golden import cases as golden_cases


def invoke(cfg):
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out, err)
    return code, out.getvalue(), err.getvalue()


def test_fixture_db_with_answers():
    code, out, err = invoke(RunConfig(db="romance", query="jealous(X, Y)"))
    assert code == EXIT_OK
    assert err == ""
    assert "[jealous(X,Y)]" in out
    assert out.endswith(
        "X = vincent, Y = vincent\n\n"
        "X = vincent, Y = marsellus\n\n"
        "X = marsellus, Y = vincent\n\n"
        "X = marsellus, Y = marsellus\n")


def test_tree_and_answers_are_separated_by_a_blank_line():
    code, out, _ = invoke(RunConfig(db="member", query="member(X, [a])"))
    assert code == EXIT_OK
    tree_part, answer_part = out.rsplit("\n\n", 1)
    assert tree_part.startswith("")
    assert answer_part == "X = a\n"


def test_no_answers_prints_false_and_exits_1():
    code, out, err = invoke(RunConfig(db="member", query="member(x, [a,b,c])"))
    assert code == EXIT_NO_ANSWERS
    assert out.endswith("false.\n")
    assert err == ""


def test_ground_success_prints_true():
    code, out, _ = invoke(RunConfig(db="member", query="member(a, [a])"))
    assert code == EXIT_OK
    assert out.endswith("\n\ntrue.\n")


def test_answers_only_format():
    code, out, _ = invoke(RunConfig(db="romance", query="jealous(X, Y)",
                                    format="answers-only"))
    assert code == EXIT_OK
    assert out.startswith("X = vincent, Y = vincent\n")
    assert "[" not in out  # no tree, no boxes


def test_canonical_format_emits_the_json_document():
    code, out, _ = invoke(RunConfig(db="member", query="member(X, [a])",
                                    format="canonical"))
    assert code == EXIT_OK
    doc_text, answers = out.rsplit("\n\n", 1)
    doc = json.loads(doc_text)
    assert doc["format"] == "sld-search-tree/1"
    assert answers == "X = a\n"


def test_file_db(tmp_path):
    db = tmp_path / "kb.pl"
    db.write_text("p(file_wins).\n", encoding="utf-8")
    code, out, _ = invoke(RunConfig(db=str(db), query="p(X)"))
    assert code == EXIT_OK
    assert "X = file_wins" in out


def test_missing_db_and_query_is_a_usage_error():
    code, out, err = invoke(RunConfig())
    assert code == EXIT_ERROR
    assert out == ""
    assert "required" in err


def test_unknown_db_name():
    code, _, err = invoke(RunConfig(db="no_such_thing", query="p"))
    assert code == EXIT_ERROR
    assert "no such file or bundled fixture: no_such_thing" in err


def test_a_file_on_disk_wins_over_a_fixture_of_its_name(tmp_path,
                                                        monkeypatch):
    invoke(RunConfig(db="romance", query="jealous(X, Y)"))  # read it first
    (tmp_path / "romance").write_text("jealous(me, you).\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(RunConfig(db="romance", query="jealous(X, Y)",
                                    format="answers-only"))
    assert code == EXIT_OK
    assert out == "X = me, Y = you\n"


def test_parse_error_reports_position():
    code, _, err = invoke(RunConfig(db="romance", query="jealous(X,"))
    assert code == EXIT_ERROR
    assert err.startswith("error: line 1, column")


def test_unknown_predicate_error_mode():
    code, _, err = invoke(RunConfig(db="magic", query="magic(Hermione)",
                                    unknown="error"))
    assert code == EXIT_ERROR
    assert err == "error: unknown predicate wizard/1 in goal wizard(X)\n"


def test_unknown_predicate_fail_mode_still_answers():
    code, out, _ = invoke(RunConfig(db="magic", query="magic(X)"))
    assert code == EXIT_OK
    assert "X = dobby" in out


def test_truncation_warns_and_exits_3(tmp_path):
    db = tmp_path / "loop.pl"
    db.write_text("p :- p.\n", encoding="utf-8")
    code, out, err = invoke(RunConfig(db=str(db), query="p",
                                      limits=Limits(max_depth=20)))
    assert code == EXIT_TRUNCATED
    assert "..." in out
    assert out.endswith("false.\n")
    assert err == "warning: tree truncated by the depth limit (20)\n"


@pytest.mark.parametrize("limits, tripped", [
    (Limits(max_depth=100, max_nodes=30), "the node limit (30)"),
    (Limits(max_depth=8, max_nodes=300),
     "the depth limit (8) and the node limit (300)"),
])
def test_the_truncation_warning_names_each_limit_that_tripped(
        tmp_path, limits, tripped):
    db = tmp_path / "fork.pl"
    db.write_text("p :- p.\np :- p.\n", encoding="utf-8")
    code, _, err = invoke(RunConfig(db=str(db), query="p", limits=limits,
                                    format="answers-only"))
    assert code == EXIT_TRUNCATED
    assert err == f"warning: tree truncated by {tripped}\n"


def test_cyclic_answer_is_an_error(tmp_path):
    db = tmp_path / "eq.pl"
    db.write_text("eq(A,A).\np(X) :- eq(X, f(X)).\n", encoding="utf-8")
    code, out, err = invoke(RunConfig(db=str(db), query="p(Y)"))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: cyclic term")


def test_a_cyclic_value_only_an_answer_reaches_is_an_error(tmp_path):
    # no edge label shows the anonymous variable bound inside its own
    # value; the answer at the success leaf, Y = f(_), needs it
    db = tmp_path / "eq.pl"
    db.write_text("p(f(_)).\neq(A, A).\n", encoding="utf-8")
    code, out, err = invoke(RunConfig(db=str(db), query="p(Y), eq(Y, f(Y))"))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: cyclic term")
    assert err.count("\n") == 1


@pytest.mark.parametrize("rename, name", [("prime", "X'"),
                                          ("numeric", "X1")])
def test_a_cyclic_goal_names_the_variable_as_the_renamed_clause_does(
        tmp_path, rename, name):
    # the query's X is bound to the clause's X, and that to f(X): q(X)
    # meets the cycle. The query shows X, so the clause's X is renamed
    db = tmp_path / "cyc.pl"
    db.write_text("p(X, X) :- q(X).\nq(_).\n", encoding="utf-8")
    code, out, err = invoke(RunConfig(db=str(db), query="p(X, f(X))",
                                      rename=rename))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: cyclic term: {name} is bound inside its own value\n"


def test_unifying_a_variable_with_its_own_image_terminates(tmp_path):
    db = tmp_path / "eq.pl"
    db.write_text("eq(A,A).\n", encoding="utf-8")
    code, out, err = invoke(RunConfig(db=str(db),
                                      query="eq(p(X,X), p(f(X),f(X)))"))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: cyclic term")


def test_splitting_a_400_element_list_gives_401_answers():
    # runs at the interpreter's default recursion limit
    items = [f"a{i}" for i in range(400)]
    query = f"append(X,Y,[{','.join(items)}])"
    code, out, err = invoke(RunConfig(db="append", query=query,
                                      format="answers-only"))
    assert (code, err) == (EXIT_OK, "")
    blocks = out.split("\n\n")
    assert len(blocks) == 401
    assert blocks[0] == f"X = [], Y = [{','.join(items)}]"
    assert blocks[-1] == f"X = [{','.join(items)}], Y = []\n"


def test_a_query_nested_3000_deep_is_answered_not_an_error(tmp_path):
    db = tmp_path / "p.pl"
    db.write_text("p(_).\n", encoding="utf-8")
    query = "p(" + "f(" * 3000 + "a" + ")" * 3000 + ")"
    for fmt in ("ascii", "answers-only"):
        code, out, err = invoke(RunConfig(db=str(db), query=query,
                                          format=fmt))
        assert (fmt, code, err) == (fmt, EXIT_OK, "")
        assert out.endswith("true.\n")


@pytest.mark.parametrize("opening", ["(p(a);", "\\+ ("])
def test_goals_nested_3000_deep_are_answered_not_an_error(tmp_path, opening):
    db = tmp_path / "p.pl"
    db.write_text("p(_).\n", encoding="utf-8")
    query = opening * 3000 + "p(a)" + ")" * 3000
    code, out, err = invoke(RunConfig(
        db=str(db), query=query, format="answers-only",
        limits=Limits(max_depth=5000, max_nodes=100000)))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == "true."


def test_answers_nested_1200_deep_are_printed(tmp_path, capsys):
    db = tmp_path / "nat.pl"
    db.write_text("n(0).\nn(succ(X)) :- n(X).\n", encoding="utf-8")
    code = main(["--db", str(db), "--query", "n(X)",
                 "--format", "answers-only", "--max-depth", "1200"])
    captured = capsys.readouterr()
    assert code == EXIT_TRUNCATED
    blocks = captured.out.split("\n\n")
    assert len(blocks) == 1201
    assert blocks[0] == "X = 0"
    assert blocks[-1] == "X = " + "succ(" * 1200 + "0" + ")" * 1200 + "\n"
    assert captured.err == "warning: tree truncated by the depth limit (1200)\n"


def frame_depth():
    """How many frames the caller's stack holds."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


# each input n levels deep, as (program, query, depth limit)
DEEP_INPUTS = {
    "term": lambda n: ("p(_).", "p(" + "f(" * n + "a" + ")" * n + ")", 10),
    "disjunction": lambda n: ("p(_).", "(p(a);" * n + "p(a)" + ")" * n,
                              2 * n),
    "negation": lambda n: ("p(_).", "\\+ (" * n + "p(a)" + ")" * n, 2 * n),
    "chain": lambda n: ("p :- p.", "p", n),
    "nat": lambda n: ("n(0). n(succ(X)) :- n(X).", "n(X)", n),
}
# 2,000 deep where the output grows linearly with the depth. Elsewhere
# 100 deep: the drawings of the nests grow with its cube, the documents
# with its square, and the nat answers too, and at 100 a layer that
# recursed once a level would still overrun the limit
LINEAR = {("term", f) for f in FORMATS} | {("chain", "ascii")} | {
    (shape, "answers-only") for shape in ("disjunction", "negation", "chain")}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shape", DEEP_INPUTS)
def test_no_layer_recurses(tmp_path, shape, fmt):
    n = 2000 if (shape, fmt) in LINEAR else 100
    src, query, max_depth = DEEP_INPUTS[shape](n)
    db = tmp_path / "db.pl"
    db.write_text(src + "\n", encoding="utf-8")
    cfg = RunConfig(db=str(db), query=query, format=fmt,
                    limits=Limits(max_depth=max_depth, max_nodes=100000))
    limit = sys.getrecursionlimit()
    # the whole pipeline gets about 50 frames: a RecursionError would be
    # reported as an error, exit 2
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        code, out, err = invoke(cfg)
    finally:
        sys.setrecursionlimit(limit)
    assert code in (EXIT_OK, EXIT_TRUNCATED), err
    assert "Traceback" not in err


def test_list_fixtures():
    code, out, err = invoke(RunConfig(list_fixtures=True))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == len(FIXTURES)
    assert "romance: jealous(X,Y)" in lines
    names = [line.split(":")[0] for line in lines]
    assert names == [f.name for f in FIXTURES]


def test_run_is_deterministic():
    cfg = RunConfig(db="descend", query="descend(anne, donna)", width=60)
    assert invoke(cfg) == invoke(cfg)


def test_rename_style_flows_through():
    code, out, _ = invoke(RunConfig(db="member", query="member(X, [a,b])",
                                    rename="numeric"))
    assert code == EXIT_OK
    assert "X1" in out and "X'" not in out


def test_width_flows_through():
    wide = invoke(RunConfig(db="descend", query="descend(anne, donna)",
                            width=400))
    narrow = invoke(RunConfig(db="descend", query="descend(anne, donna)",
                              width=60))
    assert wide[0] == narrow[0] == EXIT_OK
    assert wide[1] != narrow[1]


# -- argv entry point --------------------------------------------------------

def test_main_happy_path(capsys):
    code = main(["--db", "romance", "--query", "jealous(X, Y)"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "X = marsellus, Y = marsellus" in captured.out


def test_main_rejects_bad_limits(capsys):
    code = main(["--db", "romance", "--query", "p", "--max-depth", "0"])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_main_rejects_bad_width(capsys):
    for width in ("10", "0"):
        code = main(["--db", "romance", "--query", "p", "--width", width])
        assert code == EXIT_ERROR
        assert "max_width" in capsys.readouterr().err


def test_db_file_that_is_not_utf8_is_an_error(tmp_path):
    db = tmp_path / "latin1.pl"
    db.write_bytes(b"p(\xff).\n")
    code, out, err = invoke(RunConfig(db=str(db), query="p(X)"))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith(f"error: {db} is not UTF-8") and err.count("\n") == 1


def test_a_db_file_that_starts_with_a_byte_order_mark_is_read(tmp_path):
    # Windows editors write the UTF-8 mark at the start of a file
    db = tmp_path / "bom.pl"
    db.write_bytes(b"\xef\xbb\xbfp(a).\n")
    assert invoke(RunConfig(db=str(db), query="p(X)",
                            format="answers-only")) == (EXIT_OK, "X = a\n", "")


def test_a_form_feed_in_a_quoted_atom_is_an_error(tmp_path, capsys):
    db = tmp_path / "ff.pl"
    db.write_text("p('a\fb').\n", encoding="utf-8")
    code = main(["--db", str(db), "--query", "p(X)"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_ERROR, "")
    assert captured.err == "error: line 1, column 3: unterminated quoted atom\n"


def test_a_digit_that_int_rejects_is_an_error_not_a_crash(tmp_path, capsys):
    db = tmp_path / "sup.pl"
    db.write_text("p(\u00b2).\n", encoding="utf-8")
    code = main(["--db", str(db), "--query", "p(X)"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_ERROR, "")
    assert captured.err == "error: line 1, column 3: unexpected character '\u00b2'\n"


def test_main_rejects_unknown_format():
    with pytest.raises(SystemExit):
        main(["--db", "romance", "--query", "p", "--format", "yaml"])


@pytest.mark.parametrize("option", ["format", "unknown", "rename"])
def test_run_rejects_a_bad_option_value(option):
    code, out, err = invoke(RunConfig(db="romance", query="jealous(X, Y)",
                                      **{option: "bogus"}))
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_list_fixtures(capsys):
    assert main(["--list-fixtures"]) == EXIT_OK
    assert "member:" in capsys.readouterr().out


# -- a reader that stops reading -----------------------------------------------

class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_is_an_error_not_no_answers():
    err = io.StringIO()
    code = run(RunConfig(db="romance", query="jealous(X, Y)"), ClosedPipe(),
               err)
    assert code == EXIT_ERROR
    assert err.getvalue() == (
        "error: cannot write the output ([Errno 32] Broken pipe)\n")


def command(*args: str) -> dict:
    """subprocess keyword arguments that run the command line of this
    source tree with `args`."""
    script = "from sldtree.cli import main; raise SystemExit(main())"
    src = str(Path(sldtree.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return dict(args=[sys.executable, "-c", script, *args], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_a_pipe_closed_early_exits_2_without_a_traceback():
    # as `sldtree ... | head -c 100` does: the perm-5 drawing is far
    # bigger than a pipe's buffer, so the command is still writing
    proc = subprocess.Popen(**command("--db", str(DB / "perm.pl"),
                                      "--query", "perm([a,b,c,d,e],P)"))
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == EXIT_ERROR
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "Exception ignored" not in err


# -- out of memory -------------------------------------------------------------

# the address space each child below may use, set in the child alone
MEMORY_LIMIT = 300 * 2 ** 20


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_AS bounds the address space on Linux")
@pytest.mark.parametrize("db, query, args", [
    # ascii: a ';' nest 400 deep, whose drawing of about 650 MB grows
    # with the cube of the depth
    ("p(_).\n", "(p(a);" * 400 + "p(a)" + ")" * 400, ["--max-depth", "1000"]),
    # canonical: a document of about 800 MB, most of it indents
    ("p :- p.\n", "p", ["--format", "canonical", "--max-depth", "5000"]),
], ids=("nest-ascii", "chain-canonical"))
def test_out_of_memory_is_an_error_not_no_answers(tmp_path, db, query, args):
    path = tmp_path / "db.pl"
    path.write_text(db)
    kwargs = command("--db", str(path), "--query", query, *args)
    proc = subprocess.run(**kwargs, preexec_fn=_limit_memory, timeout=300)
    assert (proc.returncode, proc.stderr) == (
        EXIT_ERROR, "error: out of memory\n")


# -- the cyclic collector --------------------------------------------------------

@pytest.fixture
def collector():
    """The collector as a test leaves it, turned back on after."""
    yield gc
    gc.enable()


# each case: the run, its exit code, and the stages it reaches, the last
# one raising MemoryError if `exhausted`
@pytest.mark.parametrize("cfg, want, stages, exhausted", [
    (RunConfig(db="romance", query="jealous(X, Y)"), EXIT_OK,
     ["parse_program", "render_text"], False),
    (RunConfig(db="member", query="member(x, [a])", format="canonical"),
     EXIT_NO_ANSWERS, ["parse_program", "serialize"], False),
    (RunConfig(db="member", query="member(X, [a"), EXIT_ERROR,
     ["parse_program"], False),
    (RunConfig(db="magic", query="magic(X)", unknown="error"), EXIT_ERROR,
     ["parse_program"], False),
    (RunConfig(db=str(DB / "loop.pl"), query="p", limits=Limits(max_depth=20)),
     EXIT_TRUNCATED, ["parse_program", "render_text"], False),
    (RunConfig(db="romance", query="jealous(X, Y)"), EXIT_ERROR,
     ["parse_program", "render_text"], True),
], ids=["ok", "no-answers", "parse-error", "unknown", "truncated",
        "out-of-memory"])
def test_the_collector_is_paused_for_the_whole_run(
        monkeypatch, collector, cfg, want, stages, exhausted):
    seen = []

    def watch(name, f):
        def watched(*args):
            seen.append((name, collector.isenabled()))
            return f(*args)
        monkeypatch.setattr(cli, name, watched)
    for name in ("parse_program", "render_text", "serialize"):
        watch(name, getattr(cli, name))
    if exhausted:
        def out_of_memory(*args):
            raise MemoryError
        watch(stages[-1], out_of_memory)
    collector.enable()
    code, _, err = invoke(cfg)
    assert code == want, err
    assert collector.isenabled()
    assert seen == [(name, False) for name in stages]
    collector.disable()
    assert invoke(cfg)[0] == want
    assert not collector.isenabled()


def test_a_run_leaves_no_cycles_for_the_collector(collector):
    # each golden case's database, query and limits, in every format; the
    # options are read before the run, as argparse's parser holds cycles
    runs = set()
    for argv in golden_cases().values():
        options = dict(zip(argv[::2], argv[1::2]))
        options.pop("--format", None)
        options.pop("--width", None)
        runs.add(tuple(x for pair in options.items() for x in pair))
    assert len(runs) == 16
    for base in sorted(runs):
        for fmt in FORMATS:
            args = cli._build_parser().parse_args([*base, "--format", fmt])
            cfg = RunConfig(db=args.db, query=args.query, format=args.format,
                            limits=Limits(args.max_depth, args.max_nodes))
            collector.collect()
            collector.disable()
            invoke(cfg)
            assert collector.collect() == 0, (base, fmt)
            collector.enable()
