"""Benchmark of the sldtree pipeline: read, parse, build, answers, draw/JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each operation of a workload goes
in-process through sldtree.cli.run, output to an in-memory stream, one
after another in a single thread (a closed loop). A pass runs every
operation once; the run repeats whole passes until --seconds have gone.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(half the time untraced, half traced; see tracing.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
An operation that raises or whose output fails a check counts as failed.
`correct` is false when any operation fails other than those a workload
lists as known to fail (faults of the program that fail on every run).
Details go to stderr.

The program runs under CPython 3.10: on 3.11 and later sldtree cannot be
imported (engine.SearchNode has an unhashable dataclass default). When
python3 is not 3.10 this script runs itself again under
$PYENV_ROOT/versions/3.10.13/bin/python (default PYENV_ROOT ~/.pyenv).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import CANONICAL, ASCII, MAX_DEPTH, MAX_NODES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = "3.10.13"
SETUP_SAMPLES = 15


# Wall time on a shared machine drifts with the load of its neighbours;
# on a 2-vCPU Xeon VM it varied by up to twice over tens of seconds.
# Operation times are therefore calibrated: between operations the runner
# times a fixed piece of interpreter work that allocates, hashes and joins
# small objects, as the program does (about 5% of the time it spends on
# the program), and scales each pass by REF_SECONDS over that piece's
# median time. Times read as seconds on a machine where the piece takes
# exactly REF_SECONDS, about what that VM took when its neighbours were
# quiet.
REF_OBJECTS = 1400
REF_SECONDS = 0.001
REF_SHARE = 0.05


def reference_piece() -> float:
    """Seconds taken by one fixed piece of allocation-heavy work."""
    t0 = perf_counter()
    objs = [(i, str(i), [i, i + 1]) for i in range(REF_OBJECTS)]
    table = {}
    for n, name, pair in objs:
        table[name] = frozenset(pair) | {n}
    ",".join(sorted(table, key=len))
    return perf_counter() - t0


def _pinned_python() -> str | None:
    if sys.version_info[:2] == (3, 10):
        return sys.executable
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidate = Path(pyenv) / "versions" / PINNED / "bin" / "python"
    return str(candidate) if candidate.is_file() else None


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class SetupTimer:
    """Wall time for a fresh interpreter to import sldtree. Not
    calibrated: start-up is mostly exec, loading and page faults, which
    the reference piece does not track. Samples are spread over the run,
    so that one slow stretch of the machine does not set the median."""

    def __init__(self) -> None:
        self.cmd = [sys.executable, "-c", "import sldtree"]
        self.env = _env_with_src()
        self.times: list[float] = []
        self._start()  # writes bytecode

    def _start(self) -> float:
        t0 = perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        return perf_counter() - t0

    def sample(self, done: float) -> None:
        """Take the samples due once `done` (0..1) of the run is over."""
        while len(self.times) < SETUP_SAMPLES * min(done, 1.0):
            self.times.append(self._start())


# -- walking trees without recursion -----------------------------------

def tree_nodes(tree):
    """(node, path, depth) of a SearchTree in DFS pre-order."""
    stack = [(tree.root, (), 0)]
    while stack:
        node, path, depth = stack.pop()
        yield node, path, depth
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((node.children[i], path + (i,), depth + 1))


def view_signature(view) -> str:
    """Digest of a ViewTree: goals, status and edge label of every node."""
    items = [view.truncated]
    stack = [((), view.root)]
    while stack:
        label, node = stack.pop()
        items.append((label, node.goals, node.status, len(node.children)))
        stack.extend((e.label, e.node) for e in reversed(node.children))
    return _digest(repr(items))


def json_tally(text: str) -> tuple[bool, Counter]:
    """Truncated flag and status counts of a canonical document, read with
    the standard library alone."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * text.count("{") + 1000))
    try:
        doc = json.loads(text)
    finally:
        sys.setrecursionlimit(old)
    tally: Counter = Counter()
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        tally[node["status"]] += 1
        stack.extend(edge["node"] for edge in node["children"])
    return doc["truncated"], tally


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


_PRIMES = re.compile("'+")


# -- the runner --------------------------------------------------------

class Runner:
    def __init__(self, workload, workdir: Path):
        # sldtree re-exports the function serialize over the module name
        cli, engine, fixtures, serialize = (importlib.import_module(
            "sldtree." + m) for m in ("cli", "engine", "fixtures", "serialize"))
        self.cli, self.engine, self.serialize = cli, engine, serialize
        self.wl = workload
        self.db_text = {}
        for key, text in workload.files.items():
            path = workdir / f"{key}.pl"
            path.write_text(text, encoding="utf-8")
            self.db_text[key] = text
        self.limits = engine.Limits(max_depth=MAX_DEPTH, max_nodes=MAX_NODES)
        self.cfgs = []
        for op in workload.ops:
            if op.kind != "run":
                self.cfgs.append(None)
                continue
            if op.db in workload.files:
                db = str(workdir / f"{op.db}.pl")
            else:
                db = op.db
                self.db_text[db] = fixtures.fixture_text(db)
            self.cfgs.append(cli.RunConfig(db=db, query=op.query,
                                           format=op.format,
                                           limits=self.limits,
                                           width=op.width))
        self.reference: dict[int, str] = {}  # op -> digest of its output
        self.raised: dict[int, str] = {}
        self.wrong: dict[int, str] = {}

    def _wrong(self, i: int, why: str) -> None:
        self.wrong.setdefault(i, why)

    def run_pass(self, tracer: Tracer | None = None
                 ) -> tuple[list[float], float]:
        """Run every operation once. Return their latencies in calibrated
        seconds and the factor that calibrated them."""
        gc.collect()
        latencies = []
        docs: dict[int, str] = {}
        pieces: list[float] = []
        for i, op in enumerate(self.wl.ops):
            while not pieces or sum(pieces) < REF_SHARE * sum(latencies):
                pieces.append(reference_piece())
            t0 = perf_counter()
            try:
                if op.kind == "run":
                    out, err = io.StringIO(), io.StringIO()
                    if tracer:
                        code = tracer.span("run", self.cli.run, self.cfgs[i],
                                           out, err)
                    else:
                        code = self.cli.run(self.cfgs[i], out, err)
                    latencies.append(perf_counter() - t0)
                    text = out.getvalue()
                else:
                    doc = docs[op.source]
                    view = self.serialize.deserialize(doc)
                    latencies.append(perf_counter() - t0)
            except Exception as e:  # the operation failed; keep going
                latencies.append(perf_counter() - t0)
                self.raised.setdefault(i, f"{type(e).__name__}: {e}"[:200])
                continue
            if op.kind == "run":
                self._check_output(i, op, code, text)
                if op.format == CANONICAL:
                    docs[i] = text[:len(text) - len(op.answers_text) - 1]
                digest = _digest(text)
            else:
                digest = view_signature(view)
            if self.reference.setdefault(i, digest) != digest:
                self._wrong(i, "output differs from the first pass")
        while sum(pieces) < REF_SHARE * sum(latencies):
            pieces.append(reference_piece())
        scale = REF_SECONDS / statistics.median(pieces)
        return [x * scale for x in latencies], scale

    def _check_output(self, i: int, op, code: int, text: str) -> None:
        if code != op.exit_code:
            self._wrong(i, f"exit code {code}, expected {op.exit_code}")
        want = op.answers_text
        if op.format == ASCII or op.format == CANONICAL:
            ok = text.endswith("\n" + want) and len(text) > len(want) + 1
        else:
            ok = text == want
        if not ok:
            self._wrong(i, f"answers differ, expected {want[:120]!r}")

    # -- checks outside the timed passes --------------------------------

    def verify(self) -> None:
        """Check each operation's tree and output against the properties
        the method must have, and the cut-free fixtures against the
        bottom-up oracle."""
        trees = {}
        for i, op in enumerate(self.wl.ops):
            if i in self.raised:
                continue
            try:
                if op.kind == "run":
                    trees[i] = self._verify_run(i, op)
                elif op.source in trees:
                    view = self.serialize.to_view(trees[op.source])
                    if view_signature(view) != self.reference[i]:
                        self._wrong(i, "deserialize result != to_view(tree)")
            except Exception as e:  # a check that cannot run has failed
                self._wrong(i, f"check raised {type(e).__name__}: {e}"[:200])
        oracle_done = set()
        for i, op in enumerate(self.wl.ops):
            if op.oracle_pool is None or op.db in oracle_done:
                continue
            oracle_done.add(op.db)
            try:
                self._verify_oracle(i, op)
            except Exception as e:
                self._wrong(i, f"oracle check raised {type(e).__name__}: {e}")

    def _library_tree(self, op):
        from sldtree.reader import parse_program, parse_query
        program = parse_program(self.db_text[op.db])
        return program, self.engine.build_tree(
            program, parse_query(op.query), self.limits)

    def _verify_run(self, i: int, op):
        from sldtree.kb import Call, goal_text
        from sldtree.terms import indicator
        program, tree = self._library_tree(op)
        answers = self.engine.solutions(tree)
        blocks = tuple(a.text() if a.bindings else "true." for a in answers)
        if blocks != op.answers:
            self._wrong(i, "library answers differ from the expected ones")
        if tree.truncated != op.truncated:
            self._wrong(i, f"tree truncated={tree.truncated}")

        clauses = Counter(indicator(c.head) for c in program.clauses)
        open_ = self.engine.NodeStatus.OPEN
        success = self.engine.NodeStatus.SUCCESS
        tally: Counter = Counter()
        leaves, boxes, labels = [], [], []
        for node, path, _ in tree_nodes(tree):
            tally[node.status.value] += 1
            if node.status is success:
                leaves.append(path)
            if node.status is open_ and node.children:
                goal = node.goals[0]
                if isinstance(goal, Call):
                    want = clauses.get(indicator(goal.term), 0) or 1
                    if len(node.children) != want:
                        self._wrong(i, f"call node with {len(node.children)} "
                                       f"children, predicate has {want}")
                boxes.append("[" + ",".join(goal_text(g)
                                            for g in node.goals) + "]")
                for child in node.children:
                    if child.status.value != "pruned":
                        labels.extend(child.label.lines())
        if leaves != [a.path for a in answers]:
            self._wrong(i, "success leaves and answer paths differ")
        if op.chain_depth and (sum(tally.values()) != op.chain_depth + 2
                               or tally["truncated"] != 1):
            self._wrong(i, f"chain tree has {sum(tally.values())} nodes, "
                           f"{tally['truncated']} truncated")

        out, err = io.StringIO(), io.StringIO()
        self.cli.run(self.cfgs[i], out, err)
        text = out.getvalue()
        if _digest(text) != self.reference.get(i):
            self._wrong(i, "output differs from the timed passes")
        body = text[:len(text) - len(op.answers_text) - 1]
        if op.format == ASCII:
            words = set(body.split())
            missing = [t for t in boxes + labels
                       if t not in words and t not in body]
            if missing:
                self._wrong(i, f"drawing lacks {missing[0]!r}")
        elif op.format == CANONICAL:
            truncated, doc_tally = json_tally(body)
            if truncated != tree.truncated or doc_tally != tally:
                self._wrong(i, "document node tally differs from the tree")
            if body != self.serialize.serialize(tree):
                self._wrong(i, "document differs from serialize(tree)")
            if (view_signature(self.serialize.deserialize(body))
                    != view_signature(self.serialize.to_view(tree))):
                self._wrong(i, "deserialize(serialize(t)) != to_view(t)")
        return tree

    def _verify_oracle(self, i: int, op) -> None:
        from sldtree.reader import parse_program, parse_query
        path = ROOT / "tests" / "bottomup_oracle.py"
        spec = importlib.util.spec_from_file_location("bottomup_oracle", path)
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        query = parse_query(op.query)
        tree = self.engine.build_tree(parse_program(self.db_text[op.db]),
                                      query, self.limits)
        got = {tuple(a.mapping.get(v, v) for v in tree.query_vars)
               for a in self.engine.solutions(tree)}
        # widen the oracle's ground universe with the expected answers
        pooled = self.db_text[op.db] + "".join(
            f"oracle_pool({t}).\n" for t in op.oracle_pool)
        if got != oracle.answers(parse_program(pooled), query):
            self._wrong(i, "answer set differs from the bottom-up oracle")

    # -- traced counts ---------------------------------------------------

    def layer_counts(self, tracer: Tracer) -> dict[str, float]:
        """Counts from the spans of one traced pass."""
        from sldtree.kb import goal_text
        kept = tracer.kept
        c: Counter = Counter()
        gen = 0
        for _, tree in kept.get("build_tree", []):
            for node, _, depth in tree_nodes(tree):
                c["nodes"] += 1
                c["nodes_" + node.status.value] += 1
                c["max_depth"] = max(c["max_depth"], depth)
                texts = [goal_text(g) for g in node.goals]
                texts += node.label.lines()
                for t in texts:
                    for run in _PRIMES.findall(t):
                        gen = max(gen, len(run))
        unify_calls = tracer.calls.get("unify", 0)
        return {
            "reader.chars": sum(len(args[0]) for name in
                                ("parse_program", "parse_query")
                                for args, _ in kept.get(name, [])),
            "engine.nodes": c["nodes"],
            "engine.nodes_fail": c["nodes_fail"],
            "engine.nodes_pruned": c["nodes_pruned"],
            "engine.nodes_truncated": c["nodes_truncated"],
            "engine.max_depth": c["max_depth"],
            "engine.answers": sum(len(r) for _, r in kept.get("solutions", [])),
            "unify.calls": unify_calls,
            "unify.fail_ratio": (tracer.nulls.get("unify", 0) / unify_calls
                                 if unify_calls else 0.0),
            "unify.rename_calls": tracer.calls.get("rename_clause", 0),
            "unify.rename_gen_max": gen,
            "unify.compose_calls": tracer.calls.get("compose", 0),
            "serialize.bytes": sum(len(r.encode("utf-8"))
                                   for _, r in kept.get("serialize", [])),
            "render.bytes": sum(len(r.encode("utf-8"))
                                for _, r in kept.get("render_text", [])),
            "render.lines": sum(r.count("\n")
                                for _, r in kept.get("render_text", [])),
        }


def layer_times(tracer: Tracer, scale: float) -> dict[str, float]:
    """Calibrated seconds in each layer during one traced pass. Stage
    spans include the unify and to_view spans nested in them; cli.self_s
    is the time in cli.run that no wrapped call covers."""
    def t(name: str) -> float:
        return scale * tracer.total.get(name, 0.0)
    return {
        "reader.parse_s": t("parse_program") + t("parse_query"),
        "engine.build_s": t("build_tree"),
        "engine.solutions_s": t("solutions"),
        "unify.unify_s": t("unify"),
        "unify.rename_s": t("rename_clause"),
        "unify.apply_s": t("apply_goals"),
        "unify.compose_s": t("compose"),
        "serialize.to_view_s": t("to_view"),
        "serialize.serialize_s": t("serialize"),
        "serialize.deserialize_s": t("deserialize"),
        "render.render_s": t("render_text"),
        "cli.self_s": t("run.self"),
    }


COUNT_UNITS = {"reader.chars": "chars", "engine.us_per_node": "us",
               "unify.fail_ratio": "ratio", "serialize.bytes": "bytes",
               "render.bytes": "bytes", "render.lines": "lines"}
STAGES = ("reader.parse_s", "engine.build_s", "engine.solutions_s",
          "render.render_s", "serialize.serialize_s",
          "serialize.deserialize_s", "cli.self_s")


def timed_passes(runner: Runner, seconds: float, tracer=None,
                 setup: SetupTimer | None = None):
    """Whole passes until `seconds` have gone; at least one."""
    passes = []
    start = perf_counter()
    while True:
        if tracer:
            tracer.reset()
        latencies, scale = runner.run_pass(tracer)
        passes.append((latencies,
                       layer_times(tracer, scale) if tracer else None))
        done = (perf_counter() - start) / seconds
        if setup:
            setup.sample(done)
        if done >= 1:
            return passes


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        runner = Runner(workload, Path(tmp))
        runner.run_pass()  # warm-up; fixes the reference outputs
        if not args.trace:
            setup = SetupTimer()
            passes = timed_passes(runner, args.seconds, setup=setup)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            pass_times = [sum(lat) for lat, _ in passes]
            op_ms = [1000 * statistics.median(lat[i] for lat, _ in passes)
                     for i in range(len(workload.ops))]
            for ms, op in zip(op_ms, workload.ops):
                print(f"{ms:10.2f} ms  {op.name}", file=sys.stderr)
            metrics = {
                "setup_s": (statistics.median(setup.times), "s"),
                "pass_s": (statistics.median(pass_times), "s"),
                "op_ms_p50": (statistics.median(op_ms), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            plain = timed_passes(runner, args.seconds / 2)
            tracer = Tracer()
            tracer.keep("build_tree", "solutions", "serialize", "render_text",
                        "parse_program", "parse_query")
            tracer.install()
            try:
                traced = timed_passes(runner, args.seconds / 2, tracer)
                counts = runner.layer_counts(tracer)  # from the last pass
            finally:
                tracer.uninstall()
            tracer.kept.clear()
            passes = plain + traced
            times = {k: statistics.median(p[k] for _, p in traced)
                     for k in traced[0][1]}
            times["trace.overhead_s"] = (
                statistics.median(sum(lat) for lat, _ in traced)
                - statistics.median(sum(lat) for lat, _ in plain))
            nodes = counts["engine.nodes"]
            counts["engine.us_per_node"] = (
                1e6 * times["engine.build_s"] / nodes if nodes else 0.0)
            metrics = {k: (v, "s") for k, v in times.items()}
            metrics.update((k, (v, COUNT_UNITS.get(k, "count")))
                           for k, v in counts.items())
            total = sum(times[k] for k in STAGES) or 1.0
            print("stage shares of the traced pass: " + ", ".join(
                f"{k} {times[k] / total:.0%}"
                for k in sorted(STAGES, key=times.get, reverse=True)),
                file=sys.stderr)
        runner.verify()

    for i, why in sorted({**runner.raised, **runner.wrong}.items()):
        print(f"{workload.ops[i].name}: {why}", file=sys.stderr)
    failed_ops = set(runner.raised) | set(runner.wrong)
    known = {i for i, op in enumerate(workload.ops)
             if op.name in workload.known_failing}
    return {
        "correct": failed_ops <= known,
        "attempted": len(passes) * len(workload.ops),
        "failed": len(passes) * len(failed_ops),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "sldtree" / "__init__.py").is_file():
        print(f"error: no sldtree sources under {SRC}", file=sys.stderr)
        return 2
    if sys.version_info[:2] != (3, 10):
        python = _pinned_python()
        if python is None:
            print(f"error: needs CPython {PINNED}", file=sys.stderr)
            return 2
        script = str(Path(__file__).resolve())
        return subprocess.run([python, script, *sys.argv[1:]]).returncode
    sys.path.insert(0, str(SRC))
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
