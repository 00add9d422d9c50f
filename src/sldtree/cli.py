"""Command-line driver: parse a knowledge base, run a query, print the
search tree and the answers.

Exit codes: 0 at least one answer, 1 no answers, 2 usage, parse, engine
or internal error, out of memory, or output that cannot be written, 3
tree truncated by resource limits.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from .engine import (Answer, EngineOptions, Limits, SearchTree,
                     build_tree, solutions)
from .errors import PrologError
from .fixtures import FIXTURES, fixture_text
from .reader import parse_program, parse_query
from .render import RenderOptions, render_text
from .serialize import serialize
from .unify import RENAME_STYLES

EXIT_OK = 0
EXIT_NO_ANSWERS = 1
EXIT_ERROR = 2
EXIT_TRUNCATED = 3

FORMATS = ("ascii", "canonical", "answers-only")


@dataclass
class RunConfig:
    db: str | None = None
    query: str | None = None
    format: str = "ascii"
    limits: Limits = field(default_factory=Limits)
    unknown: str = "fail"
    rename: str = "prime"
    width: int = 120
    list_fixtures: bool = False


def _answer_block(answer: Answer) -> str:
    if not answer.bindings:
        return "true."
    return answer.text()


def _answers_section(answers: list[Answer]) -> str:
    if not answers:
        return "false.\n"
    return "\n\n".join(_answer_block(a) for a in answers) + "\n"


# the warning's name for each Limits field
_LIMIT_NAMES = {"max_depth": "depth", "max_nodes": "node"}


def _tripped_text(tree: SearchTree, limits: Limits) -> str:
    """The limits that truncated `tree`, with their values: "the depth
    limit (500)", "the depth limit (20) and the node limit (100)"."""
    return " and ".join(
        f"the {_LIMIT_NAMES[name]} limit ({getattr(limits, name)})"
        for name in tree.tripped)


def _load_db(source: str) -> str:
    path = Path(source)
    if path.exists():
        return path.read_text(encoding="utf-8-sig")
    try:
        return fixture_text(source)
    except KeyError:
        raise FileNotFoundError(
            f"no such file or bundled fixture: {source}") from None


def run(cfg: RunConfig, out: IO[str], err: IO[str]) -> int:
    if cfg.list_fixtures:
        for f in FIXTURES:
            print(f"{f.name}: {f.query}", file=out)
        return EXIT_OK

    if not cfg.db or not cfg.query:
        print("error: --db and --query are required", file=err)
        return EXIT_ERROR

    try:
        if cfg.format not in FORMATS:
            raise ValueError(f"output format: {cfg.format}")
        render_options = RenderOptions(max_width=cfg.width)
        options = EngineOptions(unknown=cfg.unknown, rename=cfg.rename)
    except ValueError as e:
        print(f"error: {e}", file=err)
        return EXIT_ERROR

    try:
        db_text = _load_db(cfg.db)
    except OSError as e:
        print(f"error: {e}", file=err)
        return EXIT_ERROR
    except UnicodeDecodeError as e:
        print(f"error: {cfg.db} is not UTF-8 text ({e})", file=err)
        return EXIT_ERROR

    error = None
    # the run makes no reference cycles, and a collection walks every node
    # of the tree, which lives until the write: the collector is paused
    # from the parse through the write, and left off if it was off
    collecting = gc.isenabled()
    gc.disable()
    try:
        program = parse_program(db_text)
        query = parse_query(cfg.query)
        tree = build_tree(program, query, cfg.limits, options)
        answers = solutions(tree)
        if cfg.format == "ascii":
            drawing = render_text(tree, render_options)
        elif cfg.format == "canonical":
            drawing = serialize(tree)
        else:
            drawing = None
        answers_text = _answers_section(answers)
        if drawing is not None:
            out.write(drawing)
            out.write("\n")
        out.write(answers_text)
        out.flush()
    except PrologError as e:
        error = str(e)
    except RecursionError as e:
        # an internal limit, never to be mistaken for "no answers"
        error = f"nested too deeply for this interpreter ({e})"
    except OSError as e:  # a closed pipe, a full disk
        error = f"cannot write the output ({e})"
    except MemoryError:
        # the error is told once the tree and the drawing, and the frames
        # the exception holds, are let go
        tree = drawing = None
        error = "out of memory"
    finally:
        if collecting:
            gc.enable()
    if error is not None:
        print(f"error: {error}", file=err)
        return EXIT_ERROR

    if tree.truncated:
        print(f"warning: tree truncated by {_tripped_text(tree, cfg.limits)}",
              file=err)
        return EXIT_TRUNCATED
    return EXIT_OK if answers else EXIT_NO_ANSWERS


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sldtree",
        description="Build and draw the exhaustive search tree for a "
                    "Prolog query.")
    p.add_argument("--db", metavar="PATH_OR_FIXTURE",
                   help="knowledge base file, or a bundled fixture name")
    p.add_argument("--query", metavar="GOAL",
                   help="query to run, e.g. 'jealous(X,Y)'")
    p.add_argument("--format", choices=FORMATS, default="ascii")
    p.add_argument("--max-depth", type=int, default=Limits().max_depth)
    p.add_argument("--max-nodes", type=int, default=Limits().max_nodes)
    p.add_argument("--unknown", choices=("fail", "error"), default="fail",
                   help="how to treat goals with no defining clauses")
    p.add_argument("--rename", choices=RENAME_STYLES, default="prime",
                   help="display style for renamed clause variables")
    p.add_argument("--width", type=int, default=120,
                   help="soft column budget for the ascii layout")
    p.add_argument("--list-fixtures", action="store_true",
                   help="list bundled knowledge bases and exit")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        limits = Limits(max_depth=args.max_depth, max_nodes=args.max_nodes)
        cfg = RunConfig(db=args.db, query=args.query, format=args.format,
                        limits=limits, unknown=args.unknown,
                        rename=args.rename, width=args.width,
                        list_fixtures=args.list_fixtures)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    code = run(cfg, sys.stdout, sys.stderr)
    try:
        sys.stdout.flush()
    except OSError:
        # what could not be written is still buffered, and the interpreter
        # flushes stdout again as it exits: send it where it cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
