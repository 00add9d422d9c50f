"""Byte-for-byte goldens of the command line: stdout and exit code.

Each case runs `sldtree.cli.main` in-process and compares its standard
output with tests/golden/<case>.out and its exit code with
tests/golden/exit_codes.json. The cases are the bundled fixtures with
their canonical queries (canonical JSON, ascii at widths 120 and 60)
a few larger trees and a cut inside a negation (canonical and ascii at
width 120, or ascii at width 120 alone).

Regenerate the files, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py

and give the change its own line in CHANGES.md.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from sldtree.cli import main
from sldtree.fixtures import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
DB = GOLDEN / "db"
EXIT_CODES = GOLDEN / "exit_codes.json"


def _plist(items) -> str:
    return "[" + ",".join(map(str, items)) + "]"


# (case, database, query, extra flags), each drawn and serialized
SCALED = (
    ("append-split-20", "append", f"append(X,Y,{_plist(range(1, 21))})", []),
    ("nrev-8", str(DB / "nrev.pl"), f"nrev({_plist(range(1, 9))},R)", []),
    ("perm-4", str(DB / "perm.pl"), "perm([a,b,c,d],P)", []),
    ("loop-50", str(DB / "loop.pl"), "p", ["--max-depth", "50"]),
    ("neg-cut", str(DB / "negcut.pl"), "t(X)", []),
)

# (case, database, query), drawn only
DRAWN = (
    ("flat-100", str(DB / "flat.pl"), "fact(X)"),
)


def cases() -> dict[str, list[str]]:
    """Case name -> command-line arguments."""
    out = {}
    for f in FIXTURES:
        base = ["--db", f.name, "--query", f.query]
        out[f"{f.name}.canonical"] = base + ["--format", "canonical"]
        out[f"{f.name}.ascii120"] = base + ["--width", "120"]
        out[f"{f.name}.ascii60"] = base + ["--width", "60"]
    for name, db, query, extra in SCALED:
        base = ["--db", db, "--query", query] + extra
        out[f"{name}.canonical"] = base + ["--format", "canonical"]
        out[f"{name}.ascii120"] = base + ["--width", "120"]
    for name, db, query in DRAWN:
        out[f"{name}.ascii120"] = ["--db", db, "--query", query,
                                   "--width", "120"]
    return out


def run_case(argv: list[str]) -> tuple[bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode("utf-8"), code


def test_golden_outputs_match():
    want_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    differ = []
    for name, argv in cases().items():
        text, code = run_case(argv)
        if text != (GOLDEN / f"{name}.out").read_bytes():
            differ.append(f"{name}: stdout")
        if code != want_codes[name]:
            differ.append(f"{name}: exit {code}, golden {want_codes[name]}")
    assert not differ, differ


def test_golden_files_match_the_cases():
    names = set(cases())
    assert {p.stem for p in GOLDEN.glob("*.out")} == names
    assert set(json.loads(EXIT_CODES.read_text(encoding="utf-8"))) == names


def regenerate() -> None:
    for p in GOLDEN.glob("*.out"):
        p.unlink()
    codes = {}
    for name, argv in cases().items():
        text, codes[name] = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(text)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {len(codes)} goldens to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
