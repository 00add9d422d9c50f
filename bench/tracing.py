"""Spans around the calls into each layer, recorded from outside the program.

Tracer.install() replaces public names of the sldtree modules with timing
wrappers and uninstall() puts the originals back. A name that no longer
exists is skipped, and its metrics read zero. Spans nest: a wrapper adds
its duration to the span that is open around it, so the self time of a
span is its duration minus the part its child spans cover. A wrapped
function that re-enters itself (Substitution.apply_goals on a nested
goal) is timed once, at the outermost call.
"""
from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute path, span name); the span name is what the metric
# reports and two attributes may share one, as both to_view names do
WRAPPED = (
    ("sldtree.cli", "parse_program", "parse_program"),
    ("sldtree.cli", "parse_query", "parse_query"),
    ("sldtree.cli", "build_tree", "build_tree"),
    ("sldtree.cli", "solutions", "solutions"),
    ("sldtree.cli", "render_text", "render_text"),
    ("sldtree.cli", "serialize", "serialize"),
    ("sldtree.engine", "unify", "unify"),
    ("sldtree.engine", "rename_clause", "rename_clause"),
    ("sldtree.unify", "Substitution.apply_goals", "apply_goals"),
    ("sldtree.unify", "Substitution.compose", "compose"),
    ("sldtree.render", "to_view", "to_view"),
    ("sldtree.serialize", "to_view", "to_view"),
    ("sldtree.serialize", "deserialize", "deserialize"),
)


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.nulls: dict[str, int] = {}  # calls that returned None
        self.kept: dict[str, list] = {}  # (args, result) pairs, see keep()
        self._open: list[float] = []  # child time of each open span
        self._active: set[str] = set()
        self._keep: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def keep(self, *names: str) -> None:
        """Hold on to the arguments and results of the spans of `names`."""
        self._keep.update(names)

    def reset(self) -> None:
        self.total.clear()
        self.calls.clear()
        self.nulls.clear()
        self.kept.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`; return its result."""
        if name in self._active:
            return fn(*args, **kwargs)
        self._active.add(name)
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._active.discard(name)
            child = self._open.pop()
            if self._open:
                self._open[-1] += dt
            self.total[name] = self.total.get(name, 0.0) + dt
            self.total[name + ".self"] = (
                self.total.get(name + ".self", 0.0) + dt - child)
            self.calls[name] = self.calls.get(name, 0) + 1
        if result is None:
            self.nulls[name] = self.nulls.get(name, 0) + 1
        if name in self._keep:
            self.kept.setdefault(name, []).append((args, result))
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
