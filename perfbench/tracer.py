"""In-memory span tracer that wraps the library's public functions from
outside.

A function is wrapped under every name a consumer binds it to: ``coverage``
imports ``beta_survival`` by name at import time, so patching only
``ssbc.specfun.beta_survival`` would miss its calls.  ``install`` therefore
replaces the function object in every loaded ``ssbc`` module that holds it.

Every call of an outer layer gets its own span.  The hot inner functions
(AGGREGATED: the specfun kernels, ``coverage.tail_prob`` and
``mondrian.budget_success_prob``) are called up to millions of times per
run, so all their calls under one parent span share one span record, which
keeps the call count, the error count, the summed duration, the first
start and the last end.  This keeps the spans of a run in memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, public function) pairs wrapped in a traced run.  A pair the
# library no longer has stops the traced run: its metrics would read zero.
TARGETS = (
    ("ssbc.specfun", "beta_survival"),
    ("ssbc.specfun", "betabinom_survival"),
    ("ssbc.specfun", "betabinom_pmf"),
    ("ssbc.specfun", "betabinom_pmf_vector"),
    ("ssbc.coverage", "tail_prob"),
    ("ssbc.adjust", "ssbc_adjust"),
    ("ssbc.adjust", "dkwm_adjust"),
    ("ssbc.feasibility", "feasibility_report"),
    ("ssbc.feasibility", "rung_table"),
    ("ssbc.mondrian", "ssbc_mondrian"),
    ("ssbc.mondrian", "budget_success_prob"),
    ("ssbc.mc", "run_simulation"),
    ("ssbc.serialize", "canonical_json"),
    ("ssbc.cli", "main"),
)
AGGREGATED = frozenset({
    "specfun.beta_survival", "specfun.betabinom_survival", "specfun.betabinom_pmf",
    "specfun.betabinom_pmf_vector", "coverage.tail_prob", "mondrian.budget_success_prob",
})


class Span:
    __slots__ = ("id", "name", "parent", "request", "count", "errors", "total", "start", "end",
                 "children", "aggregated")

    def __init__(self, span_id: int, name: str, parent: "Span | None", request: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.count = 0
        self.errors = 0
        self.total = 0.0
        self.start = None
        self.end = None
        self.children: list[Span] = []
        self.aggregated: dict[str, Span] = {}

    @property
    def self_time(self) -> float:
        """Duration minus the time its child spans cover."""
        return self.total - sum(child.total for child in self.children)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.current: Span | None = None
        self.epoch = perf_counter()

    def _span(self, name: str, parent: Span | None, request: int) -> Span:
        span = Span(len(self.spans), name, parent, request)
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        return span

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; the library spans nest under it."""
        root = self._span("request", None, request_id)
        self.current = root
        root.start = perf_counter()
        try:
            yield root
        finally:
            root.end = perf_counter()
            root.count = 1
            root.total = root.end - root.start
            self.current = None

    def wrap(self, name: str, fn):
        tracer = self
        aggregated = name in AGGREGATED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            if parent is None:
                return fn(*args, **kwargs)
            span = parent.aggregated.get(name) if aggregated else None
            if span is None:
                span = tracer._span(name, parent, parent.request)
                if aggregated:
                    parent.aggregated[name] = span
            tracer.current = span
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.errors += 1
                raise
            finally:
                end = perf_counter()
                span.count += 1
                span.total += end - start
                if span.start is None:
                    span.start = start
                span.end = end
                tracer.current = parent

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS function wherever an ssbc module binds it,
        and restore the originals on exit."""
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [mod for name, mod in list(sys.modules.items())
                   if (name == "ssbc" or name.startswith("ssbc.")) and mod is not None]
        restore = []
        try:
            for module_name, attr in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(f"{module_name[len('ssbc.'):]}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(restore):
                setattr(mod, key, original)

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def calls(self, name: str) -> int:
        return sum(span.count for span in self.by_name(name))

    def answers(self, name: str) -> int:
        """Calls of ``name`` that returned instead of raising."""
        return sum(span.count - span.errors for span in self.by_name(name))

    def total(self, name: str) -> float:
        return sum(span.total for span in self.by_name(name))

    def self_time(self, name: str) -> float:
        return sum(span.self_time for span in self.by_name(name))

    def child_calls(self, parent: str, child: str) -> int:
        """Calls of ``child`` made directly from a ``parent`` span."""
        return sum(span.count for span in self.by_name(child)
                   if span.parent is not None and span.parent.name == parent)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "parent": None if span.parent is None else span.parent.id,
                    "request": span.request,
                    "start_s": None if span.start is None else span.start - self.epoch,
                    "end_s": None if span.end is None else span.end - self.epoch,
                    "count": span.count,
                    "errors": span.errors,
                    "total_s": span.total,
                    "self_s": span.self_time,
                }) + "\n")
