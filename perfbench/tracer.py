"""Spans around chainplan's stage functions, recorded from outside the program.

``from x import f`` binds ``f`` once per importing module, so a function is
wrapped at every module attribute that holds it (``planner.ground``,
``analysis.ground``, ``cli.ground``, ...). Every span is named after the
module that defines the function; ``site`` records the binding that was
called. Spans stay in memory until the run ends.

Time spent in probes (see ``Tracer.pause``) is cut out of the span clock, so
it shows in no span and no traced query duration.
"""
from __future__ import annotations

import contextlib
import functools
import logging
import sys
import time
from dataclasses import dataclass

# The stage entry points of the pipeline, by defining module. Hot leaf
# helpers (atom_str, cpe_matches, ...) are left unwrapped: they run hundreds
# of thousands of times per query, and a span each would swamp the trace.
TRACED = {
    "cli": ("main",),
    "catalog": ("load_catalog",),
    "netmodel": ("load_network", "select_relevant_exploits"),
    "pddlgen": ("emit_domain", "emit_problem", "to_pddl", "parse_pddl",
                "parse_plan", "resolve_exploit_action"),
    "planner": ("ground", "find_top_k", "run_external", "check_plan"),
    "analysis": ("find_chains", "sweep_targets", "to_chain_report"),
}

TRUNCATION_MARK = "enumeration stopped"


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    query: int

    def to_dict(self) -> dict:
        return {"name": self.name, "site": self.site, "start": self.start,
                "end": self.end, "parent": self.parent, "query": self.query}


class _TruncationCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if TRUNCATION_MARK in record.getMessage():
            self.tracer.add("planner.truncated")


class Tracer:
    """Wraps the TRACED functions while installed; records spans and counts.

    ``observe`` maps a span name to a callback ``(tracer, args, kwargs,
    result)`` that turns a return value into counts; ``probe`` maps a span
    name to a callback ``(tracer, original, args, kwargs)`` run before the
    real call. Both run with the clock paused.
    """

    def __init__(self, observe=None, probe=None):
        self.observe = observe or {}
        self.probe = probe or {}
        self.spans: list[Span] = []
        self.tallies: list[dict] = []
        self.query = -1
        self._excluded = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _TruncationCounter(self)

    # --- clock and counts -----------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    @contextlib.contextmanager
    def pause(self):
        """The time inside is cut out of the span clock."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start

    def add(self, name: str, value: float = 1) -> None:
        bucket = self.tallies[self.query]
        bucket[name] = bucket.get(name, 0) + value

    def begin_query(self) -> None:
        self.query += 1
        self.tallies.append({})

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every chainplan module attribute bound to a TRACED function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "chainplan"
                                           or name.startswith("chainplan."))}
        for home, names in TRACED.items():
            home_module = modules[f"chainplan.{home}"]
            for fname in names:
                original = getattr(home_module, fname)
                span_name = f"{home}.{fname}"
                for mod_name, module in modules.items():
                    if getattr(module, fname, None) is not original:
                        continue
                    site = f"{mod_name.rpartition('.')[2]}.{fname}"
                    self._saved.append((module, fname, original))
                    setattr(module, fname, self._wrap(original, span_name, site))
        logging.getLogger("chainplan.planner").addHandler(self._handler)

    def uninstall(self) -> None:
        """Put every wrapped attribute back to its original object."""
        logging.getLogger("chainplan.planner").removeHandler(self._handler)
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, original, span_name: str, site: str):
        tracer = self
        observe = self.observe.get(span_name)
        probe = self.probe.get(span_name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if probe is not None:
                with tracer.pause():
                    probe(tracer, original, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, site, tracer.now(), 0.0, parent, tracer.query)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.now()
                tracer._stack.pop()
            tracer.add(f"{span_name}.calls")
            if observe is not None:
                with tracer.pause():
                    observe(tracer, args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[Span], queries: int) -> list[dict]:
    """Per query, each span name's total duration minus its children's."""
    out = [dict() for _ in range(queries)]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    for index, span in enumerate(spans):
        bucket = out[span.query]
        own = span.end - span.start - child_time[index]
        bucket[span.name] = bucket.get(span.name, 0.0) + own
    return out
