"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions of the traced schurlat modules
(plus ``cdcl.Engine.__init__`` and ``cdcl.Engine.solve``) and rebinds every
reference to them in the loaded ``schurlat`` modules, so calls made through
``from .x import f`` bindings are caught as well. The package source is not
touched. Each call records one span: name, start, end and parent span id.
Spans stay in memory; the harness writes them out once, after the run.

Helpers that are called once per point, tuple or vector are not wrapped: a
span per call would cost more than the work it times. Their time lands in the
self time of the function that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from typing import Callable, Iterator

LAYERS = ("lattice", "encoder", "cdcl", "sat", "search", "witness")

PER_ELEMENT_HELPERS = frozenset({
    "lattice.box_points",
    "lattice.point_index",
    "lattice.point_from_index",
    "lattice.vector_sum",
    "lattice.rank",
    "lattice.det",
    "lattice.is_j_nondegenerate",
    "encoder.var_index",
    "encoder.var_point_color",
})


def _engine_solve_counts(args, result) -> dict[str, int]:
    engine = args[0]
    return {"conflicts": engine.conflicts, "learnts_end": len(engine.learnts)}


def _len_as(key: str) -> Callable[..., dict[str, int]]:
    return lambda args, result: {key: len(result)}


# Counts read at the layer boundary when the call returns.
COUNTERS: dict[str, Callable[..., dict[str, int]]] = {
    "lattice.enumerate_tuples": _len_as("tuples"),
    "encoder.encode_distinctness": _len_as("clauses"),
    "encoder.encode_tuple_clauses": _len_as("clauses"),
    "cdcl.Engine.solve": _engine_solve_counts,
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, id: int, parent: int | None, name: str, start: float) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.counts: dict[str, int] | None = None

    def to_json(self) -> dict:
        doc = {"id": self.id, "parent": self.parent, "name": self.name,
               "start": self.start, "end": self.end}
        if self.counts:
            doc["counts"] = self.counts
        return doc


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counter is not None:
                    s.counts = counter(args, result)
            return result

        return wrapper

    def _wrap_engine_init(self, init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(engine, num_vars, clauses, **kwargs):
            if not hasattr(clauses, "__len__"):
                clauses = tuple(clauses)
            with self.span("cdcl.Engine.__init__") as s:
                init(engine, num_vars, clauses, **kwargs)
                # Clauses of length >= 2 are stored; units the constructor
                # assigned sit on the level-0 trail.
                s.counts = {"clauses_in": len(clauses),
                            "kept": len(engine.clauses) + len(engine.trail)}

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions and rebind every reference to them."""
        originals: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"schurlat.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or name in PER_ELEMENT_HELPERS):
                    continue
                originals[id(obj)] = self._wrap(name, obj)
        engine = sys.modules["schurlat.cdcl"].Engine
        self._patch(engine, "__init__", self._wrap_engine_init(engine.__init__))
        self._patch(engine, "solve", self._wrap("cdcl.Engine.solve", engine.solve))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "schurlat" and not mod_name.startswith("schurlat."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# Span name -> the per-layer self-time metric it adds to.
SELF_TIME_METRICS = {
    "lattice.enumerate_tuples": "lattice.enumerate_s",
    "lattice.verify_free": "lattice.verify_free_s",
    "encoder.decode_model": "encoder.decode_s",
    "cdcl.Engine.__init__": "cdcl.init_s",
    "cdcl.Engine.solve": "cdcl.solve_s",
    "sat.read_dimacs": "sat.read_dimacs_s",
    "sat.check_model": "sat.check_model_s",
    "search.probe": "search.probe_self_s",
    "search.save_certificate": "search.persist_s",
    "search.append_ledger_row": "search.persist_s",
}
# Span name -> the per-layer metric that counts its calls.
CALL_METRICS = {
    "lattice.enumerate_tuples": "lattice.enumerate_calls",
    "search.probe": "search.probes",
    "witness.extract_schur_witness": "witness.extractions",
}
COUNT_METRICS = ("lattice.tuples", "encoder.clauses", "cdcl.clauses_in", "cdcl.kept",
                 "cdcl.conflicts", "cdcl.learnts_end")


def layer_metrics(spans: list[Span], answer_root: str, verify_root: str) -> dict[str, float]:
    """Per-layer self times and counts under the answer root span, plus the
    lattice and search self times under the verify root span.

    A span's self time is its duration minus the durations of its children;
    spans of one thread nest, so children never overlap. The layer self times
    and the answer root's own self time (``trace.unattributed_s``) add up to
    the traced answer time.
    """
    by_id = {s.id: s for s in spans}
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def root_of(s: Span) -> Span:
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    m: dict[str, float] = dict.fromkeys(
        [*SELF_TIME_METRICS.values(), "verify.lattice_s", "verify.search_s",
         *(f"{layer}.self_s" for layer in LAYERS)], 0.0)
    m.update(dict.fromkeys([*CALL_METRICS.values(), *COUNT_METRICS], 0))
    answer = None
    for s in spans:
        self_s = (s.end - s.start) - child_time[s.id]
        root = root_of(s)
        layer = s.name.split(".", 1)[0]
        if root.name == verify_root:
            if layer in ("lattice", "search"):
                m[f"verify.{layer}_s"] += self_s
        elif s is root and s.name == answer_root:
            answer = s
            m["trace.unattributed_s"] = self_s
        elif root.name == answer_root:
            m[f"{layer}.self_s"] += self_s
            if s.name in SELF_TIME_METRICS:
                m[SELF_TIME_METRICS[s.name]] += self_s
            if s.name in CALL_METRICS:
                m[CALL_METRICS[s.name]] += 1
            for count, value in (s.counts or {}).items():
                m[f"{layer}.{count}"] += value
    if answer is None:
        raise ValueError(f"no {answer_root!r} root span recorded")
    total = answer.end - answer.start
    kept = m.pop("cdcl.kept")
    m["cdcl.kept_ratio"] = kept / m["cdcl.clauses_in"] if m["cdcl.clauses_in"] else 0.0
    m["encoder.encode_s"] = m["encoder.self_s"] - m["encoder.decode_s"]
    m["witness.extract_s"] = m["witness.self_s"]
    m["trace.answer_s"] = total
    m["trace.coverage"] = 1.0 - m["trace.unattributed_s"] / total
    return m
