"""Per-layer tracing of the kgbench package, installed from outside.

Every public function and method of the package is replaced, at every module
namespace that holds it, by a wrapper, so the CLI's own code path runs
through the wrappers.  Layer entry points (listed in SPANS) record spans; a
span's self time is its duration minus the time of the spans it encloses.
Every other public function, hot leaves such as ``neighbors``, ``has_link``
and ``next_u64`` among them, is only counted.  Counts depend only on the
inputs, so two traced runs of the same seed must agree on every count.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# function qualname -> span bucket.  Buckets are layer metric names without
# the "_s" suffix.
SPANS = {
    "cli.main": "cli.self",
    "cli._self_check": "cli.self_check",
    "formats.parse_graph": "formats.parse",
    "formats.parse_tgf": "formats.parse",
    "formats.parse_xgml": "formats.parse",
    "graph.KnowledgeGraph.build": "graph.build",
    "graph.KnowledgeGraph.add_node": "graph.build",
    "graph.KnowledgeGraph.add_edge": "graph.build",
    "graph.KnowledgeGraph.sorted_nodes": "graph.sorted_nodes",
    "graph.KnowledgeGraph.sorted_edges": "graph.sorted_edges",
    "ontology.load_ontology": "ontology.load",
    "querygen.generate_fill": "querygen.fill",
    "querygen.generate_choice": "querygen.choice",
    "querygen.generate_path": "querygen.path",
    "oracle.enumerate_paths": "oracle.enumerate_paths",
    "oracle.solve_pattern": "oracle.solve_pattern",
    "oracle.answer_choice": "oracle.answer_choice",
    "protocol.emit_query_xml": "protocol.emit",
    "protocol.emit_key_xml": "protocol.emit",
    "protocol.emit_submission_a": "protocol.emit",
    "protocol.emit_submission_b": "protocol.emit",
    "protocol.emit_submission_c": "protocol.emit",
    "protocol.parse_query_xml": "protocol.parse_query",
    "protocol.parse_key_xml": "protocol.parse_key",
    "protocol.parse_submission_xml": "protocol.parse_submission",
    "scoring.score_fill": "scoring.score_fill",
    "scoring.score_choice": "scoring.score_choice",
    "scoring.score_paths": "scoring.score_paths",
    "scoring.aggregate": "scoring.report",
    "scoring.ScoreReport.to_json": "scoring.report",
    "scoring.ScoreReport.to_text": "scoring.report",
}
# The first neighbors() call on a graph instance builds (or finds) its
# traversal index; it is timed as this span, later calls are only counted.
INDEX_SPAN = "graph.index"
NEIGHBORS = "graph.KnowledgeGraph.neighbors"
ORACLE = ("oracle.enumerate_paths", "oracle.solve_pattern", "oracle.answer_choice")
GENERATORS = ("querygen.fill", "querygen.choice", "querygen.path")


class Tracer:
    """Span and counter store; `install` patches the package, `uninstall`
    restores it."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [bucket, start, child seconds]
        self._indexed: dict[int, object] = {}  # graphs whose index span ran
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, bucket: str) -> None:
        self._stack.append([bucket, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        bucket, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[bucket] += duration - children
        self.total_s[bucket] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _span(self, qualname: str, bucket: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            if bucket in ORACLE and any(f[0] in GENERATORS for f in self._stack):
                counts["querygen.oracle_calls"] += 1
            self._enter(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self._observe(qualname, args, result)
            return result

        return wrapper

    def _counter(self, qualname: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _neighbors(self, fn):
        counts = self.counts
        indexed = self._indexed

        def wrapper(graph, node):
            counts[NEIGHBORS] += 1
            if self._stack and self._stack[-1][0] == "oracle.enumerate_paths":
                counts["oracle.enumerate_paths.neighbors"] += 1
            if id(graph) not in indexed:
                indexed[id(graph)] = graph  # held so the id is not reused
                self._enter(INDEX_SPAN)
                try:
                    return fn(graph, node)
                finally:
                    self._exit()
            return fn(graph, node)

        return wrapper

    def _observe(self, qualname: str, args, result) -> None:
        """Work counts read from a span's arguments and result."""
        c = self.counts
        if qualname.startswith("querygen.generate_"):
            c["querygen.accepted"] += len(result)
        elif qualname == "oracle.enumerate_paths":
            c["oracle.paths_found"] += len(result)
        elif qualname == "oracle.solve_pattern":
            c["oracle.bindings_found"] += len(result)
        elif qualname.startswith("protocol.emit_"):
            c["protocol.bytes_emitted"] += len(result.encode("utf-8"))
        elif qualname.startswith("protocol.parse_"):
            c["protocol.bytes_parsed"] += len(args[0].encode("utf-8"))
            if qualname == "protocol.parse_submission_xml":
                c["protocol.diagnostics"] += len(result[1])

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        wrapped: dict[int, tuple[object, object]] = {}
        for module in modules:
            short = module.__name__[len(prefix):]
            for name, obj in vars(module).items():
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            self._patch(obj, attr, self._wrap(f"{short}.{name}.{attr}", member))
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    qualname = f"{short}.{name}"
                    if not name.startswith("_") or qualname in SPANS:
                        wrapped[id(obj)] = (obj, self._wrap(qualname, obj))
        # re-point every namespace that imported a wrapped function
        for module in modules:
            for name, obj in list(vars(module).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, name, wrapper)

    def _wrap(self, qualname: str, fn):
        if qualname == NEIGHBORS:
            return self._neighbors(fn)
        if qualname in SPANS:
            return self._span(qualname, SPANS[qualname], fn)
        return self._counter(qualname, fn)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
