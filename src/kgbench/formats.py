"""Readers and writers for the two graph interchange formats: TGF (line
oriented) and XGML (GML-style bracketed key/value blocks).

The XGML subset: a value is a `[...]` block, an ASCII [0-9]+ int that int()
takes (`ontology.decimal`), a float, a word, or a quoted string with `\\"`
and `\\\\` escapes; `#` comments run to the end of the line; lines count
`\\n` only, and a quoted string's line is the line it ends on; in the graph
block `directed` is ignored and other keys warn.  One scan reads it: a run
of node and edge blocks as emitters write them is one step, its blocks
matched by one `finditer` in C, and anything else is read token by token.
The reader names places by offset and counts lines only for a diagnostic.
tests/helpers.py keeps the old reader.

Both parsers are total: they never raise on arbitrary input text but return
``(graph-or-None, diagnostics)``.  Error diagnostics mean no graph is
returned; warnings accompany a returned graph.  A relation enters a graph
only through the ontology it is read with: one the ontology does not name
is an error on each line that writes it.  The name and edge rules live in
the types (`NodeId`, `label_fault`, `KnowledgeGraph.build`); the parsers
only add the line of the node or edge to their errors.  Both
emitters are deterministic, and every graph that can be constructed
round-trips exactly through their parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import DuplicateEdgeError, Edge, GraphError, KnowledgeGraph, NodeId
from .ontology import RelationOntology, canonical_label, decimal

WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """A reader's finding: graph readers name a line (`line <n>`), the
    submission reader a query id or the root's tag."""

    severity: str  # WARNING or ERROR
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.where}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


class _GraphAssembler:
    """Shared semantic layer: numeric file-local ids -> canonical NodeIds,
    duplicate-direction tolerance, and each relation checked against the
    ontology the graph is read with.  A reader names each place in its
    text by an int `at`, and `line_of(at)` gives its line when a diagnostic
    needs one."""

    def __init__(self, ontology: RelationOntology, line_of=lambda at: at):
        self.ontology = ontology
        self.line_of = line_of
        self.nodes_by_fileid: dict[int, NodeId] = {}
        self.declared: set[NodeId] = set()
        # relation text as written -> its canonical label, once accepted
        self.relations: dict[str, str] = {}
        self.edges: list[Edge] = []
        self.edge_at: list[int] = []  # the place of each of `edges`
        self.diagnostics: list[Diagnostic] = []

    def error(self, at: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(ERROR, f"line {self.line_of(at)}", message))

    def warn(self, at: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(WARNING, f"line {self.line_of(at)}", message))

    def add_node(self, at: int, file_id: int, label: str) -> None:
        if file_id in self.nodes_by_fileid:
            self.error(at, f"duplicate node id {file_id}")
            return
        try:
            node = NodeId.parse(label)
        except GraphError as exc:
            self.error(at, str(exc))
            return
        if node in self.declared:
            self.warn(at, f"node {node} declared more than once; merged")
        self.declared.add(node)
        self.nodes_by_fileid[file_id] = node

    def add_edge(self, at: int, src_id: int, dst_id: int, relation: str) -> None:
        nodes = self.nodes_by_fileid
        if src_id not in nodes:
            self.error(at, f"edge references undeclared node id {src_id}")
            return
        if dst_id not in nodes:
            self.error(at, f"edge references undeclared node id {dst_id}")
            return
        label = self.relations.get(relation) or self._accept(at, relation)
        if label:
            self.edges.append(Edge(nodes[src_id], label, nodes[dst_id]))
            self.edge_at.append(at)

    def _accept(self, at: int, relation: str) -> str | None:
        """The canonical label of a relation text not yet accepted, or None
        after an error; only an accepted text is remembered, so each line
        that writes a refused one reports."""
        label = canonical_label(relation)
        if label not in self.ontology:
            self.error(at, f"relation {label!r} not in ontology")
            return None
        self.relations[relation] = label
        return label

    def build(self) -> KnowledgeGraph | None:
        if has_errors(self.diagnostics):
            return None
        graph, problems = KnowledgeGraph.build(self.ontology, self.declared, self.edges)
        for position, exc in problems:
            if isinstance(exc, DuplicateEdgeError):
                self.warn(self.edge_at[position], f"dropped duplicate edge: {exc}")
            else:
                self.error(self.edge_at[position], str(exc))
        if has_errors(self.diagnostics):
            return None
        return graph


# --- TGF ---------------------------------------------------------------


def parse_tgf(
    text: str, ontology: RelationOntology
) -> tuple[KnowledgeGraph | None, list[Diagnostic]]:
    """TGF: `<int> <label>` node lines, one `#` separator line, then
    `<int> <int> <relation>` edge lines.  Labels may contain spaces."""
    asm = _GraphAssembler(ontology)
    seen_separator = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if seen_separator:
                asm.error(lineno, "multiple '#' separator lines")
            seen_separator = True
            continue
        if not seen_separator:
            parts = line.split(None, 1)
            if len(parts) != 2 or (file_id := decimal(parts[0])) is None:
                asm.error(lineno, f"malformed node line: {line!r}")
                continue
            asm.add_node(lineno, file_id, parts[1])
        else:
            parts = line.split(None, 2)
            if (
                len(parts) != 3
                or (src := decimal(parts[0])) is None
                or (dst := decimal(parts[1])) is None
            ):
                asm.error(lineno, f"malformed edge line: {line!r}")
                continue
            asm.add_edge(lineno, src, dst, parts[2])
    if not seen_separator:
        asm.error(0, "missing '#' separator line")
    return asm.build(), asm.diagnostics


def emit_tgf(graph: KnowledgeGraph) -> str:
    """Nodes numbered 1..n in sorted canonical order; edges sorted
    lexicographically; trailing newline."""
    number = graph.number
    lines = [f"{i} {node.canonical}" for i, node in enumerate(graph.nodes, start=1)]
    lines.append("#")
    for e in graph.sorted_edges:
        lines.append(f"{number[e.src] + 1} {number[e.dst] + 1} {e.relation}")
    return "\n".join(lines) + "\n"


# --- XGML --------------------------------------------------------------


# a node or edge block as emitters write it: its fields in order, an ASCII
# [0-9]+ id, a quoted label without escapes
_BLOCK = (
    r'node\s*\[\s*id\s+([0-9]+)\s+label\s*"([^"\\]*)"\s*\]'
    r'|edge\s*\[\s*source\s+([0-9]+)\s+target\s+([0-9]+)\s+label\s*"([^"\\]*)"\s*\]'
)
# a run of such blocks, whitespace after each, then an empty match that ends it
_XGML_RUN = re.compile(rf"(?:{_BLOCK})\s*|()")
# whitespace, then a comment, a bracket, a quoted string (closing quote
# optional), a word or the end: \Z keeps n trailing blanks from costing O(n^2)
_XGML_TOKEN = re.compile(
    r'(\s*)(?:#[^\n]*|([\[\]])|("[^"\\]*(?:\\["\\]?[^"\\]*)*)(")?|([^\s\[\]"#]+)|\Z)'
)


def _xgml_value(word: str):
    """int when ASCII [0-9]+ that int() takes (`ontology.decimal`), else
    float when float() takes it, else str."""
    if (number := decimal(word)) is not None:
        return number
    # float() accepts no all-letter word but inf, nan and infinity
    if not word.isalpha() or word.lower() in ("inf", "nan", "infinity"):
        try:
            return float(word)
        except ValueError:
            pass
    return word


def _xgml_fields(asm: _GraphAssembler, at: int, key: str, entries: list) -> None:
    """Feed a node or edge block of the graph body, as (offset, key, value)
    entries, to the assembler."""
    names = ("id", "label") if key == "node" else ("source", "target", "label")
    fields = []
    for name in names:
        values = [v for _, k, v in entries if k == name]
        if len(values) == 1 and isinstance(values[0], str if name == "label" else int):
            fields.append(values[0])
        else:
            asm.error(at, f"{key} needs exactly one {name}")
    for eat, ekey, _ in entries:
        if ekey not in names:
            asm.warn(eat, f"ignored {key} key {ekey!r}")
    if len(fields) == len(names):
        (asm.add_node if key == "node" else asm.add_edge)(at, *fields)


def parse_xgml(
    text: str, ontology: RelationOntology
) -> tuple[KnowledgeGraph | None, list[Diagnostic]]:
    """Minimal XGML subset: a `graph [...]` block containing `node [ id,
    label ]` and `edge [ source, target, label ]` blocks.  Other keys are
    ignored with a warning.  One scan: a run of blocks of the graph as
    emitters write them is one step, anything else is read token by token.
    Places are offsets, turned into lines only for diagnostics.  Errors in
    the text's structure are listed before those of its graph."""
    counted, counted_line = 0, 1  # the offset line_of counted to, and its line

    def line_of(at: int) -> int:
        """The line of offset `at`, counted from the offset asked before: the
        diagnostics come in a few runs of rising or falling offsets, so
        counting costs a few passes over the text."""
        nonlocal counted, counted_line
        if at >= counted:
            counted_line += text.count("\n", counted, at)
        else:
            counted_line -= text.count("\n", at, counted)
        counted = at
        return counted_line

    def error(at: int, message: str) -> Diagnostic:
        return Diagnostic(ERROR, f"line {line_of(at)}", message)

    asm = _GraphAssembler(ontology, line_of)
    errors: list[Diagnostic] = []
    top: list = []  # (key offset, key, value) per top-level entry
    body: list = []  # entries of the latest top-level graph block, fed to asm; none yet
    entries = top  # of the innermost open block, or None; a block's value is its entries
    stack = []  # (key offset, key, '[' offset, enclosing entries) per open block
    pending = None  # (offset, key) of a key still without its value
    closed = False  # a top-level ']' ended the reading; the rest is only scanned
    pos, end = 0, len(text)

    def complete(kat: int, key: str, value) -> None:
        if entries is None:
            return
        if entries is not body:
            entries.append((kat, key, value))
        elif key in ("node", "edge"):
            if isinstance(value, list):
                _xgml_fields(asm, kat, key, value)
            else:
                asm.error(kat, f"{key} must be a [...] block")
        elif key != "directed":
            asm.warn(kat, f"ignored graph key {key!r}")

    while True:
        m = _XGML_TOKEN.match(text, pos)
        at, pos = m.end(1), m.end()
        _, bracket, quoted, shut, word = m.groups()
        if word in ("node", "edge") and entries is body and pending is None:
            for block in _XGML_RUN.finditer(text, at):
                node, label, src, dst, relation, stop = block.groups()
                try:
                    if node is not None:
                        asm.add_node(block.start(), int(node), label)
                    elif stop is None:
                        asm.add_edge(block.start(), int(src), int(dst), relation)
                    else:
                        break
                except ValueError:  # digits int() refuses: the token path refuses them
                    break
            if block.start() > at:
                pos = block.start()
                continue
        if word:
            value = _xgml_value(word)
        elif quoted:
            at = pos  # a quoted string's line is the line it ends on
            if not shut:  # the text's last token, and its first diagnostic
                errors.insert(0, error(at, "unterminated quoted string"))
            value = re.sub(r'\\(["\\])', r"\1", quoted[1:]) if "\\" in quoted else quoted[1:]
        elif not bracket:  # a comment, or the end
            if pos == end:
                break
            continue
        if closed:
            continue
        if pending:
            (kat, key), pending = pending, None
            if bracket == "[":
                stack.append((kat, key, at, entries))
                if entries is top and key == "graph":
                    entries = body = []
                else:  # of the rest, only the graph's node and edge blocks keep entries
                    entries = [] if entries is body and key in ("node", "edge") else None
            elif bracket:
                errors.append(error(at, f"key {key!r} without a value"))
            else:
                complete(kat, key, value)
        elif bracket == "]":
            if not stack:
                closed = True
                continue
            kat, key, _, parent = stack.pop()
            value, entries = entries, parent
            complete(kat, key, value)
        elif word and isinstance(value, str):
            pending = (at, value)
        else:
            written = "'['" if bracket else _quote(value) if quoted else repr(value)
            errors.append(error(at, f"expected a key, got {written}"))
    if pending:
        kat, key = pending
        errors.append(error(kat, f"key {key!r} without a value"))
    while stack:  # blocks the text never closed, innermost first
        kat, key, bat, parent = stack.pop()
        errors.append(error(bat, "unbalanced brackets"))
        value, entries = entries, parent
        complete(kat, key, value)
    if closed:
        errors.append(Diagnostic(ERROR, "line 0", "unbalanced brackets at top level"))
    errors += [
        Diagnostic(WARNING, f"line {line_of(kat)}", f"ignored top-level key {key!r}")
        for kat, key, _ in top if key != "graph"
    ]
    graphs = [value for _, key, value in top if key == "graph"]
    if len(graphs) != 1 or not isinstance(graphs[0], list):
        errors.append(Diagnostic(ERROR, "line 0", "expected exactly one graph [...] block"))
        return None, errors
    asm.diagnostics[:0] = errors
    return asm.build(), asm.diagnostics


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_xgml(graph: KnowledgeGraph) -> str:
    """Same ordering contract as emit_tgf; node ids start at 0 as graph
    editors emit them."""
    number = graph.number
    lines = ["graph [", "\tdirected 1"]
    for i, node in enumerate(graph.nodes):
        lines += [
            "\tnode [",
            f"\t\tid {i}",
            f"\t\tlabel {_quote(node.canonical)}",
            "\t]",
        ]
    for e in graph.sorted_edges:
        lines += [
            "\tedge [",
            f"\t\tsource {number[e.src]}",
            f"\t\ttarget {number[e.dst]}",
            f"\t\tlabel {_quote(e.relation)}",
            "\t]",
        ]
    lines.append("]")
    return "\n".join(lines) + "\n"


def parse_graph(
    text: str, ontology: RelationOntology, fmt: str
) -> tuple[KnowledgeGraph | None, list[Diagnostic]]:
    if fmt == "tgf":
        return parse_tgf(text, ontology)
    if fmt == "xgml":
        return parse_xgml(text, ontology)
    raise ValueError(f"unknown graph format: {fmt!r}")
