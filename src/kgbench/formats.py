"""Readers and writers for the two graph interchange formats: TGF (line
oriented) and XGML (GML-style bracketed key/value blocks).

Both parsers are total: they never raise on arbitrary input text but return
``(graph-or-None, diagnostics)``.  Error diagnostics mean no graph is
returned; warnings accompany a returned graph.  The name rules live in the
types (`check_node`, `check_label`); the parsers only add a line number to
their errors.  Both emitters are deterministic, and every graph that can be
constructed round-trips exactly through their parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import DuplicateEdgeError, Edge, GraphError, KnowledgeGraph, NodeId, check_node
from .ontology import OntologyError, RelationOntology, canonical_label, is_decimal

WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: line {self.line}: {self.message}"


def has_errors(diagnostics: list[ParseDiagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


class _GraphAssembler:
    """Shared semantic layer: numeric file-local ids -> canonical NodeIds,
    duplicate-direction tolerance, unknown-relation policy."""

    def __init__(self, ontology: RelationOntology, allow_new_relations: bool):
        self.ontology = ontology
        self.allow_new_relations = allow_new_relations
        self.nodes_by_fileid: dict[int, NodeId] = {}
        self.declared: set[NodeId] = set()
        self.edges: list[Edge] = []
        self.diagnostics: list[ParseDiagnostic] = []

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(ERROR, line, message))

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(WARNING, line, message))

    def add_node(self, line: int, file_id: int, label: str) -> None:
        if file_id in self.nodes_by_fileid:
            self.error(line, f"duplicate node id {file_id}")
            return
        try:
            node = NodeId.parse(label)
            check_node(node)
        except GraphError as exc:
            self.error(line, str(exc))
            return
        if node in self.declared:
            self.warn(line, f"node {node} declared more than once; merged")
        self.declared.add(node)
        self.nodes_by_fileid[file_id] = node

    def add_edge(self, line: int, src_id: int, dst_id: int, relation: str) -> None:
        relation = canonical_label(relation)
        if src_id not in self.nodes_by_fileid:
            self.error(line, f"edge references undeclared node id {src_id}")
            return
        if dst_id not in self.nodes_by_fileid:
            self.error(line, f"edge references undeclared node id {dst_id}")
            return
        if relation not in self.ontology:
            if not self.allow_new_relations:
                self.error(line, f"relation {relation!r} not in ontology")
                return
            try:
                self.ontology = self.ontology.extended(relation, relation)
            except OntologyError as exc:
                self.error(line, str(exc))
                return
            self.warn(line, f"relation {relation!r} not in ontology; assumed self-inverse")
        self.edges.append(
            Edge(self.nodes_by_fileid[src_id], relation, self.nodes_by_fileid[dst_id])
        )

    def build(self) -> KnowledgeGraph | None:
        if has_errors(self.diagnostics):
            return None
        graph, problems = KnowledgeGraph.build(self.ontology, self.declared, self.edges)
        for exc in problems:
            if isinstance(exc, DuplicateEdgeError):
                self.warn(0, f"dropped duplicate edge: {exc}")
            else:
                self.error(0, str(exc))
        if has_errors(self.diagnostics):
            return None
        return graph


# --- TGF ---------------------------------------------------------------


def parse_tgf(
    text: str,
    ontology: RelationOntology,
    allow_new_relations: bool = False,
) -> tuple[KnowledgeGraph | None, list[ParseDiagnostic]]:
    """TGF: `<int> <label>` node lines, one `#` separator line, then
    `<int> <int> <relation>` edge lines.  Labels may contain spaces."""
    asm = _GraphAssembler(ontology, allow_new_relations)
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
        parts = line.split(None, 1)
        if not seen_separator:
            if len(parts) != 2 or not is_decimal(parts[0]):
                asm.error(lineno, f"malformed node line: {line!r}")
                continue
            asm.add_node(lineno, int(parts[0]), parts[1])
        else:
            parts = line.split(None, 2)
            if (
                len(parts) != 3
                or not is_decimal(parts[0])
                or not is_decimal(parts[1])
            ):
                asm.error(lineno, f"malformed edge line: {line!r}")
                continue
            asm.add_edge(lineno, int(parts[0]), int(parts[1]), parts[2])
    if not seen_separator:
        asm.error(0, "missing '#' separator line")
    return asm.build(), asm.diagnostics


def emit_tgf(graph: KnowledgeGraph) -> str:
    """Nodes numbered 1..n in sorted canonical order; edges sorted
    lexicographically; trailing newline."""
    nodes = graph.sorted_nodes()
    ids = {node: i for i, node in enumerate(nodes, start=1)}
    lines = [f"{ids[node]} {node.canonical}" for node in nodes]
    lines.append("#")
    for e in graph.sorted_edges():
        lines.append(f"{ids[e.src]} {ids[e.dst]} {e.relation}")
    return "\n".join(lines) + "\n"


# --- XGML --------------------------------------------------------------


_LBRACKET = object()
_RBRACKET = object()
# whitespace, then a comment, a bracket, a quoted string (closing quote
# optional), a word or the end: \Z keeps n trailing blanks from costing O(n^2)
_XGML_TOKEN = re.compile(
    r'(\s*)(?:#[^\n]*|([\[\]])|("[^"\\]*(?:\\["\\]?[^"\\]*)*)(")?|([^\s\[\]"#]+)|\Z)'
)


def _tokenize_xgml(text: str) -> tuple[list[tuple[int, object]], list[ParseDiagnostic]]:
    """Tokens are (line, value): value is '['/']' sentinels, str keys, int
    (ASCII [0-9]+ only), float, or quoted strings (returned as ('str',
    content)).  A quoted string's line is the line it ends on."""
    tokens: list[tuple[int, object]] = []
    diagnostics: list[ParseDiagnostic] = []
    line = 1
    # finditer, not findall: a list of all matches doubles a load's peak memory
    for match in _XGML_TOKEN.finditer(text):
        space, bracket, quoted, closed, word = match.groups()
        if "\n" in space:  # `line += 0` would give each token its own int
            line += space.count("\n")
        if word:
            if is_decimal(word):
                tokens.append((line, int(word)))
            # float() accepts no all-letter word but inf, nan and infinity
            elif not word.isalpha() or word.lower() in ("inf", "nan", "infinity"):
                try:
                    tokens.append((line, float(word)))
                except ValueError:
                    tokens.append((line, word))
            else:
                tokens.append((line, word))
        elif bracket:
            tokens.append((line, _LBRACKET if bracket == "[" else _RBRACKET))
        elif quoted:
            if "\n" in quoted:
                line += quoted.count("\n")
            if not closed:
                diagnostics.append(
                    ParseDiagnostic(ERROR, line, "unterminated quoted string")
                )
            if "\\" in quoted:
                quoted = re.sub(r'\\(["\\])', r"\1", quoted)
            tokens.append((line, ("str", quoted[1:])))
    return tokens, diagnostics


def _as_written(tok) -> str:
    """A token that is not a key, as the text shows it: '[', "quoted", 3.0."""
    if tok is _LBRACKET:
        return "'['"
    return _quote(tok[1]) if isinstance(tok, tuple) else repr(tok)


def _parse_xgml_block(tokens, asm: _GraphAssembler):
    """Parse the top-level `key value` list until a top-level ']' or the end;
    returns (entries, closed).  Entries are (line, key, value) where value
    may be a nested list.  Open blocks live on an explicit stack, so nesting
    depth is not bounded by the recursion limit."""
    entries = []
    stack = []  # (enclosing entries, key line, key, '[' line) per open block
    pos, n = 0, len(tokens)
    while pos < n:
        line, tok = tokens[pos]
        pos += 1
        if tok is _RBRACKET:
            if not stack:
                return entries, True
            parent, kline, key, _ = stack.pop()
            parent.append((kline, key, entries))
            entries = parent
            continue
        if not isinstance(tok, str):
            asm.error(line, f"expected a key, got {_as_written(tok)}")
            continue
        if pos >= n:
            asm.error(line, f"key {tok!r} without a value")
            break
        vline, vtok = tokens[pos]
        pos += 1
        if vtok is _LBRACKET:
            stack.append((entries, line, tok, vline))
            entries = []
        elif vtok is _RBRACKET:
            asm.error(vline, f"key {tok!r} without a value")
        else:
            entries.append((line, tok, vtok[1] if isinstance(vtok, tuple) else vtok))
    while stack:  # blocks the text never closed, innermost first
        parent, kline, key, vline = stack.pop()
        asm.error(vline, "unbalanced brackets")
        parent.append((kline, key, entries))
        entries = parent
    return entries, False


def parse_xgml(
    text: str,
    ontology: RelationOntology,
    allow_new_relations: bool = False,
) -> tuple[KnowledgeGraph | None, list[ParseDiagnostic]]:
    """Minimal XGML subset: a `graph [...]` block containing `node [ id,
    label ]` and `edge [ source, target, label ]` blocks.  Other keys are
    ignored with a warning."""
    tokens, diagnostics = _tokenize_xgml(text)
    asm = _GraphAssembler(ontology, allow_new_relations)
    asm.diagnostics.extend(diagnostics)
    top, closed = _parse_xgml_block(tokens, asm)
    if closed:
        asm.error(0, "unbalanced brackets at top level")
    graph_blocks = [(ln, v) for ln, k, v in top if k == "graph"]
    for ln, k, _ in top:
        if k != "graph":
            asm.warn(ln, f"ignored top-level key {k!r}")
    if len(graph_blocks) != 1 or not isinstance(graph_blocks[0][1], list):
        asm.error(0, "expected exactly one graph [...] block")
        return None, asm.diagnostics
    _, body = graph_blocks[0]

    def scalar(entries, key, kind, line, where):
        values = [v for _, k, v in entries if k == key]
        if len(values) != 1 or not isinstance(values[0], kind):
            asm.error(line, f"{where} needs exactly one {key}")
            return None
        return values[0]

    for line, key, value in body:
        if key == "node":
            if not isinstance(value, list):
                asm.error(line, "node must be a [...] block")
                continue
            node_id = scalar(value, "id", int, line, "node")
            label = scalar(value, "label", str, line, "node")
            for eline, ekey, _ in value:
                if ekey not in ("id", "label"):
                    asm.warn(eline, f"ignored node key {ekey!r}")
            if node_id is not None and label is not None:
                asm.add_node(line, node_id, label)
        elif key == "edge":
            if not isinstance(value, list):
                asm.error(line, "edge must be a [...] block")
                continue
            src = scalar(value, "source", int, line, "edge")
            dst = scalar(value, "target", int, line, "edge")
            label = scalar(value, "label", str, line, "edge")
            for eline, ekey, _ in value:
                if ekey not in ("source", "target", "label"):
                    asm.warn(eline, f"ignored edge key {ekey!r}")
            if src is not None and dst is not None and label is not None:
                asm.add_edge(line, src, dst, label)
        elif key == "directed":
            continue
        else:
            asm.warn(line, f"ignored graph key {key!r}")
    return asm.build(), asm.diagnostics


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_xgml(graph: KnowledgeGraph) -> str:
    """Same ordering contract as emit_tgf; node ids start at 0 as graph
    editors emit them."""
    nodes = graph.sorted_nodes()
    ids = {node: i for i, node in enumerate(nodes)}
    lines = ["graph [", "\tdirected 1"]
    for node in nodes:
        lines += [
            "\tnode [",
            f"\t\tid {ids[node]}",
            f"\t\tlabel {_quote(node.canonical)}",
            "\t]",
        ]
    for e in graph.sorted_edges():
        lines += [
            "\tedge [",
            f"\t\tsource {ids[e.src]}",
            f"\t\ttarget {ids[e.dst]}",
            f"\t\tlabel {_quote(e.relation)}",
            "\t]",
        ]
    lines.append("]")
    return "\n".join(lines) + "\n"


def parse_graph(
    text: str,
    ontology: RelationOntology,
    fmt: str,
    allow_new_relations: bool = False,
) -> tuple[KnowledgeGraph | None, list[ParseDiagnostic]]:
    if fmt == "tgf":
        return parse_tgf(text, ontology, allow_new_relations)
    if fmt == "xgml":
        return parse_xgml(text, ontology, allow_new_relations)
    raise ValueError(f"unknown graph format: {fmt!r}")
