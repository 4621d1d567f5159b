"""Shared test utilities: deterministic random graphs and the independent
reference implementations the optimized code is checked against."""

from __future__ import annotations

import gc
import itertools
import re
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import pytest

from kgbench.formats import ERROR, WARNING, Diagnostic, has_errors, _quote
from kgbench.graph import (
    ENTITY,
    PERSON,
    Edge,
    GraphError,
    KnowledgeGraph,
    NodeId,
    is_variable_name,
)
from kgbench.ontology import (
    RelationOntology,
    canonical_label,
    is_decimal,
    non_xml_char,
)
from kgbench.oracle import Path, PatternTriple, Variable
from kgbench.protocol import (
    CONFIDENTIAL_COMMENT,
    ProtocolError,
    Submission,
    _Decoder,
    _query_type,
    encode_node_ref,
    encode_relation,
)
from kgbench.querygen import ChoiceQuery, FillQuery, PathQuery, Query
from kgbench.rng import SplitMix64

LOCATION = "Location"  # a third node category for random graphs


def random_ontology(rng: SplitMix64, n_pairs: int = 4) -> RelationOntology:
    """n_pairs relation pairs, roughly half symmetric."""
    pairs = {}
    for i in range(n_pairs):
        if rng.randrange(2) == 0:
            r = f"Sym{i} of"
            pairs[r] = r
        else:
            pairs[f"Fwd{i} of"] = f"Rev{i} of"
            pairs[f"Rev{i} of"] = f"Fwd{i} of"
    return RelationOntology(pairs)


def random_graph(
    seed: int,
    max_nodes: int = 10,
    max_edges: int = 18,
    ontology: RelationOntology | None = None,
) -> KnowledgeGraph:
    rng = SplitMix64(seed)
    ontology = ontology or random_ontology(rng)
    n_nodes = 2 + rng.randrange(max_nodes - 1)
    categories = [PERSON, PERSON, ENTITY, LOCATION]
    nodes = [
        NodeId(categories[rng.randrange(len(categories))], f"N{i}")
        for i in range(n_nodes)
    ]
    relations = sorted(ontology.relations)
    edges = []
    for _ in range(rng.randrange(max_edges + 1)):
        a = rng.choice(nodes)
        b = rng.choice(nodes)
        edges.append(Edge(a, rng.choice(relations), b))
    # the edges build rejects (self-loops, restatements) are left out
    return KnowledgeGraph.build(ontology, nodes, edges)[0]


def built(
    ontology: RelationOntology,
    nodes: list[NodeId],
    edges: list[tuple[NodeId, str, NodeId]] = (),
) -> KnowledgeGraph:
    """KnowledgeGraph.build of `nodes` and `edges`, each edge given as a
    (src, relation, dst) triple; every edge must be kept."""
    graph, problems = KnowledgeGraph.build(ontology, nodes, [Edge(*e) for e in edges])
    assert not problems, [str(p) for _, p in problems]
    return graph


def canonical_nodes(graph: KnowledgeGraph) -> list[NodeId]:
    """The graph's nodes by canonical text, the order `graph.nodes` holds."""
    return sorted(graph.nodes, key=lambda n: n.canonical)


def canonical_edge_key(edge: Edge) -> tuple[str, str, str]:
    """The canonical edge order, on text: the order `graph.sorted_edges`
    holds, though it sorts on node numbers."""
    return (edge.src.canonical, edge.relation, edge.dst.canonical)


def reference_build(
    ontology: RelationOntology, nodes: list[NodeId], edges: list[Edge]
) -> tuple[tuple[NodeId, ...], frozenset[Edge], list[tuple[int, bool, str]]]:
    """The specification of KnowledgeGraph.build, one edge at a time: the
    distinct nodes by canonical text, the edges kept, and for each rejected
    edge, in order, its position in `edges`, whether it restates a kept one
    and its message."""
    declared = set(nodes)
    kept: list[Edge] = []
    problems = []
    for position, edge in enumerate(edges):
        src, rel, dst = edge
        if src == dst:
            problems.append((position, False, f"self-loop on {src}"))
        elif src not in declared or dst not in declared:
            unknown = src if src not in declared else dst
            problems.append((position, False, f"unknown endpoint: {unknown}"))
        elif rel not in ontology:
            problems.append((position, False, f"unknown relation: {rel!r}"))
        elif edge in kept:
            problems.append((position, True, f"duplicate edge: {src} -[{rel}]-> {dst}"))
        elif (dst, ontology.inverse_of(rel), src) in kept:
            problems.append((position, True, (
                f"inverse-duplicate edge: {src} -[{rel}]-> {dst} "
                f"restates {dst} -[{ontology.inverse_of(rel)}]-> {src}"
            )))
        else:
            kept.append(edge)
    nodes = tuple(sorted(declared, key=lambda n: n.canonical))
    return nodes, frozenset(kept), problems


def cyclic_garbage(call) -> int:
    """The objects `call()` leaves that only the cycle collector frees: it
    runs with the collector off, and a full collection counts them."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def reference_check_node(category: str, name: str) -> None:
    """The node rule as two steps held it before `NodeId` held all of it:
    the constructor's two checks, then `check_node` on the node it made;
    GraphError with the texts `NodeId` gives."""
    if not category or not name:
        raise GraphError("node category and name must be non-empty")
    if ":" in category:
        raise GraphError(f"node category {category!r} contains ':'")
    node = tuple.__new__(NodeId, (category, name))  # unchecked, as the constructor left it
    if canonical_label(node.category) != node.category or canonical_label(node.name) != node.name:
        raise GraphError(f"node {node.canonical!r} is not trimmed with single spaces")
    if is_variable_name(node.name):
        raise GraphError(f"node {node} is named like a query variable (Unknown_<n>)")
    if char := non_xml_char(node.canonical):
        raise GraphError(f"node {node.canonical!r} contains {char!r}, which XML files cannot carry")


def reference_decode_node_ref(text: str) -> NodeId | Variable:
    """decode_node_ref as it read a text before `NodeId` held the node rule:
    `NodeId.parse`'s checks, then a Variable for an `Unknown_<n>` name and
    otherwise the node, made without the rest of the rule."""
    category, sep, name = text.partition(":")
    if not sep:
        raise ProtocolError(f"node id without a category prefix: {text!r}")
    category, name = canonical_label(category), canonical_label(name)
    if not category or not name:
        raise ProtocolError(f"malformed node id: {text!r}")
    if is_variable_name(name):
        return Variable(name, None if category == "Any" else category)
    return tuple.__new__(NodeId, (category, name))


def reference_sample_connected_edges(
    graph: KnowledgeGraph, rng: SplitMix64, count: int
) -> list[tuple[NodeId, str, NodeId]]:
    """querygen._sample_connected_edges on NodeIds, with the fringe sorted
    as (category, name) tuples: the same draws as the index version on any
    graph where no category is a prefix of another."""
    links = naive_traversal(graph)
    start = rng.choice(canonical_nodes(graph))
    chosen: list[tuple[NodeId, str, NodeId]] = []
    taken: set[tuple[NodeId, str, NodeId]] = set()
    frontier = [start]
    while len(chosen) < count:
        fringe = sorted({link for link in links if link[0] in frontier} - taken)
        if not fringe:
            break
        a, r, b = rng.choice(fringe)
        chosen.append((a, r, b))
        taken.add((a, r, b))
        taken.add((b, graph.ontology.inverse_of(r), a))
        if b not in frontier:
            frontier.append(b)
    return chosen


def naive_traversal(graph: KnowledgeGraph) -> set[tuple[NodeId, str, NodeId]]:
    """Every traversal-view link (src, relation, dst), read from the stored
    edges and the ontology alone: each edge as stored, and reversed under
    its inverse label."""
    links = set()
    for e in graph.edges:
        links.add((e.src, e.relation, e.dst))
        links.add((e.dst, graph.ontology.inverse_of(e.relation), e.src))
    return links


def naive_solve_pattern(graph: KnowledgeGraph, triples: list[PatternTriple]):
    """The specification of the pattern matcher: enumerate every |V|^k
    assignment, keep injective ones under which all triples hold."""
    links = naive_traversal(graph)
    variables = []
    for t in triples:
        for end in (t.subject, t.object):
            if isinstance(end, Variable) and end not in variables:
                if end.name not in [v.name for v in variables]:
                    variables.append(end)
    constants = {
        end for t in triples for end in (t.subject, t.object)
        if isinstance(end, NodeId)
    }
    nodes = canonical_nodes(graph)
    results = set()
    for combo in itertools.product(nodes, repeat=len(variables)):
        if len(set(combo)) != len(combo):
            continue
        if any(node in constants for node in combo):
            continue
        binding = {v.name: node for v, node in zip(variables, combo)}
        if any(
            v.category is not None and binding[v.name].category != v.category
            for v in variables
        ):
            continue

        def resolve(end):
            return binding[end.name] if isinstance(end, Variable) else end

        ok = True
        for t in triples:
            s, o = resolve(t.subject), resolve(t.object)
            if s == o or (s, t.relation, o) not in links:
                ok = False
                break
        if ok:
            results.add(frozenset(binding.items()))
    return results


def reference_enumerate_paths(
    graph: KnowledgeGraph, source: NodeId, target: NodeId, max_edges: int | None
) -> set[Path]:
    """Iterative worklist path enumerator, structured differently from the
    recursive DFS it is compared against."""
    steps: dict[NodeId, list[tuple[str, NodeId]]] = {}
    for a, rel, b in naive_traversal(graph):
        steps.setdefault(a, []).append((rel, b))
    results: set[Path] = set()
    work: list[tuple[tuple[NodeId, ...], tuple[str, ...]]] = [((source,), ())]
    while work:
        nodes, rels = work.pop()
        if max_edges is not None and len(rels) >= max_edges:
            continue
        for rel, other in steps.get(nodes[-1], []):
            if other == target:
                results.add(Path(nodes + (other,), rels + (rel,)))
            elif other not in nodes:
                work.append((nodes + (other,), rels + (rel,)))
    return results


def canonical_bindings(bindings) -> list:
    """Bindings in the order key files list them: by their nodes' canonical
    texts, taken in variable-name order."""
    return sorted(bindings, key=lambda b: [node.canonical for _, node in sorted(b)])


def canonical_paths(paths) -> list[Path]:
    """Paths in the order key files list them: by length, then by the
    canonical texts of the nodes and relations read along the path."""

    def texts(path: Path) -> list[str]:
        names = [node.canonical for node in path.nodes]
        return [text for step in zip(names, path.relations) for text in step] + names[-1:]

    return sorted(paths, key=lambda p: (p.length, texts(p)))


def naive_validate_path(graph: KnowledgeGraph, query: PathQuery, path: Path) -> str | None:
    """The specification of scoring.validate_path: the same checks in the
    same order, each step looked up among naive_traversal's links; the
    first fault found, or None."""
    links = naive_traversal(graph)
    if path.source != query.source:
        return f"source is {path.source}, query asks {query.source}"
    if path.target != query.target:
        return f"target is {path.target}, query asks {query.target}"
    if len(set(path.nodes)) != len(path.nodes):
        return "not simple: a node repeats"
    if path.length > query.max_edges:
        return f"length {path.length} exceeds bound {query.max_edges}"
    for i in range(1, path.length + 1):
        a, rel, b = path.nodes[i - 1], path.relations[i - 1], path.nodes[i]
        for node in (a, b):
            if node not in graph.nodes:
                return f"node {node} not in graph"
        if (a, rel, b) not in links:
            return f"edge {i} ({a} -[{rel}]-> {b}) not in graph"
    return None


# --- the graph readers' assembler and TGF reader before relation texts were
# remembered, places became offsets and build kept edges by set lookups


class ReferenceAssembler:
    """kgbench.formats._GraphAssembler as it was: each place a line, each
    edge's relation text canonicalised and looked up again, and the edges
    judged one at a time by `reference_build`."""

    def __init__(self, ontology: RelationOntology):
        self.ontology = ontology
        self.nodes_by_fileid: dict[int, NodeId] = {}
        self.declared: set[NodeId] = set()
        self.edges: list[Edge] = []
        self.edge_lines: list[int] = []  # the line of each of `edges`
        self.diagnostics: list[Diagnostic] = []

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(ERROR, f"line {line}", message))

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(WARNING, f"line {line}", message))

    def add_node(self, line: int, file_id: int, label: str) -> None:
        if file_id in self.nodes_by_fileid:
            self.error(line, f"duplicate node id {file_id}")
            return
        try:
            node = NodeId.parse(label)
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
            self.error(line, f"relation {relation!r} not in ontology")
            return
        self.edges.append(
            Edge(self.nodes_by_fileid[src_id], relation, self.nodes_by_fileid[dst_id])
        )
        self.edge_lines.append(line)

    def build(self) -> KnowledgeGraph | None:
        if has_errors(self.diagnostics):
            return None
        _, kept, problems = reference_build(self.ontology, list(self.declared), self.edges)
        for position, restates, message in problems:
            if restates:
                self.warn(self.edge_lines[position], f"dropped duplicate edge: {message}")
            else:
                self.error(self.edge_lines[position], message)
        if has_errors(self.diagnostics):
            return None
        graph = KnowledgeGraph(self.ontology, self.declared)
        # the kept edges entered into a set in order, as build does, so that
        # the graph's repr lists them in the same order
        rejected = {position for position, _, _ in problems}
        edges = {e for position, e in enumerate(self.edges) if position not in rejected}
        assert edges == kept
        object.__setattr__(graph, "edges", frozenset(edges))
        return graph


def _tgf_id(text: str) -> int | None:
    """The id an ASCII [0-9]+ text writes; None for other text and for a run
    of more digits than int() takes."""
    if not is_decimal(text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def reference_parse_tgf(
    text: str, ontology: RelationOntology
) -> tuple[KnowledgeGraph | None, list[Diagnostic]]:
    """TGF: `<int> <label>` node lines, one `#` separator line, then
    `<int> <int> <relation>` edge lines.  Labels may contain spaces."""
    asm = ReferenceAssembler(ontology)
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
            file_id = _tgf_id(parts[0]) if len(parts) == 2 else None
            if file_id is None:
                asm.error(lineno, f"malformed node line: {line!r}")
                continue
            asm.add_node(lineno, file_id, parts[1])
        else:
            parts = line.split(None, 2)
            ends = [_tgf_id(part) for part in parts[:2]] if len(parts) == 3 else [None]
            if None in ends:
                asm.error(lineno, f"malformed edge line: {line!r}")
                continue
            asm.add_edge(lineno, *ends, parts[2])
    if not seen_separator:
        asm.error(0, "missing '#' separator line")
    return asm.build(), asm.diagnostics


# --- XGML: the reader kgbench.formats.parse_xgml replaced, kept as its reference


_LBRACKET = object()
_RBRACKET = object()
# whitespace, then a comment, a bracket, a quoted string (closing quote
# optional), a word or the end: \Z keeps n trailing blanks from costing O(n^2)
_XGML_TOKEN = re.compile(
    r'(\s*)(?:#[^\n]*|([\[\]])|("[^"\\]*(?:\\["\\]?[^"\\]*)*)(")?|([^\s\[\]"#]+)|\Z)'
)


def reference_tokenize_xgml(text: str) -> tuple[list[tuple[int, object]], list[Diagnostic]]:
    """Tokens are (line, value): value is '['/']' sentinels, str keys, int
    (ASCII [0-9]+ that int() takes), float, or quoted strings (returned as
    ('str', content)).  A quoted string's line is the line it ends on."""
    tokens: list[tuple[int, object]] = []
    diagnostics: list[Diagnostic] = []
    line = 1
    # finditer, not findall: a list of all matches doubles a load's peak memory
    for match in _XGML_TOKEN.finditer(text):
        space, bracket, quoted, closed, word = match.groups()
        if "\n" in space:  # `line += 0` would give each token its own int
            line += space.count("\n")
        if word:
            if is_decimal(word):
                try:
                    tokens.append((line, int(word)))
                except ValueError:  # more digits than int() takes: inf
                    tokens.append((line, float(word)))
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
                    Diagnostic(ERROR, f"line {line}", "unterminated quoted string")
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


def _parse_xgml_block(tokens, asm: ReferenceAssembler):
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


def reference_parse_xgml(
    text: str, ontology: RelationOntology
) -> tuple[KnowledgeGraph | None, list[Diagnostic]]:
    """Minimal XGML subset: a `graph [...]` block containing `node [ id,
    label ]` and `edge [ source, target, label ]` blocks.  Other keys are
    ignored with a warning."""
    tokens, diagnostics = reference_tokenize_xgml(text)
    asm = ReferenceAssembler(ontology)
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



def naive_tokenize_xgml(text: str):
    """Char-by-char XGML scanner, the reference for
    reference_tokenize_xgml: same (tokens, diagnostics).  A word is an
    int when it is ASCII [0-9]+ that int() takes, else a float when float()
    accepts it, else a str key."""
    tokens = []
    diagnostics = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "[":
            tokens.append((line, _LBRACKET))
            i += 1
        elif c == "]":
            tokens.append((line, _RBRACKET))
            i += 1
        elif c == '"':
            i += 1
            buf = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    i += 2
                elif c == '"':
                    closed = True
                    i += 1
                    break
                else:
                    if c == "\n":
                        line += 1
                    buf.append(c)
                    i += 1
            if not closed:
                diagnostics.append(
                    Diagnostic(ERROR, f"line {line}", "unterminated quoted string")
                )
            tokens.append((line, ("str", "".join(buf))))
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '[]"#':
                j += 1
            word = text[i:j]
            i = j
            if word.isascii() and word.isdigit():
                try:
                    tokens.append((line, int(word)))
                    continue
                except ValueError:  # more digits than int() takes
                    pass
            try:
                tokens.append((line, float(word)))
            except ValueError:
                tokens.append((line, word))
    return tokens, diagnostics


# --- the ElementTree emitter, the reference for kgbench.protocol's writer ---


def _reference_document(root: ET.Element, header_comment: str | None = None) -> str:
    ET.indent(root)
    body = ET.tostring(root, encoding="unicode")
    header = '<?xml version="1.0" encoding="UTF-8"?>\n'
    if header_comment:
        header += f"<!-- {header_comment} -->\n"
    return header + body + "\n"


def _reference_path(path: Path, index: int) -> ET.Element:
    el = ET.Element("Path", {"index": str(index)})
    ET.SubElement(el, "Source").text = path.source.canonical
    for rel, node in zip(path.relations[:-1], path.nodes[1:-1]):
        ET.SubElement(el, "Edge").text = encode_relation(rel)
        ET.SubElement(el, "Node").text = node.canonical
    ET.SubElement(el, "Edge").text = encode_relation(path.relations[-1])
    ET.SubElement(el, "Target").text = path.target.canonical
    return el


def _reference_query(qel: ET.Element, q: Query, keyed: bool) -> None:
    if isinstance(q, FillQuery):
        for t in q.triples:
            tel = ET.SubElement(qel, "Triple")
            ET.SubElement(tel, "Subject").text = encode_node_ref(t.subject)
            ET.SubElement(tel, "Pred").text = encode_relation(t.relation)
            ET.SubElement(tel, "Object").text = encode_node_ref(t.object)
        if not keyed:
            return
        for i, binding in enumerate(q.key, start=1):
            bel = ET.SubElement(qel, "Binding", {"index": str(i)})
            for name, node in sorted(binding):
                ET.SubElement(bel, "Var", {"name": name}).text = node.canonical
    elif isinstance(q, ChoiceQuery):
        ET.SubElement(qel, "Subject").text = q.subject.canonical
        ET.SubElement(qel, "Pred").text = "Relation:Unknown_1"
        ET.SubElement(qel, "Object").text = q.object.canonical
        for i, option in enumerate(q.options, start=1):
            ET.SubElement(qel, "Option", {"index": str(i)}).text = encode_relation(option)
        if keyed:
            cel = ET.SubElement(qel, "Correct", {"index": str(q.key + 1)})
            cel.text = encode_relation(q.options[q.key])
    else:
        qel.set("max_edges", str(q.max_edges))
        ET.SubElement(qel, "Source").text = q.source.canonical
        ET.SubElement(qel, "Target").text = q.target.canonical
        if not keyed:
            return
        for i, path in enumerate(q.key, start=1):
            qel.append(_reference_path(path, i))


def reference_emit_document(
    queries: list[Query], keyed: bool, params: dict[str, str] | None = None
) -> str:
    """A query file, or with `keyed` a key file, as ElementTree writes it."""
    root_tag = "Q" + _query_type(queries).letter + ("Key" if keyed else "")
    root = ET.Element(root_tag, dict(sorted((params or {}).items())))
    for q in queries:
        _reference_query(ET.SubElement(root, "Query", {"id": q.id}), q, keyed)
    return _reference_document(root, CONFIDENTIAL_COMMENT if keyed else None)


def reference_emit_submission(sub: Submission) -> str:
    """A submission file as ElementTree writes it."""
    root = ET.Element("Q" + sub.kind.letter, {"team": sub.team})
    for qid in sorted(sub.answers):
        qel = ET.SubElement(root, "Query", {"id": qid})
        if sub.kind is FillQuery:
            for var in sorted(sub.answers[qid]):
                for rank, (node, conf) in enumerate(sub.answers[qid][var], start=1):
                    text = repr(float(conf)).removesuffix(".0")
                    attrs = {"var": var, "rank": str(rank), "confidence": text}
                    ET.SubElement(qel, "Answer", attrs).text = node.canonical
        elif sub.kind is ChoiceQuery:
            ET.SubElement(qel, "Answer").text = encode_relation(sub.answers[qid])
        else:
            for i, path in enumerate(sub.answers[qid], start=1):
                qel.append(_reference_path(path, i))
    return _reference_document(root)


def reference_parse_path_element(el: ET.Element, decoded: _Decoder) -> Path:
    """A submitted or keyed `Path` element read in several passes: the tags
    against the expected list, then the nodes, then the relations."""
    children = list(el)
    if len(children) < 3 or len(children) % 2 == 0:
        raise ProtocolError("path must alternate Source/Edge/Node/.../Target")
    inner = (len(children) - 3) // 2
    expected = ["Source"] + ["Edge", "Node"] * inner + ["Edge", "Target"]
    tags = [c.tag for c in children]
    if tags != expected:
        raise ProtocolError(
            f"path elements out of order: got {tags}, expected {expected}"
        )
    for c in children:
        if len(c):
            raise ProtocolError(f"<{c.tag}> holds an element")
    nodes = [decoded.node[c.text or ""] for c in children if c.tag != "Edge"]
    relations = [decoded.relation[c.text or ""] for c in children if c.tag == "Edge"]
    return Path(tuple(nodes), tuple(relations))


@contextmanager
def int_digits(limit: int):
    """`int()` held to at most `limit` digits (640 at the least) while the
    block runs; the test is skipped on a Python that has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int() digits to set")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
