"""Shared test utilities: deterministic random graphs and the independent
reference implementations the optimized code is checked against."""

from __future__ import annotations

import itertools

from kgbench.formats import _LBRACKET, _RBRACKET, ERROR, ParseDiagnostic
from kgbench.graph import ENTITY, LOCATION, PERSON, GraphError, KnowledgeGraph, NodeId
from kgbench.ontology import RelationOntology
from kgbench.oracle import Path, PatternTriple, Variable
from kgbench.rng import SplitMix64


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
    graph = KnowledgeGraph(ontology)
    for node in nodes:
        graph = graph.add_node(node)
    relations = sorted(ontology.relations)
    for _ in range(rng.randrange(max_edges + 1)):
        a = rng.choice(nodes)
        b = rng.choice(nodes)
        r = rng.choice(relations)
        if a == b:
            continue
        try:
            graph = graph.add_edge(a, r, b)
        except GraphError:
            pass
    return graph


def naive_solve_pattern(graph: KnowledgeGraph, triples: list[PatternTriple]):
    """The specification of the pattern matcher: enumerate every |V|^k
    assignment, keep injective ones under which all triples hold."""
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
    nodes = graph.sorted_nodes()
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
            if s == o or not graph.has_link(s, t.relation, o):
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
    results: set[Path] = set()
    work: list[tuple[tuple[NodeId, ...], tuple[str, ...]]] = [((source,), ())]
    while work:
        nodes, rels = work.pop()
        if max_edges is not None and len(rels) >= max_edges:
            continue
        for other, rel in graph.neighbors(nodes[-1]):
            if other == target:
                results.add(Path(nodes + (other,), rels + (rel,)))
            elif other not in nodes:
                work.append((nodes + (other,), rels + (rel,)))
    return results


def naive_tokenize_xgml(text: str):
    """Char-by-char XGML scanner, the reference for
    kgbench.formats._tokenize_xgml: same (tokens, diagnostics).  A word is an
    int when it is ASCII [0-9]+, else a float when float() accepts it, else
    a str key."""
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
                    ParseDiagnostic(ERROR, line, "unterminated quoted string")
                )
            tokens.append((line, ("str", "".join(buf))))
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '[]"#':
                j += 1
            word = text[i:j]
            i = j
            if word.isascii() and word.isdigit():
                tokens.append((line, int(word)))
                continue
            try:
                tokens.append((line, float(word)))
            except ValueError:
                tokens.append((line, word))
    return tokens, diagnostics
