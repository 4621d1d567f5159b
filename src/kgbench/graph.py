"""Knowledge-graph data model: typed nodes, directed labeled edges, and the
bidirectional traversal view.

Each semantic link is stored once, in one chosen direction; traversal
exposes the reverse direction under the inverse relation label.  Graphs are
immutable values: the add_* methods return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .ontology import RelationOntology, canonical_label

PERSON = "Person"
ENTITY = "Entity"
LOCATION = "Location"
RESERVED_CATEGORIES = (PERSON, ENTITY, LOCATION)


class GraphError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class NodeId:
    """Typed node identity; canonical rendering is "<Category>:<name>"."""

    category: str
    name: str

    def __post_init__(self):
        if not self.category or not self.name:
            raise GraphError("node category and name must be non-empty")

    @property
    def canonical(self) -> str:
        return f"{self.category}:{self.name}"

    def __str__(self) -> str:
        return self.canonical

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        """Split at the first ':'; the name may itself contain colons."""
        category, sep, name = text.partition(":")
        if not sep:
            raise GraphError(f"node id without a category prefix: {text!r}")
        category = canonical_label(category)
        name = canonical_label(name)
        if not category or not name:
            raise GraphError(f"malformed node id: {text!r}")
        return cls(category, name)


def person(name: str) -> NodeId:
    return NodeId(PERSON, name)


def entity(name: str) -> NodeId:
    return NodeId(ENTITY, name)


def location(name: str) -> NodeId:
    return NodeId(LOCATION, name)


@dataclass(frozen=True, order=True)
class Edge:
    src: NodeId
    relation: str
    dst: NodeId


@dataclass(frozen=True)
class KnowledgeGraph:
    ontology: RelationOntology
    nodes: frozenset[NodeId] = frozenset()
    edges: frozenset[Edge] = frozenset()

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def add_node(self, node: NodeId) -> "KnowledgeGraph":
        """Idempotent; returns a new graph with the node present."""
        if node in self.nodes:
            return self
        return replace(self, nodes=self.nodes | {node})

    def add_edge(self, src: NodeId, relation: str, dst: NodeId) -> "KnowledgeGraph":
        """Add a stored directed edge.  Rejects self-loops, unknown endpoints
        or relations, and duplicates (including the inverse-direction
        restatement of an existing edge)."""
        if src == dst:
            raise GraphError(f"self-loop on {src}")
        if src not in self.nodes:
            raise GraphError(f"unknown endpoint: {src}")
        if dst not in self.nodes:
            raise GraphError(f"unknown endpoint: {dst}")
        if relation not in self.ontology:
            raise GraphError(f"unknown relation: {relation!r}")
        edge = Edge(src, relation, dst)
        if edge in self.edges:
            raise GraphError(f"duplicate edge: {src} -[{relation}]-> {dst}")
        inverse = Edge(dst, self.ontology.inverse_of(relation), src)
        if inverse in self.edges:
            raise GraphError(
                f"inverse-duplicate edge: {src} -[{relation}]-> {dst} "
                f"restates {inverse.src} -[{inverse.relation}]-> {inverse.dst}"
            )
        return replace(self, edges=self.edges | {edge})

    @cached_property
    def _adjacency(self) -> dict[NodeId, tuple[tuple[NodeId, str], ...]]:
        adj: dict[NodeId, list[tuple[NodeId, str]]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.src].append((e.dst, e.relation))
            adj[e.dst].append((e.src, self.ontology.inverse_of(e.relation)))
        return {
            n: tuple(sorted(pairs, key=lambda p: (p[0].canonical, p[1])))
            for n, pairs in adj.items()
        }

    def neighbors(self, node: NodeId) -> tuple[tuple[NodeId, str], ...]:
        """Traversal-view neighbors of `node` as (other, relation-as-traversed)
        pairs, sorted by canonical id then relation."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise GraphError(f"unknown node: {node}") from None

    def has_link(self, src: NodeId, relation: str, dst: NodeId) -> bool:
        """True iff (src, relation, dst) is a traversal-view edge."""
        if relation not in self.ontology:
            raise GraphError(f"unknown relation: {relation!r}")
        return (dst, relation) in self.neighbors(src)

    def degree_by_relation(self, node: NodeId, relation: str) -> int:
        """Number of traversal-view neighbors reached from `node` via
        `relation`."""
        if relation not in self.ontology:
            raise GraphError(f"unknown relation: {relation!r}")
        return sum(1 for _, r in self.neighbors(node) if r == relation)

    def sorted_nodes(self) -> list[NodeId]:
        return sorted(self.nodes, key=lambda n: n.canonical)

    def sorted_edges(self) -> list[Edge]:
        return sorted(
            self.edges, key=lambda e: (e.src.canonical, e.relation, e.dst.canonical)
        )
