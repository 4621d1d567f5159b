"""Knowledge-graph data model: typed nodes, directed labeled edges, and the
bidirectional traversal view.

Each semantic link is stored once, in one chosen direction; traversal
exposes the reverse direction under the inverse relation label.  Graphs are
immutable values: `build` makes one from node and edge lists in one pass, and
the add_* methods return new graphs.

The traversal view lives in one index per graph, built in one pass over the
edges the first time a caller traverses.  It numbers the nodes in canonical
order, so the searches in `oracle` and `scoring` run on ints and integer
order is canonical order.  It holds, per node, the sorted row of
(other, relation) links, and per (node, relation) the set of nodes reached,
which answers `has_link` and `degree_by_relation` with one lookup.  The rows
as NodeIds, which `neighbors` returns, are made once, at its first call.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property

from .ontology import XML_CHAR_RULE, RelationOntology, canonical_label, non_xml_char

PERSON = "Person"
ENTITY = "Entity"
LOCATION = "Location"
VARIABLE_PREFIX = "Unknown_"
# query files read a node of this name back as a variable
VARIABLE_RULE = "node {} is named like a query variable (Unknown_<n>)"


class GraphError(ValueError):
    pass


class DuplicateEdgeError(GraphError):
    """An edge, or its inverse-direction restatement, is already stored."""


def is_variable_name(name: str) -> bool:
    """`Unknown_` followed by ASCII [0-9]+."""
    suffix = name[len(VARIABLE_PREFIX):]
    return name.startswith(VARIABLE_PREFIX) and suffix.isascii() and suffix.isdigit()


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


@dataclass(frozen=True, order=True)
class Edge:
    src: NodeId
    relation: str
    dst: NodeId


@dataclass(frozen=True, eq=False)
class TraversalIndex:
    """The traversal view with nodes numbered in canonical order, so that
    search runs on ints: node i is `nodes[i]`, and sorting numbers sorts
    canonical ids.  Read-only; built by `KnowledgeGraph.index`."""

    nodes: tuple[NodeId, ...]
    number: dict[NodeId, int]
    # rows[i]: (other, relation-as-traversed) for each link of node i,
    # sorted, which is the neighbors() order
    rows: tuple[tuple[tuple[int, str], ...], ...]
    # (i, relation) -> the nodes node i reaches via relation
    links: dict[tuple[int, str], set[int]]

    @cached_property
    def neighbors(self) -> dict[NodeId, tuple[tuple[NodeId, str], ...]]:
        """The rows as NodeIds, which `KnowledgeGraph.neighbors` returns;
        made at its first call, since the searches never need them."""
        nodes = self.nodes
        return {node: tuple([(nodes[i], r) for i, r in row]) for node, row in zip(nodes, self.rows)}


@dataclass(frozen=True)
class KnowledgeGraph:
    ontology: RelationOntology
    nodes: frozenset[NodeId] = frozenset()
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        for node in self.nodes:
            if is_variable_name(node.name):
                raise GraphError(VARIABLE_RULE.format(node))
            if char := non_xml_char(node.canonical):
                raise GraphError(XML_CHAR_RULE.format(f"node {node.canonical!r}", char))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @classmethod
    def build(
        cls, ontology: RelationOntology, nodes: Iterable[NodeId], edges: Iterable[Edge]
    ) -> tuple[KnowledgeGraph, list[GraphError]]:
        """The graph of `nodes` and of each edge that `add_edge`, applied in
        order, would accept; plus one GraphError per rejected edge, in order."""
        graph = cls(ontology, frozenset(nodes))
        kept: set[Edge] = set()
        problems: list[GraphError] = []
        for edge in edges:
            try:
                graph._check_edge(edge, kept)
            except GraphError as exc:
                problems.append(exc)
            else:
                kept.add(edge)
        # set on the graph made above, so its nodes are checked once, not again
        object.__setattr__(graph, "edges", frozenset(kept))
        return graph, problems

    def add_node(self, node: NodeId) -> "KnowledgeGraph":
        """Idempotent; returns a new graph with the node present."""
        if node in self.nodes:
            return self
        return replace(self, nodes=self.nodes | {node})

    def add_edge(self, src: NodeId, relation: str, dst: NodeId) -> "KnowledgeGraph":
        """Add a stored directed edge.  Rejects self-loops, unknown endpoints
        or relations, and duplicates (including the inverse-direction
        restatement of an existing edge)."""
        edge = Edge(src, relation, dst)
        self._check_edge(edge, self.edges)
        return replace(self, edges=self.edges | {edge})

    def _check_edge(self, edge: Edge, edges: set[Edge] | frozenset[Edge]) -> None:
        """Raise GraphError unless `edge` may join `edges` in this graph."""
        src, relation, dst = edge.src, edge.relation, edge.dst
        if src == dst:
            raise GraphError(f"self-loop on {src}")
        if src not in self.nodes:
            raise GraphError(f"unknown endpoint: {src}")
        if dst not in self.nodes:
            raise GraphError(f"unknown endpoint: {dst}")
        if relation not in self.ontology:
            raise GraphError(f"unknown relation: {relation!r}")
        if edge in edges:
            raise DuplicateEdgeError(f"duplicate edge: {src} -[{relation}]-> {dst}")
        inverse = Edge(dst, self.ontology.inverse_of(relation), src)
        if inverse in edges:
            raise DuplicateEdgeError(
                f"inverse-duplicate edge: {src} -[{relation}]-> {dst} "
                f"restates {inverse.src} -[{inverse.relation}]-> {inverse.dst}"
            )

    @cached_property
    def index(self) -> TraversalIndex:
        """The traversal index, built at first use and kept for the graph's
        life; building it is left out of `build`, since not every command
        traverses."""
        nodes = self.sorted_nodes()
        number = {node: i for i, node in enumerate(nodes)}
        inverse = self.ontology.inverse
        rows: list[list[tuple[int, str]]] = [[] for _ in nodes]
        links: dict[tuple[int, str], set[int]] = {}
        for edge in self.edges:
            src, dst, relation = number[edge.src], number[edge.dst], edge.relation
            back = inverse[relation]
            rows[src].append((dst, relation))
            rows[dst].append((src, back))
            links.setdefault((src, relation), set()).add(dst)
            links.setdefault((dst, back), set()).add(src)
        for row in rows:
            row.sort()
        return TraversalIndex(nodes, number, tuple(map(tuple, rows)), links)

    def _number(self, node: NodeId) -> int:
        try:
            return self.index.number[node]
        except KeyError:
            raise GraphError(f"unknown node: {node}") from None

    def neighbors(self, node: NodeId) -> tuple[tuple[NodeId, str], ...]:
        """Traversal-view neighbors of `node` as (other, relation-as-traversed)
        pairs, sorted by canonical id then relation."""
        try:
            return self.index.neighbors[node]
        except KeyError:
            raise GraphError(f"unknown node: {node}") from None

    def has_link(self, src: NodeId, relation: str, dst: NodeId) -> bool:
        """True iff (src, relation, dst) is a traversal-view edge."""
        if relation not in self.ontology:
            raise GraphError(f"unknown relation: {relation!r}")
        index = self.index
        return index.number.get(dst) in index.links.get((self._number(src), relation), ())

    def degree_by_relation(self, node: NodeId, relation: str) -> int:
        """Number of traversal-view neighbors reached from `node` via
        `relation`."""
        if relation not in self.ontology:
            raise GraphError(f"unknown relation: {relation!r}")
        return len(self.index.links.get((self._number(node), relation), ()))

    @cached_property
    def _sorted_nodes(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.nodes, key=lambda n: n.canonical))

    @cached_property
    def _sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(
            sorted(
                self.edges,
                key=lambda e: (e.src.canonical, e.relation, e.dst.canonical),
            )
        )

    def sorted_nodes(self) -> tuple[NodeId, ...]:
        """Nodes by canonical id, sorted once per graph."""
        return self._sorted_nodes

    def sorted_edges(self) -> tuple[Edge, ...]:
        """Edges by canonical (source, relation, target), sorted once per graph."""
        return self._sorted_edges
