"""Knowledge-graph data model: typed nodes, directed labeled edges, and the
bidirectional traversal view.

Each semantic link is stored once, in one chosen direction; traversal
exposes the reverse direction under the inverse relation label.  Graphs are
immutable values, made by `build` from node and edge lists in one pass.
`NodeId` and `Edge` are tuples, so hashing and equality run in C wherever a
node or an edge enters a set or a dict.

A graph numbers its nodes once, when it is made: `nodes` is the tuple of
its distinct NodeIds in canonical-text order, and `number` maps each node to
its position.  Integer order is therefore canonical order, the one node
order, and the searches in `oracle` and `querygen` run on ints.  The texts
made to sort the nodes are kept too: `by_text` maps each node's canonical
text to the node, so a reader of a query, key or submission file takes a
graph node from it instead of parsing its text again.

Membership reads the edge set itself: a traversal-view step is an edge
stored as given, or stored in reverse under the inverse label (`holds`).
Only a search builds the traversal view, at its first use, and keeps it for
the graph's life: `rows`, per node number the row of (other, relation)
links, which the path search, the pattern solver, the fill sampler and
`stats` walk.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .ontology import XML_CHAR_RULE, RelationOntology, canonical_label, is_decimal, non_xml_char

PERSON = "Person"
ENTITY = "Entity"
VARIABLE_PREFIX = "Unknown_"


class GraphError(ValueError):
    pass


class DuplicateEdgeError(GraphError):
    """An edge, or its inverse-direction restatement, is already stored."""


def is_variable_name(name: str) -> bool:
    """`Unknown_` followed by ASCII [0-9]+."""
    return name.startswith(VARIABLE_PREFIX) and is_decimal(name[len(VARIABLE_PREFIX):])


class _NodeFields(NamedTuple):
    category: str
    name: str


class NodeId(_NodeFields):
    """Typed node identity; canonical rendering is "<Category>:<name>".

    A tuple subclass: a NodeId equals, and hashes as, its `(category, name)`
    tuple, and unpacks as one.  Graphs hold only NodeIds (`build` refuses
    anything else), and nodes are ordered by canonical text, never by
    tuple comparison.

    The constructor holds the one node rule, so no NodeId exists unchecked:
    both fields non-empty and trimmed with single spaces (readers collapse
    whitespace), no ':' in the category (so the canonical text names one
    node and `parse` reads it back), a name that is not `Unknown_<n>` (a
    query variable) and text XML can carry; else GraphError."""

    __slots__ = ()

    def __new__(cls, category: str, name: str) -> "NodeId":
        if not category or not name:
            raise GraphError("node category and name must be non-empty")
        if ":" in category:
            raise GraphError(f"node category {category!r} contains ':'")
        text = f"{category}:{name}"
        if canonical_label(category) != category or canonical_label(name) != name:
            raise GraphError(f"node {text!r} is not trimmed with single spaces")
        if is_variable_name(name):
            raise GraphError(f"node {text} is named like a query variable (Unknown_<n>)")
        if char := non_xml_char(text):
            raise GraphError(XML_CHAR_RULE.format(f"node {text!r}", char))
        return tuple.__new__(cls, (category, name))

    @classmethod
    def _make(cls, iterable) -> "NodeId":
        # namedtuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)

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


class Edge(NamedTuple):
    """A stored directed edge; equals its `(src, relation, dst)` tuple."""

    src: NodeId
    relation: str
    dst: NodeId


@dataclass(frozen=True)
class KnowledgeGraph:
    """Made from an ontology and any iterable of NodeIds, read once; a
    repeated node is kept once, and an element that is not a NodeId raises
    GraphError.  Edges enter only through `build`, which checks each one, so
    every graph round-trips through the writers.  `dataclasses.replace`
    gives a graph without edges."""

    ontology: RelationOntology
    # the distinct nodes in canonical-text order
    nodes: tuple[NodeId, ...] = ()
    edges: frozenset[Edge] = field(default=frozenset(), init=False)
    # number[node]: the node's position in `nodes`
    number: dict[NodeId, int] = field(init=False, compare=False, repr=False)
    # by_text[node.canonical]: the node, for each node
    by_text: dict[str, NodeId] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        given = tuple(self.nodes)
        for node in given:
            # before the table: a (category, name) tuple equals its NodeId
            if not isinstance(node, NodeId):
                raise GraphError(f"not a NodeId: {node!r}")
        # canonical text names one node, so the table keeps each node once
        by_text = {node.canonical: node for node in given}
        nodes = tuple(map(by_text.__getitem__, sorted(by_text)))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "by_text", by_text)
        object.__setattr__(self, "number", {node: i for i, node in enumerate(nodes)})

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @classmethod
    def build(
        cls, ontology: RelationOntology, nodes: Iterable[NodeId], edges: Iterable[Edge]
    ) -> tuple[KnowledgeGraph, list[tuple[int, GraphError]]]:
        """The graph of `nodes` and of each edge in `edges` that may join the
        edges kept before it, plus, in order, each rejected edge's position
        in `edges` and its GraphError.  An edge is rejected for a self-loop,
        an unknown endpoint or relation, or for restating a kept edge, as
        given or in the inverse direction (DuplicateEdgeError).  A node that
        is not a NodeId, or an edge that is not an Edge, raises GraphError.
        This is the only way edges enter a graph, and `_rejection` is the
        one statement of the edge rule."""
        graph = cls(ontology, nodes)
        kept: set[Edge] = set()
        problems: list[tuple[int, GraphError]] = []
        for position, edge in enumerate(edges):
            if not isinstance(edge, Edge):
                raise GraphError(f"not an Edge: {edge!r}")
            problem = graph._rejection(edge, kept)
            if problem is None:
                kept.add(edge)
            else:
                problems.append((position, problem))
        object.__setattr__(graph, "edges", frozenset(kept))
        return graph, problems

    def _rejection(self, edge: Edge, kept: set[Edge]) -> GraphError | None:
        """Why `edge` may not join the edges `kept` in this graph, or None
        when it may."""
        src, relation, dst = edge
        number, inverses = self.number, self.ontology.inverse
        if src == dst:
            return GraphError(f"self-loop on {src}")
        if src not in number:
            return GraphError(f"unknown endpoint: {src}")
        if dst not in number:
            return GraphError(f"unknown endpoint: {dst}")
        if relation not in inverses:
            return GraphError(f"unknown relation: {relation!r}")
        if edge in kept:
            return DuplicateEdgeError(f"duplicate edge: {src} -[{relation}]-> {dst}")
        inverse = inverses[relation]
        if (dst, inverse, src) in kept:  # an Edge equals its tuple
            return DuplicateEdgeError(
                f"inverse-duplicate edge: {src} -[{relation}]-> {dst} "
                f"restates {dst} -[{inverse}]-> {src}"
            )
        return None

    def holds(self, src: NodeId, relation: str, dst: NodeId) -> bool:
        """True iff (src, relation, dst) is a traversal-view edge: stored as
        given, or from dst under the inverse label.  A node or a relation
        the graph does not hold gives False."""
        back = (dst, self.ontology.inverse.get(relation), src)  # an Edge equals its tuple
        return (src, relation, dst) in self.edges or back in self.edges

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """rows[i]: (other, relation as traversed) for each link of node i,
        in the edge set's order, so a reader that needs an order sorts."""
        number, inverse = self.number, self.ontology.inverse
        rows: list[list[tuple[int, str]]] = [[] for _ in self.nodes]
        for src, relation, dst in self.edges:
            s, d = number[src], number[dst]
            rows[s].append((d, relation))
            rows[d].append((s, inverse[relation]))
        return tuple(map(tuple, rows))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """Edges by canonical (source, relation, target), sorted once per
        graph.  Node numbers follow canonical text, which names one node, so
        sorting on numbers is sorting on text."""
        number = self.number
        return tuple(sorted(self.edges, key=lambda e: (number[e.src], e.relation, number[e.dst])))
