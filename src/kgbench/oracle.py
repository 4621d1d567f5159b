"""Brute-force ground-truth solver.

Everything here works on the traversal view of the graph (stored edges plus
their inverse-labeled reversals) and is exhaustive by construction: the
pattern matcher enumerates injective variable bindings, the path enumerator
walks every simple route.  Scorers and generators are tested against these
results.  The oracle finds keys and does not judge answers: what a key or an
answer may hold, whatever the graph holds (a fill query's variables and
keyed nodes, a path's endpoints, simplicity and length), is stated once, by
the query classes in `querygen`.

The pattern matcher reads its triples once, to check them and to note each
variable's ties to constants and to other variables.  From the ties it plans
the order it binds in: next, the first unbound variable, in first-appearance
order, that a triple ties to a constant or to a variable already bound, else
the first unbound one; so a variable is taken from every node of its
category only when no triple ties it to anything bound.  It then walks the
plan in one loop, without recursion, extending every partial binding by one
variable per step; each triple is checked once, when its later end is
bound, as the set of nodes it reaches from its other end.

The path enumerator prunes only what cannot reach the target: one BFS from
the target gives each node's hop distance to it, and the search never
enters a node from which the target is further away than the edges left.
Its cost follows the number of paths it returns rather than the size of the
graph around the source.  That number is capped at PATH_BUDGET per call;
past the cap it raises PathBudgetError rather than return a truncated key.

Both searches run on node numbers (`KnowledgeGraph.number`, which follow
canonical order) and walk the graph's one traversal view, `rows`: the BFS
and the DFS step along it, and the pattern matcher takes a variable's
candidates from the rows of the nodes its triples are anchored at.
NodeIds go in and come out, in canonical order, the order keys are held and
written in: the int results are sorted once, as numbers follow canonical
order, and only then made bindings and `Path`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import GraphError, KnowledgeGraph, NodeId, is_variable_name

# the most simple paths one enumerate_paths call may return
PATH_BUDGET = 10_000
# the largest path bound: the search recurses once per edge of its route
MAX_BOUND = 64


class OracleError(ValueError):
    pass


class PathBudgetError(OracleError):
    """More than PATH_BUDGET paths between one pair: a key is never cut."""


@dataclass(frozen=True)
class Variable:
    """A pattern hole, e.g. Unknown_1; category restricts the nodes it may
    bind (None = any category).  A query file writes it as the node
    "<category>:<name>", "Any:<name>" for None, so the name must be
    `Unknown_<n>` and the category one `NodeId` accepts, other than "Any";
    else OracleError."""

    name: str
    category: str | None = None

    def __post_init__(self):
        if not is_variable_name(self.name):
            raise OracleError(f"variable name {self.name!r} is not Unknown_<n>")
        if self.category == "Any":
            raise OracleError(f"{self.name}: category 'Any' is how query files write None")
        if self.category is not None:
            try:
                NodeId(self.category, "x")  # the category's part of the node rule
            except GraphError:
                raise OracleError(
                    f"{self.name}: category {self.category!r} is not a node category"
                ) from None


@dataclass(frozen=True)
class PatternTriple:
    """subject -[relation]-> object where either end may be a Variable; the
    relation is always concrete."""

    subject: NodeId | Variable
    relation: str
    object: NodeId | Variable


class _PathFields(NamedTuple):
    nodes: tuple[NodeId, ...]
    relations: tuple[str, ...]


class Path(_PathFields):
    """Simple route: nodes[0], relations[0], nodes[1], ..., nodes[-1].
    Relations are as traversed (stored or inverse direction).

    A tuple subclass, as `NodeId` is: a Path equals, and hashes as, its
    `(nodes, relations)` tuple, so the sets that match submitted paths
    against a key hash in C.  Paths follow the key's canonical order (see
    `enumerate_paths`) and are never ordered by tuple comparison.

    The constructor holds the alternation rule, so no Path exists
    unchecked: one more node than relations, and at least one relation;
    else OracleError."""

    __slots__ = ()

    def __new__(cls, nodes: tuple[NodeId, ...], relations: tuple[str, ...]) -> "Path":
        if len(nodes) != len(relations) + 1 or not relations:
            raise OracleError("path must alternate n0, r1, n1, ... with k >= 1")
        return tuple.__new__(cls, (nodes, relations))

    @classmethod
    def _make(cls, iterable) -> "Path":
        # namedtuple's _make, which _replace calls, would skip the check
        return cls(*iterable)

    @property
    def length(self) -> int:
        return len(self.relations)

    @property
    def source(self) -> NodeId:
        return self.nodes[0]

    @property
    def target(self) -> NodeId:
        return self.nodes[-1]


def solve_pattern(
    graph: KnowledgeGraph, triples: list[PatternTriple]
) -> list[frozenset[tuple[str, NodeId]]]:
    """All injective bindings (variable name -> node) under which every
    triple is a traversal-view edge, each a frozenset of (name, node) pairs,
    once each.  Canonical order: by the nodes' canonical texts, taken in
    variable-name order.

    One pass over the triples checks them and notes each variable's ties;
    one loop over the plan (see the module text) binds one variable per
    step, its candidates the nodes its ties to bound ends reach.  It holds
    one level of partial bindings at a time, and the next while it builds
    it: for a generated pattern's two variables, the level before the
    bindings returned is at most one category's nodes.  Must agree with
    naive enumeration over all node tuples (see tests).
    """
    if not triples:
        raise OracleError("pattern with zero triples")
    number, ontology = graph.number, graph.ontology
    variables: dict[str, Variable] = {}
    # ties[name]: (other end, relation as read from it) per triple the
    # variable ends; the other end a variable's name or a constant's number
    ties: dict[str, list[tuple[str | int, str]]] = {}
    slots: list[str | int] = []  # the constants, then the variables as bound
    holds = True
    for t in triples:
        if t.relation not in ontology:
            raise OracleError(f"unknown relation: {t.relation!r}")
        ends: list[str | int] = []
        for end in (t.subject, t.object):
            if isinstance(end, Variable):
                if variables.setdefault(end.name, end).category != end.category:
                    raise OracleError(f"variable {end.name} has two categories")
                ties.setdefault(end.name, [])
                ends.append(end.name)
            elif end in number:
                ends.append(number[end])
                if number[end] not in slots:
                    slots.append(number[end])
            else:
                raise OracleError(f"unknown constant: {end}")
        s, o = ends
        if s == o:
            holds = False  # one end twice: the graph has no self-loops
        elif isinstance(s, int) and isinstance(o, int):
            holds = holds and graph.holds(t.subject, t.relation, t.object)
        else:
            if isinstance(o, str):
                ties[o].append((s, t.relation))
            if isinstance(s, str):
                ties[s].append((o, ontology.inverse_of(t.relation)))
    if not holds:
        return []

    nodes, rows = graph.nodes, graph.rows
    partials = [tuple(slots)]  # each a row of node numbers, one per slot
    unbound = list(variables)
    while unbound:
        name = next(
            (v for v in unbound if any(end in slots for end, _ in ties[v])), unbound[0]
        )
        unbound.remove(name)
        attached = [(slots.index(end), relation) for end, relation in ties[name] if end in slots]
        slots.append(name)
        category = variables[name].category
        extended: list[tuple[int, ...]] = []
        for partial in partials:
            pool: set[int] | None = None
            for slot, relation in attached:
                found = {other for other, r in rows[partial[slot]] if r == relation}
                pool = found if pool is None else pool & found
            if pool is None:
                pool = set(range(len(nodes)))
            if category is not None:
                pool = {i for i in pool if nodes[i].category == category}
            # injective: no constant and no node the row binds already
            extended.extend([partial + (node,) for node in pool.difference(partial)])
        partials = extended

    names = sorted(variables)
    at = [slots.index(name) for name in names]
    # numbers sort as canonical ids
    results = sorted([tuple([row[i] for i in at]) for row in partials])
    return [frozenset(zip(names, [nodes[i] for i in row])) for row in results]


def _distances_to(
    rows: tuple[tuple[tuple[int, str], ...], ...], target: int, limit: int
) -> list[int]:
    """Traversal-view hop distance to `target` of every node, by
    breadth-first search from `target` over the graph's rows; limit + 1 for a
    node more than `limit` hops away."""
    distance = [limit + 1] * len(rows)
    distance[target] = 0
    frontier = [target]
    for hops in range(1, limit + 1):
        reached = []
        for node in frontier:
            for other, _ in rows[node]:
                if distance[other] > hops:
                    distance[other] = hops
                    reached.append(other)
        frontier = reached
    return distance


def enumerate_paths(
    graph: KnowledgeGraph,
    source: NodeId,
    target: NodeId,
    max_edges: int,
) -> list[Path]:
    """All simple traversal-view paths from source to target, up to
    max_edges (at most MAX_BOUND, else OracleError; a bound past
    node_count - 1 is that bound), by depth-first search with backtracking.
    Canonical order: by length, then by the canonical texts of the nodes
    and the relations, read along the path.

    The search enters a node only when its hop distance to the target, read
    from one BFS cut off at max_edges - 1 hops, fits in the edges left, so
    no branch too far from the target is walked.  More than PATH_BUDGET
    paths raise PathBudgetError as soon as the first one too many is found."""
    if max_edges > MAX_BOUND:
        raise OracleError(f"max_edges {max_edges} exceeds MAX_BOUND, {MAX_BOUND}")
    if source == target:
        raise OracleError("source and target must differ")
    for n in (source, target):
        if n not in graph.number:
            raise OracleError(f"unknown node: {n}")
    # a simple path has at most node_count - 1 edges: a larger bound is that one
    bound = min(max_edges, graph.node_count - 1)
    if bound <= 0:
        return []
    rows = graph.rows
    start, goal = graph.number[source], graph.number[target]
    # reach[i]: node i's distance to the goal, or bound when it is further
    # than bound - 1 or already on the path: either way too far to enter
    reach = _distances_to(rows, goal, bound - 1)
    reach[start] = bound
    found: list[tuple[int | str, ...]] = []
    route: list[int | str] = [start]  # node, relation, node, ..., as walked

    def dfs(current: int, left: int) -> None:
        # left: edges left after the next step
        for other, rel in rows[current]:
            if other == goal:
                if len(found) == PATH_BUDGET:
                    raise PathBudgetError(
                        f"more than {PATH_BUDGET} paths from {source} to {target} "
                        "(the path budget); a key is never truncated"
                    )
                found.append((*route, rel, goal))
            elif reach[other] <= left:
                distance = reach[other]
                reach[other] = bound
                route.extend((rel, other))
                dfs(other, left - 1)
                del route[-2:]
                reach[other] = distance

    try:
        dfs(start, bound - 1)
    finally:
        del dfs  # it refers to itself: a cycle that would keep every path found
    # numbers sort as canonical ids, so this is canonical order
    found.sort()
    found.sort(key=len)
    nodes = graph.nodes
    return [Path(tuple([nodes[i] for i in p[::2]]), p[1::2]) for p in found]


def answer_choice(
    graph: KnowledgeGraph,
    subject: NodeId,
    object: NodeId,
    options: list[str],
) -> set[int]:
    """Indices of options r for which (subject, r, object) is a
    traversal-view edge."""
    if not options:
        raise OracleError("empty option list")
    for n in (subject, object):
        if n not in graph.number:
            raise OracleError(f"unknown node: {n}")
    correct = set()
    for i, rel in enumerate(options):
        if graph.holds(subject, rel, object):
            correct.add(i)
    return correct
