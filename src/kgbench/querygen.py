"""Seeded generation of the three query types with oracle-verified answer
keys.

All randomness flows from a single integer seed through the splitmix64
stream; equal (graph, seed, parameters) produce identical query lists.
Generation rejection-samples and fails loudly ("insufficient structure")
rather than looping forever on degenerate graphs.

Each query class is the one home of its type's rules.  It checks those that
need no graph when a query is built (QueryError): an id a file can carry
(`ontology.name_fault`), relation labels that read back (`label_fault`) and
what its key may hold, so every query can be written and read back equal.
It carries its `letter` (ids Q.<letter>.<n>, document roots Q<letter>),
makes its key with the oracle (`oracle_key`), and states what an answer is
judged by (`PathQuery.misfit`, `FillQuery.variables` and `keyed_nodes`);
`protocol` keeps its codec and `scoring` its score function.  A keyless
query, as a query file holds it, has the key None.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

from .graph import PERSON, KnowledgeGraph, NodeId
from .ontology import label_fault, name_fault
from .oracle import (
    MAX_BOUND,
    OracleError,
    Path,
    PathBudgetError,
    PatternTriple,
    Variable,
    answer_choice,
    enumerate_paths,
    solve_pattern,
)
from .rng import SplitMix64

ATTEMPT_BUDGET = 1000
FILL_TRIPLES = 3  # edges sampled per fill pattern
FILL_VARIABLES = 2  # of their nodes, hidden behind Unknown_1, Unknown_2

Binding = frozenset[tuple[str, NodeId]]
FillAnswer = dict[str, list[tuple[NodeId, float]]]  # by variable, ranked (node, confidence) pairs


class GenerationError(RuntimeError):
    pass


class QueryError(ValueError):
    """A query that breaks a rule of its type; the message names the query."""


def _require(query: Query, condition: bool, rule: str) -> None:
    if not condition:
        raise QueryError(f"{query.id}: {rule}")


def _check_names(query: Query, labels: Iterable[str]) -> None:
    """The query's id and each relation label in `labels` can be written to
    its files and read back."""
    if fault := name_fault(query.id, "query id"):
        raise QueryError(fault)
    for label in labels:
        if fault := label_fault(label):
            raise QueryError(f"{query.id}: {fault}")


def _check_items(query: FillQuery | PathQuery, tag: str) -> None:
    """A key of bindings or paths is None (keyless) or holds each once."""
    if query.key is not None:
        _require(query, bool(query.key), f"the key holds no {tag}")
        _require(query, len(set(query.key)) == len(query.key), f"a {tag} appears twice")


@dataclass(frozen=True)
class FillQuery:
    """A pattern of triples with Variable ends, and its key of bindings.

    Each Binding of a key is given as (variable name, node) pairs, any
    collection of them, and must name each variable once as given; the
    query then holds it as a frozenset."""

    letter: ClassVar[str] = "A"
    id: str
    triples: tuple[PatternTriple, ...]
    key: tuple[Binding, ...] | None = field(compare=False)  # None when keyless

    def __post_init__(self):
        _check_names(self, (t.relation for t in self.triples))
        _require(self, bool(self.triples), "fill query without triples")
        ends = {e for t in self.triples for e in (t.subject, t.object)}
        names = sorted(e.name for e in ends if isinstance(e, Variable))
        for name, after in zip(names, names[1:]):
            _require(self, name != after, f"variable {name} has two categories")
        if self.key is None:
            return
        rule = f"a Binding names each of {', '.join(names)} once"
        for pairs in self.key:
            _require(self, sorted(name for name, _ in pairs) == names, rule)
            # injective, as the oracle binds: each variable to its own node,
            # and none to a constant of the pattern
            bound = [node for _, node in pairs]
            one_each = len(set(bound)) == len(bound)
            _require(self, one_each, "a Binding binds two variables to one node")
            _require(self, ends.isdisjoint(bound), "a Binding binds a variable to a constant")
        object.__setattr__(self, "key", tuple(map(frozenset, self.key)))
        _check_items(self, "Binding")

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """The variable names, in order of first appearance."""
        ends = (e for t in self.triples for e in (t.subject, t.object))
        return tuple(dict.fromkeys(e.name for e in ends if isinstance(e, Variable)))

    def keyed_nodes(self) -> dict[str, list[NodeId]]:
        """Each variable's keyed nodes, once each in key order, by variable
        in `variables` order; OracleError naming the query when it has no
        key."""
        nodes: dict[str, dict[NodeId, None]] = {name: {} for name in self.variables}
        for binding in require_key(self):
            for name, node in binding:
                nodes[name][node] = None
        return {name: list(found) for name, found in nodes.items()}

    def oracle_key(self, graph: KnowledgeGraph) -> tuple[Binding, ...]:
        """The oracle's bindings, once each in canonical order."""
        return tuple(solve_pattern(graph, list(self.triples)))


@dataclass(frozen=True)
class ChoiceQuery:
    letter: ClassVar[str] = "B"
    id: str
    subject: NodeId
    object: NodeId
    options: tuple[str, ...]
    key: int | None = field(compare=False)  # index into options; None when keyless

    def __post_init__(self):
        _check_names(self, self.options)
        _require(self, self.subject != self.object, "subject and object are one node")
        _require(self, bool(self.options), "choice query without options")
        for index, option in enumerate(self.options, start=1):
            at = self.options.index(option) + 1
            _require(self, at == index, f"options {at} and {index} are both {option!r}")
        in_range = self.key is None or 0 <= self.key < len(self.options)
        _require(self, in_range, "Correct index out of range")

    @property
    def correct(self) -> str:
        """The keyed option; OracleError naming the query when it has no key."""
        return self.options[require_key(self)]

    def oracle_key(self, graph: KnowledgeGraph) -> int:
        """The index of the one option that holds; else OracleError."""
        correct = answer_choice(graph, self.subject, self.object, list(self.options))
        if len(correct) != 1:
            raise OracleError(f"{self.id}: expected exactly one correct option, got {len(correct)}")
        return correct.pop()


@dataclass(frozen=True)
class PathQuery:
    letter: ClassVar[str] = "C"
    id: str
    source: NodeId
    target: NodeId
    max_edges: int
    key: tuple[Path, ...] | None = field(compare=False)  # None when keyless

    def __post_init__(self):
        key = self.key or ()
        # each distinct label once; sorted, so no message hangs on string hashing
        _check_names(self, sorted(set().union(*[p.relations for p in key])))
        _require(self, self.source != self.target, "source and target are one node")
        _require(self, self.max_edges >= 1, "max_edges must be at least 1")
        _require(self, self.max_edges <= MAX_BOUND, f"max_edges must be at most {MAX_BOUND}")
        _check_items(self, "Path")
        for index, path in enumerate(key, start=1):
            if fault := self.misfit(path):
                raise QueryError(f"{self.id}: key Path {index}: {fault}")

    def misfit(self, path: Path) -> str | None:
        """Why `path` cannot answer this query, whatever the graph holds, or
        None: it must run from `source` to `target`, through each node once,
        within `max_edges`.  Both a key path and a submitted one are held to
        it, so a key holds no path a team could not give."""
        nodes = path.nodes
        if nodes[0] != self.source:
            return f"source is {nodes[0]}, query asks {self.source}"
        if nodes[-1] != self.target:
            return f"target is {nodes[-1]}, query asks {self.target}"
        if len(set(nodes)) != len(nodes):
            return "not simple: a node repeats"
        if len(nodes) > self.max_edges + 1:
            return f"length {len(nodes) - 1} exceeds bound {self.max_edges}"
        return None

    def oracle_key(self, graph: KnowledgeGraph) -> tuple[Path, ...]:
        """Every path in canonical order; past PATH_BUDGET, PathBudgetError naming the query."""
        try:
            return tuple(enumerate_paths(graph, self.source, self.target, self.max_edges))
        except PathBudgetError as exc:
            raise PathBudgetError(f"{self.id}: {exc}") from None


Query = FillQuery | ChoiceQuery | PathQuery


def require_key(query: Query) -> tuple[Binding, ...] | int | tuple[Path, ...]:
    """The query's key; OracleError naming the query when it is keyless."""
    if query.key is None:
        raise OracleError(f"{query.id}: the query has no key")
    return query.key


def _sample_connected_edges(
    graph: KnowledgeGraph, rng: SplitMix64, count: int
) -> list[tuple[NodeId, str, NodeId]]:
    """Random connected set of traversal-view edges grown from a seed node.
    Edges are returned in traversal orientation (as walked).  The draws run
    on node numbers, so the fringe is sorted in canonical order."""
    rows, inverse = graph.rows, graph.ontology.inverse
    start = rng.choice(range(len(graph.nodes)))
    chosen: list[tuple[int, str, int]] = []
    taken: set[tuple[int, str, int]] = set()
    frontier = [start]
    while len(chosen) < count:
        fringe = sorted(
            {(node, rel, other) for node in frontier for other, rel in rows[node]} - taken
        )
        if not fringe:
            break
        a, r, b = rng.choice(fringe)
        chosen.append((a, r, b))
        taken.add((a, r, b))
        taken.add((b, inverse[r], a))
        if b not in frontier:
            frontier.append(b)
    nodes = graph.nodes
    return [(nodes[a], r, nodes[b]) for a, r, b in chosen]


def _generate(
    seed: int,
    count: int,
    kind: type,
    blocked: str | None,
    draft: Callable[[SplitMix64, str], Query | None],
) -> list[Query]:
    """The one rejection loop for queries of class `kind`.  Query n is the
    first of up to ATTEMPT_BUDGET `draft(rng, "Q.<letter>.<n>")` calls that
    returns a query, not None.
    `blocked` names a structural shortfall that rules out every query; it
    only counts when a query is asked for."""
    if count > 0 and blocked:
        raise GenerationError(f"insufficient structure: {blocked}")
    rng = SplitMix64(seed)
    queries = []
    for number in range(1, count + 1):
        for _ in range(ATTEMPT_BUDGET):
            query = draft(rng, f"Q.{kind.letter}.{number}")
            if query is not None:
                queries.append(query)
                break
        else:
            what = kind.__name__.removesuffix("Query").lower()  # fill, choice, path
            raise GenerationError(
                f"insufficient structure: could not generate {what} query {number} "
                f"within {ATTEMPT_BUDGET} attempts"
            )
    return queries


def generate_fill(
    graph: KnowledgeGraph,
    seed: int,
    count: int,
    require_unique: bool = False,
) -> list[FillQuery]:
    """Sample connected subgraphs of FILL_TRIPLES edges, replace FILL_VARIABLES
    of their nodes with variables, keep patterns whose oracle key is
    non-empty (and unique when required)."""

    def draft(rng: SplitMix64, qid: str) -> FillQuery | None:
        edges = _sample_connected_edges(graph, rng, FILL_TRIPLES)
        nodes_in_order: list[NodeId] = []
        for a, _, b in edges:
            for n in (a, b):
                if n not in nodes_in_order:
                    nodes_in_order.append(n)
        if len(nodes_in_order) <= FILL_VARIABLES:
            return None
        hidden = rng.sample(nodes_in_order, FILL_VARIABLES)
        var_for = {
            node: Variable(f"Unknown_{i}", node.category)
            for i, node in enumerate(hidden, start=1)
        }
        triples = tuple(
            PatternTriple(var_for.get(a, a), r, var_for.get(b, b)) for a, r, b in edges
        )
        key = FillQuery(qid, triples, None).oracle_key(graph)
        if not key or (require_unique and len(key) != 1):
            return None
        return FillQuery(qid, triples, key)

    small = graph.node_count < 3 or graph.edge_count < 2
    return _generate(seed, count, FillQuery, "graph is too small" if small else None, draft)


def generate_choice(
    graph: KnowledgeGraph,
    seed: int,
    count: int,
    n_options: int = 5,
) -> list[ChoiceQuery]:
    """Hide the relation of a seeded edge; distractors are ontology
    relations that hold between the pair in neither direction.  The key is
    known by construction; the CLI self-check recomputes it independently."""
    if n_options < 1:
        raise ValueError("n_options must be >= 1")
    all_edges = graph.sorted_edges
    all_relations = sorted(graph.ontology.relations)

    def draft(rng: SplitMix64, qid: str) -> ChoiceQuery | None:
        edge = rng.choice(all_edges)
        nonholding = [
            r
            for r in all_relations
            if not graph.holds(edge.src, r, edge.dst)
            and not graph.holds(edge.dst, r, edge.src)
        ]
        if len(nonholding) < n_options - 1:
            return None
        options = [edge.relation] + rng.sample(nonholding, n_options - 1)
        rng.shuffle(options)
        return ChoiceQuery(
            qid, edge.src, edge.dst, tuple(options), options.index(edge.relation)
        )

    blocked = (
        "ontology smaller than n_options" if len(graph.ontology) < n_options
        else "graph has no edges" if graph.edge_count == 0
        else None
    )
    return _generate(seed, count, ChoiceQuery, blocked, draft)


def generate_path(
    graph: KnowledgeGraph,
    seed: int,
    count: int,
    max_edges: int = 8,
) -> list[PathQuery]:
    """Sample connected Person pairs; the key is the exhaustive simple-path
    set up to max_edges.  A pair with more paths than the oracle's
    PATH_BUDGET is rejected like an unconnected one."""
    persons = [n for n in graph.nodes if n.category == PERSON]

    def draft(rng: SplitMix64, qid: str) -> PathQuery | None:
        source, target = rng.sample(persons, 2)
        try:
            key = PathQuery(qid, source, target, max_edges, None).oracle_key(graph)
        except PathBudgetError:
            return None
        return PathQuery(qid, source, target, max_edges, key) if key else None

    blocked = "fewer than two Person nodes" if len(persons) < 2 else None
    return _generate(seed, count, PathQuery, blocked, draft)
