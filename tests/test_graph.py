import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    built,
    canonical_edge_key,
    canonical_nodes,
    naive_traversal,
    random_graph,
    reference_build,
)
from kgbench.formats import emit_tgf, parse_tgf
from kgbench.graph import (
    DuplicateEdgeError,
    Edge,
    GraphError,
    KnowledgeGraph,
    NodeId,
    entity,
    person,
)
from kgbench.ontology import load_ontology
from kgbench.querygen import GenerationError, generate_path

ONT = load_ontology(
    "Spouse of | Spouse of\n"
    "Child of | Parent of\n"
    "Student of | Teacher of\n"
    "Colleague of | Colleague of\n"
    "Friend of | Friend of\n"
)


def empty():
    return KnowledgeGraph(ONT)


def test_node_id_parse():
    n = NodeId.parse("Entity:Springfield Elementary")
    assert n.category == "Entity"
    assert n.name == "Springfield Elementary"
    assert n.canonical == "Entity:Springfield Elementary"
    # split happens at the first colon only
    assert NodeId.parse("Other:a:b").name == "a:b"
    with pytest.raises(GraphError):
        NodeId.parse("no prefix")
    with pytest.raises(GraphError):
        NodeId.parse(":empty")


def test_a_category_with_a_colon_is_refused():
    # both would render as Person:x:y, and parse reads that text as the second
    with pytest.raises(GraphError) as exc:
        NodeId("Person:x", "y")
    assert str(exc.value) == "node category 'Person:x' contains ':'"
    assert NodeId("Person", "x:y") == NodeId.parse("Person:x:y")
    for make in (
        lambda: NodeId._make(("Person:x", "y")),
        lambda: person("y")._replace(category="Person:x"),
    ):
        with pytest.raises(GraphError, match="contains ':'"):
            make()
    for category, name in [("", "a"), ("Person", "")]:
        with pytest.raises(GraphError, match="must be non-empty"):
            NodeId(category, name)


def test_node_and_edge_equal_their_tuples():
    homer, marge = person("Homer"), person("Marge")
    assert homer == ("Person", "Homer") and hash(homer) == hash(("Person", "Homer"))
    category, name = homer
    assert (category, name) == (homer.category, homer.name)
    assert repr(homer) == "NodeId(category='Person', name='Homer')"
    assert str(homer) == "Person:Homer"
    edge = Edge(marge, "Spouse of", homer)
    assert edge == (marge, "Spouse of", homer)
    assert edge == (("Person", "Marge"), "Spouse of", ("Person", "Homer"))
    assert hash(edge) == hash((marge, "Spouse of", homer))


def test_build_refuses_what_is_not_a_node_or_an_edge():
    with pytest.raises(GraphError) as exc:
        KnowledgeGraph.build(ONT, [person("A"), ("Person", "B")], [])
    assert str(exc.value) == "not a NodeId: ('Person', 'B')"
    raw_edge = (person("A"), "Friend of", person("B"))
    with pytest.raises(GraphError) as exc:
        KnowledgeGraph.build(ONT, [person("A"), person("B")], [raw_edge])
    assert str(exc.value) == (
        "not an Edge: (NodeId(category='Person', name='A'), 'Friend of', "
        "NodeId(category='Person', name='B'))"
    )


def test_build_merges_repeated_nodes():
    g = built(ONT, [person("Homer"), person("Homer")])
    assert g.node_count == 1
    assert built(ONT, [person("Homer"), person("Marge"), person("Homer")]).node_count == 2
    assert g.nodes == (person("Homer"),)
    assert empty().node_count == 0


def test_the_constructor_keeps_each_node_once_in_canonical_order():
    a, b = person("A"), person("B")
    g = KnowledgeGraph(ONT, [b, a, a])
    assert (g.nodes, g.number, g.node_count) == ((a, b), {a: 0, b: 1}, 2)
    assert emit_tgf(g) == "1 Person:A\n2 Person:B\n#\n"
    assert parse_tgf(emit_tgf(g), ONT) == (g, [])
    with pytest.raises(GenerationError, match="fewer than two Person nodes"):
        generate_path(KnowledgeGraph(ONT, [a, a]), seed=1, count=1)
    # a set or a generator is read once and held as the tuple
    assert KnowledgeGraph(ONT, {b, a}).nodes == (a, b)
    assert KnowledgeGraph(ONT, (n for n in [b, a])).nodes == (a, b)
    # a (category, name) tuple equals its NodeId: refused before repeats fold
    for nodes in ([a, ("Person", "A")], [("Person", "A"), a]):
        with pytest.raises(GraphError, match="not a NodeId"):
            KnowledgeGraph.build(ONT, nodes, [])


# "Per son:x" sorts before "Per:x" as text (" " < ":"), though the tuple
# ("Per", "x") sorts before ("Per son", "x")
NUMBERED = st.builds(
    NodeId, st.sampled_from(["Per", "Per son", "Person", "Entity"]),
    st.sampled_from(["x", "x y", "x:y", "A", "Z"]),
)


@given(st.lists(NUMBERED, min_size=1, max_size=12), st.data())
def test_node_numbers_follow_canonical_text(nodes, data):
    end = st.sampled_from(nodes)
    edge = st.builds(Edge, end, st.sampled_from(sorted(ONT.relations)), end)
    g = KnowledgeGraph.build(ONT, nodes, data.draw(st.lists(edge, max_size=20)))[0]
    assert list(g.nodes) == canonical_nodes(g)
    assert set(g.nodes) == set(nodes) and len(g.nodes) == len(set(nodes))
    assert all(g.number[node] == i for i, node in enumerate(g.nodes))
    assert len(g.number) == len(g.nodes)
    assert g.sorted_edges == tuple(sorted(g.edges, key=canonical_edge_key))


def test_build_drops_duplicate_edges():
    marge, homer = person("Marge"), person("Homer")
    g, problems = KnowledgeGraph.build(
        ONT,
        [marge, homer],
        # the same edge, then the symmetric relation restated the other way
        [Edge(marge, "Spouse of", homer)] * 2 + [Edge(homer, "Spouse of", marge)],
    )
    assert g.edges == {Edge(marge, "Spouse of", homer)}
    assert [(i, type(p)) for i, p in problems] == [(1, DuplicateEdgeError), (2, DuplicateEdgeError)]
    assert [str(p) for _, p in problems] == [
        "duplicate edge: Person:Marge -[Spouse of]-> Person:Homer",
        "inverse-duplicate edge: Person:Homer -[Spouse of]-> Person:Marge "
        "restates Person:Marge -[Spouse of]-> Person:Homer",
    ]


def test_inverse_duplicate_asymmetric():
    bart, homer = person("Bart"), person("Homer")
    g, problems = KnowledgeGraph.build(
        ONT, [bart, homer], [Edge(bart, "Child of", homer), Edge(homer, "Parent of", bart)]
    )
    assert g.edge_count == 1
    (position, problem), = problems
    assert position == 1 and isinstance(problem, DuplicateEdgeError)
    assert "duplicate" in str(problem)


def test_multigraph_distinct_relations_allowed():
    lenny, carl = person("Lenny"), person("Carl")
    g = built(ONT, [lenny, carl], [(lenny, "Colleague of", carl), (lenny, "Friend of", carl)])
    assert g.edge_count == 2


def test_build_edge_errors():
    bart, school = person("Bart"), entity("School")
    g, problems = KnowledgeGraph.build(
        ONT,
        [bart, school],
        [
            Edge(bart, "Friend of", bart),
            Edge(bart, "Friend of", person("Nelson")),
            Edge(person("Nelson"), "Friend of", bart),
            Edge(bart, "Owns", school),
            Edge(bart, "Student of", school),
        ],
    )
    assert g.edges == {Edge(bart, "Student of", school)}
    assert not any(isinstance(p, DuplicateEdgeError) for _, p in problems)
    assert [i for i, _ in problems] == [0, 1, 2, 3]
    assert [str(p) for _, p in problems] == [
        "self-loop on Person:Bart",
        "unknown endpoint: Person:Nelson",
        "unknown endpoint: Person:Nelson",
        "unknown relation: 'Owns'",
    ]


def test_neighbors_both_directions():
    marge, bart, lisa = person("Marge"), person("Bart"), person("Lisa")
    g = built(ONT, [marge, bart, lisa], [(marge, "Parent of", bart), (marge, "Parent of", lisa)])
    m, b, li = (g.number[n] for n in (marge, bart, lisa))
    assert sorted(g.rows[m]) == [(b, "Parent of"), (li, "Parent of")]
    assert g.rows[b] == ((m, "Child of"),)
    assert g.rows[li] == ((m, "Child of"),)
    assert g.holds(marge, "Parent of", bart) and g.holds(marge, "Parent of", lisa)
    assert g.holds(bart, "Child of", marge) and g.holds(lisa, "Child of", marge)
    assert not g.holds(bart, "Parent of", marge) and not g.holds(bart, "Child of", lisa)


def test_isolated_node_and_unknown_node():
    maggie = person("Maggie")
    g = built(ONT, [maggie])
    assert g.rows == ((),)
    # an unknown node or relation is no step
    assert g.holds(person("Nelson"), "Child of", maggie) is False
    assert g.holds(maggie, "Parent of", person("Nelson")) is False
    assert g.holds(maggie, "Owns", maggie) is False


@pytest.mark.parametrize("seed", range(30))
def test_traversal_symmetry(seed):
    g = random_graph(seed)
    rows, inverse = g.rows, g.ontology.inverse
    for node, row in enumerate(rows):
        for other, rel in row:
            assert (node, inverse[rel]) in rows[other]


@pytest.mark.parametrize("seed", range(10))
def test_neighbors_deterministic_and_duplicate_free(seed):
    # rows follow the edge set's order; what they hold does not depend on
    # the order the edges were given in
    g = random_graph(seed)
    again = KnowledgeGraph.build(g.ontology, g.nodes, sorted(g.edges, reverse=True))[0]
    for row, other in zip(g.rows, again.rows):
        assert len(set(row)) == len(row)
        assert sorted(row) == sorted(other)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), edges=st.integers(0, 18))
def test_traversal_queries_equal_the_reference(seed, edges):
    g = random_graph(seed, max_edges=edges)
    links = naive_traversal(g)
    nodes = g.nodes
    stranger = person("Stranger")
    for node in nodes:
        row = sorted((g.number[o], r) for s, r, o in links if s == node)
        assert sorted(g.rows[g.number[node]]) == row
        for rel in sorted(g.ontology.relations):
            for other in nodes:
                assert g.holds(node, rel, other) is ((node, rel, other) in links)
            assert g.holds(node, rel, stranger) is False
    rel = sorted(g.ontology.relations)[0]
    assert g.holds(stranger, rel, nodes[0]) is False
    assert g.holds(nodes[0], "Owns", nodes[-1]) is False
    assert g.holds(stranger, "Owns", nodes[0]) is False


def test_order_independence():
    nodes = [person("A"), person("B"), person("C")]
    edges = [
        (person("A"), "Parent of", person("B")),
        (person("B"), "Friend of", person("C")),
    ]
    assert built(ONT, nodes, edges) == built(ONT, nodes[::-1], edges[::-1])


def test_sorted_views_are_cached_tuples(simpsons):
    assert isinstance(simpsons.nodes, tuple)
    assert isinstance(simpsons.sorted_edges, tuple)
    assert simpsons.sorted_edges is simpsons.sorted_edges
    assert list(simpsons.nodes) == sorted(simpsons.nodes, key=str)


# Person:E is never declared, "Owns" is not in ONT
DECLARABLE = [person(n) for n in "ABCD"]
ENDPOINTS = DECLARABLE * 2 + [person("E")]
RELATIONS = ["Spouse of", "Child of", "Parent of", "Friend of", "Owns"]


@st.composite
def salted_edges(draw):
    """Edge lists where many edges restate an earlier one, as drawn or in
    the inverse direction; self-loops, unknown endpoints and the unknown
    relation come from the small pools."""
    edges: list[Edge] = []
    for _ in range(draw(st.integers(0, 14))):
        how = draw(st.sampled_from(["fresh", "duplicate", "inverse"]))
        if how == "fresh" or not edges:
            edges.append(
                Edge(
                    draw(st.sampled_from(ENDPOINTS)),
                    draw(st.sampled_from(RELATIONS)),
                    draw(st.sampled_from(ENDPOINTS)),
                )
            )
            continue
        e = draw(st.sampled_from(edges))
        if how == "inverse" and e.relation in ONT:
            e = Edge(e.dst, ONT.inverse_of(e.relation), e.src)
        edges.append(e)
    return edges


@given(
    st.permutations(DECLARABLE), st.lists(st.sampled_from(DECLARABLE), max_size=3),
    salted_edges(),
)
def test_build_matches_fold(order, repeats, edges):
    nodes = order + repeats
    folded_nodes, folded_edges, expected = reference_build(ONT, nodes, edges)
    built_graph, problems = KnowledgeGraph.build(ONT, nodes, edges)
    assert built_graph.nodes == folded_nodes
    assert built_graph.edges == folded_edges
    assert [(i, isinstance(p, DuplicateEdgeError), str(p)) for i, p in problems] == expected


@pytest.mark.parametrize("char", ["\x01", "\ufffe"])
def test_a_node_xml_cannot_carry_is_refused(char):
    with pytest.raises(GraphError) as exc:
        KnowledgeGraph.build(ONT, [person(f"Len{char}ny")], [])
    assert str(exc.value) == (
        f"node {f'Person:Len{char}ny'!r} contains {char!r}, which XML files cannot carry"
    )
    with pytest.raises(GraphError, match="XML files cannot carry"):
        KnowledgeGraph.build(ONT, [person("A"), NodeId(f"P{char}", "B")], [])


@pytest.mark.parametrize("node", [("Person", "C  D"), ("Person", " D"), ("Per\tson", "D")])
def test_a_node_the_readers_would_change_is_refused(node):
    # every reader collapses whitespace, so "Person:C  D" would come back as
    # "Person:C D", a node the queries and keys written from it do not name
    with pytest.raises(GraphError) as exc:
        NodeId(*node)
    assert str(exc.value) == f"node {':'.join(node)!r} is not trimmed with single spaces"
    with pytest.raises(GraphError, match="not trimmed"):
        person("A")._replace(category=node[0], name=node[1])


def test_edges_enter_only_through_build():
    # the constructor would skip every edge rule: an unknown relation or
    # endpoint, a self-loop, an edge next to its inverse restatement
    a, b = person("A"), person("B")
    for edge in [Edge(a, "Owns", b), Edge(a, "Friend of", person("Z")),
                 Edge(a, "Friend of", a), Edge(b, "Parent of", a)]:
        with pytest.raises(TypeError):
            KnowledgeGraph(ONT, frozenset([a, b]), frozenset([Edge(a, "Child of", b), edge]))
    with pytest.raises(TypeError):
        KnowledgeGraph(ONT, frozenset([a, b]), edges=frozenset())
    graph = built(ONT, [a, b], [(a, "Child of", b)])
    assert dataclasses.replace(graph, nodes=(*graph.nodes, person("C"))).edges == frozenset()
