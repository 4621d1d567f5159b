import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_traversal, random_graph
from kgbench.graph import Edge, GraphError, KnowledgeGraph, NodeId, entity, person
from kgbench.ontology import load_ontology

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


def test_add_node_idempotent():
    g = empty().add_node(person("Homer"))
    assert g.node_count == 1
    assert g.add_node(person("Homer")).node_count == 1
    assert g.add_node(person("Marge")).node_count == 2
    assert empty().node_count == 0  # value semantics


def test_add_edge_and_duplicates():
    g = empty().add_node(person("Marge")).add_node(person("Homer"))
    g = g.add_edge(person("Marge"), "Spouse of", person("Homer"))
    with pytest.raises(GraphError, match="duplicate"):
        g.add_edge(person("Marge"), "Spouse of", person("Homer"))
    # symmetric relation restated in the other direction
    with pytest.raises(GraphError, match="duplicate"):
        g.add_edge(person("Homer"), "Spouse of", person("Marge"))


def test_inverse_duplicate_asymmetric():
    g = empty().add_node(person("Bart")).add_node(person("Homer"))
    g = g.add_edge(person("Bart"), "Child of", person("Homer"))
    with pytest.raises(GraphError, match="duplicate"):
        g.add_edge(person("Homer"), "Parent of", person("Bart"))


def test_multigraph_distinct_relations_allowed():
    g = empty().add_node(person("Lenny")).add_node(person("Carl"))
    g = g.add_edge(person("Lenny"), "Colleague of", person("Carl"))
    g = g.add_edge(person("Lenny"), "Friend of", person("Carl"))
    assert g.edge_count == 2


def test_add_edge_errors():
    g = empty().add_node(person("Bart")).add_node(entity("School"))
    with pytest.raises(GraphError, match="self-loop"):
        g.add_edge(person("Bart"), "Friend of", person("Bart"))
    with pytest.raises(GraphError, match="unknown endpoint"):
        g.add_edge(person("Bart"), "Friend of", person("Nelson"))
    with pytest.raises(GraphError, match="unknown relation"):
        g.add_edge(person("Bart"), "Owns", entity("School"))
    g = g.add_edge(person("Bart"), "Student of", entity("School"))
    assert g.edge_count == 1


def test_neighbors_both_directions():
    g = empty().add_node(person("Marge")).add_node(person("Bart")).add_node(person("Lisa"))
    g = g.add_edge(person("Marge"), "Parent of", person("Bart"))
    g = g.add_edge(person("Marge"), "Parent of", person("Lisa"))
    assert g.neighbors(person("Marge")) == (
        (person("Bart"), "Parent of"),
        (person("Lisa"), "Parent of"),
    )
    assert g.neighbors(person("Bart")) == ((person("Marge"), "Child of"),)
    assert g.degree_by_relation(person("Marge"), "Parent of") == 2
    assert g.degree_by_relation(person("Marge"), "Spouse of") == 0


def test_isolated_node_and_unknown_node():
    g = empty().add_node(person("Maggie"))
    assert g.neighbors(person("Maggie")) == ()
    with pytest.raises(GraphError, match="unknown node"):
        g.neighbors(person("Nelson"))
    with pytest.raises(GraphError, match="unknown relation"):
        g.degree_by_relation(person("Maggie"), "Owns")


@pytest.mark.parametrize("seed", range(30))
def test_traversal_symmetry(seed):
    g = random_graph(seed)
    for node in g.nodes:
        for other, rel in g.neighbors(node):
            assert (node, g.ontology.inverse_of(rel)) in g.neighbors(other)


@pytest.mark.parametrize("seed", range(10))
def test_neighbors_deterministic_and_duplicate_free(seed):
    g = random_graph(seed)
    for node in g.nodes:
        pairs = g.neighbors(node)
        assert list(pairs) == sorted(pairs, key=lambda p: (p[0].canonical, p[1]))
        assert len(set(pairs)) == len(pairs)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), edges=st.integers(0, 18))
def test_traversal_queries_equal_the_reference(seed, edges):
    g = random_graph(seed, max_edges=edges)
    links = naive_traversal(g)
    nodes = g.sorted_nodes()
    stranger = person("Stranger")
    for node in nodes:
        row = sorted(
            ((o, r) for s, r, o in links if s == node), key=lambda p: (p[0].canonical, p[1])
        )
        assert g.neighbors(node) == tuple(row)
        for rel in sorted(g.ontology.relations):
            assert g.degree_by_relation(node, rel) == sum(1 for _, r in row if r == rel)
            for other in nodes:
                assert g.has_link(node, rel, other) is ((node, rel, other) in links)
            assert g.has_link(node, rel, stranger) is False
    rel = sorted(g.ontology.relations)[0]
    for call in (
        lambda: g.neighbors(stranger),
        lambda: g.has_link(stranger, rel, nodes[0]),
        lambda: g.degree_by_relation(stranger, rel),
    ):
        with pytest.raises(GraphError) as exc:
            call()
        assert str(exc.value) == "unknown node: Person:Stranger"
    for call in (
        lambda: g.has_link(nodes[0], "Owns", nodes[-1]),
        lambda: g.has_link(stranger, "Owns", nodes[0]),
        lambda: g.degree_by_relation(nodes[0], "Owns"),
    ):
        with pytest.raises(GraphError) as exc:
            call()
        assert str(exc.value) == "unknown relation: 'Owns'"


def test_order_independence():
    nodes = [person("A"), person("B"), person("C")]
    edges = [
        (person("A"), "Parent of", person("B")),
        (person("B"), "Friend of", person("C")),
    ]
    g1 = empty()
    for n in nodes:
        g1 = g1.add_node(n)
    for e in edges:
        g1 = g1.add_edge(*e)
    g2 = empty()
    for n in reversed(nodes):
        g2 = g2.add_node(n)
    for e in reversed(edges):
        g2 = g2.add_edge(*e)
    assert g1 == g2


def test_degree_matches_bruteforce(simpsons):
    for node in simpsons.nodes:
        for rel in simpsons.ontology:
            expected = sum(1 for _, r in simpsons.neighbors(node) if r == rel)
            assert simpsons.degree_by_relation(node, rel) == expected


def test_sorted_views_are_cached_tuples(simpsons):
    assert isinstance(simpsons.sorted_nodes(), tuple)
    assert isinstance(simpsons.sorted_edges(), tuple)
    assert simpsons.sorted_nodes() is simpsons.sorted_nodes()
    assert simpsons.sorted_edges() is simpsons.sorted_edges()
    assert list(simpsons.sorted_nodes()) == sorted(simpsons.nodes, key=str)


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
    folded = empty()
    messages = []
    for n in nodes:
        folded = folded.add_node(n)
    for e in edges:
        try:
            folded = folded.add_edge(e.src, e.relation, e.dst)
        except GraphError as exc:
            messages.append(str(exc))
    built, problems = KnowledgeGraph.build(ONT, nodes, edges)
    assert built == folded
    assert [str(p) for p in problems] == messages


@pytest.mark.parametrize("char", ["\x01", "\ufffe"])
def test_a_node_xml_cannot_carry_is_refused(char):
    with pytest.raises(GraphError) as exc:
        empty().add_node(person(f"Len{char}ny"))
    assert str(exc.value) == (
        f"node {f'Person:Len{char}ny'!r} contains {char!r}, which XML files cannot carry"
    )
    with pytest.raises(GraphError, match="XML files cannot carry"):
        KnowledgeGraph.build(ONT, [person("A"), NodeId(f"P{char}", "B")], [])
