"""Every name the constructors accept is read back as written: through the
two graph formats, the ontology file, and query and key files."""

from dataclasses import replace

import pytest

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from helpers import reference_check_node, reference_decode_node_ref
from kgbench.formats import emit_tgf, emit_xgml, parse_tgf, parse_xgml
from kgbench.graph import PERSON, Edge, GraphError, KnowledgeGraph, NodeId
from kgbench.ontology import (
    OntologyError,
    RelationOntology,
    canonical_label,
    emit_ontology,
    load_ontology,
    non_xml_char,
)
from kgbench.oracle import OracleError, PatternTriple, Variable
from kgbench.protocol import (
    ProtocolError,
    decode_node_ref,
    emit_key_xml,
    emit_query_xml,
    parse_key_xml,
    parse_query_xml,
)
from kgbench.querygen import ChoiceQuery, FillQuery, PathQuery

# runs of whitespace, the characters some file gives a meaning to, names
# like a query variable, and characters XML cannot carry
PIECES = [
    "a", "Z", "0", "é", " ", "  ", "\t", "\xa0", "\u2028", "_", ":", "|", "#",
    '"', "\\", "&", "<", "Unknown_", "1", "\x01", "\ufffe",
]
RAW = st.lists(st.sampled_from(PIECES), max_size=5).map("".join)
# half the draws canonical, so that the constructors accept many of them
NAMES = st.one_of(RAW, RAW.map(canonical_label))


KNOWS = RelationOntology({"Knows": "Knows"})
A, B = NodeId(PERSON, "A"), NodeId(PERSON, "B")


def assert_read_back(ontology: RelationOntology, a: NodeId, relation: str, b: NodeId):
    """The graph of a -[relation]-> b comes back from each writer as written,
    and the keys written from it name what the oracle finds in it."""
    graph, problems = KnowledgeGraph.build(ontology, [a, b], [Edge(a, relation, b)])
    assert not problems
    assert parse_tgf(emit_tgf(graph), ontology) == (graph, [])
    assert parse_xgml(emit_xgml(graph), ontology) == (graph, [])
    assert load_ontology(emit_ontology(ontology)) == ontology
    queries = [
        FillQuery("Q.A.1", (PatternTriple(Variable("Unknown_1"), relation, b),), None),
        ChoiceQuery("Q.B.1", a, b, (relation,), 0),
        PathQuery("Q.C.1", a, b, 1, None),
    ]
    for query in queries:
        keyed = replace(query, key=query.oracle_key(graph))
        (parsed,), _ = parse_key_xml(emit_key_xml([keyed]))
        assert parsed == keyed and parsed.key == keyed.key
        assert parsed.oracle_key(graph) == keyed.key


@settings(max_examples=300, deadline=None)
@given(NAMES, NAMES)
def test_every_node_the_constructors_accept_is_read_back(category, name):
    try:
        node = NodeId(category, name)
        KnowledgeGraph(KNOWS, frozenset([node]))
    except GraphError:
        event("refused")
        return
    assume(node != B)
    event("accepted")
    assert_read_back(KNOWS, node, "Knows", B)


# whole names the pieces seldom make: "Any", Unknown_<n>, an XML-less category
WHOLE = st.sampled_from(["Any", " Any", "Person ", "Unknown_7", " Unknown_07", "P\x01"])
PARTS = st.one_of(NAMES, WHOLE)


@settings(max_examples=500, deadline=None)
@given(PARTS, PARTS)
def test_a_node_id_refuses_what_the_two_step_rule_refused(category, name):
    try:
        reference_check_node(category, name)
    except GraphError as exc:
        event("refused")
        with pytest.raises(GraphError) as refused:
            NodeId(category, name)
        assert str(refused.value) == str(exc)
    else:
        event("accepted")
        assert NodeId(category, name) == (category, name)


def decoded(decode, text: str):
    """What `decode` makes of `text`: its value, or its error's type and text."""
    try:
        return decode(text)
    except (ProtocolError, OracleError) as exc:
        return type(exc).__name__, str(exc)


# node texts: with and without ':', with empty parts, "Any:" and Unknown_<n>
VARIABLE_NAMES = st.sampled_from(["Unknown_7", " Unknown_07 "])
NODE_TEXTS = st.one_of(RAW, st.tuples(PARTS, st.one_of(PARTS, VARIABLE_NAMES)).map(":".join))


@settings(max_examples=500, deadline=None)
@given(NODE_TEXTS)
def test_a_node_text_decodes_as_before_unless_xml_cannot_carry_it(text):
    expected = decoded(reference_decode_node_ref, text)
    if isinstance(expected, NodeId) and (char := non_xml_char(expected.canonical)):
        # such a node was made unchecked; no XML text can hold it
        event("not XML")
        expected = ("ProtocolError", (
            f"node {expected.canonical!r} contains {char!r}, which XML files cannot carry"
        ))
    else:
        event(type(expected).__name__)
    got = decoded(decode_node_ref, text)
    assert got == expected and type(got) is type(expected)


@settings(max_examples=300, deadline=None)
@given(NAMES, st.one_of(st.none(), NAMES))
def test_every_relation_the_constructors_accept_is_read_back(relation, inverse):
    inverse = relation if inverse is None else inverse
    try:
        ontology = RelationOntology({relation: inverse, inverse: relation})
    except OntologyError:
        event("refused")
        return
    event("accepted")
    assert_read_back(ontology, A, relation, B)


@settings(max_examples=300, deadline=None)
@given(NAMES, st.one_of(st.none(), st.just("Any"), NAMES))
def test_every_variable_the_constructor_accepts_is_read_back(name, category):
    try:
        variable = Variable(name, category)
    except OracleError:
        event("refused")
        return
    event("accepted")
    query = FillQuery("Q.A.1", (PatternTriple(variable, "Knows", B),), None)
    assert parse_query_xml(emit_query_xml([query])) == [query]


@pytest.mark.parametrize(
    "name, category, message",
    [
        # read back as Variable("Unknown_1", None), which matches other nodes
        ("Unknown_1", "Any", "Unknown_1: category 'Any' is how query files write None"),
        # read back as the node Person:X
        ("X", "Person", "variable name 'X' is not Unknown_<n>"),
        ("Unknown_x", None, "variable name 'Unknown_x' is not Unknown_<n>"),
        # read back with the category Person
        ("Unknown_1", " Person", "Unknown_1: category ' Person' is not a node category"),
        ("Unknown_1", "", "Unknown_1: category '' is not a node category"),
        ("Unknown_1", "Per:son", "Unknown_1: category 'Per:son' is not a node category"),
        ("Unknown_1", "Per\x01son", "Unknown_1: category 'Per\\x01son' is not a node category"),
    ],
)
def test_a_variable_query_files_cannot_read_back_is_refused(name, category, message):
    with pytest.raises(OracleError) as exc:
        Variable(name, category)
    assert str(exc.value) == message
