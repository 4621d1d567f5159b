import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import built, random_graph, reference_sample_connected_edges
from kgbench import oracle
from kgbench.graph import GraphError, KnowledgeGraph, NodeId, person
from kgbench.ontology import OntologyError, RelationOntology, load_ontology
from kgbench.oracle import (
    OracleError,
    Path,
    PatternTriple,
    Variable,
    answer_choice,
    enumerate_paths,
    solve_pattern,
)
from kgbench.protocol import emit_query_xml
from kgbench.querygen import (
    ChoiceQuery,
    FillQuery,
    GenerationError,
    PathQuery,
    QueryError,
    _sample_connected_edges,
    generate_choice,
    generate_fill,
    generate_path,
)
from kgbench.rng import SplitMix64
from kgbench.scoring import validate_path


def test_fill_deterministic(simpsons):
    a = generate_fill(simpsons, 42, 4, require_unique=True)
    b = generate_fill(simpsons, 42, 4, require_unique=True)
    assert a == b
    assert emit_query_xml(a) == emit_query_xml(b)
    assert a != generate_fill(simpsons, 43, 4, require_unique=True)


def test_fill_keys_match_oracle(simpsons):
    for q in generate_fill(simpsons, 7, 6, require_unique=False):
        assert list(q.key) == solve_pattern(simpsons, list(q.triples))
        assert q.key


def test_fill_unique_flag(simpsons):
    # at seed 8, four of the six keys have two bindings unless one is required
    assert all(len(q.key) == 1 for q in generate_fill(simpsons, 8, 6, require_unique=True))
    assert any(len(q.key) > 1 for q in generate_fill(simpsons, 8, 6, require_unique=False))


def test_fill_unique_flag_key_sizes(simpsons):
    # at seed 1, two of five keys have two bindings unless one is required
    assert [len(q.key) for q in generate_fill(simpsons, 1, 5)] == [1, 1, 2, 2, 1]
    assert [len(q.key) for q in generate_fill(simpsons, 1, 5, require_unique=True)] == [1] * 5


def test_fill_worked_example_pattern_is_producible(simpsons):
    # some seed must produce a 2-variable unique-key query; the worked
    # 4-triple example itself is solvable on this fixture (see oracle tests)
    queries = generate_fill(simpsons, 1, 10, require_unique=True)
    assert all(len(q.variables) == 2 for q in queries)


def test_fill_too_small():
    ont = load_ontology("Friend of | Friend of")
    g = built(ont, [person("A"), person("B")], [(person("A"), "Friend of", person("B"))])
    with pytest.raises(GenerationError, match="insufficient structure"):
        generate_fill(g, 1, 1)


def test_choice_shape_and_key(simpsons):
    queries = generate_choice(simpsons, 5, 8, n_options=5)
    assert len(queries) == 8
    for q in queries:
        assert len(q.options) == 5
        assert len(set(q.options)) == 5
        assert answer_choice(simpsons, q.subject, q.object, list(q.options)) == {q.key}
        # distractors hold in neither direction
        for i, opt in enumerate(q.options):
            if i != q.key:
                assert not simpsons.holds(q.subject, opt, q.object)
                assert not simpsons.holds(q.object, opt, q.subject)


def test_choice_degenerate_single_option(simpsons):
    for q in generate_choice(simpsons, 3, 4, n_options=1):
        assert q.options == (q.options[q.key],)


def test_choice_ontology_too_small(simpsons):
    ont = load_ontology("Friend of | Friend of")
    g = built(ont, [person("A"), person("B")], [(person("A"), "Friend of", person("B"))])
    with pytest.raises(GenerationError, match="insufficient structure"):
        generate_choice(g, 1, 1, n_options=5)


def test_choice_correct_index_roughly_uniform(simpsons):
    counts = [0] * 5
    for seed in range(120):
        for q in generate_choice(simpsons, seed, 1, n_options=5):
            counts[q.key] += 1
    # chi-square against uniform, 4 dof, 0.999 quantile ~ 18.47
    expected = sum(counts) / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 18.47, counts


def test_path_queries(simpsons):
    queries = generate_path(simpsons, 3, 4, max_edges=5)
    assert len(queries) == 4
    for q in queries:
        assert q.source.category == "Person" and q.target.category == "Person"
        assert list(q.key) == enumerate_paths(simpsons, q.source, q.target, 5)
        assert q.key
        for p in q.key:
            assert validate_path(simpsons, q, p) is None


def test_path_determinism(simpsons):
    assert generate_path(simpsons, 9, 3, 4) == generate_path(simpsons, 9, 3, 4)


def test_path_no_person_pair():
    ont = load_ontology("Friend of | Friend of")
    g = built(ont, [person("A")])
    with pytest.raises(GenerationError, match="insufficient structure"):
        generate_path(g, 1, 1)


@pytest.mark.parametrize("seed", range(10))
def test_generation_on_random_graphs(seed):
    g = random_graph(seed, max_nodes=9, max_edges=16)
    if g.edge_count < 3:
        return
    try:
        for q in generate_fill(g, seed, 2):
            assert list(q.key) == solve_pattern(g, list(q.triples))
            assert q.oracle_key(g) == q.key
        for q in generate_choice(g, seed, 2, n_options=2):
            assert answer_choice(g, q.subject, q.object, list(q.options)) == {q.key}
            assert q.oracle_key(g) == q.key
        for q in generate_path(g, seed, 2, max_edges=3):
            assert q.oracle_key(g) == q.key
    except GenerationError:
        pass  # degenerate random graphs may legitimately fail


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    edges=st.integers(0, 18),
    draws=st.integers(0, 2**64 - 1),
    counts=st.lists(st.integers(1, 5), min_size=1, max_size=4),
)
def test_sampling_on_the_index_matches_the_node_reference(seed, edges, draws, counts):
    # random_graph's categories are Person, Entity and Location, none a
    # prefix of another, so canonical order is (category, name) order there
    g = random_graph(seed, max_edges=edges)
    rng, reference = SplitMix64(draws), SplitMix64(draws)
    for count in counts:
        sample = _sample_connected_edges(g, rng, count)
        assert sample == reference_sample_connected_edges(g, reference, count)
        assert all(type(n) is NodeId for a, _, b in sample for n in (a, b))
    assert rng.next_u64() == reference.next_u64()  # the same number of draws


def _graph(ontology: str, nodes: str, edges: list[tuple[str, str, str]] = ()):
    return built(
        load_ontology(ontology),
        [person(name) for name in nodes],
        [(person(a), r, person(b)) for a, r, b in edges],
    )


# (graph, generator call, the full "insufficient structure" message)
TOO_SMALL = [
    pytest.param(_graph("Friend of | Friend of", "AB", [("A", "Friend of", "B")]),
                 lambda g, n: generate_fill(g, 1, n), "graph is too small", id="fill"),
    pytest.param(_graph("Friend of | Friend of", "AB", [("A", "Friend of", "B")]),
                 lambda g, n: generate_choice(g, 1, n), "ontology smaller than n_options",
                 id="choice-ontology"),
    pytest.param(_graph("Friend of | Friend of", "AB"),
                 lambda g, n: generate_choice(g, 1, n, n_options=1), "graph has no edges",
                 id="choice-edges"),
    pytest.param(_graph("Friend of | Friend of", "A"),
                 lambda g, n: generate_path(g, 1, n), "fewer than two Person nodes", id="path"),
]


@pytest.mark.parametrize("graph, generate, message", TOO_SMALL)
def test_structural_precheck_message(graph, generate, message):
    with pytest.raises(GenerationError) as exc:
        generate(graph, 1)
    assert str(exc.value) == f"insufficient structure: {message}"


@pytest.mark.parametrize("graph, generate, message", TOO_SMALL)
def test_a_count_of_zero_needs_no_structure(graph, generate, message):
    assert generate(graph, 0) == []


FRIENDS = "Friend of | Friend of\nSpouse of | Spouse of"
THREE = FRIENDS + "\nNeighbor of | Neighbor of"  # three relations


@pytest.mark.parametrize(
    "generate, message",
    [
        # a fill query needs three nodes and two edges, no more
        (lambda: generate_fill(
            _graph(FRIENDS, "ABC", [("A", "Friend of", "B"), ("B", "Friend of", "C")]), 1, 1),
         None),
        (lambda: generate_fill(
            _graph(FRIENDS, "AB", [("A", "Friend of", "B"), ("A", "Spouse of", "B")]), 1, 1),
         "insufficient structure: graph is too small"),
        (lambda: generate_fill(_graph(FRIENDS, "ABC", [("A", "Friend of", "B")]), 1, 1),
         "insufficient structure: graph is too small"),
        # as many options as relations, one holding and the rest distractors
        (lambda: generate_choice(_graph(THREE, "AB", [("A", "Friend of", "B")]), 1, 1, 3),
         None),
        # one distractor too few
        (lambda: generate_choice(
            _graph(THREE, "AB", [("A", "Friend of", "B"), ("A", "Spouse of", "B")]), 1, 1, 3),
         "insufficient structure: could not generate choice query 1 within 1000 attempts"),
    ],
    ids=["fill 3 nodes 2 edges", "fill 2 nodes", "fill 1 edge", "choice n_options = ontology",
         "choice a distractor short"],
)
def test_generation_at_the_edge_of_its_structure_checks(generate, message):
    if message is None:
        assert len(generate()) == 1
    else:
        with pytest.raises(GenerationError) as exc:
            generate()
        assert str(exc.value) == message


def test_choice_needs_an_option(simpsons):
    with pytest.raises(ValueError, match="n_options must be >= 1"):
        generate_choice(simpsons, 1, 1, n_options=0)


@pytest.mark.parametrize(
    "generate, what",
    [
        # every sample is one edge, with no node left over once two are hidden
        (lambda: generate_fill(
            _graph(FRIENDS, "ABCD", [("A", "Friend of", "B"), ("C", "Friend of", "D")]),
            1, 1), "fill"),
        # both relations hold between the only pair: no distractor is left
        (lambda: generate_choice(
            _graph(FRIENDS, "AB", [("A", "Friend of", "B"), ("A", "Spouse of", "B")]),
            1, 1, n_options=2), "choice"),
        # the two Person nodes are not connected
        (lambda: generate_path(_graph(FRIENDS, "AB"), 1, 1), "path"),
    ],
    ids=["fill", "choice", "path"],
)
def test_attempt_budget_message(generate, what):
    with pytest.raises(GenerationError) as exc:
        generate()
    assert str(exc.value) == (
        f"insufficient structure: could not generate {what} query 1 within 1000 attempts"
    )


def test_a_pair_over_the_path_budget_is_skipped(simpsons, monkeypatch):
    queries = generate_path(simpsons, 3, 4, max_edges=5)
    budget = max(len(q.key) for q in queries) - 1
    monkeypatch.setattr(oracle, "PATH_BUDGET", budget)
    skipped = generate_path(simpsons, 3, 4, max_edges=5)
    assert len(skipped) == 4
    assert skipped != queries
    for q in skipped:
        assert len(q.key) <= budget
        assert q.oracle_key(simpsons) == q.key


def test_every_pair_over_the_path_budget(monkeypatch):
    # A and B are linked twice, so each of the two pairs has two paths
    monkeypatch.setattr(oracle, "PATH_BUDGET", 1)
    g = _graph(FRIENDS, "AB", [("A", "Friend of", "B"), ("A", "Spouse of", "B")])
    with pytest.raises(GenerationError) as exc:
        generate_path(g, 1, 1)
    assert str(exc.value) == (
        "insufficient structure: could not generate path query 1 within 1000 attempts"
    )


def test_names_query_files_cannot_carry_are_refused_where_they_are_built():
    # a two-node graph like this one used to give a choice key whose option
    # read back as "Works at", or a query whose node read back as a variable
    with pytest.raises(OntologyError) as exc:
        RelationOntology({"Works_at": "Employs", "Employs": "Works_at"})
    assert str(exc.value) == "relation 'Works_at' contains '_', which query files read as a space"
    ontology = load_ontology("Works at | Employs")
    with pytest.raises(OntologyError, match="contains '_'"):
        load_ontology("Works at | Employs\nLives_with | Lives_with")
    with pytest.raises(GraphError) as exc:
        KnowledgeGraph(ontology, frozenset([person("A"), person("Unknown_1")]))
    assert str(exc.value) == "node Person:Unknown_1 is named like a query variable (Unknown_<n>)"
    with pytest.raises(GraphError, match="query variable"):
        KnowledgeGraph.build(ontology, [person("A"), person("Unknown_2")], [])


HOMER, MARGE, BART = person("Homer"), person("Marge"), person("Bart")
SPOUSE = (PatternTriple(Variable("Unknown_1", "Person"), "Spouse of",
                        Variable("Unknown_2", "Person")),)
AS_PLACE = PatternTriple(Variable("Unknown_1", "Place"), "Spouse of", HOMER)
BINDING = frozenset({("Unknown_1", HOMER), ("Unknown_2", MARGE)})
ONE_NODE = frozenset({("Unknown_1", HOMER), ("Unknown_2", HOMER)})
AS_SPOUSE = PatternTriple(Variable("Unknown_1", "Person"), "Spouse of", HOMER)
HOMER_MARGE = Path((HOMER, MARGE), ("Spouse of",))
VIA_BART = Path((HOMER, BART, MARGE), ("Parent of", "Child of"))
VIA_HOMER = Path((HOMER, MARGE, HOMER, MARGE), ("Spouse of",) * 3)
SPOUSE_OF = Path((HOMER, MARGE), ("Spouse_of",))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FillQuery("Q.A.1", (), None), "Q.A.1: fill query without triples"),
        (lambda: FillQuery("Q.A.1", SPOUSE + (AS_PLACE,), None),
         "Q.A.1: variable Unknown_1 has two categories"),
        (lambda: FillQuery("Q.A.1", SPOUSE, (frozenset({("Unknown_1", HOMER)}),)),
         "Q.A.1: a Binding names each of Unknown_1, Unknown_2 once"),
        # a Var repeated with its node is one pair of a set: the rule reads
        # the pairs as given
        (lambda: FillQuery("Q.A.1", SPOUSE, ([("Unknown_1", HOMER), ("Unknown_1", HOMER),
                                              ("Unknown_2", MARGE)],)),
         "Q.A.1: a Binding names each of Unknown_1, Unknown_2 once"),
        (lambda: FillQuery("Q.A.1", SPOUSE, (BINDING, BINDING)), "Q.A.1: a Binding appears twice"),
        # the oracle binds injectively, so neither binding can be a key's
        (lambda: FillQuery("Q.A.1", SPOUSE, (ONE_NODE,)),
         "Q.A.1: a Binding binds two variables to one node"),
        (lambda: FillQuery("Q.A.1", (AS_SPOUSE,), (frozenset({("Unknown_1", HOMER)}),)),
         "Q.A.1: a Binding binds a variable to a constant"),
        (lambda: FillQuery("Q.A.1", SPOUSE, ()), "Q.A.1: the key holds no Binding"),
        # no relation holds from a node to itself: graphs have no self-loops
        (lambda: ChoiceQuery("Q.B.1", HOMER, HOMER, ("Spouse of", "Parent of"), 0),
         "Q.B.1: subject and object are one node"),
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, (), None),
         "Q.B.1: choice query without options"),
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("a", "b", "a"), 0),
         "Q.B.1: options 1 and 3 are both 'a'"),
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("a", "b"), 2),
         "Q.B.1: Correct index out of range"),
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("a", "b"), -1),
         "Q.B.1: Correct index out of range"),
        (lambda: PathQuery("Q.C.1", HOMER, HOMER, 4, None),
         "Q.C.1: source and target are one node"),
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 0, None),
         "Q.C.1: max_edges must be at least 1"),
        # the search recurses once per edge of its route
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 65, None),
         "Q.C.1: max_edges must be at most 64"),
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 4, (HOMER_MARGE, HOMER_MARGE)),
         "Q.C.1: a Path appears twice"),
        # a key path is held to the rule a submitted one is judged by
        # (PathQuery.misfit), so the texts are validate_path's verdicts
        (lambda: PathQuery("Q.C.1", BART, MARGE, 4, (HOMER_MARGE,)),
         "Q.C.1: key Path 1: source is Person:Homer, query asks Person:Bart"),
        (lambda: PathQuery("Q.C.1", HOMER, BART, 4, (HOMER_MARGE,)),
         "Q.C.1: key Path 1: target is Person:Marge, query asks Person:Bart"),
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 1, (HOMER_MARGE, VIA_BART)),
         "Q.C.1: key Path 2: length 2 exceeds bound 1"),
        # a key holds simple paths: a team could match this one only with a path
        # validate_path refuses
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 4, (HOMER_MARGE, VIA_HOMER)),
         "Q.C.1: key Path 2: not simple: a node repeats"),
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 4, ()), "Q.C.1: the key holds no Path"),
        # written as Relation:Spouse_of, read back as "Spouse of": another query
        (lambda: FillQuery("Q.A.1", (PatternTriple(Variable("Unknown_1"), "Spouse_of", HOMER),),
                           None),
         "Q.A.1: relation 'Spouse_of' contains '_', which query files read as a space"),
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("Parent of", "Spouse_of"), 0),
         "Q.B.1: relation 'Spouse_of' contains '_', which query files read as a space"),
        (lambda: PathQuery("Q.C.1", HOMER, MARGE, 4, (SPOUSE_OF,)),
         "Q.C.1: relation 'Spouse_of' contains '_', which query files read as a space"),
        # a file the reader refuses as malformed XML
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("Spouse\x01of",), 0),
         "Q.B.1: relation 'Spouse\\x01of' contains '\\x01', which XML files cannot carry"),
        (lambda: ChoiceQuery("Q.B.\x01", HOMER, MARGE, ("Spouse of",), 0),
         "'Q.B.\\x01' contains '\\x01', which XML files cannot carry"),
        # a file the reader refuses
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("",), 0), "Q.B.1: empty relation label"),
        (lambda: ChoiceQuery("Q.B.1", HOMER, MARGE, ("Spouse  of",), 0),
         "Q.B.1: relation 'Spouse  of' is not trimmed with single spaces"),
        (lambda: PathQuery("", HOMER, MARGE, 4, None), "a query id is not empty"),
    ],
    ids=["fill no triples", "fill two categories", "fill Binding names", "fill Var twice",
         "fill Binding twice",
         "fill Binding one node", "fill Binding constant", "fill empty key", "choice one node",
         "choice no options",
         "choice option twice", "choice key past options", "choice key below options",
         "path one node", "path max_edges 0", "path max_edges 65", "path Path twice",
         "path source", "path target",
         "path length", "path not simple", "path empty key",
         "fill label _", "choice label _", "key Path label _", "label control character",
         "id control character", "label empty", "label untrimmed", "id empty"],
)
def test_an_invalid_query_is_not_built(build, message):
    with pytest.raises(QueryError) as exc:
        build()
    assert str(exc.value) == message


def test_a_binding_given_as_pairs_is_held_as_a_frozenset():
    pairs = [("Unknown_1", HOMER), ("Unknown_2", MARGE)]
    query = FillQuery("Q.A.1", SPOUSE, (pairs, [("Unknown_2", HOMER), ("Unknown_1", MARGE)]))
    assert query.key == (BINDING, frozenset({("Unknown_1", MARGE), ("Unknown_2", HOMER)}))
    assert all(type(binding) is frozenset for binding in query.key)


def test_a_fill_query_states_its_variables_and_keyed_nodes():
    triples = (PatternTriple(Variable("Unknown_2", "Person"), "Parent of", BART),
               PatternTriple(Variable("Unknown_1", "Person"), "Spouse of",
                             Variable("Unknown_2", "Person")))
    lisa = person("Lisa")
    key = (frozenset({("Unknown_1", MARGE), ("Unknown_2", HOMER)}),
           frozenset({("Unknown_1", lisa), ("Unknown_2", HOMER)}),
           frozenset({("Unknown_1", HOMER), ("Unknown_2", MARGE)}))
    query = FillQuery("Q.A.1", triples, key)
    assert "variables" not in vars(query)  # worked out when first asked, and once
    assert query.variables == ("Unknown_2", "Unknown_1")
    assert query.variables is query.variables
    # each node once, in key order, by variable in first-appearance order
    assert query.keyed_nodes() == {"Unknown_2": [HOMER, MARGE], "Unknown_1": [MARGE, lisa, HOMER]}
    assert list(query.keyed_nodes()) == ["Unknown_2", "Unknown_1"]
    with pytest.raises(OracleError, match="^Q.A.1: the query has no key$"):
        FillQuery("Q.A.1", triples, None).keyed_nodes()


@pytest.mark.parametrize(
    "path, misfit",
    [
        (HOMER_MARGE, None),
        (VIA_BART, None),
        (Path((BART, MARGE), ("Child of",)), "source is Person:Bart, query asks Person:Homer"),
        (Path((HOMER, BART), ("Parent of",)), "target is Person:Bart, query asks Person:Marge"),
        (VIA_HOMER, "not simple: a node repeats"),
        (Path((HOMER, BART, person("Lisa"), MARGE), ("Parent of", "Sibling of", "Child of")),
         "length 3 exceeds bound 2"),
    ],
)
def test_a_path_query_states_what_no_graph_lets_a_path_answer(simpsons, path, misfit):
    query = PathQuery("Q.C.1", HOMER, MARGE, 2, None)
    assert query.misfit(path) == misfit
    # the fault a submitted path is judged by is the same rule's; the graph
    # holds each path that has none
    assert validate_path(simpsons, query, path) == misfit
