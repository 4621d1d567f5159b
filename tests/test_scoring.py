import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import canonical_paths, naive_validate_path, random_graph, reference_enumerate_paths
from kgbench.datasets import simpsons_graph
from kgbench.graph import entity, person
from kgbench.oracle import OracleError, Path, PatternTriple, Variable, enumerate_paths
from kgbench.querygen import ChoiceQuery, FillQuery, PathQuery
from kgbench import scoring
from kgbench.rng import SplitMix64
from kgbench.scoring import (
    ScoreReport,
    f1_score,
    reciprocal_rank,
    score_choice,
    score_fill,
    score_paths,
    validate_path,
)


def ranked(*names):
    return [person(n) for n in names]


def test_reciprocal_rank():
    key = {person("Homer")}
    assert reciprocal_rank(key, ranked("Bart", "Homer")) == 0.5
    assert reciprocal_rank(key, ranked("Homer")) == 1.0
    assert reciprocal_rank(key, ranked("Bart", "Lisa")) == 0.0
    assert reciprocal_rank(key, []) == 0.0
    assert reciprocal_rank(key, ranked("A", "B", "C", "Homer")) == 0.25


def three_var_query():
    v1, v2, v3 = (Variable(f"Unknown_{i}") for i in (1, 2, 3))
    triples = tuple(
        PatternTriple(v, "Friend of", person("Anchor")) for v in (v1, v2, v3)
    )
    key = (
        frozenset(
            {
                ("Unknown_1", person("A1")),
                ("Unknown_2", person("A2")),
                ("Unknown_3", person("A3")),
            }
        ),
    )
    return FillQuery("Q.A.1", triples, key)


def test_mrr_worked_example(simpsons):
    # correct answers at ranks 2, 1 and 4 -> (1/2 + 1 + 1/4) / 3 = 7/12
    query = three_var_query()
    answered = {
        "Unknown_1": [(person("X"), 0.9), (person("A1"), 0.8)],
        "Unknown_2": [(person("A2"), 0.9)],
        "Unknown_3": [
            (person("X"), 0.9),
            (person("Y"), 0.8),
            (person("Z"), 0.7),
            (person("A3"), 0.6),
        ],
    }
    score = score_fill(simpsons, query, answered)
    assert score.per_variable == {
        "Unknown_1": 0.5,
        "Unknown_2": 1.0,
        "Unknown_3": 0.25,
    }
    assert abs(score.mrr - 7 / 12) < 1e-12


def test_mrr_perfect_and_empty(simpsons):
    query = three_var_query()
    perfect = {
        v: [(person(f"A{i}"), 1.0)]
        for i, v in enumerate(("Unknown_1", "Unknown_2", "Unknown_3"), 1)
    }
    assert score_fill(simpsons, query, perfect).mrr == 1.0
    assert score_fill(simpsons, query, {}).mrr == 0.0
    assert score_fill(simpsons, query, None).mrr == 0.0


def test_multi_binding_key_any_counts(simpsons):
    v = Variable("Unknown_1")
    key = (
        frozenset({("Unknown_1", person("A"))}),
        frozenset({("Unknown_1", person("B"))}),
    )
    query = FillQuery(
        "Q.A.1", (PatternTriple(v, "Friend of", person("C")),), key
    )
    answered = {"Unknown_1": [(person("B"), 1.0)]}
    assert score_fill(simpsons, query, answered).per_variable["Unknown_1"] == 1.0


def make_choices(n):
    return [
        ChoiceQuery(f"Q.B.{i}", person("S"), person("O"), ("R1", "R2"), 0)
        for i in range(1, n + 1)
    ]


def accuracy(queries, answers):
    choice = [score_choice(simpsons_graph(), q, answers.get(q.id)) for q in queries]
    return ScoreReport("t", choice=choice).choice_accuracy


def test_a_report_scores_through_the_module_functions(simpsons, monkeypatch):
    # perfbench times each type's scoring by replacing the module's score
    # function, so ScoreReport.add must look it up when it is called
    calls = []
    real = scoring.score_choice
    monkeypatch.setattr(scoring, "score_choice", lambda *args: calls.append(args) or real(*args))
    query = make_choices(1)[0]
    report = ScoreReport("t")
    report.add(simpsons, query, "R1")
    report.add(simpsons, query, None)
    assert calls == [(simpsons, query, "R1"), (simpsons, query, None)]
    assert [s.correct for s in report.choice] == [True, False]


def test_accuracy():
    queries = make_choices(4)
    answers = {"Q.B.1": "R1", "Q.B.2": "R1", "Q.B.3": "R1", "Q.B.4": "R2"}
    assert accuracy(queries, answers) == 0.75
    assert accuracy(queries, {}) == 0.0
    allright = {q.id: "R1" for q in queries}
    assert accuracy(queries, allright) == 1.0
    # unanswered counts against the denominator
    partial = {"Q.B.1": "R1"}
    assert accuracy(queries, partial) == 0.25


def chalmers_query(simpsons):
    source, target = person("Superintendent Chalmers"), person("Lenny")
    key = tuple(enumerate_paths(simpsons, source, target, 4))
    return PathQuery("Q.C.1", source, target, 4, key)


def test_validate_path_worked_example(simpsons):
    query = chalmers_query(simpsons)
    route1 = Path(
        (
            person("Superintendent Chalmers"),
            person("Principal Skinner"),
            entity("Church"),
            person("Homer"),
            person("Lenny"),
        ),
        ("Supervisor of", "Attends", "Attended By", "Friend of"),
    )
    assert validate_path(simpsons, query, route1) is None

    bad_edge = Path(route1.nodes, ("Supervisor of", "Spouse of", "Attended By", "Friend of"))
    assert validate_path(simpsons, query, bad_edge) == (
        "edge 2 (Person:Principal Skinner -[Spouse of]-> Entity:Church) not in graph"
    )

    looping = Path(
        (
            person("Superintendent Chalmers"),
            person("Principal Skinner"),
            entity("Church"),
            person("Homer"),
            entity("Church"),
        ),
        ("Supervisor of", "Attends", "Attended By", "Attends"),
    )
    bad_query = PathQuery("Q.C.2", person("Superintendent Chalmers"), entity("Church"), 6, None)
    assert validate_path(simpsons, bad_query, looping) == "not simple: a node repeats"


def test_validate_path_endpoints_and_bound(simpsons):
    query = chalmers_query(simpsons)
    wrong_start = Path((person("Homer"), person("Lenny")), ("Friend of",))
    assert validate_path(simpsons, query, wrong_start) == (
        "source is Person:Homer, query asks Person:Superintendent Chalmers"
    )
    five_edges = Path(
        (
            person("Superintendent Chalmers"),
            entity("Springfield Elementary"),
            person("Bart"),
            person("Marge"),
            person("Homer"),
            person("Lenny"),
        ),
        ("Superintendent at", "Studied at by", "Child of", "Spouse of", "Friend of"),
    )
    assert validate_path(simpsons, query, five_edges) == "length 5 exceeds bound 4"


MUTATIONS = ["relation", "inverse", "repeat", "foreign", "over-bound", "swap"]


@st.composite
def mutated_paths(draw):
    """A random graph, a path query over it, and one of its keyed paths
    after up to three mutations."""
    g = random_graph(draw(st.integers(0, 2**32)), max_nodes=8, max_edges=14)
    assume(g.edge_count)
    edge = draw(st.sampled_from(g.sorted_edges))
    source = edge.src
    target = draw(st.sampled_from([n for n in g.nodes if n != source]))
    if not reference_enumerate_paths(g, source, target, None):
        target = edge.dst
    bound = draw(st.integers(1, 6))
    routes = reference_enumerate_paths(g, source, target, None)
    key = tuple(canonical_paths(p for p in routes if p.length <= bound))
    path = draw(st.sampled_from(key or canonical_paths(routes)))
    nodes, rels = list(path.nodes), list(path.relations)
    relations = sorted(g.ontology.relations) + ["Owns"]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        step = draw(st.integers(0, len(rels) - 1))
        # an inner node when there is one, else the target
        at = draw(st.integers(1, len(nodes) - 2)) if len(nodes) > 2 else 1
        if mutation == "relation":
            rels[step] = draw(st.sampled_from(relations))
        elif mutation == "inverse" and rels[step] in g.ontology:
            rels[step] = g.ontology.inverse_of(rels[step])
        elif mutation == "repeat":
            nodes[at] = nodes[draw(st.integers(0, len(nodes) - 1))]
        elif mutation == "foreign":
            nodes[at] = person("Stranger")
        elif mutation == "over-bound" and len(rels) > 1:  # a query's bound is >= 1
            bound = len(rels) - 1
        elif mutation == "swap":
            nodes[0], nodes[-1] = nodes[-1], nodes[0]
    # keyless: validate_path reads no key, and the bound may now be below a keyed path's length
    query = PathQuery("Q.C.1", source, target, bound, None)
    return g, query, Path(tuple(nodes), tuple(rels))


@settings(max_examples=300, deadline=None)
@given(mutated_paths())
def test_validate_path_equals_the_reference(case):
    g, query, path = case
    assert validate_path(g, query, path) == naive_validate_path(g, query, path)


def test_score_paths_perfect(simpsons):
    query = chalmers_query(simpsons)
    score = score_paths(simpsons, query, query.key)
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)


def test_score_paths_empty(simpsons):
    query = chalmers_query(simpsons)
    score = score_paths(simpsons, query, [])
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


def test_score_paths_derived_f1(simpsons):
    # 2 keyed paths + 2 invalid entries against a 3-path key:
    # recall 2/3, precision 2/4, F1 = 2*(1/2 * 2/3)/(1/2 + 2/3) = 4/7
    query = chalmers_query(simpsons)
    keyed = list(query.key[:2])
    invalid = Path((person("Superintendent Chalmers"), person("Lenny")), ("Friend of",))
    score = score_paths(simpsons, query, keyed + [invalid, invalid])
    assert abs(score.recall - 2 / 3) < 1e-12
    assert abs(score.precision - 1 / 2) < 1e-12
    assert abs(score.f1 - 4 / 7) < 1e-12


def test_duplicate_spam_lowers_precision(simpsons):
    query = chalmers_query(simpsons)
    one = query.key[0]
    score = score_paths(simpsons, query, [one] * 5)
    assert score.recall == 1 / 3
    assert score.precision == 1 / 5


def test_a_valid_path_missing_from_the_key_is_an_error(simpsons):
    # the key holds every valid path, so a cut key must not quietly lower
    # a perfect submission's precision
    query = chalmers_query(simpsons)
    paths = list(query.key)
    cut = PathQuery(query.id, query.source, query.target, query.max_edges, query.key[2:])
    # the error names the first missing path in submission order
    for submitted, named in ((paths, paths[0]), (paths[::-1], paths[1])):
        with pytest.raises(OracleError) as exc:
            score_paths(simpsons, cut, submitted)
        steps = "".join(f" -[{r}]-> {n}" for r, n in zip(named.relations, named.nodes[1:]))
        assert str(exc.value) == (
            f"{query.id}: the valid path {named.source}{steps} is not in the key, "
            "so the key or the graph is wrong"
        )
    # an invalid path is only scored as one, whatever the key holds
    invalid = Path((query.source, query.target), ("Friend of",))
    assert score_paths(simpsons, cut, [invalid]).precision == 0.0


def test_path_order_invariance(simpsons):
    query = chalmers_query(simpsons)
    paths = list(query.key)
    rng = SplitMix64(1)
    fwd = score_paths(simpsons, query, paths)
    shuffled = list(paths)
    rng.shuffle(shuffled)
    rev = score_paths(simpsons, query, shuffled)
    assert (fwd.recall, fwd.precision, fwd.f1) == (rev.recall, rev.precision, rev.f1)


def test_f1_properties():
    assert f1_score(0.0, 0.0) == 0.0
    for p, r in [(0.3, 0.9), (1.0, 1.0), (0.0, 0.5), (0.5, 0.0)]:
        f1 = f1_score(p, r)
        assert 0.0 <= f1 <= max(p, r) + 1e-12
        assert (f1 == 0.0) == (p * r == 0.0)


def test_aggregate_self_consistency(simpsons):
    query = chalmers_query(simpsons)
    path_score = score_paths(simpsons, query, list(query.key))
    fill_score = score_fill(simpsons, three_var_query(), {})
    choices = make_choices(2)
    report = ScoreReport(
        "t",
        {"seed": "1"},
        [fill_score],
        [score_choice(simpsons, choices[0], "R1"), score_choice(simpsons, choices[1], None)],
        [path_score],
    )
    # single-query aggregates equal the query scores
    assert report.fill_mrr_mean == fill_score.mrr
    assert report.path_macro == (path_score.recall, path_score.precision, path_score.f1)
    assert report.choice_accuracy == 0.5
    blob = report.to_json_dict()
    assert blob["report_version"] == 1
    assert blob["parameters"] == {"seed": "1"}
    # aggregates recompute from per-query entries
    per_query = blob["type_a"]["per_query"]
    assert blob["type_a"]["mrr_mean_of_queries"] == sum(
        e["mrr"] for e in per_query
    ) / len(per_query)
    text = report.to_text()
    assert "Type A" in text and "Type B" in text and "Type C" in text


def test_aggregate_two_fill_queries(simpsons):
    a = score_fill(simpsons, three_var_query(), {})
    perfect = {
        v: [(person(f"A{i}"), 1.0)]
        for i, v in enumerate(("Unknown_1", "Unknown_2", "Unknown_3"), 1)
    }
    b = score_fill(simpsons, three_var_query(), perfect)
    report = ScoreReport("t", fill=[a, b])
    assert report.fill_mrr_mean == 0.5
