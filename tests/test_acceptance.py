"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import json
from pathlib import Path as FsPath

import pytest

from helpers import (
    canonical_bindings,
    naive_solve_pattern,
    random_graph,
    reference_enumerate_paths,
)
from kgbench.cli import main
from kgbench.formats import emit_tgf, emit_xgml, has_errors, parse_tgf, parse_xgml
from kgbench.graph import entity, person
from kgbench.oracle import (
    Path,
    PatternTriple,
    Variable,
    enumerate_paths,
    solve_pattern,
)
from kgbench.protocol import emit_query_xml, parse_query_xml
from kgbench.querygen import PathQuery, generate_fill
from kgbench.rng import SplitMix64
from kgbench.scoring import score_fill, score_paths, validate_path


DATA = FsPath(__file__).parent.parent / "src" / "kgbench" / "data"


def report(name: str, ok: bool):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_mrr_worked_example(simpsons):
    """Ranks {2, 1, 4} score exactly 7/12."""
    triples = tuple(
        PatternTriple(Variable(f"Unknown_{i}"), "Friend of", person("Anchor"))
        for i in (1, 2, 3)
    )
    key = (frozenset({(f"Unknown_{i}", person(f"A{i}")) for i in (1, 2, 3)}),)
    from kgbench.querygen import FillQuery

    query = FillQuery("Q.A.1", triples, key)
    answered = {
        "Unknown_1": [(person("W"), 0.9), (person("A1"), 0.8)],
        "Unknown_2": [(person("A2"), 1.0)],
        "Unknown_3": [
            (person("W"), 0.9),
            (person("X"), 0.8),
            (person("Y"), 0.7),
            (person("A3"), 0.6),
        ],
    }
    mrr = score_fill(simpsons, query, answered).mrr
    report("1 (MRR ranks 2,1,4 -> 7/12)", abs(mrr - 7 / 12) <= 1e-12)


def test_criterion_2_fill_worked_example(simpsons):
    X, Y = Variable("Unknown_1"), Variable("Unknown_2")
    pattern = [
        PatternTriple(X, "Spouse of", person("Marge")),
        PatternTriple(X, "Friend of", person("Lenny")),
        PatternTriple(Y, "Volunteers at", entity("Church")),
        PatternTriple(Y, "Neighbor of", X),
    ]
    result = solve_pattern(simpsons, pattern)
    expected = [
        frozenset(
            {("Unknown_1", person("Homer")), ("Unknown_2", person("Ned Flanders"))}
        )
    ]
    report("2 (fill pattern -> X=Homer, Y=Ned Flanders, unique)", result == expected)


def test_criterion_3_path_worked_example(simpsons):
    source, target = person("Superintendent Chalmers"), person("Lenny")
    paths = enumerate_paths(simpsons, source, target, 4)
    routes = {tuple(n.name for n in p.nodes[1:-1]) for p in paths}
    expected_routes = {
        ("Principal Skinner", "Church", "Homer"),
        ("Springfield Elementary", "Bart", "Homer"),
        ("Springfield Elementary", "Lisa", "Homer"),
    }
    query = PathQuery("Q.C.1", source, target, 4, tuple(paths))
    all_valid = all(validate_path(simpsons, query, p) is None for p in paths)
    report(
        "3 (three 4-edge routes Chalmers->Lenny, all valid)",
        len(paths) == 3 and routes == expected_routes and all_valid,
    )


def test_criterion_4_degree_worked_example(simpsons):
    children = solve_pattern(
        simpsons, [PatternTriple(person("Marge"), "Parent of", Variable("Unknown_1"))]
    )
    report("4 (Marge has two Parent-of edges)", len(children) == 2)


def test_criterion_5_derived_f1(simpsons):
    source, target = person("Superintendent Chalmers"), person("Lenny")
    key = tuple(enumerate_paths(simpsons, source, target, 4))
    query = PathQuery("Q.C.1", source, target, 4, key)
    keyed = list(key[:2])
    bogus = Path((source, target), ("Friend of",))
    score = score_paths(simpsons, query, keyed + [bogus, bogus])
    ok = (
        abs(score.recall - 2 / 3) <= 1e-12
        and abs(score.precision - 1 / 2) <= 1e-12
        and abs(score.f1 - 4 / 7) <= 1e-12
    )
    report("5 (2 correct + 2 invalid vs 3-path key -> R 2/3, P 1/2, F1 4/7)", ok)


def test_criterion_6_oracle_equivalence():
    ok = True
    for seed in range(200):
        g = random_graph(seed, max_nodes=12, max_edges=20)
        rng = SplitMix64(seed * 31 + 1)
        nodes = g.nodes
        relations = sorted(g.ontology.relations)
        n_vars = 1 + rng.randrange(3)
        variables = [Variable(f"Unknown_{i+1}") for i in range(n_vars)]
        triples = []
        for _ in range(1 + rng.randrange(3)):
            pick = lambda: (
                rng.choice(variables) if rng.randrange(2) == 0 else rng.choice(nodes)
            )
            triples.append(PatternTriple(pick(), rng.choice(relations), pick()))
        # the same bindings, each once, in canonical order
        if solve_pattern(g, triples) != canonical_bindings(naive_solve_pattern(g, triples)):
            ok = False
            break
    report("6a (solve_pattern == naive enumeration, 200 graphs)", ok)

    ok = True
    for seed in range(200):
        g = random_graph(seed + 1000, max_nodes=10, max_edges=18)
        rng = SplitMix64(seed * 17 + 3)
        nodes = g.nodes
        source, target = nodes[0], nodes[-1]
        if source == target:
            continue
        bound = 1 + rng.randrange(6)
        if set(enumerate_paths(g, source, target, bound)) != reference_enumerate_paths(
            g, source, target, bound
        ):
            ok = False
            break
    report("6b (path enumeration == independent implementation, 200 graphs)", ok)


def test_criterion_7_round_trips(simpsons):
    ok = True
    for seed in range(500):
        g = random_graph(seed, max_nodes=9, max_edges=14)
        t, dt = parse_tgf(emit_tgf(g), g.ontology)
        x, dx = parse_xgml(emit_xgml(g), g.ontology)
        if has_errors(dt) or has_errors(dx) or t != g or x != g or t != x:
            ok = False
            break
    report("7a (TGF/XGML round-trips + cross-format equality, 500 graphs)", ok)

    queries = generate_fill(simpsons, 9, 4)
    parsed = parse_query_xml(emit_query_xml(queries))
    ok = [(q.id, q.triples) for q in parsed] == [(q.id, q.triples) for q in queries]
    report("7b (query XML emit/parse identity)", ok)


@pytest.mark.parametrize("seed", [7, 42, 20260824])
def test_criterion_8_end_to_end_identity(tmp_path, seed, capsys):
    out = tmp_path / "run"
    args = [
        "--graph", str(DATA / "simpsons.tgf"),
        "--ontology", str(DATA / "simpsons.ont"),
    ]
    assert main(["gen-queries", *args, "--seed", str(seed), "--count-a", "3",
                 "--count-b", "3", "--count-c", "2", "--max-edges", "4",
                 "--out", str(out)]) == 0
    for t in "abc":
        assert main(["answer", *args, "--queries", str(out / f"queries_{t}.xml"),
                     "--out", str(out / f"sub_{t}.xml")]) == 0
    assert main(["score", *args,
                 "--keys", *(str(out / f"keys_{t}.xml") for t in "abc"),
                 "--submissions", *(str(out / f"sub_{t}.xml") for t in "abc"),
                 "--out", str(out / "report")]) == 0
    blob = json.loads((out / "report" / "report.json").read_text())
    ok = (
        blob["type_a"]["mrr_mean_of_queries"] == 1.0
        and blob["type_b"]["accuracy"] == 1.0
        and blob["type_c"]["recall"] == 1.0
        and blob["type_c"]["precision"] == 1.0
        and blob["type_c"]["f1"] == 1.0
    )
    report(f"8 (oracle submission scores maximum, seed {seed})", ok)


def test_criterion_9_pipeline_determinism(tmp_path):
    def run(base):
        out = tmp_path / base
        args = [
            "--graph", str(DATA / "simpsons.tgf"),
            "--ontology", str(DATA / "simpsons.ont"),
        ]
        main(["gen-queries", *args, "--seed", "42", "--count-a", "3", "--count-b",
              "3", "--count-c", "2", "--max-edges", "4", "--out", str(out)])
        for t in "abc":
            main(["answer", *args, "--queries", str(out / f"queries_{t}.xml"),
                  "--out", str(out / f"sub_{t}.xml")])
        main(["score", *args,
              "--keys", *(str(out / f"keys_{t}.xml") for t in "abc"),
              "--submissions", *(str(out / f"sub_{t}.xml") for t in "abc"),
              "--out", str(out / "report")])
        return out

    a, b = run("a"), run("b")
    files = [f"{kind}_{t}.xml" for kind in ("queries", "keys", "sub") for t in "abc"]
    files += ["report/report.json", "report/report.txt"]
    ok = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    report("9 (seed-42 pipeline is byte-reproducible)", ok)
