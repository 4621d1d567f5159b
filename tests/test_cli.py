import argparse
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cyclic_garbage, naive_traversal, random_graph
from kgbench import cli, oracle
from kgbench.cli import main
from kgbench.graph import person
from kgbench.oracle import MAX_BOUND, PatternTriple, Variable
from kgbench.protocol import emit_query_xml, parse_key_xml
from kgbench.querygen import ChoiceQuery, FillQuery, PathQuery, generate_choice, generate_path

SRC = Path(__file__).parent.parent / "src"
DATA = SRC / "kgbench" / "data"
GOLDEN = Path(__file__).parent / "golden"
GRAPH = str(DATA / "simpsons.tgf")
XGML = str(DATA / "simpsons.xgml")
ONT = str(DATA / "simpsons.ont")
README = Path(__file__).parent.parent / "README.md"


def graph_args(graph=GRAPH, fmt="tgf"):
    return ["--graph", graph, "--format", fmt, "--ontology", ONT]


def pipeline_commands(out, seed=42, graph=GRAPH):
    """gen-queries, answer for each type, then score, all writing under out."""
    return [
        ["gen-queries", *graph_args(graph), "--seed", str(seed), "--count-a", "3",
         "--count-b", "3", "--count-c", "2", "--max-edges", "4",
         "--require-unique", "--out", str(out)],
        *(
            ["answer", *graph_args(graph), "--queries", str(out / f"queries_{t}.xml"),
             "--out", str(out / f"sub_{t}.xml")]
            for t in "abc"
        ),
        ["score", *graph_args(graph),
         "--keys", *(str(out / f"keys_{t}.xml") for t in "abc"),
         "--submissions", *(str(out / f"sub_{t}.xml") for t in "abc"),
         "--out", str(out / "report")],
    ]


def run_pipeline(tmp_path, seed=42):
    out = tmp_path / f"run{seed}"
    for argv in pipeline_commands(out, seed):
        assert main(argv) == 0
    return out


def test_validate_ok(capsys):
    assert main(["validate-graph", *graph_args()]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_xgml_ok():
    assert main(["validate-graph", *graph_args(XGML, "xgml")]) == 0


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tgf"
    bad.write_text("1 Person:Homer\n")  # no separator
    assert main(["validate-graph", *graph_args(str(bad))]) == 1
    assert "separator" in capsys.readouterr().err


def test_validate_missing_file():
    assert main(["validate-graph", *graph_args("/nonexistent/x.tgf")]) == 2


@pytest.mark.parametrize("which", ["graph", "ontology"])
def test_a_file_that_is_not_utf8_is_a_content_error(tmp_path, capsys, which):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 Person:A\xff\n#\n")
    graph, ontology = (str(bad), ONT) if which == "graph" else (GRAPH, str(bad))
    code = main(["validate-graph", "--graph", graph, "--ontology", ontology])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize("which", ["tgf", "xgml", "ontology"])
def test_a_byte_order_mark_is_not_read_as_text(tmp_path, capsys, which):
    # some editors save UTF-8 with a BOM; it was read as part of the first
    # line: "line 1: malformed node line: '\ufeff1 Entity:Church'", "ignored
    # top-level key '\ufeffgraph'", "line 1: expected '<relation> | <inverse>'"
    files = {"graph": XGML if which == "xgml" else GRAPH, "ontology": ONT}
    role = "ontology" if which == "ontology" else "graph"
    marked = tmp_path / Path(files[role]).name
    marked.write_bytes(b"\xef\xbb\xbf" + Path(files[role]).read_bytes())
    files[role] = str(marked)
    fmt = "xgml" if which == "xgml" else "tgf"
    argv = ["validate-graph", "--graph", files["graph"], "--format", fmt,
            "--ontology", files["ontology"]]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_stats(capsys):
    assert main(["stats", *graph_args()]) == 0
    out = capsys.readouterr().out
    assert "Person: 9" in out
    assert "Entity: 2" in out
    assert "nodes: 11" in out
    assert "edges: 15" in out
    assert "connected components (traversal view): 1" in out


def test_stats_format_independent(capsys):
    main(["stats", *graph_args()])
    tgf_out = capsys.readouterr().out
    main(["stats", *graph_args(XGML, "xgml")])
    assert capsys.readouterr().out == tgf_out


@pytest.mark.parametrize("seed", range(30))
def test_component_count_matches_a_reference(seed):
    # sparse, so most graphs have several components and isolated nodes
    g = random_graph(seed, max_edges=6)
    component = {node: {node} for node in g.nodes}
    for a, _, b in naive_traversal(g):
        if component[a] is not component[b]:
            merged = component[a] | component[b]
            for node in merged:
                component[node] = merged
    expected = len({id(nodes) for nodes in component.values()})
    assert cli._component_count(g) == expected


def test_gen_insufficient_structure(tmp_path, capsys):
    tiny = tmp_path / "tiny.tgf"
    tiny.write_text("1 Person:A\n2 Person:B\n#\n1 2 Friend of\n")
    code = main(
        ["gen-queries", "--graph", str(tiny), "--ontology", ONT,
         "--seed", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "insufficient structure" in capsys.readouterr().err


def test_end_to_end_oracle_scores_maximum(tmp_path):
    out = run_pipeline(tmp_path)
    report = json.loads((out / "report" / "report.json").read_text())
    assert report["type_a"]["mrr_mean_of_queries"] == 1.0
    assert report["type_b"]["accuracy"] == 1.0
    assert report["type_c"]["f1"] == 1.0
    assert report["parameters"]["seed"] == "42"


def test_pipeline_determinism(tmp_path):
    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    names = [f"queries_{t}.xml" for t in "abc"]
    names += [f"keys_{t}.xml" for t in "abc"]
    names += [f"sub_{t}.xml" for t in "abc"]
    names += ["report/report.json", "report/report.txt"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def outputs_across_hash_seeds(tmp_path, graph=GRAPH):
    """The pipeline's output files, run once under each of two hash seeds."""
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        for argv in pipeline_commands(out, graph=graph):
            proc = subprocess.run(
                [sys.executable, "-m", "kgbench.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        outputs.append({f.relative_to(out): f.read_bytes() for f in out.rglob("*.*")})
    return outputs


def test_pipeline_determinism_across_hash_seeds(tmp_path):
    # set and dict order follows the string hash, which differs per process
    # unless PYTHONHASHSEED pins it; no output may depend on it
    outputs = outputs_across_hash_seeds(tmp_path)
    assert len(outputs[0]) == 11  # queries, keys, submissions per type; report
    assert outputs[0] == outputs[1]


def test_pipeline_determinism_with_a_category_prefix(tmp_path):
    # Person2:Homer sorts before Person:Bart by canonical text, but after it
    # as a (category, name) tuple; every order in the pipeline is canonical
    text = Path(GRAPH).read_text(encoding="utf-8")
    for name in ("Homer", "Lenny", "Lisa"):
        text = text.replace(f"Person:{name}", f"Person2:{name}")
    graph = tmp_path / "prefix.tgf"
    graph.write_text(text, encoding="utf-8")
    outputs = outputs_across_hash_seeds(tmp_path, str(graph))
    assert len(outputs[0]) == 11
    assert outputs[0] == outputs[1]
    assert any(b"Person2:Homer" in data for data in outputs[0].values())


def test_query_files_leak_no_keys(tmp_path):
    out = run_pipeline(tmp_path)
    for t in "abc":
        queries = (out / f"queries_{t}.xml").read_text()
        assert "Binding" not in queries
        assert "Correct" not in queries
        assert "CONFIDENTIAL" not in queries
    # fill queries must not name any keyed node
    keys = (out / "keys_a.xml").read_text()
    queries = (out / "queries_a.xml").read_text()
    import xml.etree.ElementTree as ET

    root = ET.fromstring(keys)
    for var_el in root.iter("Var"):
        assert var_el.text is not None
    # every binding answer is absent from the corresponding query triples
    qroot = ET.fromstring(queries)
    for qel in root.iter("Query"):
        answers = {v.text for v in qel.iter("Var")}
        q_match = next(q for q in qroot.iter("Query") if q.get("id") == qel.get("id"))
        query_text = ET.tostring(q_match, encoding="unicode")
        for answer in answers:
            assert answer not in query_text


def test_empty_submission_scores_zero(tmp_path):
    out = run_pipeline(tmp_path)
    empty_a = tmp_path / "empty_a.xml"
    empty_a.write_text('<?xml version="1.0"?>\n<QA team="nobody"/>\n')
    assert (
        main(
            ["score", *graph_args(), "--keys", str(out / "keys_a.xml"),
             "--submissions", str(empty_a), "--out", str(tmp_path / "rep")]
        )
        == 0
    )
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["type_a"]["mrr_mean_of_queries"] == 0.0


def test_score_malformed_submission(tmp_path):
    out = run_pipeline(tmp_path)
    bad = tmp_path / "bad.xml"
    bad.write_text("<QA team='x'><unclosed>")
    assert (
        main(
            ["score", *graph_args(), "--keys", str(out / "keys_a.xml"),
             "--submissions", str(bad), "--out", str(tmp_path / "rep")]
        )
        == 1
    )


def test_score_unknown_ids_exit_zero(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    odd = tmp_path / "odd.xml"
    odd.write_text(
        '<QB team="x"><Query id="Q.B.99"><Answer>Relation:Attends</Answer></Query></QB>'
    )
    assert (
        main(
            ["score", *graph_args(), "--keys", str(out / "keys_b.xml"),
             "--submissions", str(odd), "--out", str(tmp_path / "rep")]
        )
        == 0
    )
    assert "unknown query id" in capsys.readouterr().err


def test_score_rejects_two_teams(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    other = tmp_path / "other_b.xml"
    text = (out / "sub_b.xml").read_text()
    other.write_text(text.replace('team="oracle"', 'team="other"'))
    code = main(
        ["score", *graph_args(), "--keys", *(str(out / f"keys_{t}.xml") for t in "ab"),
         "--submissions", str(out / "sub_a.xml"), str(other),
         "--out", str(tmp_path / "rep")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(out / "sub_a.xml") in err and str(other) in err
    assert "one team per call" in err
    assert not (tmp_path / "rep").exists()


def test_score_rejects_two_files_of_one_type(tmp_path, capsys):
    # a second Type-A file would double the per-query entries of one report
    out = run_pipeline(tmp_path)
    other = tmp_path / "other_a.xml"
    text = (out / "sub_a.xml").read_text()
    other.write_text(text.replace('team="oracle"', 'team="other"'))
    code = main(
        ["score", *graph_args(), "--keys", str(out / "keys_a.xml"),
         "--submissions", str(out / "sub_a.xml"), str(other),
         "--out", str(tmp_path / "rep")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(out / "sub_a.xml") in err and str(other) in err
    assert "same query type" in err
    assert not (tmp_path / "rep").exists()


def test_score_names_the_query_of_a_malformed_key(tmp_path, capsys):
    keys = tmp_path / "keys_b.xml"
    good = '<Correct index="3">Relation:Parent_of</Correct>'
    bad = good.replace("Relation:", "")
    keys.write_text((GOLDEN / "keys_b.xml").read_text().replace(good, bad))
    code = main(
        ["score", *graph_args(), "--keys", str(keys), "--submissions", str(GOLDEN / "sub_b.xml"),
         "--out", str(tmp_path / "rep")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{keys}: Q.B.1: expected 'Relation:...' text, got 'Parent_of'" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("case", ["same file twice", "copy", "id across types"])
def test_score_rejects_duplicate_key_files(tmp_path, capsys, case):
    # every query of a repeated key file used to be scored, and counted, twice
    out = run_pipeline(tmp_path)
    first = out / "keys_a.xml"
    second = tmp_path / "second.xml"
    if case == "same file twice":
        second = first
    elif case == "copy":
        second.write_text(first.read_text())
    else:
        second.write_text((out / "keys_b.xml").read_text().replace('"Q.B.1"', '"Q.A.1"'))
    code = main(
        ["score", *graph_args(), "--keys", str(first), str(second),
         "--submissions", str(out / "sub_a.xml"), "--out", str(tmp_path / "rep")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{first} and {second} are key files with" in err
    expected = "query 'Q.A.1'" if case == "id across types" else "the same query type"
    assert expected in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("case", ["another run", "a parameter missing"])
def test_score_rejects_key_files_of_two_runs(tmp_path, capsys, case):
    # the report printed the last key file's parameters above another run's scores
    for seed, extra in ((1, []), (2, ["--count-a", "3"])):
        assert main(["gen-queries", *graph_args(), "--seed", str(seed), "--count-c", "0",
                     *extra, "--out", str(tmp_path / f"run{seed}")]) == 0
    first, second = tmp_path / "run1" / "keys_a.xml", tmp_path / "run2" / "keys_b.xml"
    differs = "count_a='5' but {} has count_a='3'"
    if case == "a parameter missing":
        second = tmp_path / "keys_b.xml"
        second.write_text((tmp_path / "run1" / "keys_b.xml").read_text().replace(' seed="1"', ""))
        differs = "seed='1' but {} has no seed"
    sub = tmp_path / "sub_a.xml"
    assert main(["answer", *graph_args(), "--queries", str(tmp_path / "run1" / "queries_a.xml"),
                 "--out", str(sub)]) == 0
    capsys.readouterr()
    code = main(["score", *graph_args(), "--keys", str(first), str(second),
                 "--submissions", str(sub), "--out", str(tmp_path / "rep")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {first} has {differs.format(second)}; "
        "score the key files of one gen-queries run\n"
    )
    assert not (tmp_path / "rep").exists()


def test_an_empty_team_is_refused(tmp_path, capsys):
    # an empty team was reported as "unknown", like a team named so
    out = tmp_path / "sub_b.xml"
    code = main(["answer", *graph_args(), "--queries", str(GOLDEN / "queries_b.xml"),
                 "--team", "", "--out", str(out)])
    assert code == 2
    assert "argument --team: a team name is not empty" in capsys.readouterr().err
    assert not out.exists()
    out.write_text((GOLDEN / "sub_b.xml").read_text().replace('team="oracle"', 'team=""'))
    code = main(["score", *graph_args(), "--keys", str(GOLDEN / "keys_b.xml"),
                 "--submissions", str(out), "--out", str(tmp_path / "rep")])
    assert code == 1
    assert f"{out}: a team name is not empty" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_answer_over_the_path_budget(tmp_path, capsys, monkeypatch):
    # Homer and Bart have more than one path within four edges
    monkeypatch.setattr(oracle, "PATH_BUDGET", 1)
    queries = tmp_path / "queries_c.xml"
    query = PathQuery("Q.C.1", person("Homer"), person("Bart"), 4, None)
    queries.write_text(emit_query_xml([query]))
    out = tmp_path / "sub_c.xml"
    code = main(["answer", *graph_args(), "--queries", str(queries), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: Q.C.1: more than 1 paths from Person:Homer to Person:Bart "
        "(the path budget); a key is never truncated\n"
    )
    assert not out.exists()


def test_a_huge_path_bound_finishes(tmp_path, simpsons):
    # the largest bound, past the longest simple path, from a query file or
    # the flag, gives the keys of the longest at once
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    huge, longest = MAX_BOUND, simpsons.node_count - 1
    assert longest < huge
    subs = []
    for bound in (huge, longest):
        queries = tmp_path / f"queries_{bound}.xml"
        query = PathQuery("Q.C.1", person("Homer"), person("Bart"), bound, None)
        queries.write_text(emit_query_xml([query]))
        out = tmp_path / f"sub_{bound}.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "kgbench.cli", "answer", *graph_args(),
             "--queries", str(queries), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        subs.append(out.read_text())
    assert subs[0] == subs[1]
    assert subs[0].count("<Path") > 1
    proc = subprocess.run(
        [sys.executable, "-m", "kgbench.cli", "gen-queries", *graph_args(),
         "--seed", "7", "--count-a", "0", "--count-b", "0", "--count-c", "2",
         "--max-edges", str(huge), "--out", str(tmp_path / "q")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    keys, _ = parse_key_xml((tmp_path / "q" / "keys_c.xml").read_text(encoding="utf-8"))
    assert [q.max_edges for q in keys] == [huge, huge]
    for q in keys:
        assert q.key == PathQuery(q.id, q.source, q.target, longest, None).oracle_key(simpsons)


def test_gen_queries_with_every_pair_over_the_path_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "PATH_BUDGET", 0)
    out = tmp_path / "out"
    code = main(["gen-queries", *graph_args(), "--count-a", "0", "--count-b", "0",
                 "--count-c", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: insufficient structure: could not generate path query 1 within 1000 attempts\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "options, found",
    [(("Spouse of", "Teacher at"), 0), (("Friend of", "Colleague of"), 2)],
    ids=["none holds", "two hold"],
)
def test_answer_choice_without_one_correct_option(tmp_path, capsys, options, found):
    # Homer (4) and Lenny (5) are linked by "Friend of", and in this copy of
    # the graph by "Colleague of" too; two equal options would be a malformed
    # query, refused before the oracle runs
    graph = tmp_path / "g.tgf"
    graph.write_text(Path(GRAPH).read_text() + "4 5 Colleague of\n")
    queries = tmp_path / "queries_b.xml"
    query = ChoiceQuery("Q.B.1", person("Homer"), person("Lenny"), options, 0)
    queries.write_text(emit_query_xml([query]))
    out = tmp_path / "sub_b.xml"
    code = main(
        ["answer", *graph_args(str(graph)), "--queries", str(queries), "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: query/graph mismatch: Q.B.1: expected exactly one correct option, "
        f"got {found}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "case, keys, submission",
    [("keys_abc_sub_c", "abc", "c"), ("keys_a_sub_b", "a", "b"), ("keys_bc_sub_a", "bc", "a"),
     ("keys_ac_sub_a", "ac", "a")],
)
def test_partial_submissions_match_pinned_reports(tmp_path, case, keys, submission):
    # tests/golden_reports holds the reports of these score calls on the
    # tests/golden files; a type without a submission file is scored as empty
    code = main(
        ["score", *graph_args(), "--keys", *(str(GOLDEN / f"keys_{t}.xml") for t in keys),
         "--submissions", str(GOLDEN / f"sub_{submission}.xml"),
         "--out", str(tmp_path / "rep")]
    )
    assert code == 0
    pinned = Path(__file__).parent / "golden_reports" / case
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "rep" / name).read_bytes() == (pinned / name).read_bytes(), name


@pytest.mark.parametrize("skipped", "abc")
def test_a_type_with_no_queries_gets_no_files(tmp_path, capsys, skipped):
    out = tmp_path / "run"
    counts = {"a": "3", "b": "3", "c": "2", skipped: "0"}
    assert main(
        ["gen-queries", *graph_args(), "--seed", "7", "--count-a", counts["a"],
         "--count-b", counts["b"], "--count-c", counts["c"], "--max-edges", "4",
         "--out", str(out)]
    ) == 0
    assert f"wrote 2 query files and 2 key files to {out}" in capsys.readouterr().out
    kept = [t for t in "abc" if t != skipped]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{kind}_{t}.xml" for kind in ("queries", "keys") for t in kept
    )
    for t in kept:
        assert main(
            ["answer", *graph_args(), "--queries", str(out / f"queries_{t}.xml"),
             "--out", str(out / f"sub_{t}.xml")]
        ) == 0
        # each type draws from its own seed, so the other counts change nothing
        assert (out / f"sub_{t}.xml").read_bytes() == (GOLDEN / f"sub_{t}.xml").read_bytes()
    assert main(
        ["score", *graph_args(), "--keys", *(str(out / f"keys_{t}.xml") for t in kept),
         "--submissions", *(str(out / f"sub_{t}.xml") for t in kept),
         "--out", str(tmp_path / "rep")]
    ) == 0


def test_gen_queries_defaults():
    # the parameters a key file records when no flag sets them
    args = cli.build_parser().parse_args(
        ["gen-queries", "--graph", "g.tgf", "--ontology", "o.ont", "--out", "out"]
    )
    assert cli._generation_params(args) == {
        "seed": "0", "count_a": "5", "count_b": "5", "count_c": "2", "n_options": "5",
        "max_edges": "8", "require_unique": "false",
    }


def test_the_generators_default_to_the_flags_defaults(tmp_path, simpsons):
    # a caller that leaves out n_options and max_edges gets the queries that
    # gen-queries writes without --n-options and --max-edges
    out = tmp_path / "q"
    assert main(["gen-queries", *graph_args(), "--seed", "7", "--count-a", "0",
                 "--count-b", "2", "--count-c", "1", "--out", str(out)]) == 0
    for letter, made in (("b", generate_choice(simpsons, 8, 2)),
                         ("c", generate_path(simpsons, 9, 1))):
        keys, _ = parse_key_xml((out / f"keys_{letter}.xml").read_text(encoding="utf-8"))
        assert keys == made


def test_a_type_with_one_query_gets_its_files(tmp_path, capsys):
    # each type's files are named by its letter, read from its one query
    out = tmp_path / "run"
    assert main(
        ["gen-queries", *graph_args(), "--seed", "7", "--count-a", "1", "--count-b", "1",
         "--count-c", "1", "--max-edges", "4", "--out", str(out)]
    ) == 0
    assert f"wrote 3 query files and 3 key files to {out}" in capsys.readouterr().out
    for t in "abc":
        assert f"<Q{t.upper()}>" in (out / f"queries_{t}.xml").read_text(encoding="utf-8")
        assert f"<Q{t.upper()}Key " in (out / f"keys_{t}.xml").read_text(encoding="utf-8")


@pytest.mark.parametrize("root", ["QA", "QB", "QC"])
def test_answer_rejects_a_file_without_queries(tmp_path, capsys, root):
    queries = tmp_path / "queries.xml"
    queries.write_text(f"<{root}/>")
    out = tmp_path / "sub.xml"
    code = main(["answer", *graph_args(), "--queries", str(queries), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: queries: {root} document without a Query\n"
    assert not out.exists()


def test_a_bound_above_the_largest_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["gen-queries", *graph_args(), "--max-edges", "65", "--out", str(out)])
    assert code == 2
    assert "argument --max-edges: expected an integer <= 64, got '65'" in capsys.readouterr().err
    assert not out.exists()


def test_a_file_with_a_bound_above_the_largest_is_refused(tmp_path, capsys):
    # a query or key file carries its own bound; above MAX_BOUND it is not
    # a query, so answer and score exit 1 and write nothing
    first, above = '<Query id="Q.C.1" max_edges="4">', '<Query id="Q.C.1" max_edges="65">'
    keys, queries = tmp_path / "keys_c.xml", tmp_path / "queries_c.xml"
    for path in (keys, queries):
        text = (GOLDEN / path.name).read_text(encoding="utf-8")
        assert first in text
        path.write_text(text.replace(first, above))
    out = tmp_path / "out"
    code = main(["answer", *graph_args(), "--queries", str(queries), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: queries: Q.C.1: max_edges must be at most 64\n"
    code = main(["score", *graph_args(), "--keys", str(keys),
                 "--submissions", str(GOLDEN / "sub_c.xml"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {keys}: Q.C.1: max_edges must be at most 64\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, low",
    [("--count-a", "-2", 0), ("--count-b", "-1", 0), ("--count-c", "-1", 0),
     ("--n-options", "0", 1), ("--max-edges", "0", 1), ("--max-edges", "-1", 1),
     ("--count-a", "two", 0),
     # ASCII decimals only, as in every file the referee reads
     ("--count-a", "\u0663", 0), ("--count-b", "+5", 0), ("--max-edges", "1_0", 1),
     ("--count-c", " 2", 0),
     ("--seed", "-1", 0), ("--seed", "\u0663", 0), ("--seed", "1_0", 0), ("--seed", " 5", 0),
     # more digits than int() takes
     pytest.param("--seed", "9" * 5000, 0, id="--seed-5000 digits")],
)
def test_gen_queries_bad_numbers_are_usage_errors(tmp_path, capsys, flag, value, low):
    out = tmp_path / "out"
    code = main(["gen-queries", *graph_args(), flag, value, "--out", str(out)])
    assert code == 2
    assert (
        f"argument {flag}: expected an integer >= {low}, got {value!r}"
        in capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "graph, ontology, counts, written",
    [
        # one node: too small for any type
        ("1 Person:A\n#\n", "Friend of | Friend of\n",
         ["--count-a", "0", "--count-b", "0", "--count-c", "0"], 0),
        # two relations, fewer than the default five options of a choice query
        ("1 Person:A\n2 Person:B\n3 Person:C\n4 Person:D\n#\n"
         "1 2 Friend of\n2 3 Friend of\n3 4 Spouse of\n4 1 Friend of\n",
         "Friend of | Friend of\nSpouse of | Spouse of\n", ["--count-b", "0"], 2),
    ],
    ids=["one node", "two relations"],
)
def test_a_count_of_zero_needs_no_structure(tmp_path, capsys, graph, ontology, counts, written):
    (tmp_path / "g.tgf").write_text(graph)
    (tmp_path / "o.ont").write_text(ontology)
    out = tmp_path / "out"
    code = main(["gen-queries", "--graph", str(tmp_path / "g.tgf"),
                 "--ontology", str(tmp_path / "o.ont"), *counts, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (
        f"wrote {written} query files and {written} key files to {out}"
        in capsys.readouterr().out
    )


def test_names_the_query_files_cannot_carry_are_refused(tmp_path, capsys):
    # "Works_at" would come back from a query file as "Works at"
    ont = tmp_path / "o.ont"
    ont.write_text(Path(ONT).read_text() + "Works_at | Employs\n")
    out = tmp_path / "out"
    code = main(["gen-queries", "--graph", GRAPH, "--ontology", str(ont), "--out", str(out)])
    assert code == 1
    line = len(Path(ONT).read_text().splitlines()) + 1
    assert capsys.readouterr().err == (
        f"error: ontology: line {line}: relation 'Works_at' contains '_', "
        "which query files read as a space\n"
    )
    assert not out.exists()
    # a node named Unknown_1 would be read back from a query file as a variable
    graph = tmp_path / "g.tgf"
    graph.write_text(Path(GRAPH).read_text().replace("Person:Lenny", "Person:Unknown_1"))
    assert main(["validate-graph", *graph_args(str(graph))]) == 1
    assert "node Person:Unknown_1 is named like a query variable" in capsys.readouterr().err


def test_names_xml_cannot_carry_are_refused(tmp_path, capsys):
    # a node or team name with U+0001 would give files `answer` and `score` refuse
    graph = tmp_path / "g.tgf"
    graph.write_text(Path(GRAPH).read_text().replace("Person:Lenny", "Person:Len\x01ny"))
    assert main(["validate-graph", *graph_args(str(graph))]) == 1
    assert (
        "node 'Person:Len\\x01ny' contains '\\x01', which XML files cannot carry"
        in capsys.readouterr().err
    )
    queries = tmp_path / "queries_c.xml"
    queries.write_text(emit_query_xml([PathQuery(
        "Q.C.1", person("Homer"), person("Lenny"), 2, None
    )]))
    out = tmp_path / "sub_c.xml"
    code = main(["answer", *graph_args(), "--queries", str(queries),
                 "--team", "t\x01", "--out", str(out)])
    assert code == 2
    assert (
        "argument --team: 't\\x01' contains '\\x01', which XML files cannot carry"
        in capsys.readouterr().err
    )
    assert not out.exists()


def test_a_key_without_a_valid_path_fails_loudly(tmp_path, capsys):
    # the oracle's own submission against a key with one path cut: every
    # key holds all valid paths, so the key or the graph is wrong
    out = tmp_path / "out"
    assert main(["gen-queries", *graph_args(), "--seed", "7", "--count-a", "0",
                 "--count-b", "0", "--count-c", "3", "--max-edges", "4",
                 "--out", str(out)]) == 0
    assert main(["answer", *graph_args(), "--queries", str(out / "queries_c.xml"),
                 "--out", str(out / "sub_c.xml")]) == 0
    key = (out / "keys_c.xml").read_text()
    start = key.index('    <Path index="1">')
    end = key.index("</Path>\n", start) + len("</Path>\n")
    cut = tmp_path / "keys_cut.xml"
    cut.write_text(key[:start] + key[end:])
    capsys.readouterr()
    code = main(["score", *graph_args(), "--keys", str(cut),
                 "--submissions", str(out / "sub_c.xml"), "--out", str(tmp_path / "report")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: Q.C.1: the valid path Person:Marge -[Spouse of]-> Person:Homer "
        "-[Friend of]-> Person:Lenny is not in the key, so the key or the graph is wrong\n"
    )
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("t, item", [("a", "Binding"), ("c", "Path")])
def test_a_key_that_holds_nothing_is_refused(tmp_path, capsys, t, item):
    # every team, the oracle's too, would score 0 on Q.<T>.1 without a word
    key = (GOLDEN / f"keys_{t}.xml").read_text(encoding="utf-8")
    first = key.index("</Query>")
    emptied = re.sub(rf"\n *<{item} index.*?</{item}>", "", key[:first], flags=re.S)
    assert f"<{item} " not in emptied
    keys = tmp_path / f"keys_{t}.xml"
    keys.write_text(emptied + key[first:])
    code = main(["score", *graph_args(), "--keys", str(keys),
                 "--submissions", str(GOLDEN / f"sub_{t}.xml"), "--out", str(tmp_path / "rep")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {keys}: Q.{t.upper()}.1: the key holds no {item}\n"
    )
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "query, message",
    [
        # Ms. Krabappel is three edges from Homer
        (PathQuery("Q.C.1", person("Homer"), person("Ms. Krabappel"), 1, None),
         "Q.C.1: the key holds no Path"),
        # nobody is Bart's spouse
        (FillQuery("Q.A.1", (PatternTriple(Variable("Unknown_1", "Person"), "Spouse of",
                                           person("Bart")),), None),
         "Q.A.1: the key holds no Binding"),
    ],
    ids=["path", "fill"],
)
def test_answer_refuses_a_query_without_an_answer(tmp_path, capsys, query, message):
    # as for a choice query without one correct option: no empty answer is written
    queries = tmp_path / "queries.xml"
    queries.write_text(emit_query_xml([query]))
    out = tmp_path / "sub.xml"
    code = main(["answer", *graph_args(), "--queries", str(queries), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: query/graph mismatch: {message}\n"
    assert not out.exists()


def test_answer_refuses_a_variable_under_two_categories(tmp_path, capsys):
    # the oracle would read Place:Unknown_1 as Person:Unknown_1, and key Marge
    triple = ("<Triple><Subject>{}:Unknown_1</Subject><Pred>Relation:{}</Pred>"
              "<Object>Person:{}</Object></Triple>")
    queries = tmp_path / "queries_a.xml"
    queries.write_text('<QA><Query id="Q.A.1">' + triple.format("Person", "Parent_of", "Bart")
                       + triple.format("Place", "Spouse_of", "Homer") + "</Query></QA>")
    out = tmp_path / "sub_a.xml"
    code = main(["answer", *graph_args(), "--queries", str(queries), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: queries: Q.A.1: variable Unknown_1 has two categories\n"
    )
    assert not out.exists()


def test_a_blank_new_relation_is_an_error_not_a_crash(tmp_path, capsys):
    graph = tmp_path / "g.xgml"
    graph.write_text(
        'graph [\n node [ id 1 label "Person:A" ]\n node [ id 2 label "Person:B" ]\n'
        ' edge [ source 1 target 2 label " " ]\n]\n'
    )
    code = main(["validate-graph", *graph_args(str(graph), "xgml")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"{graph}: error: line 4: relation '' not in ontology\n"
        f"error: graph {graph} failed to parse\n"
    )


def test_a_relation_enters_a_graph_only_through_the_ontology_file(capsys):
    # simpsons.ont declares the four pairs the core vocabulary lacks, each
    # with its inverse; no reader guesses one
    core = str(DATA / "core_relations.ont")
    args = ["validate-graph", "--graph", GRAPH, "--ontology", core]
    assert main(args) == 1
    assert capsys.readouterr().err == "".join(
        f"{GRAPH}: error: line {line}: relation {relation!r} not in ontology\n"
        for line, relation in [(14, "Studies at"), (19, "Studies at"), (22, "Teacher at"),
                               (23, "Neighbor of"), (24, "Volunteers at")]
    ) + f"error: graph {GRAPH} failed to parse\n"
    assert main(["validate-graph", *graph_args()]) == 0
    assert capsys.readouterr().out == f"{GRAPH}: OK\n"


def test_a_submission_diagnostic_reads_as_a_graph_diagnostic(tmp_path, capsys):
    # one Diagnostic type prints `<file>: <severity>: <where>: <message>`
    sub = tmp_path / "sub_c.xml"
    sub.write_text('<QC team="x"><Query id="Q.C.999" /></QC>')
    code = main(["score", *graph_args(), "--keys", str(GOLDEN / "keys_c.xml"),
                 "--submissions", str(sub), "--out", str(tmp_path / "rep")])
    assert code == 0
    assert capsys.readouterr().err == (
        f"{sub}: warning: Q.C.999: submission references an unknown query id; ignored\n"
    )


def grown_simpsons(path: Path, copies: int) -> str:
    """The Simpsons world `copies` times over, copy k's names ending in k:
    a graph `copies` times the size, written to `path`."""
    nodes, edges = Path(GRAPH).read_text(encoding="utf-8").split("#\n")
    size = len(nodes.splitlines())
    lines = []
    for k in range(copies):
        for line in nodes.splitlines():
            number, node = line.split(" ", 1)
            lines.append(f"{int(number) + k * size} {node} {k}")
    lines.append("#")
    for k in range(copies):
        for line in edges.splitlines():
            a, b, relation = line.split(" ", 2)
            lines.append(f"{int(a) + k * size} {int(b) + k * size} {relation}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def small_and_large(tmp_path_factory):
    """The Simpsons world and one 12 times its size, each with the files of
    one pipeline run in its directory."""
    worlds = []
    for copies in (1, 12):
        out = tmp_path_factory.mktemp(f"copies{copies}")
        graph = GRAPH if copies == 1 else grown_simpsons(out / "world.tgf", copies)
        for argv in pipeline_commands(out, seed=3, graph=graph):
            assert main(argv) == 0
        absent = PathQuery("Q.C.1", person("Nobody"), person("Homer"), 4, None)
        (out / "absent.xml").write_text(emit_query_xml([absent]), encoding="utf-8")
        worlds.append((graph, out))
    return worlds


PIPELINE_CASES = ["gen-queries", "answer a", "answer b", "answer c", "score"]


def garbage_case(case: str, graph: str, out: Path) -> tuple[list[str], int]:
    """The argv of `case` on one world of `small_and_large`, and its exit code."""
    if case in ("validate-graph", "stats"):
        return [case, *graph_args(graph)], 0
    if case in PIPELINE_CASES:
        return pipeline_commands(out, seed=3, graph=graph)[PIPELINE_CASES.index(case)], 0
    answer = ["answer", *graph_args(graph), "--queries"]
    if case == "exit 1":  # a query naming a node not in the graph
        return [*answer, str(out / "absent.xml"), "--out", str(out / "absent_sub.xml")], 1
    # exit 2: absent.xml is a file, so no directory can be made under it
    return [*answer, str(out / "queries_c.xml"), "--out", str(out / "absent.xml" / "s.xml")], 2


@pytest.mark.parametrize(
    "case", ["validate-graph", "stats", *PIPELINE_CASES, "exit 1", "exit 2"]
)
def test_cyclic_garbage_does_not_grow_with_the_graph(small_and_large, capsys, case):
    # commands run with the collector paused, which is safe only while what
    # they leave for it stays the same on any input; the count itself
    # differs between Python versions (argparse, json)
    counts = []
    for graph, out in small_and_large:
        argv, code = garbage_case(case, graph, out)
        assert main(argv) == code  # a first call fills one-time caches
        counts.append(cyclic_garbage(lambda: main(argv)))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(monkeypatch, capsys, enabled):
    seen = []
    monkeypatch.setattr(cli, "cmd_stats", lambda args: seen.append(gc.isenabled()) or 0)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["stats", *graph_args()]) == 0
        after = gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]
    assert after is enabled


def test_the_readme_names_each_flag_and_only_flags_the_commands_take():
    # a flag the parser dropped must leave the README with it
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        option
        for command in (parser, *commands.choices.values())
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert sorted(accepted - named) == []
    assert sorted(named - accepted) == ["--no-build-isolation"]  # pip's, in the install line
