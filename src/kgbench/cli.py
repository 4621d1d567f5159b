"""Command-line surface: validate-graph, gen-queries, answer, score, stats.

Exit codes: 0 success, 1 content error (parse failures, a file that is not
UTF-8, insufficient structure), 2 I/O or usage error.  All randomness flows
from --seed.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path as FsPath

from . import formats, protocol, scoring
from .graph import KnowledgeGraph
from .ontology import OntologyError, decimal, load_ontology, name_fault
from .oracle import MAX_BOUND, OracleError, PathBudgetError
from .querygen import GenerationError, generate_choice, generate_fill, generate_path

EXIT_OK = 0
EXIT_CONTENT = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    """A file's text, less a UTF-8 byte-order mark, which some editors
    write; a file that is not UTF-8 is a content error."""
    try:
        return FsPath(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}", EXIT_CONTENT) from None


def _write_file(path: FsPath, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from None


def _load_graph(args) -> KnowledgeGraph:
    try:
        ontology = load_ontology(_read_file(args.ontology))
    except OntologyError as exc:
        raise CliError(f"ontology: {exc}", EXIT_CONTENT) from None
    text = _read_file(args.graph)
    graph, diagnostics = formats.parse_graph(text, ontology, args.format)
    for d in diagnostics:
        print(f"{args.graph}: {d}", file=sys.stderr)
    if graph is None:
        raise CliError(f"graph {args.graph} failed to parse", EXIT_CONTENT)
    return graph


def cmd_validate_graph(args) -> int:
    _load_graph(args)
    print(f"{args.graph}: OK")
    return EXIT_OK


def _generation_params(args) -> dict[str, str]:
    return {
        "seed": str(args.seed),
        "count_a": str(args.count_a),
        "count_b": str(args.count_b),
        "count_c": str(args.count_c),
        "n_options": str(args.n_options),
        "max_edges": str(args.max_edges),
        "require_unique": str(args.require_unique).lower(),
    }


def cmd_gen_queries(args) -> int:
    graph = _load_graph(args)
    out = FsPath(args.out)
    params = _generation_params(args)
    try:
        fill = generate_fill(
            graph,
            args.seed,
            args.count_a,
            require_unique=args.require_unique,
        )
        choice = generate_choice(graph, args.seed + 1, args.count_b, args.n_options)
        paths = generate_path(graph, args.seed + 2, args.count_c, args.max_edges)
    except GenerationError as exc:
        raise CliError(str(exc), EXIT_CONTENT) from None
    # a type with no queries gets no files: a document holds at least one
    typed = {qs[0].letter.lower(): qs for qs in (fill, choice, paths) if qs}
    for name, queries in typed.items():
        _write_file(out / f"queries_{name}.xml", protocol.emit_query_xml(queries))
        _write_file(out / f"keys_{name}.xml", protocol.emit_key_xml(queries, params))
    print(f"wrote {len(typed)} query files and {len(typed)} key files to {out}")
    return EXIT_OK


def cmd_answer(args) -> int:
    graph = _load_graph(args)
    try:
        queries = protocol.parse_query_xml(_read_file(args.queries))
    except ValueError as exc:
        raise CliError(f"queries: {exc}", EXIT_CONTENT) from None
    out = FsPath(args.out)
    try:
        keyed = [replace(q, key=q.oracle_key(graph)) for q in queries]
    except PathBudgetError as exc:
        raise CliError(str(exc), EXIT_CONTENT) from None
    except ValueError as exc:
        raise CliError(f"query/graph mismatch: {exc}", EXIT_CONTENT) from None
    _write_file(out, protocol.emit_oracle_submission(keyed, args.team))
    print(f"wrote submission to {out}")
    return EXIT_OK


def cmd_score(args) -> int:
    graph = _load_graph(args)
    key_queries = []
    params: dict[str, str] | None = None  # the first key file's; the rest must match
    # a query in two key files would be scored, and counted, twice
    key_of: dict[object, str] = {}  # query type, and query id -> key file
    for key_path in args.keys:
        try:
            queries, key_params = protocol.parse_key_xml(_read_file(key_path))
        except ValueError as exc:
            raise CliError(f"{key_path}: {exc}", EXIT_CONTENT) from None
        for q in queries:
            for what, key in (("the same query type", type(q)), (f"query {q.id!r}", q.id)):
                if key in key_of:
                    raise CliError(
                        f"{key_of[key]} and {key_path} are key files with {what}; "
                        "score each query once",
                        EXIT_CONTENT,
                    )
        # keys of another run are another run's queries: one report, one run
        if params is None:
            params, params_path = key_params, key_path
        elif key_params != params:
            name = min(k for k in params.keys() | key_params.keys()
                       if params.get(k) != key_params.get(k))
            a, b = (f"{name}={p[name]!r}" if name in p else f"no {name}"
                    for p in (params, key_params))
            raise CliError(
                f"{params_path} has {a} but {key_path} has {b}; "
                "score the key files of one gen-queries run",
                EXIT_CONTENT,
            )
        key_of.update((k, key_path) for q in queries for k in (type(q), q.id))
        key_queries.extend(queries)

    # one report is one team: at most one file per query type, one team name
    files: dict[type, str] = {}  # query type -> its submission file
    team = ""
    answers: dict[str, object] = {}  # query id -> its answer; key_of keeps ids apart
    for sub_path in args.submissions:
        try:
            sub, diagnostics = protocol.parse_submission_xml(
                _read_file(sub_path), key_queries
            )
        except ValueError as exc:
            raise CliError(f"{sub_path}: {exc}", EXIT_CONTENT) from None
        if sub.kind in files:
            raise CliError(
                f"{files[sub.kind]} and {sub_path} are submissions of the "
                "same query type; score one file per type",
                EXIT_CONTENT,
            )
        if files and sub.team != team:
            raise CliError(
                f"{next(iter(files.values()))} is team {team!r} but {sub_path} "
                f"is team {sub.team!r}; score one team per call",
                EXIT_CONTENT,
            )
        files[sub.kind], team = sub_path, sub.team
        answers.update(sub.answers)
        for d in diagnostics:
            print(f"{sub_path}: {d}", file=sys.stderr)
    report = scoring.ScoreReport(team, params)
    for q in key_queries:
        try:
            report.add(graph, q, answers.get(q.id))
        except OracleError as exc:
            raise CliError(str(exc), EXIT_CONTENT) from None

    out = FsPath(args.out)
    _write_file(out / "report.json", report.to_json())
    _write_file(out / "report.txt", report.to_text())
    recall, precision, f1 = report.path_macro
    print(f"Type A MRR (mean of query MRRs): {report.fill_mrr_mean:.6f}")
    print(f"Type B accuracy: {report.choice_accuracy:.6f}")
    print(f"Type C macro recall/precision/F1: {recall:.6f}/{precision:.6f}/{f1:.6f}")
    print(f"wrote report to {out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    graph = _load_graph(args)
    by_category = Counter(n.category for n in graph.nodes)
    by_relation = Counter(e.relation for e in graph.edges)
    print(f"nodes: {graph.node_count}")
    for category in sorted(by_category):
        print(f"  {category}: {by_category[category]}")
    print(f"edges: {graph.edge_count}")
    for relation in sorted(by_relation):
        print(f"  {relation}: {by_relation[relation]}")
    components = _component_count(graph)
    print(f"connected components (traversal view): {components}")
    return EXIT_OK


def _component_count(graph: KnowledgeGraph) -> int:
    rows = graph.rows
    seen = [False] * len(rows)
    components = 0
    for node in range(len(rows)):
        if seen[node]:
            continue
        components += 1
        stack = [node]
        seen[node] = True
        while stack:
            for other, _ in rows[stack.pop()]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
    return components


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="graph file path")
    parser.add_argument(
        "--format", choices=("tgf", "xgml"), default="tgf", help="graph file format"
    )
    parser.add_argument("--ontology", required=True, help="ontology file path")


def _integer(low: int, high: int | None = None):
    """argparse type: an ASCII-decimal integer >= low, and <= high when
    given; anything else is a usage error."""

    def parse(text: str) -> int:
        number = decimal(text)
        if number is None or number < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        if high is not None and number > high:
            raise argparse.ArgumentTypeError(f"expected an integer <= {high}, got {text!r}")
        return number

    return parse


def _team(text: str) -> str:
    """argparse type: a team name `ontology.name_fault` finds nothing wrong
    with; else a usage error."""
    if fault := name_fault(text, "team name"):
        raise argparse.ArgumentTypeError(fault)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgbench",
        description="Knowledge-graph benchmark toolkit: generate queries, "
        "answer them with the oracle, and score submissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-graph", help="parse a graph file and report diagnostics")
    _add_graph_args(p)
    p.set_defaults(func=cmd_validate_graph)

    p = sub.add_parser("gen-queries", help="generate query and sealed key files")
    _add_graph_args(p)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--count-a", type=_integer(0), default=5)
    p.add_argument("--count-b", type=_integer(0), default=5)
    p.add_argument("--count-c", type=_integer(0), default=2)
    p.add_argument("--n-options", type=_integer(1), default=5)
    p.add_argument("--max-edges", type=_integer(1, MAX_BOUND), default=8)
    p.add_argument("--require-unique", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("answer", help="produce the oracle's perfect submission")
    _add_graph_args(p)
    p.add_argument("--queries", required=True, help="query XML file")
    p.add_argument("--team", type=_team, default="oracle")
    p.add_argument("--out", required=True, help="submission output file")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("score", help="score submissions against sealed keys")
    _add_graph_args(p)
    p.add_argument("--keys", nargs="+", required=True, help="key XML files")
    p.add_argument("--submissions", nargs="+", required=True, help="submission XML files")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="graph summary statistics")
    _add_graph_args(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cycle collector paused, and put the
    caller's collector state back afterwards.  A command builds acyclic
    data: the cyclic garbage it leaves is the same on any input
    (tests/test_cli.py checks it), so the collector's repeated walks of the
    growing element trees and traversal views would free nothing."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_IO if exc.code not in (0, None) else 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
