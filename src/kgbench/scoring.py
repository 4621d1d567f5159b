"""Metrics over parsed submissions, one query and its answer at a time, by
its type's `score_<list>(graph, query, answer)` (None: no answer), which
`ScoreReport.add` picks: mean reciprocal rank for fill queries, accuracy
for multiple choice, and path recall/precision/F1 with per-path validity
verdicts.  Run-level numbers are means over each type's list of query
scores, so every type is reported, with 0 queries when it has no keys.

Conventions (all reported in the score report):
- a missing or absent correct answer scores reciprocal rank 0;
- precision counts duplicate submitted paths separately, recall counts
  distinct matches only;
- F1 is 0 when precision + recall is 0.
"""

from __future__ import annotations

import json
from collections.abc import Collection
from dataclasses import dataclass, field

from .graph import KnowledgeGraph, NodeId
from .oracle import OracleError, Path
from .querygen import ChoiceQuery, FillAnswer, FillQuery, PathQuery, Query, require_key

REPORT_VERSION = 1


def mean(values: Collection[float]) -> float:
    """The mean of `values`, summed in order; 0 when there are none."""
    return sum(values) / len(values) if values else 0.0


def reciprocal_rank(key: set[NodeId], answers: list[NodeId]) -> float:
    """1/rank of the first answer in `key`, 0 when none is."""
    for rank, answer in enumerate(answers, start=1):
        if answer in key:
            return 1.0 / rank
    return 0.0


@dataclass(frozen=True)
class FillScore:
    query_id: str
    per_variable: dict[str, float]
    mrr: float


def score_fill(graph: KnowledgeGraph, query: FillQuery, answer: FillAnswer | None) -> FillScore:
    """Per-variable reciprocal ranks of the ranked (node, confidence) pairs
    answered for each variable, none when `answer` is None, averaged over
    the query's variables.  With a multi-binding key, any keyed node for a
    variable counts (`FillQuery.keyed_nodes`)."""
    per_var: dict[str, float] = {}
    for var, keyed in query.keyed_nodes().items():
        ranked = [node for node, _ in (answer or {}).get(var, [])]
        per_var[var] = reciprocal_rank(set(keyed), ranked)
    return FillScore(query.id, per_var, mean(per_var.values()))


@dataclass(frozen=True)
class ChoiceScore:
    query_id: str
    correct: bool


def score_choice(graph: KnowledgeGraph, query: ChoiceQuery, answer: str | None) -> ChoiceScore:
    """Whether `answer` is the keyed option; no answer (None) is wrong."""
    return ChoiceScore(query.id, answer == query.correct)


def validate_path(graph: KnowledgeGraph, query: PathQuery, path: Path) -> str | None:
    """What is wrong with a submitted path, or None when it is valid: the
    fault `PathQuery.misfit` gives (endpoints, simplicity, length), else
    the first step that is not a traversal-view edge under the submitted
    label."""
    if fault := query.misfit(path):
        return fault
    nodes = path.nodes
    for i, rel in enumerate(path.relations, start=1):
        a, b = nodes[i - 1], nodes[i]
        if not graph.holds(a, rel, b):
            for node in (a, b):
                if node not in graph.number:
                    return f"node {node} not in graph"
            return f"edge {i} ({a} -[{rel}]-> {b}) not in graph"
    return None


@dataclass(frozen=True)
class PathScore:
    query_id: str
    recall: float
    precision: float
    f1: float
    verdicts: tuple[str | None, ...]  # validate_path's fault or None, per path answered


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score_paths(
    graph: KnowledgeGraph, query: PathQuery, answer: list[Path] | None
) -> PathScore:
    """Recall over the key from distinct valid matches; precision over all
    paths answered (None: none), duplicates counted.  The key holds every
    valid path, so a valid path missing from it proves the key or graph
    wrong: OracleError naming the first such path, never a quiet score."""
    submitted = answer or []
    verdicts = tuple(validate_path(graph, query, p) for p in submitted)
    matched = {p for p, fault in zip(submitted, verdicts) if fault is None}
    key = set(require_key(query))
    if not matched <= key:
        path = next(p for p in submitted if p in matched and p not in key)
        steps = "".join(f" -[{r}]-> {n}" for r, n in zip(path.relations, path.nodes[1:]))
        raise OracleError(
            f"{query.id}: the valid path {path.source}{steps} is not in the key, "
            "so the key or the graph is wrong"
        )
    recall = len(matched) / len(key)
    precision = len(matched) / len(submitted) if submitted else 0.0
    return PathScore(query.id, recall, precision, f1_score(precision, recall), verdicts)


@dataclass
class ScoreReport:
    """Per-query scores plus per-type aggregates and a parameter echo."""

    team: str
    parameters: dict[str, str] = field(default_factory=dict)
    fill: list[FillScore] = field(default_factory=list)
    choice: list[ChoiceScore] = field(default_factory=list)
    paths: list[PathScore] = field(default_factory=list)

    def add(self, graph: KnowledgeGraph, query: Query, answer: object) -> None:
        """Score `query` into its type's list by `score_<list>`, read from
        the module when called, as a tracer may have replaced it there."""
        name = {FillQuery: "fill", ChoiceQuery: "choice", PathQuery: "paths"}[type(query)]
        getattr(self, name).append(globals()[f"score_{name}"](graph, query, answer))

    @property
    def fill_mrr_mean(self) -> float:
        """Run-level mean of per-query MRRs."""
        return mean([s.mrr for s in self.fill])

    @property
    def fill_mrr_variables(self) -> float:
        """Run-level mean over every variable's reciprocal rank."""
        return mean([rr for s in self.fill for rr in s.per_variable.values()])

    @property
    def choice_accuracy(self) -> float:
        """Fraction of the keyed choice queries answered correctly."""
        return mean([s.correct for s in self.choice])

    @property
    def path_macro(self) -> tuple[float, float, float]:
        return (
            mean([s.recall for s in self.paths]),
            mean([s.precision for s in self.paths]),
            mean([s.f1 for s in self.paths]),
        )

    def to_json_dict(self) -> dict:
        recall, precision, f1 = self.path_macro
        return {
            "report_version": REPORT_VERSION,
            "team": self.team,
            "parameters": dict(sorted(self.parameters.items())),
            "type_a": {
                "num_queries": len(self.fill),
                "mrr_mean_of_queries": self.fill_mrr_mean,
                "mrr_mean_of_variables": self.fill_mrr_variables,
                "per_query": [
                    {
                        "id": s.query_id,
                        "mrr": s.mrr,
                        "per_variable": dict(sorted(s.per_variable.items())),
                    }
                    for s in self.fill
                ],
            },
            "type_b": {
                "num_queries": len(self.choice),
                "correct": sum(s.correct for s in self.choice),
                "accuracy": self.choice_accuracy,
                "per_query": dict(sorted((s.query_id, s.correct) for s in self.choice)),
            },
            "type_c": {
                "num_queries": len(self.paths),
                "recall": recall,
                "precision": precision,
                "f1": f1,
                "per_query": [
                    {
                        "id": s.query_id,
                        "recall": s.recall,
                        "precision": s.precision,
                        "f1": s.f1,
                        "verdicts": [
                            "valid" if fault is None else f"invalid({fault})"
                            for fault in s.verdicts
                        ],
                    }
                    for s in self.paths
                ],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"

    def to_text(self) -> str:
        recall, precision, f1 = self.path_macro
        lines = [
            f"Score report (team: {self.team})",
            "=" * 40,
        ]
        if self.parameters:
            lines.append("parameters: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.parameters.items())
            ))
        lines.append("")
        lines.append(f"Type A (fill):    {len(self.fill)} queries")
        lines.append(f"  MRR (mean of query MRRs):    {self.fill_mrr_mean:.6f}")
        lines.append(f"  MRR (mean over variables):   {self.fill_mrr_variables:.6f}")
        for s in self.fill:
            detail = ", ".join(f"{v}={rr:.4f}" for v, rr in sorted(s.per_variable.items()))
            lines.append(f"    {s.query_id}: mrr={s.mrr:.6f} ({detail})")
        lines.append("")
        lines.append(
            f"Type B (choice):  {sum(s.correct for s in self.choice)}/{len(self.choice)} "
            f"correct, accuracy {self.choice_accuracy:.6f}"
        )
        lines.append("")
        lines.append(f"Type C (paths):   {len(self.paths)} queries")
        lines.append(
            f"  macro recall {recall:.6f}  precision {precision:.6f}  f1 {f1:.6f}"
        )
        for s in self.paths:
            lines.append(
                f"    {s.query_id}: r={s.recall:.4f} p={s.precision:.4f} "
                f"f1={s.f1:.4f} paths={len(s.verdicts)}"
            )
        return "\n".join(lines) + "\n"

