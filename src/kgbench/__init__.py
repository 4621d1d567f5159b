"""Knowledge-graph benchmark toolkit.

Load a ground-truth story-world graph (TGF or XGML), generate fill /
multiple-choice / path queries with sealed answer keys, answer them with a
brute-force oracle, and score participant submissions (MRR, accuracy, path
recall/precision/F1).
"""

from .graph import Edge, KnowledgeGraph, NodeId, entity, person
from .ontology import RelationOntology, load_ontology
from .oracle import Path, PatternTriple, Variable, answer_choice, enumerate_paths, solve_pattern
from .querygen import (
    ChoiceQuery,
    FillQuery,
    PathQuery,
    generate_choice,
    generate_fill,
    generate_path,
)
from .scoring import (
    ScoreReport,
    reciprocal_rank,
    score_choice,
    score_fill,
    score_paths,
    validate_path,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiceQuery",
    "Edge",
    "FillQuery",
    "KnowledgeGraph",
    "NodeId",
    "Path",
    "PathQuery",
    "PatternTriple",
    "RelationOntology",
    "ScoreReport",
    "Variable",
    "answer_choice",
    "entity",
    "enumerate_paths",
    "generate_choice",
    "generate_fill",
    "generate_path",
    "load_ontology",
    "person",
    "reciprocal_rank",
    "score_choice",
    "score_fill",
    "score_paths",
    "solve_pattern",
    "validate_path",
]
