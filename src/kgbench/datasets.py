"""Bundled demo data: the core relation vocabulary and a small Simpsons
story world used throughout the docs and tests."""

from __future__ import annotations

from importlib import resources

from .formats import ERROR, parse_graph
from .graph import GraphError, KnowledgeGraph
from .ontology import RelationOntology, load_ontology


def _read(name: str) -> str:
    return (resources.files("kgbench") / "data" / name).read_text(encoding="utf-8")


def core_ontology() -> RelationOntology:
    """The bundled default character-relation vocabulary."""
    return load_ontology(_read("core_relations.ont"))


def simpsons_ontology() -> RelationOntology:
    """Core vocabulary plus the annotator-introduced relations the Simpsons
    world uses."""
    return load_ontology(_read("simpsons.ont"))


def simpsons_graph(fmt: str = "tgf") -> KnowledgeGraph:
    """The Simpsons world, read from its bundled "tgf" or "xgml" file."""
    graph, diags = parse_graph(_read(f"simpsons.{fmt}"), simpsons_ontology(), fmt)
    errors = [str(d) for d in diags if d.severity == ERROR]
    if graph is None or errors:
        raise GraphError(f"bundled simpsons.{fmt} does not load: {'; '.join(errors)}")
    return graph
