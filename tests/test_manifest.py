"""Output bytes at benchmark scale: the seed-1 pipeline of each benchmark
workload, with the oracle team, must write the files `tests/manifest.json`
pins.  `python3 tools/manifest.py` rewrites the manifest; only a change that
means to alter output does so, and names each changed file.  The same
pipelines' keys must also be the oracle's, which holds without the manifest,
and their `score` must parse no node text of the graph twice."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from kgbench import cli, protocol
from kgbench.formats import parse_graph
from kgbench.graph import NodeId, is_variable_name
from kgbench.ontology import load_ontology
from kgbench.protocol import parse_key_xml

ROOT = Path(__file__).resolve().parent.parent


def load_manifest_tool():
    spec = importlib.util.spec_from_file_location("manifest", ROOT / "tools" / "manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """The manifest tool, the directory its pipelines wrote, and the sha256
    of each file they wrote; the pipelines run once for the module."""
    tool = load_manifest_tool()
    out = tmp_path_factory.mktemp("pipelines")
    return tool, out, tool.outputs(out)


def test_benchmark_outputs_match_the_manifest(pipelines):
    tool, _, made = pipelines
    pinned = json.loads(tool.MANIFEST.read_text(encoding="utf-8"))
    differ = sorted(name for name in pinned.keys() | made.keys()
                    if pinned.get(name) != made.get(name))
    assert not differ, f"files that differ from tests/manifest.json: {differ}"


def test_every_generated_key_is_the_oracles(pipelines):
    # gen-queries writes each key as its generator made it, unchecked: here
    # every key it wrote is made again by the oracle, at benchmark scale
    tool, out, _ = pipelines
    ontology = load_ontology(tool.ONTOLOGY.read_text(encoding="utf-8"))
    for name, w in tool.perfbench("world").WORKLOADS.items():
        text = (out / name / f"world.{w.fmt}").read_text(encoding="utf-8")
        graph, diagnostics = parse_graph(text, ontology, w.fmt)
        assert graph is not None, diagnostics
        checked = 0
        for path in sorted((out / name).glob("keys_*.xml")):
            queries, _ = parse_key_xml(path.read_text(encoding="utf-8"))
            wrong = [q.id for q in queries if q.oracle_key(graph) != q.key]
            assert not wrong, f"{name}/{path.name}: keys unlike the oracle's: {wrong}"
            checked += len(queries)
        assert checked == w.count_a + w.count_b + w.count_c, name


def test_score_parses_each_graph_node_once(pipelines, tmp_path, monkeypatch):
    # the graph reader parses each node's text; the key and submission
    # readers take a graph node's text from the graph's table, and decode
    # only the texts that name no node: the fill patterns' variables
    tool, out, _ = pipelines
    ontology = load_ontology(tool.ONTOLOGY.read_text(encoding="utf-8"))
    parse, decode = NodeId.parse, protocol.decode_node_ref
    parsed, decoded = [], []
    monkeypatch.setattr(NodeId, "parse", classmethod(lambda _, t: parsed.append(t) or parse(t)))
    monkeypatch.setattr(protocol, "decode_node_ref", lambda t: decoded.append(t) or decode(t))
    for name, w in tool.perfbench("world").WORKLOADS.items():
        d = out / name
        graph, _ = parse_graph((d / f"world.{w.fmt}").read_text(encoding="utf-8"), ontology, w.fmt)
        keys_a = (d / "keys_a.xml").read_text(encoding="utf-8")
        variables = {t for t in re.findall(r"<(?:Subject|Object)>([^<]*)<", keys_a)
                     if is_variable_name(t.partition(":")[2])}
        parsed.clear()
        decoded.clear()
        argv = [
            "score", "--graph", str(d / f"world.{w.fmt}"), "--format", w.fmt,
            "--ontology", str(tool.ONTOLOGY),
            "--keys", *(str(d / f"keys_{t}.xml") for t in "abc"),
            "--submissions", *(str(d / f"sub_{t}.xml") for t in "abc"),
            "--out", str(tmp_path / name),
        ]
        assert cli.main(argv) == 0
        assert (len(parsed), len(set(parsed))) == (graph.node_count,) * 2, name
        assert sorted(decoded) == sorted(variables), name
