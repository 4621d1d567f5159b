import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    built,
    naive_tokenize_xgml,
    random_graph,
    reference_parse_tgf,
    reference_parse_xgml,
    reference_tokenize_xgml,
)
from kgbench import datasets
from kgbench.datasets import simpsons_graph, simpsons_ontology
from kgbench.formats import (
    emit_tgf,
    emit_xgml,
    has_errors,
    parse_graph,
    parse_tgf,
    parse_xgml,
)
from kgbench.graph import GraphError, KnowledgeGraph, person
from kgbench.ontology import OntologyError, load_ontology
from kgbench.rng import SplitMix64

ONT = load_ontology("Spouse of | Spouse of\nChild of | Parent of\n")
# ASCII digits, more of them than int() takes under its default limit of 4,300
LONG = "9" * 5000


def test_minimal_tgf():
    g, diags = parse_tgf("1 Person:Homer\n2 Person:Marge\n#\n2 1 Spouse of\n", ONT)
    assert not diags
    assert g.node_count == 2 and g.edge_count == 1
    assert g.holds(person("Homer"), "Spouse of", person("Marge"))


def test_tgf_missing_separator():
    g, diags = parse_tgf("1 Person:Homer\n", ONT)
    assert g is None
    assert any("separator" in d.message for d in diags)


def test_tgf_undeclared_edge_endpoint():
    g, diags = parse_tgf("1 Person:Homer\n#\n1 9 Spouse of\n", ONT)
    assert g is None
    assert any("undeclared" in d.message and d.where == "line 3" for d in diags)


def test_tgf_label_without_category():
    g, diags = parse_tgf("1 Homer\n#\n", ONT)
    assert g is None
    assert any("category prefix" in d.message for d in diags)


@pytest.mark.parametrize(
    "text",
    [
        "\u00b2 Person:A\n#\n",
        "\u0663 Person:A\n#\n",
        "1 Person:A\n2 Person:B\n#\n1 \u00b2 Spouse of\n",
        "1 Person:A\n2 Person:B\n#\n\u0661 2 Spouse of\n",
        pytest.param(f"{LONG} Person:A\n#\n", id="long node id"),
        pytest.param(f"1 Person:A\n2 Person:B\n#\n1 {LONG} Spouse of\n", id="long edge id"),
    ],
)
def test_tgf_ids_are_ascii_decimal(text):
    g, diags = parse_tgf(text, ONT)
    assert g is None
    assert any("malformed" in d.message for d in diags)


def test_tgf_unknown_relation_is_an_error():
    # each line that writes it reports: a refused relation is not remembered
    text = "1 Person:A\n2 Person:B\n#\n1 2 Owns\n2 1 Owns\n"
    g, diags = parse_tgf(text, ONT)
    assert g is None
    assert [str(d) for d in diags] == [
        "error: line 4: relation 'Owns' not in ontology",
        "error: line 5: relation 'Owns' not in ontology",
    ]


def test_tgf_duplicate_direction_tolerated_with_warning():
    text = "1 Person:A\n2 Person:B\n#\n1 2 Spouse of\n2 1 Spouse of\n"
    g, diags = parse_tgf(text, ONT)
    assert g is not None and g.edge_count == 1
    assert any(d.severity == "warning" for d in diags)


def test_emit_tgf_empty():
    assert emit_tgf(KnowledgeGraph(ONT)) == "#\n"


def test_emit_tgf_two_node():
    g = built(ONT, [person("A"), person("B")], [(person("A"), "Spouse of", person("B"))])
    text = emit_tgf(g)
    assert len(text.strip().splitlines()) == 4
    assert text.endswith("\n")


def test_minimal_xgml():
    g, diags = parse_xgml('graph [\n  node [ id 0 label "Person:Homer" ]\n]\n', ONT)
    assert g is not None and not has_errors(diags)
    assert g.node_count == 1


def test_xgml_unbalanced_brackets():
    g, diags = parse_xgml('graph [ node [ id 0 label "Person:A" ]', ONT)
    assert g is None
    assert any("unbalanced" in d.message.lower() for d in diags)


@pytest.mark.parametrize("balanced", [False, True])
def test_xgml_nesting_deeper_than_the_recursion_limit(balanced):
    depth = sys.getrecursionlimit() + 100
    text = "a [" * depth + ("]" * depth if balanced else "")
    g, diags = parse_xgml(text, ONT)
    assert g is None
    messages = [d.message for d in diags]
    assert messages.count("unbalanced brackets") == (0 if balanced else depth)
    assert messages[-2:] == [
        "ignored top-level key 'a'",
        "expected exactly one graph [...] block",
    ]


@pytest.mark.parametrize("key", ["node", "edge"])
def test_xgml_a_node_or_edge_that_is_not_a_block_is_an_error(key):
    g, diags = parse_xgml(f'graph [\n node [ id 1 label "Person:A" ]\n {key} 5\n]\n', ONT)
    assert g is None
    assert [str(d) for d in diags] == [f"error: line 3: {key} must be a [...] block"]


def test_parse_graph_refuses_an_unknown_format():
    with pytest.raises(ValueError) as exc:
        parse_graph("1 Person:A\n#\n", ONT, "gml")
    assert str(exc.value) == "unknown graph format: 'gml'"


def test_xgml_dangling_edge():
    text = 'graph [ node [ id 0 label "Person:A" ] edge [ source 0 target 5 label "Spouse of" ] ]'
    g, diags = parse_xgml(text, ONT)
    assert g is None
    assert any("undeclared" in d.message for d in diags)


@pytest.mark.parametrize(
    "body, message",
    [
        ('node [ id \u0663 label "Person:A" ]', "node needs exactly one id"),
        ('node [ id 1_0 label "Person:A" ]', "node needs exactly one id"),
        ('node [ id +1 label "Person:A" ]', "node needs exactly one id"),
        ('node [ id 0 label "Person:A" ] node [ id 10 label "Person:B" ] '
         'edge [ source \u0660 target 10 label "Spouse of" ]', "edge needs exactly one source"),
        ('node [ id 0 label "Person:A" ] node [ id 10 label "Person:B" ] '
         'edge [ source 0 target 1_0 label "Spouse of" ]', "edge needs exactly one target"),
        # read by the run of blocks as emitters write them, then token by token
        pytest.param(f'node [ id {LONG} label "Person:A" ]', "node needs exactly one id",
                     id="long id in a run"),
        pytest.param(f'node [ label "Person:A" id {LONG} ]', "node needs exactly one id",
                     id="long id in tokens"),
        pytest.param('node [ id 0 label "Person:A" ] node [ id 10 label "Person:B" ] '
                     f'edge [ source {LONG} target 10 label "Spouse of" ]',
                     "edge needs exactly one source", id="long source in a run"),
    ],
)
def test_xgml_ids_are_ascii_decimal(body, message):
    g, diags = parse_xgml(f"graph [ {body} ]", ONT)
    assert g is None
    assert [d.message for d in diags if d.severity == "error"] == [message]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[ ]", "expected a key, got '['"),
        ('graph [ "q" 1 ]', 'expected a key, got "q"'),
        ('graph [ "a\\"b" 1 ]', 'expected a key, got "a\\"b"'),
        ("graph [ \u0663 1 ]", "expected a key, got 3.0"),
        ("graph [ 3 1 ]", "expected a key, got 3"),
    ],
)
def test_xgml_names_a_misplaced_token_as_written(text, message):
    _, diags = parse_xgml(text, ONT)
    assert message in [d.message for d in diags]


def test_xgml_diagnostics_are_the_same_in_every_process():
    # a token is named by its text, never by an object's memory address
    script = (
        "from kgbench.formats import parse_xgml\n"
        "from kgbench.ontology import load_ontology\n"
        "for text in ('[ ]', 'graph [ \"q\" ]', ']', 'graph [ [ ] ]'):\n"
        "    print(*parse_xgml(text, load_ontology('Spouse of | Spouse of'))[1], sep='\\n')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    runs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert "expected a key, got '['" in runs[0]
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "parser, text, lines",
    [
        (parse_tgf, "1 Person:A\n2 Person:A\n3 Person:B\n4 Person:A\n#\n", (2, 4)),
        (
            parse_xgml,
            'graph [\n node [ id 1 label "Person:A" ]\n node [ id 2 label "Person:A" ]\n'
            ' node [ id 3 label "Person:B" ]\n node [ id 4 label "Person:A" ]\n]\n',
            (3, 5),
        ),
        (  # blocks as emit_xgml lays them out, four lines each
            parse_xgml,
            "graph [\n" + "".join(
                f'\tnode [\n\t\tid {i}\n\t\tlabel "Person:{name}"\n\t]\n'
                for i, name in enumerate("AABA", start=1)
            ) + "]\n",
            (6, 14),
        ),
    ],
)
def test_repeated_label_warns_once_per_repeat(parser, text, lines):
    g, diags = parser(text, ONT)
    assert g is not None and g.node_count == 2
    assert [(d.severity, d.where, d.message) for d in diags] == [
        ("warning", f"line {line}", "node Person:A declared more than once; merged")
        for line in lines
    ]


def test_xgml_unknown_keys_warn():
    text = (
        'Creator "yEd"\ngraph [\n directed 1\n'
        ' node [ id 0 label "Person:A" graphics [ x 1 y 2 ] ]\n]\n'
    )
    g, diags = parse_xgml(text, ONT)
    assert g is not None
    assert any(d.severity == "warning" for d in diags)


def test_xgml_quoted_escapes_and_spaces():
    g = built(ONT, [person('He said "hi"'), person("Springfield Elementary")])
    g2, diags = parse_xgml(emit_xgml(g), ONT)
    assert g2 == g


def test_xgml_empty_graph():
    text = emit_xgml(KnowledgeGraph(ONT))
    assert "graph [" in text
    g, diags = parse_xgml(text, ONT)
    assert g == KnowledgeGraph(ONT)


@pytest.mark.parametrize("seed", range(60))
def test_round_trips_and_cross_format(seed):
    g = random_graph(seed)
    via_tgf, d1 = parse_tgf(emit_tgf(g), g.ontology)
    via_xgml, d2 = parse_xgml(emit_xgml(g), g.ontology)
    assert not has_errors(d1) and not has_errors(d2)
    assert via_tgf == g
    assert via_xgml == g
    assert via_tgf == via_xgml


def test_bundled_fixture_formats_agree():
    assert simpsons_graph("tgf") == simpsons_graph("xgml")


def test_a_bundled_graph_that_does_not_load_is_an_error(monkeypatch):
    read = datasets._read
    monkeypatch.setattr(
        datasets, "_read",
        lambda name: "1 Person:A\n2 Person:B\n#\n1 2 Owns\n2 1 Owns\n"
        if name == "simpsons.tgf" else read(name),
    )
    with pytest.raises(GraphError) as exc:
        simpsons_graph("tgf")
    assert str(exc.value) == (
        "bundled simpsons.tgf does not load: error: line 4: relation 'Owns' not in "
        "ontology; error: line 5: relation 'Owns' not in ontology"
    )


def _random_bytes_text(seed: int, n: int) -> str:
    rng = SplitMix64(seed)
    alphabet = 'abZ09 \t\n#[]"\\|:.'
    return "".join(alphabet[rng.randrange(len(alphabet))] for _ in range(n))


@pytest.mark.parametrize("seed", range(40))
def test_parsers_never_crash_on_noise(seed):
    text = _random_bytes_text(seed, 200)
    ont = simpsons_ontology()
    for parser in (parse_tgf, parse_xgml):
        graph, diags = parser(text, ont)
        assert graph is None or not has_errors(diags)


# one digit more than int() takes by default (sys.get_int_max_str_digits())
LONG_RUN = "9" * 4301

XGML_PIECES = [
    "[", "]", '"', "\\", "#", "\n", "\r", "\t", " ", "\xa0", "\x85", "\u2028",
    "inf", "NaN", "+1", "-2.5e3", "1_0", "\u0663", "\u00b2", "12", "node", "id", LONG_RUN,
]


@given(st.lists(st.sampled_from(XGML_PIECES), max_size=40).map("".join))
def test_tokenizer_matches_naive_reference(text):
    # repr, because a NaN token is unequal to itself
    assert repr(reference_tokenize_xgml(text)) == repr(naive_tokenize_xgml(text))


_GAPS = st.sampled_from(["", " ", "  ", "\n", "\t", "\r\n", "\xa0", " # note [ ] \"\n"])
_IDS = st.sampled_from(
    ["0", "1", "2", "007", "1.5", "nan", "1_0", "٣", "+1", "x", '"1"', LONG_RUN]
)
_LABELS = st.sampled_from([
    '"Person:A"', '"Person:B"', '"Person:A"', '"Location:Café ²"', '"Person:Two\nlines"',
    '"Person:\\"Q\\""', '"Entity:back\\\\slash"', "Person:Bare", '""', "12", "inf",
    '"Spouse of"', '"Child  of"', '"Made up"', '"Made_up"', '"Person:Unknown_1"',
])
_EXTRAS = st.sampled_from([
    "id 3", 'label "Person:C"', "source 0", "target 2", "x 1", "graphics [ w 1 h [ ] ]",
    "3 4", '"key" 1', "id", "label ]", "[ ]", "directed 1",
])


@st.composite
def _xgml_block(draw) -> str:
    """A node or edge block: as emitters write it (style 0), with odd blanks
    and values (1), or also with fields dropped, added, repeated, nested or
    reordered (2)."""
    kind = draw(st.sampled_from(["node", "edge"]))
    style = draw(st.integers(0, 2))
    ids = st.sampled_from(["0", "1", "2", "007"]) if style == 0 else _IDS
    labels = _LABELS.filter(lambda label: "\\" not in label) if style == 0 else _LABELS
    gaps = st.sampled_from([" ", "\n\t\t", "\r\n  "]) if style == 0 else _GAPS
    names = ["id"] if kind == "node" else ["source", "target"]
    fields = [f"{name} {draw(ids)}" for name in names] + [f"label {draw(labels)}"]
    if style == 2:
        fields = [f for f in fields if draw(st.integers(0, 4))]
        fields += draw(st.lists(_EXTRAS, max_size=3))
        fields = draw(st.permutations(fields))
    inner = "".join(draw(gaps) + field.replace(" ", draw(gaps) or " ", 1) for field in fields)
    return f"{kind}{draw(gaps)}[{inner}{draw(gaps)}]"


_KEYS = st.sampled_from(["graph", "graph", "x", "node", "edge", "label", "id", "directed"])
# blocks nest in blocks, and a node or edge block may stand where a key or a
# value is due, so the one-match path meets every state the reader can be in
_XGML_ITEMS = st.recursive(
    st.one_of(
        _xgml_block(),
        st.builds("{} {}".format, _KEYS, _xgml_block()),
        st.sampled_from(XGML_PIECES + ["]", "directed 1", "x 1", "label"]),
    ),
    lambda items: st.builds(
        lambda key, gap, inner, close: f"{key}{gap}[{gap}{gap.join(inner)}{close}",
        _KEYS, _GAPS, st.lists(items, max_size=6), st.sampled_from(["\n]", " ]", "]", ""]),
    ),
    max_leaves=16,
)
_XGML_TEXTS = st.builds(
    lambda items, gap, tail: gap.join(items) + tail,
    st.lists(_XGML_ITEMS, max_size=4),
    _GAPS,
    st.sampled_from(["", "\n", "]", '\n"unterminated\n', ' "open']),
)


# node labels, and relation texts, some written with odd whitespace, one
# unknown: over a few nodes, edges repeat and restate each other in the
# inverse direction
_NODE_LABELS = st.sampled_from(["Person:A", " Person:  B ", "Entity:C", "Place:Two", "Person:D"])
_RELATION_TEXTS = st.sampled_from(
    ["Spouse of", "Spouse  of", " Spouse\tof", "Child of", "Parent of", "Parent of", "Made up"]
)


def _graph_lines(draw, node_line, edge_line, first_id: int) -> tuple[list[str], list[str]]:
    """Node lines for a few ids from `first_id`, and edge lines between two
    of those nodes."""
    ids = range(first_id, first_id + draw(st.integers(2, 4)))
    labels = draw(st.lists(_NODE_LABELS, min_size=len(ids), max_size=len(ids), unique=True))
    pairs = st.permutations(ids).map(lambda p: p[:2])
    edges = [
        edge_line(*draw(pairs), draw(_RELATION_TEXTS)) for _ in range(draw(st.integers(0, 8)))
    ]
    return [node_line(i, label) for i, label in zip(ids, labels)], edges


def _insert(draw, lines: list[str], faults) -> list[str]:
    """`lines` with, in half the draws, one or two of `faults` put in."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faults))
    return lines


# what breaks a run of blocks as emitters write them: a comment, an odd
# block, a key, a stray or unclosed bracket; and faults in blocks that keep
# their shape
_XGML_BREAKS = st.sampled_from([
    "# note [ ]", 'node [ id 7 label "Person:C" x 1 ]', "edge [ source 0 ]",
    'node [ label "Person:D" id 8 ]', "directed 1", "x 1", "x [", "]", "node [", '"quoted"',
    'node [ id 9 label "Person:E"', 'edge [ source 0 target 9 label "Spouse of" ]',
    'edge [ source 0 target 0 label "Spouse of" ]', 'edge [ source 0 target 1 label "Made_up" ]',
    'node [ id 0 label "Person:F" ]', 'node [ id 6 label "Person:Unknown_1" ]',
    'node [ id 4 label "Person:A" ]',
    'node [\n\tid 5\n\tlabel "Place:Three\nlines"\n]',
])


@st.composite
def _xgml_run_texts(draw) -> str:
    """A graph of runs of blocks as emitters write them, broken by the
    rest; blocks span lines, so a diagnostic after a run checks its line
    count."""
    gap = draw(st.sampled_from(["\n\t\t", " ", "\r\n  "]))
    nodes, edges = _graph_lines(
        draw,
        lambda i, label: f'node [{gap}id {i}{gap}label "{label}"{gap}]',
        lambda a, b, relation: f'edge [{gap}source {a}{gap}target {b}{gap}label "{relation}"{gap}]',
        0,
    )
    lines = _insert(draw, nodes + edges, _XGML_BREAKS)
    head = draw(st.sampled_from(["graph [\n\t", "graph [ directed 1\n\t", "x 1 graph [\n\n"]))
    tail = draw(st.sampled_from(["\n]\n", "\n]", "\n]\nx 1\n", "\n"]))
    return head + "\n\t".join(lines) + tail


@settings(max_examples=500)
@given(text=st.one_of(_XGML_TEXTS, _xgml_run_texts()))
def test_xgml_reader_matches_the_reference(text):
    # the same graph, and the same diagnostics in the same order
    assert repr(parse_xgml(text, ONT)) == repr(reference_parse_xgml(text, ONT))


_TGF_FAULTS = st.sampled_from([
    "1", "Person:A", "x Person:X", "\u0663 Person:X", "1 2", "1 x Spouse of", "#", "#",
    "9 1 Spouse of", "1 1 Spouse of", "1 2 Made_up", "1 Person:G", "6 Person:Unknown_1",
    "6 NoColon", "6 Person:", "007 Person:Seven", "5 Person:B", f"{LONG_RUN} Person:Long",
    f"1 {LONG_RUN} Spouse of", f"{LONG_RUN} 1 Spouse of",
])


@st.composite
def _tgf_texts(draw) -> str:
    """Node lines, one separator or none, edge lines, and now and then a
    malformed line, a bad node or edge, or another '#'."""
    nodes, edges = _graph_lines(draw, "{} {}".format, "{}\t{} {}".format, 1)
    separator = draw(st.sampled_from([["#"], ["#"], ["#"], [" #\t"], []]))
    lines = _insert(draw, nodes + separator + edges, _TGF_FAULTS)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300)
@given(text=_tgf_texts())
def test_tgf_reader_matches_the_reference(text):
    # the same graph, and the same diagnostics in the same order
    assert repr(parse_tgf(text, ONT)) == repr(reference_parse_tgf(text, ONT))


@pytest.mark.parametrize(
    "text",
    [
        'x [ node [ id 1 label "Person:A" ] ]\ngraph [ ]',
        'graph [ label node [ id 1 label "Person:A" ] ]',
        'graph [ x [ node [ id 1 label "Person:A" ] ] ]',
        'node [ id 1 label "Person:A" ] graph [ ]',
        'graph [ ] ] node [ id 1 label "Person:A" ]',
    ],
    ids=["in another top-level block", "as a value", "nested in the graph", "top level",
         "after the end"],
)
def test_an_emitted_block_is_a_node_only_in_the_graph(text):
    g, diags = parse_xgml(text, ONT)
    assert g is None or g.node_count == 0
    assert repr((g, diags)) == repr(reference_parse_xgml(text, ONT))


def test_tokenizer_is_linear_on_long_blank_runs():
    # the scanner must not backtrack over a blank run that no token follows
    text = "graph [ ]" + " \t\n" * 10_000
    start = time.perf_counter()
    g, diags = parse_xgml(text, ONT)
    assert time.perf_counter() - start < 2.0
    assert g == KnowledgeGraph(ONT) and not diags


@pytest.mark.parametrize(
    "text, lines",
    [
        # 10^5 ignored keys in one node block: one warning each
        (
            'graph [\nnode [ id 0 label "Person:A"' + "\nx 1" * 100_000 + " ]\n]\n",
            range(3, 100_003),
        ),
        # 10^5 stray ']': each a key's missing value
        ("graph [\n" + "x\n]\n" * 100_000 + "]\n", range(3, 200_003, 2)),
    ],
    ids=["ignored keys", "stray brackets"],
)
def test_xgml_line_numbers_are_linear_in_the_text(text, lines):
    start = time.perf_counter()
    _, diags = parse_xgml(text, ONT)
    assert time.perf_counter() - start < 2.0
    assert [d.where for d in diags] == [f"line {n}" for n in lines]


def _duplicate_world(fmt: str, *edges: tuple[int, int, str]) -> str:
    """Person:duplicate (id 1) and Person:Bob (id 2) with the given edges."""
    if fmt == "tgf":
        lines = "".join(f"{src} {dst} {rel}\n" for src, dst, rel in edges)
        return "1 Person:duplicate\n2 Person:Bob\n#\n" + lines
    body = 'node [ id 1 label "Person:duplicate" ] node [ id 2 label "Person:Bob" ] '
    body += "".join(f'edge [ source {s} target {d} label "{r}" ] ' for s, d, r in edges)
    return f"graph [ {body}]"


@pytest.mark.parametrize("fmt", ["tgf", "xgml"])
def test_edge_problems_are_told_apart_by_kind_not_by_text(fmt):
    # a node named "duplicate" once turned its self-loop into a warning
    g, diags = parse_graph(_duplicate_world(fmt, (1, 1, "Spouse of")), ONT, fmt)
    assert g is None
    assert [(d.severity, d.message) for d in diags] == [
        ("error", "self-loop on Person:duplicate")
    ]
    text = _duplicate_world(fmt, (1, 2, "Child of"), (1, 2, "Child of"), (2, 1, "Parent of"))
    g, diags = parse_graph(text, ONT, fmt)
    assert g is not None and g.edge_count == 1
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "dropped duplicate edge: duplicate edge: "
         "Person:duplicate -[Child of]-> Person:Bob"),
        ("warning", "dropped duplicate edge: inverse-duplicate edge: "
         "Person:Bob -[Parent of]-> Person:duplicate "
         "restates Person:duplicate -[Child of]-> Person:Bob"),
    ]


EDGE_LINES = {
    "tgf": "1 Person:A\n2 Person:B\n#\n1 2 Spouse of\n2 1 Spouse of\n\n1 1 Spouse of\n",
    "xgml": 'graph [\n node [ id 1 label "Person:A" ]\n node [ id 2 label "Person:B" ]\n'
            ' edge [ source 1 target 2 label "Spouse of" ]\n'
            ' edge [ source 2 target 1 label "Spouse of" ]\n\n'
            ' edge [\n  source 1\n  target 1\n  label "Spouse of"\n ]\n]\n',
}


@pytest.mark.parametrize("fmt", ["tgf", "xgml"])
def test_an_edge_problem_names_the_line_of_its_edge(fmt):
    g, diags = parse_graph(EDGE_LINES[fmt], ONT, fmt)
    assert g is None
    assert [str(d) for d in diags] == [
        "warning: line 5: dropped duplicate edge: inverse-duplicate edge: "
        "Person:B -[Spouse of]-> Person:A restates Person:A -[Spouse of]-> Person:B",
        "error: line 7: self-loop on Person:A",
    ]


NODE_TEXT = {
    "tgf": "1 Person:{name}\n2 Person:B\n#\n1 2 Spouse of\n",
    "xgml": 'graph [\n node [ id 1 label "Person:{name}" ]\n node [ id 2 label "Person:B" ]\n'
            ' edge [ source 1 target 2 label "Spouse of" ]\n]\n',
}


@pytest.mark.parametrize("fmt", ["tgf", "xgml"])
@pytest.mark.parametrize("name", ["Unknown_1", "Unknown_012"])
def test_a_node_named_like_a_query_variable_is_an_error(fmt, name):
    # query files read Unknown_<n> as a variable, never as a node
    g, diags = parse_graph(NODE_TEXT[fmt].format(name=name), ONT, fmt)
    assert g is None
    assert str(diags[0]) == (
        f"error: line {1 if fmt == 'tgf' else 2}: node Person:{name} is named like a "
        "query variable (Unknown_<n>)"
    )


@pytest.mark.parametrize("fmt", ["tgf", "xgml"])
@pytest.mark.parametrize("name", ["Unknown_", "Unknown_x", "Unknown_1a", "Unknown_\u0663"])
def test_a_node_name_that_is_not_a_variable_is_kept(fmt, name):
    g, diags = parse_graph(NODE_TEXT[fmt].format(name=name), ONT, fmt)
    assert not diags
    assert person(name) in g.nodes


# characters outside XML 1.0's Char production
NOT_XML = ["\x01", "\x08", "\x0e", "\x1b", "\ufffe", "\uffff"]


@pytest.mark.parametrize("fmt", ["tgf", "xgml"])
@pytest.mark.parametrize("char", NOT_XML)
def test_a_node_name_xml_cannot_carry_is_an_error(fmt, char):
    # such a node would be written into query files that no parser reads back
    g, diags = parse_graph(NODE_TEXT[fmt].format(name=f"Len{char}ny"), ONT, fmt)
    assert g is None
    assert str(diags[0]) == (
        f"error: line {1 if fmt == 'tgf' else 2}: node {f'Person:Len{char}ny'!r} "
        f"contains {char!r}, which XML files cannot carry"
    )


NEW_RELATION_TEXT = {
    "tgf": "1 Person:A\n2 Person:B\n#\n1 2 {relation}\n",
    "xgml": 'graph [\n node [ id 1 label "Person:A" ]\n node [ id 2 label "Person:B" ]\n'
            ' edge [ source 1 target 2 label "{relation}" ]\n]\n',
}


@pytest.mark.parametrize("fmt", ["tgf", "xgml"])
def test_a_new_relation_with_an_underscore_is_an_error(fmt):
    # a relation enters a graph only through the ontology file, whose reader
    # holds the label rule
    for relation in ("Knows_well", "Knows\x01well", "Knows well"):
        g, diags = parse_graph(NEW_RELATION_TEXT[fmt].format(relation=relation), ONT, fmt)
        assert g is None
        assert [str(d) for d in diags] == [f"error: line 4: relation {relation!r} not in ontology"]
    with pytest.raises(OntologyError) as exc:
        load_ontology("Spouse of | Spouse of\nKnows_well | Knows_well\n")
    assert str(exc.value) == (
        "line 2: relation 'Knows_well' contains '_', which query files read as a space"
    )
    with pytest.raises(OntologyError) as exc:
        load_ontology("Spouse of | Spouse of\nKnows\x01well | Knows\x01well\n")
    assert str(exc.value) == (
        "line 2: relation 'Knows\\x01well' contains '\\x01', which XML files cannot carry"
    )
    declared = load_ontology("Spouse of | Spouse of\nKnows well | Knows well\n")
    g, diags = parse_graph(NEW_RELATION_TEXT[fmt].format(relation="Knows well"), declared, fmt)
    assert not diags and g.ontology.inverse_of("Knows well") == "Knows well"
