import copy
import re
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError, replace
from itertools import combinations
from pathlib import Path as FsPath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cyclic_garbage,
    reference_emit_document,
    reference_emit_submission,
    reference_parse_path_element,
)
from kgbench.datasets import simpsons_graph
from kgbench.graph import NodeId, entity, is_variable_name, person
from kgbench.ontology import canonical_label, non_xml_char
from kgbench.oracle import OracleError, Path, PatternTriple, Variable, enumerate_paths
from kgbench.protocol import (
    ProtocolError,
    _Decoder,
    _parse_path_element,
    Submission,
    decode_relation,
    emit_key_xml,
    emit_oracle_submission,
    emit_query_xml,
    emit_submission,
    encode_relation,
    parse_key_xml,
    parse_query_xml,
    parse_submission_xml,
)
from kgbench.querygen import (
    ChoiceQuery,
    FillQuery,
    PathQuery,
    QueryError,
    generate_choice,
    generate_fill,
    generate_path,
)
from kgbench.rng import SplitMix64
from kgbench.scoring import score_choice, score_fill, score_paths

X = Variable("Unknown_1", "Person")

SPOUSE_QUERY = FillQuery(
    "Q.A.1",
    (PatternTriple(X, "Spouse of", person("Marge")),),
    (frozenset({("Unknown_1", person("Homer"))}),),
)

CHALMERS_PATH = Path(
    (
        person("Superintendent Chalmers"),
        entity("Springfield Elementary"),
        person("Bart"),
        person("Homer"),
        person("Lenny"),
    ),
    ("Superintendent at", "Studied at by", "Child of", "Friend of"),
)

PATH_QUERY = PathQuery(
    "Q.C.1",
    person("Superintendent Chalmers"),
    person("Lenny"),
    4,
    (CHALMERS_PATH,),
)


def test_relation_text_encoding():
    assert encode_relation("Spouse of") == "Relation:Spouse_of"
    assert decode_relation("Relation:Spouse_of") == "Spouse of"
    assert decode_relation("Relation: Superintendent_At ") == "Superintendent At"
    for text in ("Spouse_of", "Person:Spouse_of"):
        with pytest.raises(ProtocolError) as exc:
            decode_relation(text)
        assert str(exc.value) == f"expected 'Relation:...' text, got {text!r}"
    # the relation-label rule, which every ontology label passes
    for text, message in [
        ("Relation:", "empty relation label"),
        ("Relation:Foo__Bar", "relation 'Foo  Bar' is not trimmed with single spaces"),
        ("Relation:_Foo", "relation ' Foo' is not trimmed with single spaces"),
        ("Relation:A|B", "relation 'A|B' has ontology file syntax ('|' or a leading '#')"),
    ]:
        with pytest.raises(ProtocolError) as exc:
            decode_relation(text)
        assert str(exc.value) == message
    for label in ("Spouse of", "Attends", "In Relationship With"):
        assert decode_relation(encode_relation(label)) == label


def test_emit_fill_query_matches_vocabulary():
    text = emit_query_xml([SPOUSE_QUERY])
    assert "<Subject>Person:Unknown_1</Subject>" in text
    assert "<Pred>Relation:Spouse_of</Pred>" in text
    assert "<Object>Person:Marge</Object>" in text
    assert "Homer" not in text  # answer keys never serialized


@pytest.mark.parametrize(
    "emit",
    [emit_query_xml, emit_key_xml, lambda queries: emit_oracle_submission(queries, "t")],
    ids=["query", "key", "oracle submission"],
)
def test_a_document_without_queries_is_not_written(emit):
    # an empty document would have no query type to name its root
    with pytest.raises(ProtocolError, match="at least one query"):
        emit([])


@pytest.mark.parametrize("root", ["QA", "QB", "QC"])
def test_a_document_without_queries_is_rejected(root):
    with pytest.raises(ProtocolError, match=f"{root} document without a Query"):
        parse_query_xml(f'<?xml version="1.0"?>\n<{root} />\n')
    key = f'<?xml version="1.0"?>\n<!-- CONFIDENTIAL -->\n<{root}Key seed="1" />\n'
    with pytest.raises(ProtocolError, match=f"{root}Key document without a Query"):
        parse_key_xml(key)


def test_query_round_trip_fill():
    parsed = parse_query_xml(emit_query_xml([SPOUSE_QUERY]))
    assert len(parsed) == 1
    assert parsed[0].id == SPOUSE_QUERY.id
    assert parsed[0].triples == SPOUSE_QUERY.triples
    assert parsed[0].key is None  # keyless


def test_query_round_trip_choice_and_path():
    choice = ChoiceQuery(
        "Q.B.1",
        person("Ms. Krabappel"),
        entity("Springfield Elementary"),
        ("Child of", "Teacher at", "Attends"),
        1,
    )
    parsed = parse_query_xml(emit_query_xml([choice]))
    assert parsed[0].id == choice.id
    assert parsed[0].options == choice.options
    assert parsed[0].key is None  # keyless
    parsed = parse_query_xml(emit_query_xml([PATH_QUERY]))
    assert parsed[0].source == PATH_QUERY.source
    assert parsed[0].max_edges == 4


def test_query_errors():
    with pytest.raises(ProtocolError, match="malformed XML"):
        parse_query_xml("<QA><unclosed>")
    with pytest.raises(ProtocolError, match="single query type"):
        emit_query_xml([SPOUSE_QUERY, PATH_QUERY])
    with pytest.raises(ProtocolError, match="duplicate query id"):
        parse_query_xml(
            '<QA><Query id="Q.A.1"><Triple><Subject>Person:Unknown_1</Subject>'
            "<Pred>Relation:Spouse_of</Pred><Object>Person:Marge</Object></Triple>"
            '</Query><Query id="Q.A.1"><Triple><Subject>Person:Unknown_1</Subject>'
            "<Pred>Relation:Spouse_of</Pred><Object>Person:Marge</Object></Triple>"
            "</Query></QA>"
        )
    with pytest.raises(ProtocolError, match="Subject/Pred/Object"):
        parse_query_xml(
            '<QA><Query id="Q.A.1"><Triple><Subject>Person:X</Subject>'
            "</Triple></Query></QA>"
        )
    with pytest.raises(ProtocolError, match="unknown element"):
        parse_query_xml('<QA><Query id="Q.A.1"><Bogus/></Query></QA>')


FIELDS = {"a": ["Subject", "Pred", "Object"], "b": ["Subject", "Pred", "Object", "Option"],
          "c": ["Source", "Target"]}
PAYLOAD = {"a": ["Var"], "b": ["Correct"], "c": ["Edge", "Node"]}


def nested(text: str, tag: str, qid: str) -> str:
    """`text` with `<b/>` inside the text of its first `tag` element, which
    lies in the query `qid`: 'Person:Ho<b/>mer'."""
    start = text.index(">", text.index(f"<{tag}")) + 3
    assert text.index(f'<Query id="{qid}"') < start < text.index("</Query>")
    return text[:start] + "<b/>" + text[start:]


@pytest.mark.parametrize(
    "name, tag",
    [(f"queries_{t}.xml", tag) for t, tags in FIELDS.items() for tag in tags]
    + [(f"keys_{t}.xml", tag) for t in "abc" for tag in FIELDS[t] + PAYLOAD[t]],
)
def test_a_query_element_holds_text_only(name, tag):
    # <Source>Person:Ho<b/>mer</Source> was read as Person:Ho
    qid = f"Q.{name[-5].upper()}.1"
    text = nested((GOLDEN / name).read_text(encoding="utf-8"), tag, qid)
    with pytest.raises(ProtocolError) as exc:
        (parse_key_xml if name.startswith("keys") else parse_query_xml)(text)
    assert str(exc.value) == f"{qid}: <{tag}> holds an element"


@pytest.mark.parametrize(
    "t, tag, messages, kept",
    [
        ("a", "Answer", ["unparseable answer dropped: <Answer> holds an element"],
         lambda answers: {"Unknown_2": answers["Unknown_2"]}),
        ("b", "Answer", ["unparseable answer dropped: <Answer> holds an element",
                         "no answer submitted; scored as wrong"], lambda answer: None),
        ("c", "Node", ["unparseable path dropped: <Node> holds an element"],
         lambda paths: paths[1:]),
    ],
)
def test_a_submitted_answer_holds_text_only(t, tag, messages, kept):
    qid = f"Q.{t.upper()}.1"
    text = (GOLDEN / f"sub_{t}.xml").read_text(encoding="utf-8")
    sub, diagnostics = parse_submission_xml(nested(text, tag, qid), GOLDEN_QUERIES)
    assert [(d.where, d.message) for d in diagnostics] == [(qid, m) for m in messages]
    # the first answer or path is dropped, and only it
    whole = parse_submission_xml(text, GOLDEN_QUERIES)[0].answers[qid]
    assert sub.answers.get(qid) == kept(whole) != whole


@pytest.mark.parametrize("name", ["queries_b.xml", "keys_b.xml", "sub_b.xml"])
def test_a_doctype_is_refused(name):
    # with it, <!ENTITY a "aaaa"> made &a; read as aaaa
    text = (GOLDEN / name).read_text(encoding="utf-8")
    declaration, newline, rest = text.partition("\n")
    root = "QBKey" if name.startswith("keys") else "QB"
    entity = f'<!DOCTYPE {root} [<!ENTITY a "aaaa">]>'
    parse = {"queries": parse_query_xml, "keys": parse_key_xml,
             "sub": lambda text: parse_submission_xml(text, GOLDEN_QUERIES)}[name[:-6]]
    with pytest.raises(ProtocolError) as exc:
        parse(declaration + newline + entity + newline + rest)
    assert str(exc.value) == f"DOCTYPE {root!r} refused: a document declares no DTD and no entity"
    # the prolog is read as XML: a comment that names a DOCTYPE declares none
    parse(declaration + newline + f"<!-- {entity} -->" + newline + rest)


def test_key_payload_is_unknown_in_query_files(simpsons):
    for queries in (
        generate_fill(simpsons, 3, 2),
        generate_choice(simpsons, 4, 2),
        generate_path(simpsons, 5, 1, 4),
    ):
        key_text = emit_key_xml(queries)
        # the key document under a query root: query elements plus payload
        text = key_text.replace("Key>", ">").replace("Key ", " ")
        payload = "unknown element '(Binding|Correct|Path)'"
        with pytest.raises(ProtocolError, match=payload):
            parse_query_xml(text)
        assert parse_key_xml(key_text)[0] == queries


# None: the attribute removed; 5,000 digits are more than int() takes
@pytest.mark.parametrize("bad", ["\u00b2", "\u0663", "-1", " 1", "1_0", "", None,
                                 pytest.param("9" * 5000, id="5000 digits")])
def test_numeric_attributes_are_ascii_decimal(bad):
    def attribute(name):
        return "" if bad is None else f' {name}="{bad}"'

    choice = emit_query_xml([ChoiceQuery("Q.B.1", person("A"), person("B"), ("X",), 0)])
    with pytest.raises(ProtocolError, match="Option without a numeric index"):
        parse_query_xml(choice.replace(' index="1"', attribute("index")))
    key = emit_key_xml([ChoiceQuery("Q.B.1", person("A"), person("B"), ("X",), 0)])
    with pytest.raises(ProtocolError, match="Correct without a numeric index"):
        parse_key_xml(key.replace('<Correct index="1"', "<Correct" + attribute("index")))
    for text, parse in (
        (emit_query_xml([PATH_QUERY]), parse_query_xml),
        (emit_key_xml([PATH_QUERY]), parse_key_xml),
    ):
        with pytest.raises(ProtocolError, match="Q.C.1: bad max_edges"):
            parse(text.replace(' max_edges="4"', attribute("max_edges")))


def test_malformed_node_id_is_a_protocol_error():
    text = (
        '<QA><Query id="Q.A.1"><Triple><Subject>nocolon</Subject>'
        "<Pred>Relation:Spouse_of</Pred><Object>Person:Marge</Object></Triple>"
        "</Query></QA>"
    )
    with pytest.raises(ProtocolError, match="node id without a category prefix"):
        parse_query_xml(text)
    key = emit_key_xml([PATH_QUERY]).replace(
        "<Target>Person:Lenny", "<Target>Lenny", 1
    )
    with pytest.raises(ProtocolError, match="node id without a category prefix"):
        parse_key_xml(key)


def test_key_round_trips(simpsons):
    fill = generate_fill(simpsons, 3, 3)
    choice = generate_choice(simpsons, 4, 3)
    paths = generate_path(simpsons, 5, 2, 4)
    for queries in (fill, choice, paths):
        text = emit_key_xml(queries, {"seed": "3"})
        parsed, params = parse_key_xml(text)
        assert params == {"seed": "3"}
        assert parsed == queries
        for orig, back in zip(queries, parsed):
            assert back.key == orig.key
        assert "CONFIDENTIAL" in text


def test_a_key_file_keeps_the_order_it_was_written_in(simpsons):
    # the codec neither sorts nor merges: a key held in another order than
    # the oracle's is read back in that order
    for queries in (generate_fill(simpsons, 3, 3), generate_path(simpsons, 5, 2, 4)):
        backwards = [replace(q, key=q.key[::-1]) for q in queries]
        assert [q.key for q in backwards] != [q.key for q in queries]
        parsed, _ = parse_key_xml(emit_key_xml(backwards))
        assert [q.key for q in parsed] == [q.key for q in backwards]


def test_a_repeated_binding_or_path_is_refused():
    # a tuple would keep the repeat and lower recall without an error
    for query, tag in ((SPOUSE_QUERY, "Binding"), (PATH_QUERY, "Path")):
        message = rf"^{query.id}: a {tag} appears twice$"
        with pytest.raises(QueryError, match=message):
            replace(query, key=query.key * 2)
        text = emit_key_xml([query])
        element = text[text.index(f"<{tag} "):text.index(f"</{tag}>") + len(tag) + 3]
        with pytest.raises(ProtocolError, match=message):
            parse_key_xml(text.replace(element, element * 2))
    # the same Vars in another order are the same binding
    text = (
        '<QAKey><Query id="Q.A.1"><Triple><Subject>Person:Unknown_1</Subject>'
        "<Pred>Relation:Spouse_of</Pred><Object>Person:Unknown_2</Object></Triple>"
        '<Binding index="1"><Var name="Unknown_1">Person:Homer</Var>'
        '<Var name="Unknown_2">Person:Marge</Var></Binding>'
        '<Binding index="2"><Var name="Unknown_2">Person:Marge</Var>'
        '<Var name="Unknown_1">Person:Homer</Var></Binding>'
        "</Query></QAKey>"
    )
    with pytest.raises(ProtocolError, match="a Binding appears twice"):
        parse_key_xml(text)


@pytest.mark.parametrize(
    "pattern, homer_as, message",
    [
        ("<Object>Person:Unknown_2</Object>", "Unknown_2",
         "Q.A.1: a Binding binds two variables to one node"),
        ("<Object>Person:Homer</Object>", None, "Q.A.1: a Binding binds a variable to a constant"),
    ],
    ids=["two variables", "a constant"],
)
def test_a_binding_the_oracle_cannot_give_is_refused(pattern, homer_as, message):
    # the oracle binds each variable to its own node, never a constant
    bound = "".join(
        f'<Var name="{name}">Person:Homer</Var>' for name in ("Unknown_1", homer_as) if name
    )
    text = (
        '<QAKey><Query id="Q.A.1"><Triple><Subject>Person:Unknown_1</Subject>'
        f"<Pred>Relation:Spouse_of</Pred>{pattern}</Triple>"
        f'<Binding index="1">{bound}</Binding></Query></QAKey>'
    )
    with pytest.raises(ProtocolError) as exc:
        parse_key_xml(text)
    assert str(exc.value) == message


def test_a_correct_that_is_not_its_option_is_refused():
    text = (GOLDEN / "keys_b.xml").read_text(encoding="utf-8")
    good = '<Correct index="3">Relation:Parent_of</Correct>'
    assert text.count(good) == 1
    parse_key_xml(text.replace(good, '<Correct index="3"> Relation: Parent_of </Correct>'))
    # option 2's text under index 3
    broken = text.replace(good, '<Correct index="3">Relation:Neighbor_of</Correct>')
    with pytest.raises(ProtocolError, match="Correct text 'Relation:Neighbor_of' is not option 3"):
        parse_key_xml(broken)
    with pytest.raises(ProtocolError) as exc:
        parse_key_xml(text.replace(good, '<Correct index="3">Relation:Nonsense_here</Correct>'))
    assert str(exc.value) == "Q.B.1: Correct text 'Relation:Nonsense_here' is not option 3"


@pytest.mark.parametrize(
    "var, replacement",
    [
        # Person:Bart would silently stop counting for Unknown_2
        ('<Var name="Unknown_2">Person:Bart</Var>', '<Var name="Unknown_9">Person:Bart</Var>'),
        ('<Var name="Unknown_2">Person:Bart</Var>', ""),
        ('<Var name="Unknown_2">Person:Bart</Var>', '<Var name="Unknown_1">Person:Bart</Var>'),
        (
            '<Var name="Unknown_2">Person:Bart</Var>',
            '<Var name="Unknown_2">Person:Bart</Var><Var name="Unknown_2">Person:Bart</Var>',
        ),
    ],
)
def test_a_binding_names_each_variable_of_its_query_once(var, replacement):
    text = (GOLDEN / "keys_a.xml").read_text(encoding="utf-8")
    assert text.index(var) < text.index('<Query id="Q.A.2">')
    with pytest.raises(ProtocolError) as exc:
        parse_key_xml(text.replace(var, replacement, 1))
    assert str(exc.value) == "Q.A.1: a Binding names each of Unknown_1, Unknown_2 once"


@pytest.mark.parametrize(
    "t, good, bad, message",
    [
        ("b", ">Relation:Parent_of</Correct>", ">Parent_of</Correct>",
         "expected 'Relation:...' text, got 'Parent_of'"),
        ("b", ">Relation:Neighbor_of</Option>", ">Neighbor_of</Option>",
         "expected 'Relation:...' text, got 'Neighbor_of'"),
        ("b", ">Relation:Neighbor_of</Option>", ">Relation:</Option>", "empty relation label"),
        ("b", "<Subject>Person:Marge</Subject>", "<Subject>Marge</Subject>",
         "node id without a category prefix: 'Marge'"),
        ("b", "<Object>Person:Bart</Object>", "<Object>Person:Unknown_3</Object>",
         "variable where a concrete node was expected: 'Person:Unknown_3'"),
        ("a", "<Pred>Relation:Child_of</Pred>", "<Pred>Child_of</Pred>",
         "expected 'Relation:...' text, got 'Child_of'"),
        ("a", "<Subject>Person:Unknown_2</Subject>", "<Subject>:Unknown_2</Subject>",
         "malformed node id: ':Unknown_2'"),
        ("a", "<Pred>Relation:Child_of</Pred>", "<Pred>Relation:Child_of</Pred><Junk/>",
         "unknown element 'Junk'"),
        ("a", '<Var name="Unknown_2">Person:Bart</Var>', '<Var name="Unknown_2">Bart</Var>',
         "node id without a category prefix: 'Bart'"),
        ("a", '<Var name="Unknown_2">', "<Var>", "Var without a name"),
        ("a", '<Var name="Unknown_2">Person:Bart</Var>', "<Node>Person:Bart</Node>",
         "unknown element 'Node'"),
        ("c", "<Edge>Relation:Spouse_of</Edge>", "<Edge>Spouse_of</Edge>",
         "expected 'Relation:...' text, got 'Spouse_of'"),
        ("c", "<Node>Person:Homer</Node>", "<Node>Homer</Node>",
         "node id without a category prefix: 'Homer'"),
        ("c", "<Edge>Relation:Spouse_of</Edge>", "<Edge>Relation:Spouse__of</Edge>",
         "relation 'Spouse  of' is not trimmed with single spaces"),
        ("c", "<Edge>Relation:Spouse_of</Edge>", "",
         "path must alternate Source/Edge/Node/.../Target"),
    ],
    ids=["Correct", "Option", "Option label", "Subject", "Object", "Pred", "Triple",
         "Triple child", "Var", "Var name", "Binding", "Edge", "Node", "Edge label", "Path"],
)
def test_an_error_inside_a_query_names_it_once(t, good, bad, message):
    # the first query of each golden key file holds `good`
    text = (GOLDEN / f"keys_{t}.xml").read_text(encoding="utf-8")
    assert text.index(good) < text.index(f'<Query id="Q.{t.upper()}.2"')
    with pytest.raises(ProtocolError) as exc:
        parse_key_xml(text.replace(good, bad, 1))
    assert str(exc.value) == f"Q.{t.upper()}.1: {message}"


@pytest.mark.parametrize("keyed", [False, True], ids=["queries", "keys"])
@pytest.mark.parametrize(
    "t, tag",
    [("a", "Subject"), ("a", "Pred"), ("a", "Object"), ("b", "Subject"), ("b", "Pred"),
     ("b", "Object"), ("c", "Source"), ("c", "Target")],
)
def test_a_repeated_query_element_is_refused(t, tag, keyed):
    # one of them would be kept without a word, as the last one was
    text = (GOLDEN / f"{'keys' if keyed else 'queries'}_{t}.xml").read_text(encoding="utf-8")
    start = text.index(f"<{tag}>")
    element = text[start:text.index(f"</{tag}>", start) + len(tag) + 3]
    assert start < text.index(f'<Query id="Q.{t.upper()}.2"')
    with pytest.raises(ProtocolError) as exc:
        (parse_key_xml if keyed else parse_query_xml)(text.replace(element, element * 2, 1))
    assert str(exc.value) == f"Q.{t.upper()}.1: <{tag}> appears twice"


CHOICE_PRED = "<Pred>Relation:Unknown_1</Pred>"


@pytest.mark.parametrize("keyed", [False, True], ids=["queries", "keys"])
@pytest.mark.parametrize(
    "pred",
    ["anything at all", "", "Unknown_1", "Relation:Parent_of", "Person:Unknown_1",
     "Relation:Unknown_", "Relation:Unknown_1:x"],
)
def test_a_choice_pred_names_a_variable(pred, keyed):
    # the writer always writes Relation:Unknown_1; any text was read as it
    text = (GOLDEN / f"{'keys' if keyed else 'queries'}_b.xml").read_text(encoding="utf-8")
    assert text.index(CHOICE_PRED) < text.index('<Query id="Q.B.2"')
    with pytest.raises(ProtocolError) as exc:
        (parse_key_xml if keyed else parse_query_xml)(
            text.replace(CHOICE_PRED, f"<Pred>{pred}</Pred>", 1)
        )
    assert str(exc.value) == f"Q.B.1: Pred {pred!r} is not Relation:Unknown_<n>"


@pytest.mark.parametrize("pred", ["Relation:Unknown_2", " Relation : Unknown_1 "])
def test_a_choice_pred_may_name_any_variable(pred):
    # read as a relation label is: trimmed, and the variable's number is free
    text = (GOLDEN / "queries_b.xml").read_text(encoding="utf-8")
    assert parse_query_xml(text.replace(CHOICE_PRED, f"<Pred>{pred}</Pred>", 1)) == (
        parse_query_xml(text)
    )


@pytest.mark.parametrize("keyed", [False, True], ids=["queries", "keys"])
def test_a_repeated_option_is_refused(keyed):
    # two options naming one relation would make both correct, or neither
    text = (GOLDEN / f"{'keys' if keyed else 'queries'}_b.xml").read_text(encoding="utf-8")
    option = '<Option index="2">Relation:Neighbor_of</Option>'
    assert text.index(option) < text.index('<Query id="Q.B.2"')
    repeated = text.replace(option, '<Option index="2">Relation:Parent_of</Option>', 1)
    with pytest.raises(ProtocolError) as exc:
        (parse_key_xml if keyed else parse_query_xml)(repeated)
    assert str(exc.value) == "Q.B.1: options 2 and 3 are both 'Parent of'"


@pytest.mark.parametrize("keyed", [False, True], ids=["queries", "keys"])
def test_a_choice_query_about_one_node_is_refused(keyed):
    # no relation holds from a node to itself, so no option could be correct
    text = (GOLDEN / f"{'keys' if keyed else 'queries'}_b.xml").read_text(encoding="utf-8")
    bart = "<Object>Person:Bart</Object>"
    assert text.index(bart) < text.index('<Query id="Q.B.2"')
    with pytest.raises(ProtocolError) as exc:
        (parse_key_xml if keyed else parse_query_xml)(
            text.replace(bart, "<Object>Person:Marge</Object>", 1)
        )
    assert str(exc.value) == "Q.B.1: subject and object are one node"


@pytest.mark.parametrize(
    "use",
    [lambda qs: score_choice(simpsons_graph(), qs[0], qs[0].options[-1]),
     lambda qs: emit_key_xml(qs),
     lambda qs: emit_oracle_submission(qs, "t")],
    ids=["score_choice", "emit_key_xml", "emit_oracle_submission"],
)
def test_a_keyless_choice_query_has_no_correct_option(use):
    # a query file holds no keys; its last option must not stand in for one
    queries = parse_query_xml((GOLDEN / "queries_b.xml").read_text(encoding="utf-8"))
    assert queries[0].key is None
    with pytest.raises(OracleError) as exc:
        use(queries)
    assert str(exc.value) == "Q.B.1: the query has no key"


@pytest.mark.parametrize("t", "abc")
def test_a_query_file_gives_keyless_queries(t):
    # None is the one keyless key; an empty key would read as "no answer"
    queries = parse_query_xml((GOLDEN / f"queries_{t}.xml").read_text(encoding="utf-8"))
    assert queries and all(q.key is None for q in queries)


@pytest.mark.parametrize("use", ["score", "emit_key_xml", "emit_oracle_submission"])
@pytest.mark.parametrize("t", "ac")
def test_a_keyless_fill_or_path_query_has_no_key(simpsons, t, use):
    queries = parse_query_xml((GOLDEN / f"queries_{t}.xml").read_text(encoding="utf-8"))
    calls = {
        "score": lambda: score_fill(simpsons, queries[0], {}) if t == "a"
        else score_paths(simpsons, queries[0], []),
        "emit_key_xml": lambda: emit_key_xml(queries),
        "emit_oracle_submission": lambda: emit_oracle_submission(queries, "t"),
    }
    with pytest.raises(OracleError) as exc:
        calls[use]()
    assert str(exc.value) == f"Q.{t.upper()}.1: the query has no key"


PATH_TAGS = ["Source", "Edge", "Node", "Target", "Hop"]
PATH_NODES = ["Person:Homer", "Person:Marge", "Person:Bart"]
PATH_RELATIONS = ["Relation:Spouse_of", "Relation:Friend_of"]
NESTED = "Person:Ho<b/>mer"  # a step that holds an element
BAD_PATH_TEXTS = [
    "Homer",  # no category prefix
    "Person:Unknown_1",  # a variable
    "Spouse_of",  # a relation without its prefix
    "Relation:Spouse__of",  # a relation the label rule refuses
    NESTED,
    None,
]


@st.composite
def path_children(draw) -> list[tuple[str, str | None]]:
    """A path element's children as (tag, text): any tags and texts, or the
    valid layout with good texts and at most two bad ones."""
    if draw(st.booleans()):
        texts = PATH_NODES + PATH_RELATIONS + BAD_PATH_TEXTS
        child = st.tuples(st.sampled_from(PATH_TAGS), st.sampled_from(texts))
        return draw(st.lists(child, max_size=9))
    edges = draw(st.integers(1, 4))
    tags = ["Source"] + ["Edge", "Node"] * (edges - 1) + ["Edge", "Target"]
    texts = [draw(st.sampled_from(PATH_RELATIONS if t == "Edge" else PATH_NODES)) for t in tags]
    for _ in range(draw(st.integers(0, 2))):
        texts[draw(st.integers(0, len(texts) - 1))] = draw(st.sampled_from(BAD_PATH_TEXTS))
    return list(zip(tags, texts))


@given(path_children())
def test_path_elements_decode_as_the_reference_does(children):
    el = ET.Element("Path")
    for tag, text in children:
        if text == NESTED:
            el.append(ET.fromstring(f"<{tag}>{text}</{tag}>"))
        else:
            ET.SubElement(el, tag).text = text
    outcomes = []
    for parse in (_parse_path_element, reference_parse_path_element):
        try:
            outcomes.append(parse(el, _Decoder(None)))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert type(outcomes[0]) is type(outcomes[1])


def test_submission_round_trip_a():
    sub = Submission(FillQuery, 
        "team1",
        {
            "Q.A.1": {
                "Unknown_1": [(person("Homer"), 0.9), (person("Bart"), 0.4)],
            }
        },
    )
    parsed, diags = parse_submission_xml(emit_submission(sub), [SPOUSE_QUERY])
    assert not diags
    assert parsed.team == "team1"
    assert parsed.answers == sub.answers


def test_submission_a_confidence_range():
    text = (
        '<QA team="t"><Query id="Q.A.1">'
        '<Answer var="Unknown_1" confidence="1.5">Person:Homer</Answer>'
        '<Answer var="Unknown_1" confidence="0.5">Person:Bart</Answer>'
        "</Query></QA>"
    )
    parsed, diags = parse_submission_xml(text, [SPOUSE_QUERY])
    assert any("confidence" in d.message for d in diags)
    assert parsed.answers["Q.A.1"]["Unknown_1"] == [(person("Bart"), 0.5)]


# the range test alone refuses NaN and both infinities; a missing
# confidence reads as NaN
@pytest.mark.parametrize(
    "attribute, shown",
    [(' confidence="nan"', "nan"), (' confidence="inf"', "inf"),
     (' confidence="-inf"', "-inf"), ("", "nan")],
    ids=["nan", "inf", "-inf", "missing"],
)
def test_submission_a_non_finite_confidence_is_dropped(attribute, shown):
    text = (
        '<QA team="t"><Query id="Q.A.1">'
        f'<Answer var="Unknown_1"{attribute}>Person:Homer</Answer>'
        '<Answer var="Unknown_1" confidence="0.5">Person:Bart</Answer>'
        "</Query></QA>"
    )
    parsed, diags = parse_submission_xml(text, [SPOUSE_QUERY])
    assert [d.message for d in diags] == [f"confidence {shown} outside [0,1]; answer dropped"]
    assert parsed.answers["Q.A.1"]["Unknown_1"] == [(person("Bart"), 0.5)]


def test_submission_a_answer_for_an_unknown_variable_is_dropped():
    text = (
        '<QA team="t"><Query id="Q.A.1">'
        '<Answer var="Unknown_9" confidence="0.5">Person:Homer</Answer>'
        '<Answer confidence="0.5">Person:Homer</Answer>'
        '<Answer var="Unknown_1" confidence="0.5">Person:Homer</Answer>'
        "</Query></QA>"
    )
    parsed, diags = parse_submission_xml(text, [SPOUSE_QUERY])
    assert [d.message for d in diags] == [
        "answer for unknown variable 'Unknown_9'; dropped",
        "answer for unknown variable None; dropped",
    ]
    assert parsed.answers == {"Q.A.1": {"Unknown_1": [(person("Homer"), 0.5)]}}


def test_submission_a_ties_break_by_document_order():
    text = (
        '<QA team="t"><Query id="Q.A.1">'
        '<Answer var="Unknown_1" confidence="0.5">Person:Bart</Answer>'
        '<Answer var="Unknown_1" confidence="0.5">Person:Homer</Answer>'
        "</Query></QA>"
    )
    parsed, _ = parse_submission_xml(text, [SPOUSE_QUERY])
    assert [n.name for n, _ in parsed.answers["Q.A.1"]["Unknown_1"]] == ["Bart", "Homer"]


def test_submission_a_inconsistent_rank_flagged():
    text = (
        '<QA team="t"><Query id="Q.A.1">'
        '<Answer var="Unknown_1" rank="2" confidence="0.9">Person:Homer</Answer>'
        '<Answer var="Unknown_1" rank="1" confidence="0.1">Person:Bart</Answer>'
        "</Query></QA>"
    )
    parsed, diags = parse_submission_xml(text, [SPOUSE_QUERY])
    assert any("disagrees" in d.message for d in diags)
    # confidence ordering wins
    assert parsed.answers["Q.A.1"]["Unknown_1"][0][0] == person("Homer")


def test_submission_a_rank_check_covers_dropped_answers():
    two_vars = FillQuery(
        "Q.A.1",
        (PatternTriple(X, "Spouse of", Variable("Unknown_2", "Person")),),
        None,
    )
    text = (
        '<QA team="t"><Query id="Q.A.1">'
        '<Answer var="Unknown_2" rank="1" confidence="0.3">Person:Marge</Answer>'
        '<Answer var="Unknown_1" rank="1" confidence="2">Person:Homer</Answer>'
        '<Answer var="Unknown_1" rank="3" confidence="0.5">Person:Bart</Answer>'
        '<Answer var="Unknown_2" rank="2" confidence="0.3">Marge</Answer>'
        '<Answer var="Unknown_1" rank="1" confidence="0.4">Person:Lisa</Answer>'
        "</Query></QA>"
    )
    _, diags = parse_submission_xml(text, [two_vars])
    assert [d.message for d in diags] == [
        "confidence 2.0 outside [0,1]; answer dropped",
        "unparseable answer dropped: node id without a category prefix: 'Marge'",
        # per variable in order of its first kept answer, then document order,
        # including the answers dropped above
        "declared rank 2 for Unknown_2 disagrees with confidence ordering",
        "declared rank 1 for Unknown_1 disagrees with confidence ordering",
        "declared rank 3 for Unknown_1 disagrees with confidence ordering",
        "declared rank 1 for Unknown_1 disagrees with confidence ordering",
    ]


def test_submission_missing_team():
    with pytest.raises(ProtocolError, match="team"):
        parse_submission_xml("<QA/>", [SPOUSE_QUERY])


def test_empty_submission_has_all_queries():
    parsed, _ = parse_submission_xml('<QA team="t"/>', [SPOUSE_QUERY])
    assert parsed.answers == {"Q.A.1": {}}


def test_submission_unknown_query_id_diagnostic():
    text = '<QB team="t"><Query id="Q.B.9"><Answer>Relation:Attends</Answer></Query></QB>'
    choice = ChoiceQuery("Q.B.1", person("A"), person("B"), ("Attends",), 0)
    parsed, diags = parse_submission_xml(text, [choice])
    assert any("unknown query id" in d.message for d in diags)
    assert "Q.B.9" not in parsed.answers


def test_submission_b_round_trip():
    choice = ChoiceQuery("Q.B.1", person("A"), person("B"), ("Attends", "Child of"), 0)
    sub = Submission(ChoiceQuery, "t", {"Q.B.1": "Attends"})
    parsed, diags = parse_submission_xml(emit_submission(sub), [choice])
    assert not diags
    assert parsed.answers == sub.answers


@pytest.mark.parametrize(
    "t, good, bad, message",
    [
        ("b", "<Answer>Relation:Parent_of</Answer>", "<Answer>Relation:</Answer>",
         "unparseable answer dropped: empty relation label"),
        ("c", "<Edge>Relation:Spouse_of</Edge>", "<Edge>Relation:Spouse__of</Edge>",
         "unparseable path dropped: relation 'Spouse  of' is not trimmed with single spaces"),
    ],
)
def test_a_submitted_relation_obeys_the_label_rule(t, good, bad, message):
    # Relation: was taken as an answer, and Spouse__of read as 'Spouse  of'
    text = (GOLDEN / f"sub_{t}.xml").read_text(encoding="utf-8")
    assert text.index(good) < text.index(f'<Query id="Q.{t.upper()}.2"')
    _, diagnostics = parse_submission_xml(text.replace(good, bad, 1), GOLDEN_QUERIES)
    assert diagnostics[0].message == message


def test_submission_b_multiple_answers_dropped():
    choice = ChoiceQuery("Q.B.1", person("A"), person("B"), ("Attends",), 0)
    text = (
        '<QB team="t"><Query id="Q.B.1"><Answer>Relation:Attends</Answer>'
        "<Answer>Relation:Child_of</Answer></Query></QB>"
    )
    parsed, diags = parse_submission_xml(text, [choice])
    assert "Q.B.1" not in parsed.answers
    assert any("exactly one Answer" in d.message for d in diags)


def test_submission_b_warns_of_each_element_that_is_not_an_answer():
    choice = ChoiceQuery("Q.B.1", person("A"), person("B"), ("Attends", "Child of"), 0)
    text = (
        '<QB team="t"><Query id="Q.B.1"><Junk/><Answer>Relation:Attends</Answer>'
        "<Path>Relation:Child_of</Path></Query></QB>"
    )
    parsed, diags = parse_submission_xml(text, [choice])
    assert parsed.answers == {"Q.B.1": "Attends"}
    assert [str(d) for d in diags] == [
        "warning: Q.B.1: ignored element 'Junk'",
        "warning: Q.B.1: ignored element 'Path'",
    ]
    # the one-Answer rule counts Answer elements alone
    parsed, diags = parse_submission_xml(text.replace("<Junk/>", "<Answer/>"), [choice])
    assert parsed.answers == {}
    assert [str(d) for d in diags] == [
        "warning: Q.B.1: ignored element 'Path'",
        "warning: Q.B.1: expected exactly one Answer, got 2; dropped",
        "warning: Q.B.1: no answer submitted; scored as wrong",
    ]


@pytest.mark.parametrize("kind", [str, None, [], FillQuery | ChoiceQuery | PathQuery])
def test_a_submission_is_of_one_query_type(kind):
    with pytest.raises(ProtocolError, match="a submission's kind is a query class"):
        Submission(kind, "t")
    sub = Submission(FillQuery, "t")
    with pytest.raises(FrozenInstanceError):
        sub.kind = kind


def test_submission_c_round_trip_and_checks():
    sub = Submission(PathQuery, "t", {"Q.C.1": [CHALMERS_PATH]})
    text = emit_submission(sub)
    assert "<Source>Person:Superintendent Chalmers</Source>" in text
    assert "<Edge>Relation:Superintendent_at</Edge>" in text
    assert "<Target>Person:Lenny</Target>" in text
    parsed, diags = parse_submission_xml(text, [PATH_QUERY])
    assert not diags
    assert parsed.answers["Q.C.1"] == [CHALMERS_PATH]


def test_submission_c_bad_alternation():
    text = (
        '<QC team="t"><Query id="Q.C.1"><Path index="1">'
        "<Source>Person:Superintendent Chalmers</Source>"
        "<Node>Person:Bart</Node>"
        "<Target>Person:Lenny</Target></Path></Query></QC>"
    )
    parsed, diags = parse_submission_xml(text, [PATH_QUERY])
    assert parsed.answers["Q.C.1"] == []
    assert any("dropped" in d.message for d in diags)


def test_submission_c_endpoint_mismatch():
    wrong = Path((person("Homer"), person("Lenny")), ("Friend of",))
    text = emit_submission(Submission(PathQuery, "t", {"Q.C.1": [wrong]}))
    parsed, diags = parse_submission_xml(text, [PATH_QUERY])
    assert parsed.answers["Q.C.1"] == []
    assert any("endpoints" in d.message for d in diags)


@pytest.mark.parametrize(
    "first, second, query",
    [
        (Submission(FillQuery, "t", {"Q.A.1": {"Unknown_1": [(person("Homer"), 0.9)]}}),
         Submission(FillQuery, "t", {"Q.A.1": {"Unknown_1": [(person("Bart"), 1.0)]}}),
         SPOUSE_QUERY),
        (Submission(ChoiceQuery, "t", {"Q.B.1": "Attends"}),
         Submission(ChoiceQuery, "t", {"Q.B.1": "Child of"}),
         ChoiceQuery("Q.B.1", person("A"), person("B"), ("Attends", "Child of"), 0)),
        (Submission(PathQuery, "t", {"Q.C.1": [CHALMERS_PATH]}),
         Submission(PathQuery, "t", {"Q.C.1": [CHALMERS_PATH]}), PATH_QUERY),
    ],
    ids=["a", "b", "c"],
)
def test_a_repeated_query_id_keeps_its_first_element(first, second, query):
    # the Query elements of `first`, then those of `second`, in one document
    text = "\n".join(
        emit_submission(first).splitlines()[:-1] + emit_submission(second).splitlines()[2:]
    )
    parsed, diags = parse_submission_xml(text, [query])
    assert parsed.answers == first.answers
    assert [str(d) for d in diags] == [
        f"warning: {query.id}: duplicate query id '{query.id}'; ignored"
    ]


def _noise(seed: int, n: int) -> str:
    rng = SplitMix64(seed)
    alphabet = "<>/=\"' abZ09_:.&;"
    return "".join(alphabet[rng.randrange(len(alphabet))] for _ in range(n))


@pytest.mark.parametrize("seed", range(30))
def test_parser_totality_on_noise(seed):
    text = _noise(seed, 150)
    for fn in (parse_query_xml, parse_key_xml):
        try:
            fn(text)
        except ProtocolError:
            pass
    try:
        parse_submission_xml(text, [SPOUSE_QUERY])
    except ProtocolError:
        pass


GOLDEN = FsPath(__file__).parent / "golden"
GOLDEN_QUERIES = [
    q for t in "abc"
    for q in parse_key_xml((GOLDEN / f"keys_{t}.xml").read_text(encoding="utf-8"))[0]
]
# the Answer and Path elements of the oracle's golden submissions
GOLDEN_ANSWERS = [
    el for t in "abc" for qel in ET.parse(GOLDEN / f"sub_{t}.xml").getroot() for el in qel
]
TYPE_OF_ROOT = {"QA": FillQuery, "QB": ChoiceQuery, "QC": PathQuery}
# the golden ids of all three types, an unknown id and an empty one
QUERY_IDS = [q.id for q in GOLDEN_QUERIES] + ["Q.A.9", ""]
# text that XML can carry: no control characters and no surrogates
TEXTS = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8)
ATTRIBUTES = st.dictionaries(
    st.sampled_from(["var", "rank", "confidence", "index", "id"]),
    st.one_of(st.sampled_from(["Unknown_1", "Unknown_2", "1", "2", "0.5"]), TEXTS),
    max_size=3,
)


@st.composite
def submission_documents(draw):
    """Well-formed submissions whose answers are the oracle's own, under any
    query id and root, or elements with arbitrary attributes and text."""
    root = ET.Element(draw(st.sampled_from(list(TYPE_OF_ROOT))), {"team": draw(TEXTS)})
    for _ in range(draw(st.integers(0, 4))):
        qel = ET.SubElement(root, "Query", {"id": draw(st.sampled_from(QUERY_IDS))})
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                qel.append(copy.deepcopy(draw(st.sampled_from(GOLDEN_ANSWERS))))
                continue
            tag = draw(st.sampled_from(["Answer", "Path"]))
            el = ET.SubElement(qel, tag, draw(ATTRIBUTES))
            el.text = draw(TEXTS)
            if tag == "Path":
                parts = draw(st.lists(st.sampled_from(["Source", "Edge", "Node", "Target"])))
                for part in parts:
                    ET.SubElement(el, part).text = draw(TEXTS)
    return ET.tostring(root, encoding="unicode")


@given(submission_documents())
def test_submissions_hold_only_ids_of_their_own_type(text):
    try:
        sub, diagnostics = parse_submission_xml(text, GOLDEN_QUERIES)
    except ProtocolError:
        return
    kind = TYPE_OF_ROOT[ET.fromstring(text).tag]
    own = {q.id for q in GOLDEN_QUERIES if isinstance(q, kind)}
    assert set(sub.answers) <= own
    if kind is not ChoiceQuery:  # fill and path submissions list every query
        assert set(sub.answers) == own
    for d in diagnostics:
        if d.where in QUERY_IDS and d.where not in own:
            assert d.message == "submission references an unknown query id; ignored"


# --- the writer against the ElementTree reference ---------------------------

# canonical labels (trimmed, single spaces) with XML's special characters and
# non-ASCII text; a category has no ':', a relation no '_'
NAME_CHARS = ["a", "Z", "0", " ", "&", "<", ">", '"', "'", "é", "中", "\U0001f600", "_", ":"]


def _labels(chars):
    return st.text(st.sampled_from(chars), min_size=1, max_size=6).map(
        canonical_label
    ).filter(bool)


CATEGORIES = _labels([c for c in NAME_CHARS if c != ":"])
# a relation may be named as a path's child tags are
RELATIONS = st.one_of(
    st.sampled_from(["Source", "Edge", "Node", "Target", "Path"]),
    _labels([c for c in NAME_CHARS if c != "_"]),
)
NODES = st.builds(NodeId, CATEGORIES, _labels(NAME_CHARS)).filter(
    lambda n: not is_variable_name(n.name)
)
# Unknown_1..3, one category each: a query holds each variable under one
VARIABLES = st.lists(
    st.one_of(st.none(), CATEGORIES.filter(lambda c: c != "Any")), min_size=3, max_size=3
).map(lambda categories: [
    Variable(f"Unknown_{n}", category) for n, category in enumerate(categories, start=1)
])
# attribute values: any text XML carries, most often its special characters
XML_TEXTS = st.text(
    st.one_of(
        st.sampled_from(["&", "<", ">", '"', "'", "\t", "\r", "\n", "é"]),
        st.characters(blacklist_categories=("Cs",)).filter(lambda c: not non_xml_char(c)),
    ),
    max_size=6,
)
DOCUMENT_IDS = st.lists(XML_TEXTS.filter(bool), min_size=1, max_size=3, unique=True)


def _pooled(draw, values, size):
    """`values`, most often one of a few drawn up front: a document's paths
    then repeat nodes, relations and steps across paths, queries and roles."""
    pool = draw(st.lists(values, min_size=1, max_size=size, unique=True))
    return st.one_of(st.sampled_from(pool), values)


def _paths(draw, node_values, relation_values, source, target, count, max_edges=4,
           simple=False):
    """Paths from source to target, their other nodes and relations drawn
    from the strategies given; when `simple`, each node once, as in a key."""
    paths = []
    for _ in range(count):
        others = node_values.filter(lambda n: n not in (source, target)) if simple else node_values
        inner = draw(st.lists(others, max_size=max_edges - 1, unique=simple))
        nodes = (source, *inner, target)
        relations = tuple(draw(st.lists(relation_values, min_size=len(nodes) - 1,
                                        max_size=len(nodes) - 1)))
        paths.append(Path(nodes, relations))
    return paths


@st.composite
def query_lists(draw):
    """Valid queries of one type, with keys, under distinct ids: every rule
    of its constructor holds."""
    kind = draw(st.sampled_from([FillQuery, ChoiceQuery, PathQuery]))
    nodes, relations = _pooled(draw, NODES, 4), _pooled(draw, RELATIONS, 3)
    queries = []
    for qid in draw(DOCUMENT_IDS):
        if kind is FillQuery:
            ends = st.one_of(NODES, st.sampled_from(draw(VARIABLES)))
            triples = tuple(draw(st.lists(
                st.builds(PatternTriple, ends, RELATIONS, ends), min_size=1, max_size=3
            )))
            used = {e for t in triples for e in (t.subject, t.object)}
            names = sorted(e.name for e in used if isinstance(e, Variable))
            # each binding once, in any order: the codec keeps the order held;
            # injective, as the oracle binds: no node twice, no constant
            free = NODES.filter(lambda n: n not in used)
            bindings = draw(st.lists(
                st.builds(lambda nodes: frozenset(zip(names, nodes)),
                          st.lists(free, min_size=len(names), max_size=len(names), unique=True)),
                min_size=1, max_size=3, unique=True,
            ))
            queries.append(FillQuery(qid, triples, tuple(bindings)))
        elif kind is ChoiceQuery:
            # each option once: a repeated option is a malformed query
            options = tuple(draw(st.lists(RELATIONS, min_size=1, max_size=3, unique=True)))
            key = draw(st.integers(0, len(options) - 1))
            # two nodes: no relation holds from a node to itself
            pair = draw(st.lists(NODES, min_size=2, max_size=2, unique=True))
            queries.append(ChoiceQuery(qid, *pair, options, key))
        else:
            source, target = draw(st.lists(nodes, min_size=2, max_size=2, unique=True))
            max_edges = draw(st.integers(1, 9))
            count = draw(st.integers(1, 3))
            paths = _paths(draw, nodes, relations, source, target, count,
                           min(max_edges, 4), simple=True)
            queries.append(PathQuery(qid, source, target, max_edges, tuple(dict.fromkeys(paths))))
    return queries


@st.composite
def submissions(draw):
    """A submission of each type, possibly with no queries, a fill query with
    no answers or a variable with an empty answer list; and the queries it
    answers."""
    team = draw(XML_TEXTS.filter(bool))
    ids = draw(st.lists(XML_TEXTS.filter(bool), max_size=3, unique=True))
    kind = draw(st.sampled_from([FillQuery, ChoiceQuery, PathQuery]))
    if kind is FillQuery:
        answers = {}
        for qid in ids:
            answers[qid] = {}
            for n in range(1, draw(st.integers(0, 2)) + 1):
                # any confidence in [0, 1], in ranked order, as a parser reads
                # them back: each must read back as the same float
                confidences = sorted(
                    draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                            st.floats(0, 1)), max_size=3)),
                    reverse=True,
                )
                answers[qid][f"Unknown_{n}"] = [(draw(NODES), c) for c in confidences]
        # a query has a triple, and so a variable, when no answer names one
        expected = [
            FillQuery(qid, tuple(PatternTriple(Variable(var), "R", draw(NODES))
                                 for var in answers[qid] or ["Unknown_1"]), None)
            for qid in ids
        ]
        return Submission(FillQuery, team, answers), expected
    if kind is ChoiceQuery:
        answers = {qid: draw(RELATIONS) for qid in ids}
        pairs = st.lists(NODES, min_size=2, max_size=2, unique=True)
        expected = [ChoiceQuery(qid, *draw(pairs), ("R",), 0) for qid in ids]
        return Submission(ChoiceQuery, team, answers), expected
    answers, expected = {}, []
    nodes, relations = _pooled(draw, NODES, 4), _pooled(draw, RELATIONS, 3)
    for qid in ids:
        source, target = draw(st.lists(nodes, min_size=2, max_size=2, unique=True))
        answers[qid] = _paths(draw, nodes, relations, source, target, draw(st.integers(0, 3)))
        expected.append(PathQuery(qid, source, target, 4, None))
    return Submission(PathQuery, team, answers), expected


@given(query_lists(), st.dictionaries(st.sampled_from(["seed", "count_a", "note"]),
                                      XML_TEXTS))
def test_query_and_key_files_are_written_as_elementtree_writes_them(queries, params):
    text = emit_query_xml(queries)
    assert text == reference_emit_document(queries, False)
    parsed = parse_query_xml(text)
    assert parsed == queries
    assert [q.key for q in parsed] == [None] * len(queries)
    text = emit_key_xml(queries, params)
    assert text == reference_emit_document(queries, True, params)
    parsed, parsed_params = parse_key_xml(text)
    assert (parsed, parsed_params) == (queries, params)
    assert [q.key for q in parsed] == [q.key for q in queries]


@given(submissions())
def test_submissions_are_written_as_elementtree_writes_them(case):
    sub, expected = case
    text = emit_submission(sub)
    assert text == reference_emit_submission(sub)
    parsed, diagnostics = parse_submission_xml(text, expected)
    assert not diagnostics
    assert parsed.team == sub.team
    if sub.kind is FillQuery:  # a variable without answers is not written
        assert parsed.answers == {
            qid: {var: ranked for var, ranked in per_var.items() if ranked}
            for qid, per_var in sub.answers.items()
        }
    else:
        assert parsed.answers == sub.answers


# names and labels a file may not give back: empty, or with a character XML
# cannot carry, a '_' or a blank out of place
BAD_NAMES = st.one_of(st.just(""), XML_TEXTS.map(lambda text: text + "\x01"))
BAD_LABELS = st.one_of(
    st.sampled_from(["", "Spouse_of", " Spouse of", "Spouse  of"]),
    RELATIONS.map(lambda label: label + "\x01"),
)


@given(submissions(), st.data())
def test_a_submission_its_file_cannot_give_back_is_not_written(case, data):
    # a file would read each of these back otherwise, drop it with a warning
    # or refuse the whole file, so no Submission is built with one
    sub, _ = case
    answers = dict(sub.answers)
    qid = data.draw(st.sampled_from(sorted(answers))) if answers else "Q.1"
    answer = answers.pop(qid, {FillQuery: {}, ChoiceQuery: "R", PathQuery: []}[sub.kind])
    if data.draw(st.booleans()):
        answers[data.draw(BAD_NAMES)] = answer
    elif sub.kind is FillQuery:
        if data.draw(st.booleans()):
            answers[qid] = {**answer, data.draw(BAD_NAMES): [(person("a"), 0.5)]}
        else:
            outside = st.floats().filter(lambda conf: not 0 <= conf <= 1)  # NaN too
            answers[qid] = {**answer, "Unknown_9": [(person("a"), data.draw(outside))]}
    elif sub.kind is ChoiceQuery:
        answers[qid] = data.draw(BAD_LABELS)
    else:
        answers[qid] = [*answer, Path((person("a"), person("b")), (data.draw(BAD_LABELS),))]
    with pytest.raises(ProtocolError):
        Submission(sub.kind, sub.team, answers)


HOMER_ANSWER = {"Unknown_1": [(person("Homer"), 1.0)]}


@pytest.mark.parametrize(
    "kind, answers, message",
    [
        (FillQuery, {"Q.A.1": {"Unknown_1": [(person("Homer"), 1.5)]}},
         "Q.A.1: Unknown_1 has confidence 1.5, not in [0, 1]"),
        (FillQuery, {"Q.A.1": {"Unknown_1": [(person("Homer"), -0.5)]}},
         "Q.A.1: Unknown_1 has confidence -0.5, not in [0, 1]"),
        (FillQuery, {"Q.A.1": {"Unknown_1": [(person("Homer"), float("nan"))]}},
         "Q.A.1: Unknown_1 has confidence nan, not in [0, 1]"),
        (FillQuery, {"Q.A.\x01": HOMER_ANSWER},
         "'Q.A.\\x01' contains '\\x01', which XML files cannot carry"),
        (FillQuery, {"": HOMER_ANSWER}, "a query id is not empty"),
        (FillQuery, {"Q.A.1": {"Unknown\x01": [(person("Homer"), 1.0)]}},
         "Q.A.1: 'Unknown\\x01' contains '\\x01', which XML files cannot carry"),
        (ChoiceQuery, {"Q.B.1": "Spouse_of"},
         "Q.B.1: relation 'Spouse_of' contains '_', which query files read as a space"),
        (PathQuery, {"Q.C.1": [Path((person("Homer"), person("Marge")), ("Spouse\x01of",))]},
         "Q.C.1: relation 'Spouse\\x01of' contains '\\x01', which XML files cannot carry"),
    ],
    ids=["confidence above", "confidence below", "confidence NaN", "id control character",
         "id empty", "variable control character", "choice label _", "path label control"],
)
def test_a_submission_names_what_its_file_cannot_give_back(kind, answers, message):
    with pytest.raises(ProtocolError) as exc:
        Submission(kind, "t", answers)
    assert str(exc.value) == message


def test_a_confidence_reads_back_as_the_same_float():
    # 6 significant digits read 0.1234567 back as 0.123457
    ranked = [(person("Homer"), 0.1234567), (person("Marge"), 1e-07), (person("Lisa"), 0.0)]
    sub = Submission(FillQuery, "t", {"Q.A.1": {"Unknown_1": ranked}})
    text = emit_submission(sub)
    assert 'confidence="0.1234567"' in text and 'confidence="0"' in text
    parsed, diagnostics = parse_submission_xml(text, [SPOUSE_QUERY])
    assert not diagnostics
    assert parsed.answers == sub.answers
    # the oracle's confidence 1 is written as before
    assert 'confidence="1"' in emit_oracle_submission([SPOUSE_QUERY], "oracle")


# ids and labels with what a file may not give back: '_', blanks, control
# characters, or nothing at all
ODD_TEXTS = st.text(st.sampled_from(["a", "_", " ", "\t", "\r", "\x01", "\x1c", "\x7f", "é"]),
                    max_size=4)


@given(ODD_TEXTS, ODD_TEXTS, st.sampled_from([FillQuery, ChoiceQuery, PathQuery]))
def test_a_query_is_refused_when_built_or_read_back_equal(qid, label, kind):
    a, b = person("a"), person("b")
    try:
        if kind is FillQuery:
            query = FillQuery(qid, (PatternTriple(Variable("Unknown_1"), label, a),),
                              (frozenset({("Unknown_1", b)}),))
        elif kind is ChoiceQuery:
            query = ChoiceQuery(qid, a, b, (label,), 0)
        else:
            query = PathQuery(qid, a, b, 2, (Path((a, b), (label,)),))
    except QueryError:
        return
    assert parse_query_xml(emit_query_xml([query])) == [query]
    parsed, _ = parse_key_xml(emit_key_xml([query]))
    assert parsed == [query]
    assert parsed[0].key == query.key


@pytest.mark.parametrize("root", ['<QA team="" />', "<QA />"], ids=["empty", "missing"])
def test_a_submission_without_a_team_name_is_refused(root):
    # an empty team read as "unknown" in the report, like a team named so
    with pytest.raises(ProtocolError) as exc:
        parse_submission_xml(root, [])
    assert str(exc.value) == (
        "a team name is not empty" if "team" in root
        else "submission root must carry a team attribute"
    )


@pytest.mark.parametrize(
    "team, message",
    [("", "a team name is not empty"),
     ("t\x01", "'t\\x01' contains '\\x01', which XML files cannot carry")],
)
def test_a_submission_holds_only_a_team_its_file_can_carry(team, message):
    # `<QA team="" />` was written, and refused when read; a control
    # character made a file that was not XML
    for kind in (FillQuery, ChoiceQuery, PathQuery):
        with pytest.raises(ProtocolError) as exc:
            Submission(kind, team, {})
        assert str(exc.value) == message


def test_the_writer_escapes_as_elementtree_does():
    sub = Submission(PathQuery, 'a&b<c>"d\'\t\r\né', {'Q"1': [Path(
        (NodeId("A&<>", "x\"'y"), NodeId("中", "n")), ("R & <S>",)
    )]})
    assert emit_submission(sub) == reference_emit_submission(sub)
    assert '<QC team="a&amp;b&lt;c&gt;&quot;d\'&#09;&#13;&#10;é">' in emit_submission(sub)
    assert "<Source>A&amp;&lt;&gt;:x\"'y</Source>" in emit_submission(sub)
    assert emit_submission(Submission(FillQuery, "t", {})) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n<QA team="t" />\n'
    )
    assert '<Query id="Q.A.1" />' in emit_submission(
        Submission(FillQuery, "t", {"Q.A.1": {"Unknown_1": []}})
    )


def test_a_relation_named_as_a_tag_keeps_its_own_lines():
    # the step (Source, b) of Q.C.1 and the Source b of Q.C.2 share a name
    # and a node: one memo keyed by (tag or relation, node) writes one line
    # for both
    a, b, c = person("a"), person("b"), person("c")
    sub = Submission(PathQuery, "t", {
        "Q.C.1": [Path((a, b, c), ("Source", "R"))],
        "Q.C.2": [Path((b, a, c), ("Target", "R"))],
    })
    text = emit_submission(sub)
    assert text == reference_emit_submission(sub)
    assert "<Edge>Relation:Source</Edge>\n      <Node>Person:b</Node>" in text


def test_a_large_path_key_is_written_as_elementtree_writes_it(simpsons):
    # every Person pair of the Simpsons world at k=8: 405 paths, 2,133 edges
    people = [n for n in simpsons.nodes if n.category == "Person"]
    queries = [
        PathQuery(f"Q.C.{i}", source, target, 8,
                  tuple(enumerate_paths(simpsons, source, target, 8)))
        for i, (source, target) in enumerate(combinations(people, 2), start=1)
    ]
    assert len(queries) == 36
    assert sum(len(q.key) for q in queries) == 405
    assert sum(p.length for q in queries for p in q.key) == 2133
    assert emit_key_xml(queries) == reference_emit_document(queries, True)
    sub = Submission(PathQuery, "oracle", {q.id: list(q.key) for q in queries})
    assert emit_oracle_submission(queries, "oracle") == reference_emit_submission(sub)


SIMPSONS_NODES = simpsons_graph().by_text


def test_each_malformed_text_reports_every_time():
    # one valid and two malformed texts, each repeated: decoded once when
    # valid, one diagnostic per occurrence when not, with or without a
    # graph's node table, whose own nodes are then shared
    n = 3
    path = (
        '<Path><Source>Person:Superintendent Chalmers</Source><Edge>{}</Edge>'
        "<Target>{}</Target></Path>"
    )
    text = (
        '<QC team="t"><Query id="Q.C.1">'
        + path.format("Relation:Friend_of", "Person:Lenny") * n
        + path.format("Friend_of", "Person:Lenny") * n
        + path.format("Relation:Friend_of", "Lenny") * n
        + "</Query></QC>"
    )
    for by_text in (None, SIMPSONS_NODES):
        parsed, diagnostics = parse_submission_xml(text, [PATH_QUERY], by_text)
        assert [d.message for d in diagnostics] == (
            ["unparseable path dropped: expected 'Relation:...' text, got 'Friend_of'"] * n
            + ["unparseable path dropped: node id without a category prefix: 'Lenny'"] * n
        )
        kept = parsed.answers["Q.C.1"]
        assert len(kept) == n
        assert len({id(node) for p in kept for node in p.nodes}) == 2  # shared NodeIds
    assert all(node is SIMPSONS_NODES[node.canonical] for node in kept[0].nodes)


NODE_ELEMENT = re.compile(r"<(Subject|Object|Source|Target|Node|Var|Answer)([^>]*)>([^<]*)</\1>")
# besides a graph node's own text: a variable, a node no graph holds, and
# malformed texts, each likely met more than once in a document
OTHER_NODE_TEXTS = ["Person:Unknown_1", " Any : Unknown_2 ", "Person:Nobody", "Homer", ":Homer"]


@st.composite
def golden_documents_respelled(draw):
    """A golden document's name, and its text with each node text kept,
    spelled otherwise (`Person:  Homer`, ` Person:Homer `, `Person :Homer`)
    or, when other texts are drawn for the document, replaced by one."""
    name = draw(st.sampled_from(sorted(p.name for p in GOLDEN.glob("*.xml"))))
    others = OTHER_NODE_TEXTS if draw(st.booleans()) else []

    def respell(match):
        tag, attrs, text = match.groups()
        category, _, rest = text.partition(":")
        spellings = [text, f"{category}:  {rest}", f" {category}:{rest} ", f"{category} :{rest}"]
        return f"<{tag}{attrs}>{draw(st.sampled_from(spellings + others))}</{tag}>"

    return name, NODE_ELEMENT.sub(respell, (GOLDEN / name).read_text(encoding="utf-8"))


def read_golden(name, text, by_text):
    """What the reader of a golden document's kind gives, or its error."""
    kind, _, t = name.removesuffix(".xml").partition("_")
    try:
        if kind == "queries":
            return parse_query_xml(text, by_text)
        if kind == "keys":
            return parse_key_xml(text, by_text)
        expected, _ = parse_key_xml((GOLDEN / f"keys_{t}.xml").read_text(encoding="utf-8"))
        return parse_submission_xml(text, expected, by_text)
    except ProtocolError as exc:
        return f"ProtocolError: {exc}"


@given(golden_documents_respelled())
def test_a_graphs_node_table_changes_no_reading(case):
    # queries, keys, answers and each diagnostic, in order, or the error
    name, text = case
    assert read_golden(name, text, SIMPSONS_NODES) == read_golden(name, text, None)


@pytest.mark.parametrize("t", "abc")
def test_parsing_a_key_leaves_no_cyclic_garbage(t):
    text = (GOLDEN / f"keys_{t}.xml").read_text(encoding="utf-8")
    assert cyclic_garbage(lambda: parse_key_xml(text)) == 0
