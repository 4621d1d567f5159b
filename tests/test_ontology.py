import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import int_digits
from kgbench.datasets import core_ontology
from kgbench.ontology import (
    OntologyError,
    RelationOntology,
    canonical_label,
    decimal,
    emit_ontology,
    load_ontology,
)


def test_core_vocabulary_loads():
    ont = core_ontology()
    # 14 file rows: 5 symmetric, 9 asymmetric pairs -> 23 distinct labels
    assert len(ont) == 23
    assert ont.inverse_of("Child of") == "Parent of"
    assert ont.inverse_of("Parent of") == "Child of"
    assert ont.inverse_of("Spouse of") == "Spouse of"
    assert ont.inverse_of("Superintendent at") == "Responsibility of"
    assert ont.inverse_of("Friend of") == "Friend of"


def test_a_decimal_is_ascii_digits_that_int_takes():
    assert decimal("0") == 0 and decimal("007") == 7
    for text in ("", "-1", "+1", " 1", "1_0", "1.0", "\u0663", "\u00b2"):
        assert decimal(text) is None
    # None, not a ValueError, past the limit the interpreter sets
    with int_digits(640):
        assert decimal("9" * 640) == 10**640 - 1
        assert decimal("9" * 641) is None


def test_involution_over_core():
    ont = core_ontology()
    for r in ont:
        assert ont.inverse_of(ont.inverse_of(r)) == r


def test_canonicalization():
    assert canonical_label("  Parent   of ") == "Parent of"
    ont = load_ontology("Child  of |  Parent of\n")
    assert ont.inverse_of("Child of") == "Parent of"


def test_case_sensitive():
    ont = load_ontology("Child of | Parent of")
    with pytest.raises(OntologyError, match="unknown relation"):
        ont.inverse_of("child of")


def test_unknown_relation_named_in_error():
    ont = load_ontology("Spouse of | Spouse of")
    with pytest.raises(OntologyError, match="Owns"):
        ont.inverse_of("Owns")


UNDERSCORE = "^line {}: relation '{}' contains '_', which query files read as a space$"
NOT_XML = r"^line {}: relation 'Works\\x01at' contains '\\x01', which XML files cannot carry$"


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty ontology"),
        ("# only a comment\n\n", "empty ontology"),
        ("Child of | Parent of\nChild of | Parent of\n", "duplicate"),
        ("A of | B of\nB of | C of\n", "non-involutive"),
        # the line's inverse already has another inverse
        ("A of | B of\nC of | A of\n",
         "^line 2: non-involutive pairing for 'A of': 'B of' vs 'C of'$"),
        ("A of |\n", "empty relation label"),
        ("A of\n", "expected"),
        # query files write a space in a relation as '_', so '_' cannot round-trip
        ("Works_at | Employs\n", UNDERSCORE.format(1, "Works_at")),
        ("# comment\nEmploys | Works_at\n", UNDERSCORE.format(2, "Works_at")),
        ("Friend of | Friend of\nBest_friend of | Best_friend of\n",
         UNDERSCORE.format(2, "Best_friend of")),
        # a label XML cannot carry would be written into unreadable query files
        ("Works\x01at | Employs\n", NOT_XML.format(1)),
        ("# comment\nEmploys | Works\x01at\n", NOT_XML.format(2)),
        # emit_ontology would write a line that splits elsewhere, or a comment
        ("A of | 0|B\n", r"^line 1: relation '0\|B' has ontology file syntax"),
        ("A of | #B\n", r"^line 1: relation '#B' has ontology file syntax"),
    ],
)
def test_load_errors(text, match):
    with pytest.raises(OntologyError, match=match):
        load_ontology(text)


@st.composite
def ontology_files(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    lines = []
    for i in range(n):
        if draw(st.booleans()):
            lines.append(f"S{i} of | S{i} of")
        else:
            lines.append(f"F{i} of | R{i} of")
    return "\n".join(lines)


@given(ontology_files())
def test_loaded_ontologies_are_involutions(text):
    ont = load_ontology(text)
    for r in ont:
        assert ont.inverse_of(ont.inverse_of(r)) == r


@given(ontology_files())
def test_emit_load_round_trip(text):
    ont = load_ontology(text)
    assert load_ontology(emit_ontology(ont)) == ont


@pytest.mark.parametrize("char", ["\x01", "\x1b", "\ufffe", "\uffff"])
def test_a_relation_xml_cannot_carry_is_refused(char):
    with pytest.raises(OntologyError) as exc:
        RelationOntology({f"Works{char}at": "Employs", "Employs": f"Works{char}at"})
    assert str(exc.value) == (
        f"relation {f'Works{char}at'!r} contains {char!r}, which XML files cannot carry"
    )
    with pytest.raises(OntologyError) as exc:
        load_ontology(f"Works at | Employs\nLives{char}with | Lives with")
    assert str(exc.value) == (
        f"line 2: relation {f'Lives{char}with'!r} contains {char!r}, which XML files cannot carry"
    )
    # TAB, LF and CR are XML characters; canonical labels fold them to spaces
    assert "Lives with" in load_ontology("Lives\twith | Lives\twith")


@pytest.mark.parametrize(
    "label, rule",
    [
        ("Knows ", "is not trimmed with single spaces"),
        ("Knows  well", "is not trimmed with single spaces"),
        ("Knows\xa0well", "is not trimmed with single spaces"),
        ("Knows|well", "has ontology file syntax ('|' or a leading '#')"),
        ("#Knows", "has ontology file syntax ('|' or a leading '#')"),
    ],
)
def test_a_label_the_readers_would_change_is_refused(label, rule):
    # {"Knows ": "Knows "} once failed its own emit/load round trip
    with pytest.raises(OntologyError) as exc:
        RelationOntology({label: label})
    assert str(exc.value) == f"relation {label!r} {rule}"
    with pytest.raises(OntologyError) as exc:
        RelationOntology({"Knows": label, label: "Knows"})
    assert str(exc.value) == f"relation {label!r} {rule}"
    assert "Knows#well" in RelationOntology({"Knows#well": "Knows#well"})


def test_an_empty_label_is_refused():
    with pytest.raises(OntologyError) as exc:
        RelationOntology({"": ""})
    assert str(exc.value) == "empty relation label"


def test_a_map_that_is_not_an_involution_is_refused():
    with pytest.raises(OntologyError) as exc:
        RelationOntology({"A of": "B of"})
    assert str(exc.value) == "inverse map is not an involution at 'A of' -> 'B of'"
    with pytest.raises(OntologyError) as exc:
        RelationOntology({"A of": "B of", "B of": "C of", "C of": "B of"})
    assert str(exc.value) == "inverse map is not an involution at 'A of' -> 'B of'"
