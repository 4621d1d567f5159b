"""Relation vocabulary and the inverse-relation mapping, and the rules for
the text that files hold.

Every relation has a declared inverse (possibly itself), so a stored
directed edge can be traversed backwards under the inverse label.  The
inverse map is a total involution over the relation set.

Each text rule has one form, asked where a value is built: `name_fault` and
`label_fault` say what is wrong with a name or a relation label, or None,
and `decimal` gives the int a number text writes, or None.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping


class OntologyError(ValueError):
    pass


# the characters outside XML 1.0's Char production, which no XML file can carry
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
XML_CHAR_RULE = "{} contains {!r}, which XML files cannot carry"


def non_xml_char(text: str) -> str | None:
    """The first character of `text` that XML 1.0 cannot carry, if any."""
    match = _NOT_XML_CHAR.search(text)
    return match and match.group()


def name_fault(name: str, what: str) -> str | None:
    """The one rule for a name a file holds as an attribute value, such as
    a team name or a query id: not empty, and only characters XML can
    carry.  What is wrong with `name`, a `what`, or None."""
    if not name:
        return f"a {what} is not empty"
    if char := non_xml_char(name):
        return XML_CHAR_RULE.format(repr(name), char)
    return None


def is_decimal(text: str) -> bool:
    """ASCII [0-9]+ only; str.isdigit() alone also accepts '²' and '٣'."""
    return text.isascii() and text.isdigit()


def decimal(text: str) -> int | None:
    """The int that `text`, ASCII [0-9]+, writes; None for other text and
    for more digits than `int()` takes (`sys.get_int_max_str_digits()`)."""
    if is_decimal(text):
        try:
            return int(text)
        except ValueError:
            pass
    return None


def canonical_label(raw: str) -> str:
    """Trim and collapse internal whitespace; comparison is then exact and
    case-sensitive."""
    return " ".join(raw.split())


@lru_cache(maxsize=1024)
def label_fault(label: str) -> str | None:
    """The one relation-label rule, so that every reader gives the label
    back: non-empty, trimmed with single spaces, no '_', no '|' or leading
    '#' (ontology file syntax), only XML characters.  What is wrong with
    `label`, or None.  Readers, writers and query constructors ask it for
    every label they meet, so the answers for the last 1,024 labels asked
    are kept."""
    if not label:
        return "empty relation label"
    if canonical_label(label) != label:
        return f"relation {label!r} is not trimmed with single spaces"
    if "_" in label:
        return f"relation {label!r} contains '_', which query files read as a space"
    if "|" in label or label.startswith("#"):
        return f"relation {label!r} has ontology file syntax ('|' or a leading '#')"
    if char := non_xml_char(label):
        return XML_CHAR_RULE.format(f"relation {label!r}", char)
    return None


@dataclass(frozen=True)
class RelationOntology:
    """Immutable set of relation labels plus their inverse involution.  Every
    label passes `label_fault`, else OntologyError."""

    inverse: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        inv = dict(self.inverse)
        for r, i in inv.items():
            if fault := label_fault(r):
                raise OntologyError(fault)
            if inv.get(i) != r:
                raise OntologyError(f"inverse map is not an involution at {r!r} -> {i!r}")
        object.__setattr__(self, "inverse", inv)

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(self.inverse)

    def __contains__(self, relation: str) -> bool:
        return relation in self.inverse

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.inverse))

    def __len__(self) -> int:
        return len(self.inverse)

    def inverse_of(self, relation: str) -> str:
        try:
            return self.inverse[relation]
        except KeyError:
            raise OntologyError(f"unknown relation: {relation!r}") from None


def load_ontology(text: str) -> RelationOntology:
    """Parse the ontology file format: one `<relation> | <inverse>` pair per
    line, `#` comment lines, blank lines ignored.  Self-inverse relations
    repeat the label; each label is canonicalised, then must pass
    `label_fault`."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" not in line:
            raise OntologyError(f"line {lineno}: expected '<relation> | <inverse>'")
        left, _, right = line.partition("|")
        r = canonical_label(left)
        i = canonical_label(right)
        for label in (r, i):
            if fault := label_fault(label):
                raise OntologyError(f"line {lineno}: {fault}")
        if r in pairs:
            if pairs[r] == i:
                raise OntologyError(f"line {lineno}: duplicate relation {r!r}")
            raise OntologyError(
                f"line {lineno}: non-involutive pairing for {r!r}: "
                f"{pairs[r]!r} vs {i!r}"
            )
        if r != i and i in pairs:  # pairs is symmetric, so pairs[i] != r
            raise OntologyError(
                f"line {lineno}: non-involutive pairing for {i!r}: "
                f"{pairs[i]!r} vs {r!r}"
            )
        pairs[r] = i
        pairs[i] = r
    if not pairs:
        raise OntologyError("empty ontology file")
    return RelationOntology(pairs)


def emit_ontology(ontology: RelationOntology) -> str:
    """Deterministic inverse of load_ontology: each pair once, sorted by its
    lexicographically smaller member."""
    lines = []
    for r in sorted(ontology.relations):
        i = ontology.inverse_of(r)
        if r <= i:
            lines.append(f"{r} | {i}")
    return "\n".join(lines) + "\n"
