"""Every reader of outside text is total: the graph readers never raise, and
the query, key and submission readers raise only ProtocolError.  The inputs
are the bundled Simpsons graph files and the golden documents with a few
edits spliced in: long digit runs, in place of a number or anywhere,
deletions and stray markup."""

import re
from contextlib import nullcontext, suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import int_digits
from kgbench.datasets import simpsons_ontology
from kgbench.formats import parse_graph
from kgbench.protocol import ProtocolError, parse_key_xml, parse_query_xml, parse_submission_xml

DATA = Path(__file__).parent.parent / "src" / "kgbench" / "data"
GOLDEN = Path(__file__).parent / "golden"
ONTOLOGY = simpsons_ontology()
GRAPHS = {fmt: (DATA / f"simpsons.{fmt}").read_text(encoding="utf-8") for fmt in ("tgf", "xgml")}
DOCUMENTS = {path.name: path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.xml"))}
# the golden keys, which a submission of the same letter is read against
EXPECTED = {name[-5]: parse_key_xml(text)[0] for name, text in DOCUMENTS.items()
            if name.startswith("keys_")}

# past the default limit of 4,300 digits, and past the lowest limit, 640, too
DIGITS = st.one_of(st.integers(4301, 5000), st.integers(641, 4300)).map(lambda n: "7" * n)
MARKUP = st.sampled_from([
    "<", ">", "&", "&amp;", "&#1;", '"', "'", "</Query>", '<Query id="Q.A.1">', "<Path>",
    '<Answer var="Unknown_1">', 'index="', "[", "]", "node [", "edge [ source", "id", "#",
    "\n#\n", "\n", "_", ":", "Unknown_",
])
SPLICE = st.one_of(DIGITS, MARKUP, st.just(""), st.text(max_size=4))


@st.composite
def edited(draw, text: str) -> str:
    """`text` with one to four edits: a number made a long digit run, or a
    span of up to 20 characters, maybe empty, replaced by a splice."""
    for _ in range(draw(st.integers(1, 4))):
        numbers = [m.span() for m in re.finditer("[0-9]+", text)]
        if numbers and draw(st.booleans()):
            start, stop = draw(st.sampled_from(numbers))
            splice = draw(DIGITS)
        else:
            start = draw(st.integers(0, len(text)))
            stop = draw(st.integers(start, min(len(text), start + 20)))
            splice = draw(SPLICE)
        text = text[:start] + splice + text[stop:]
    return text


# None: the interpreter's own limit
LIMITS = pytest.mark.parametrize("limit", [None, 640])


@LIMITS
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_graph_reader_never_raises(limit, data):
    fmt = data.draw(st.sampled_from(sorted(GRAPHS)))
    text = data.draw(edited(GRAPHS[fmt]))
    with int_digits(limit) if limit else nullcontext():
        parse_graph(text, ONTOLOGY, fmt)


@LIMITS
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_document_reader_raises_only_protocol_error(limit, data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    text = data.draw(edited(DOCUMENTS[name]))
    read = {
        "queries": parse_query_xml,
        "keys": parse_key_xml,
        "sub": lambda text: parse_submission_xml(text, EXPECTED[name[-5]]),
    }[name.split("_")[0]]
    with int_digits(limit) if limit else nullcontext(), suppress(ProtocolError):
        read(text)
