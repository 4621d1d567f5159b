"""Golden files: the exact bytes of one query, key and submission document
per query type, generated on the bundled Simpsons world with

    kgbench gen-queries --graph simpsons.tgf --format tgf \
        --ontology simpsons.ont --seed 7 --count-a 3 --count-b 3 \
        --count-c 2 --max-edges 4 --out tests/golden
    kgbench answer ... --queries tests/golden/queries_<t>.xml \
        --team oracle --out tests/golden/sub_<t>.xml

A change that alters any of these bytes changes the wire format (or the
generators' RNG consumption) and must say so.
"""

from pathlib import Path

import pytest

from kgbench.cli import main
from kgbench.protocol import (
    emit_key_xml,
    emit_query_xml,
    emit_submission,
    parse_key_xml,
    parse_query_xml,
    parse_submission_xml,
)

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "src" / "kgbench" / "data"
GRAPH_ARGS = [
    "--graph", str(DATA / "simpsons.tgf"), "--format", "tgf",
    "--ontology", str(DATA / "simpsons.ont"),
]
NAMES = [f"{kind}_{t}.xml" for kind in ("queries", "keys", "sub") for t in "abc"]


def test_cli_reproduces_golden_bytes(tmp_path):
    assert main(
        ["gen-queries", *GRAPH_ARGS, "--seed", "7", "--count-a", "3",
         "--count-b", "3", "--count-c", "2", "--max-edges", "4",
         "--out", str(tmp_path)]
    ) == 0
    for t in "abc":
        assert main(
            ["answer", *GRAPH_ARGS, "--queries", str(tmp_path / f"queries_{t}.xml"),
             "--team", "oracle", "--out", str(tmp_path / f"sub_{t}.xml")]
        ) == 0
    for name in NAMES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("t", "abc")
def test_golden_documents_reemit_identically(t):
    query_text = (GOLDEN / f"queries_{t}.xml").read_text(encoding="utf-8")
    key_text = (GOLDEN / f"keys_{t}.xml").read_text(encoding="utf-8")
    sub_text = (GOLDEN / f"sub_{t}.xml").read_text(encoding="utf-8")

    assert emit_query_xml(parse_query_xml(query_text)) == query_text
    queries, params = parse_key_xml(key_text)
    assert emit_key_xml(queries, params) == key_text
    assert emit_query_xml(queries) == query_text

    sub, diagnostics = parse_submission_xml(sub_text, queries)
    assert diagnostics == []
    assert emit_submission(sub) == sub_text


@pytest.mark.parametrize("t", "abc")
def test_golden_submissions_reemit_against_every_key(t):
    # as `score` does: each submission meets the queries of all three key
    # files and keeps only those of its own type
    queries = [
        q for k in "abc"
        for q in parse_key_xml((GOLDEN / f"keys_{k}.xml").read_text(encoding="utf-8"))[0]
    ]
    sub_text = (GOLDEN / f"sub_{t}.xml").read_text(encoding="utf-8")
    sub, diagnostics = parse_submission_xml(sub_text, queries)
    assert diagnostics == []
    assert all(qid.startswith(f"Q.{t.upper()}.") for qid in sub.answers)
    assert emit_submission(sub) == sub_text
