"""XML wire formats: query files, sealed answer-key files, and participant
submissions.

Element vocabulary
------------------
Query files (one document per type, at least one Query):
    <QA><Query id="Q.A.1"><Triple><Subject>Person:Unknown_1</Subject>
        <Pred>Relation:Spouse_of</Pred><Object>Person:Marge</Object>
        </Triple>...</Query>...</QA>
    <QB><Query id="Q.B.1"><Subject>...</Subject><Pred>Relation:Unknown_1</Pred>
        <Object>...</Object><Option index="1">Relation:X</Option>...</Query></QB>
    <QC><Query id="Q.C.1" max_edges="8"><Source>...</Source>
        <Target>...</Target></Query></QC>

A key file is the query document plus payload.  Its root is QAKey/QBKey/QCKey,
carrying the generation params as attributes, after a CONFIDENTIAL comment.
Each Query keeps its query elements and then lists its key: every solution
as <Binding index="1"><Var name="Unknown_1">Person:Homer</Var>...</Binding>
(QA), the one <Correct index="2">Relation:Teacher_at</Correct> (QB), or every
route as <Path> (QC).  In a query file a payload element is an unknown element.

Submission files (root carries a required team attribute):
    <QA team="t"><Query id="..."><Answer var="Unknown_1" rank="1"
        confidence="0.9">Person:Homer</Answer>...</Query></QA>
    <QB team="t"><Query id="..."><Answer>Relation:Teacher_at</Answer></Query></QB>
    <QC team="t"><Query id="..."><Path index="1"><Source>...</Source>
        <Edge>Relation:...</Edge><Node>...</Node>...<Target>...</Target>
        </Path>...</Query></QC>

Relation labels encode spaces as underscores inside "Relation:..." text;
node names keep literal spaces.  Variables are recognized by the
"Unknown_<n>" name pattern after the category prefix.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .graph import GraphError, NodeId, is_variable_name
from .oracle import OracleError, Path, PatternTriple, Variable
from .querygen import Binding, ChoiceQuery, FillQuery, PathQuery, Query


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "warning" | "error"
    where: str  # query id or element path
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.where}: {self.message}"


@dataclass
class SubmissionA:
    """Per query, per variable: ranked (node, confidence) answers."""

    team: str
    answers: dict[str, dict[str, list[tuple[NodeId, float]]]] = field(
        default_factory=dict
    )


@dataclass
class SubmissionB:
    team: str
    answers: dict[str, str] = field(default_factory=dict)  # query id -> relation


@dataclass
class SubmissionC:
    team: str
    answers: dict[str, list[Path]] = field(default_factory=dict)


Submission = SubmissionA | SubmissionB | SubmissionC


# --- text and element encodings -------------------------------------------


def encode_relation(relation: str) -> str:
    return "Relation:" + relation.replace(" ", "_")


def decode_relation(text: str) -> str:
    prefix, sep, rest = text.strip().partition(":")
    if not sep or prefix.strip() != "Relation":
        raise ProtocolError(f"expected 'Relation:...' text, got {text!r}")
    return rest.strip().replace("_", " ")


def encode_node_ref(ref: NodeId | Variable) -> str:
    if isinstance(ref, Variable):
        return f"{ref.category or 'Any'}:{ref.name}"
    return ref.canonical


def decode_node_ref(text: str) -> NodeId | Variable:
    try:
        node = NodeId.parse(text)
    except GraphError as exc:
        raise ProtocolError(str(exc)) from None
    if is_variable_name(node.name):
        category = None if node.category == "Any" else node.category
        return Variable(node.name, category)
    return node


def decode_node(text: str) -> NodeId:
    ref = decode_node_ref(text)
    if isinstance(ref, Variable):
        raise ProtocolError(f"variable where a concrete node was expected: {text!r}")
    return ref


def _document(root: ET.Element, header_comment: str | None = None) -> str:
    ET.indent(root)
    body = ET.tostring(root, encoding="unicode")
    header = '<?xml version="1.0" encoding="UTF-8"?>\n'
    if header_comment:
        header += f"<!-- {header_comment} -->\n"
    return header + body + "\n"


def _path_element(path: Path, index: int) -> ET.Element:
    el = ET.Element("Path", {"index": str(index)})
    ET.SubElement(el, "Source").text = path.source.canonical
    for rel, node in zip(path.relations[:-1], path.nodes[1:-1]):
        ET.SubElement(el, "Edge").text = encode_relation(rel)
        ET.SubElement(el, "Node").text = node.canonical
    ET.SubElement(el, "Edge").text = encode_relation(path.relations[-1])
    ET.SubElement(el, "Target").text = path.target.canonical
    return el


def _parse_path_element(el: ET.Element) -> Path:
    children = list(el)
    if len(children) < 3 or len(children) % 2 == 0:
        raise ProtocolError("path must alternate Source/Edge/Node/.../Target")
    inner = (len(children) - 3) // 2
    expected = ["Source"] + ["Edge", "Node"] * inner + ["Edge", "Target"]
    tags = [c.tag for c in children]
    if tags != expected:
        raise ProtocolError(
            f"path elements out of order: got {tags}, expected {expected}"
        )
    nodes = [decode_node(c.text or "") for c in children if c.tag != "Edge"]
    relations = [decode_relation(c.text or "") for c in children if c.tag == "Edge"]
    return Path(tuple(nodes), tuple(relations))


# --- query and key files ----------------------------------------------------

_ROOT_FOR_TYPE = {FillQuery: "QA", ChoiceQuery: "QB", PathQuery: "QC"}
_TYPE_FOR_ROOT = {tag: kind for kind, tag in _ROOT_FOR_TYPE.items()}
CONFIDENTIAL_COMMENT = "CONFIDENTIAL answer key - do not distribute to participants"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _decimal(text: str | None, message: str) -> int:
    """ASCII [0-9]+ only; str.isdigit() alone also accepts '²' and '٣'."""
    _require(text is not None and text.isascii() and text.isdigit(), message)
    return int(text)


def _load_root(text: str, suffix: str) -> tuple[ET.Element, type]:
    """The root element, which must be a type's tag plus `suffix`, and that
    query type."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from None
    allowed_tags = tuple(tag + suffix for tag in _TYPE_FOR_ROOT)
    _require(
        root.tag in allowed_tags,
        f"unexpected root element {root.tag!r}, expected one of {allowed_tags}",
    )
    return root, _TYPE_FOR_ROOT[root.tag.removesuffix(suffix)]


def _sorted_bindings(key: frozenset[Binding]) -> list[Binding]:
    return sorted(key, key=lambda b: sorted((n, v.canonical) for n, v in b))


def _sorted_paths(key: frozenset[Path]) -> list[Path]:
    return sorted(key, key=lambda p: (p.length, p.sort_key()))


def _query_type(queries: list[Query]) -> type:
    """The one query type of a document, which holds at least one query."""
    kinds = {type(q) for q in queries}
    _require(bool(kinds), "a document holds at least one query")
    _require(len(kinds) == 1, "query and key files hold a single query type")
    return kinds.pop()


def _write_query(qel: ET.Element, q: Query, keyed: bool) -> None:
    """A query's elements, then in a key file its payload."""
    if isinstance(q, FillQuery):
        for t in q.triples:
            tel = ET.SubElement(qel, "Triple")
            ET.SubElement(tel, "Subject").text = encode_node_ref(t.subject)
            ET.SubElement(tel, "Pred").text = encode_relation(t.relation)
            ET.SubElement(tel, "Object").text = encode_node_ref(t.object)
        if not keyed:
            return
        for i, binding in enumerate(_sorted_bindings(q.key), start=1):
            bel = ET.SubElement(qel, "Binding", {"index": str(i)})
            for name, node in sorted(binding):
                vel = ET.SubElement(bel, "Var", {"name": name})
                vel.text = node.canonical
    elif isinstance(q, ChoiceQuery):
        ET.SubElement(qel, "Subject").text = q.subject.canonical
        ET.SubElement(qel, "Pred").text = "Relation:Unknown_1"
        ET.SubElement(qel, "Object").text = q.object.canonical
        for i, option in enumerate(q.options, start=1):
            oel = ET.SubElement(qel, "Option", {"index": str(i)})
            oel.text = encode_relation(option)
        if keyed:
            cel = ET.SubElement(qel, "Correct", {"index": str(q.key + 1)})
            cel.text = encode_relation(q.options[q.key])
    else:
        qel.set("max_edges", str(q.max_edges))
        ET.SubElement(qel, "Source").text = q.source.canonical
        ET.SubElement(qel, "Target").text = q.target.canonical
        if not keyed:
            return
        for i, path in enumerate(_sorted_paths(q.key), start=1):
            qel.append(_path_element(path, i))


def _emit_document(queries: list[Query], keyed: bool, params: dict[str, str]) -> str:
    root_tag = _ROOT_FOR_TYPE[_query_type(queries)] + ("Key" if keyed else "")
    root = ET.Element(root_tag, dict(sorted(params.items())))
    for q in queries:
        qel = ET.SubElement(root, "Query", {"id": q.id})
        _write_query(qel, q, keyed)
    return _document(root, CONFIDENTIAL_COMMENT if keyed else None)


def _read_document(text: str, keyed: bool) -> tuple[list[Query], dict[str, str]]:
    root, kind = _load_root(text, "Key" if keyed else "")
    _require(len(root) > 0, f"{root.tag} document without a Query")
    queries: list[Query] = []
    seen: set[str] = set()
    for qel in root:
        _require(qel.tag == "Query", f"unknown element {qel.tag!r}")
        qid = qel.get("id")
        _require(bool(qid), "Query without an id attribute")
        _require(qid not in seen, f"duplicate query id {qid!r}")
        seen.add(qid)
        if kind is FillQuery:
            triples = []
            bindings = set()
            for cel in qel:
                if cel.tag == "Triple":
                    parts = {c.tag: (c.text or "") for c in cel}
                    _require(
                        set(parts) == {"Subject", "Pred", "Object"},
                        f"{qid}: Triple needs Subject/Pred/Object",
                    )
                    triples.append(
                        PatternTriple(
                            decode_node_ref(parts["Subject"]),
                            decode_relation(parts["Pred"]),
                            decode_node_ref(parts["Object"]),
                        )
                    )
                elif cel.tag == "Binding" and keyed:
                    pairs = []
                    for vel in cel:
                        _require(vel.tag == "Var", f"unknown element {vel.tag!r}")
                        name = vel.get("name")
                        _require(bool(name), "Var without a name")
                        pairs.append((name, decode_node(vel.text or "")))
                    bindings.add(frozenset(pairs))
                else:
                    raise ProtocolError(f"unknown element {cel.tag!r} in {qid}")
            _require(bool(triples), f"{qid}: fill query without triples")
            queries.append(FillQuery(qid, tuple(triples), frozenset(bindings)))
        elif kind is ChoiceQuery:
            parts: dict[str, str] = {}
            options: list[tuple[int, str]] = []
            correct: list[int] = []
            for cel in qel:
                if cel.tag == "Option" or (cel.tag == "Correct" and keyed):
                    message = f"{qid}: {cel.tag} without a numeric index"
                    index = _decimal(cel.get("index"), message)
                    if cel.tag == "Correct":
                        correct.append(index)
                    else:
                        options.append((index, decode_relation(cel.text or "")))
                elif cel.tag in ("Subject", "Pred", "Object"):
                    parts[cel.tag] = cel.text or ""
                else:
                    raise ProtocolError(f"unknown element {cel.tag!r} in {qid}")
            _require(
                set(parts) == {"Subject", "Pred", "Object"},
                f"{qid}: choice query needs Subject/Pred/Object",
            )
            if keyed:
                _require(len(correct) == 1, f"{qid}: need exactly one Correct")
            _require(bool(options), f"{qid}: choice query without options")
            options.sort()
            _require(
                [i for i, _ in options] == list(range(1, len(options) + 1)),
                f"{qid}: option indices must be 1..n",
            )
            in_range = all(1 <= i <= len(options) for i in correct)
            _require(in_range, f"{qid}: Correct index out of range")
            queries.append(
                ChoiceQuery(
                    qid,
                    decode_node(parts["Subject"]),
                    decode_node(parts["Object"]),
                    tuple(label for _, label in options),
                    correct[0] - 1 if correct else -1,
                )
            )
        else:
            ends: dict[str, NodeId] = {}
            paths = set()
            for cel in qel:
                if cel.tag in ("Source", "Target"):
                    ends[cel.tag] = decode_node(cel.text or "")
                elif cel.tag == "Path" and keyed:
                    paths.add(_parse_path_element(cel))
                else:
                    raise ProtocolError(f"unknown element {cel.tag!r} in {qid}")
            _require(
                set(ends) == {"Source", "Target"},
                f"{qid}: path query needs Source and Target",
            )
            max_edges = _decimal(qel.get("max_edges"), f"{qid}: bad max_edges")
            source, target = ends["Source"], ends["Target"]
            queries.append(PathQuery(qid, source, target, max_edges, frozenset(paths)))
    return queries, dict(root.attrib)


def emit_query_xml(queries: list[Query]) -> str:
    """One document per type; mixing types in one call is rejected.  Answer
    keys are never serialized here."""
    return _emit_document(queries, False, {})


def parse_query_xml(text: str) -> list[Query]:
    """Keyless structural queries for participant-side tooling.  Parsed
    FillQuery/ChoiceQuery/PathQuery carry empty/zero keys."""
    return _read_document(text, False)[0]


def emit_key_xml(queries: list[Query], params: dict[str, str] | None = None) -> str:
    """Sealed answer keys.  Key files are self-contained: they restate the
    query structure alongside the key material, so scoring needs only the
    key file and the submission."""
    return _emit_document(queries, True, params or {})


def parse_key_xml(text: str) -> tuple[list[Query], dict[str, str]]:
    """Inverse of emit_key_xml: full Query values with their answer keys,
    plus the parameter echo from the root attributes."""
    return _read_document(text, True)


# --- submissions -------------------------------------------------------------


def emit_submission_a(sub: SubmissionA) -> str:
    root = ET.Element(_ROOT_FOR_TYPE[FillQuery], {"team": sub.team})
    for qid in sorted(sub.answers):
        qel = ET.SubElement(root, "Query", {"id": qid})
        for var in sorted(sub.answers[qid]):
            for rank, (node, conf) in enumerate(sub.answers[qid][var], start=1):
                ael = ET.SubElement(
                    qel,
                    "Answer",
                    {"var": var, "rank": str(rank), "confidence": f"{conf:g}"},
                )
                ael.text = node.canonical
    return _document(root)


def emit_submission_b(sub: SubmissionB) -> str:
    root = ET.Element(_ROOT_FOR_TYPE[ChoiceQuery], {"team": sub.team})
    for qid in sorted(sub.answers):
        qel = ET.SubElement(root, "Query", {"id": qid})
        ET.SubElement(qel, "Answer").text = encode_relation(sub.answers[qid])
    return _document(root)


def emit_submission_c(sub: SubmissionC) -> str:
    root = ET.Element(_ROOT_FOR_TYPE[PathQuery], {"team": sub.team})
    for qid in sorted(sub.answers):
        qel = ET.SubElement(root, "Query", {"id": qid})
        for i, path in enumerate(sub.answers[qid], start=1):
            qel.append(_path_element(path, i))
    return _document(root)


def emit_oracle_submission(queries: list[Query], team: str) -> str:
    """The submission that answers each query with its key, in key-file
    order: per variable each keyed node once at confidence 1, the correct
    option, or every keyed path."""
    kind = _query_type(queries)
    if kind is ChoiceQuery:
        answers = {q.id: q.options[q.key] for q in queries}
        return emit_submission_b(SubmissionB(team, answers))
    if kind is PathQuery:
        answers = {q.id: _sorted_paths(q.key) for q in queries}
        return emit_submission_c(SubmissionC(team, answers))
    fill_answers = {}
    for q in queries:
        nodes: dict[str, dict[NodeId, float]] = {v: {} for v in q.variables}
        for binding in _sorted_bindings(q.key):
            for name, node in binding:
                nodes[name][node] = 1.0
        fill_answers[q.id] = {v: list(ranked.items()) for v, ranked in nodes.items()}
    return emit_submission_a(SubmissionA(team, fill_answers))


def parse_submission_xml(
    text: str, expected: list[Query]
) -> tuple[Submission, list[Diagnostic]]:
    """Match a submission document against the expected queries of its
    root's type; an id of another type is an unknown query id.  Malformed
    XML is fatal; per-item violations drop only that item with a
    diagnostic.  Queries with no usable answers are present but empty."""
    root, kind = _load_root(text, "")
    team = root.get("team")
    _require(team is not None, "submission root must carry a team attribute")
    by_id = {q.id: q for q in expected if type(q) is kind}
    diagnostics: list[Diagnostic] = []

    def warn(where: str, message: str) -> None:
        diagnostics.append(Diagnostic("warning", where, message))

    if kind is FillQuery:
        sub = SubmissionA(team, {qid: {} for qid in by_id})
    elif kind is ChoiceQuery:
        sub = SubmissionB(team)
    else:
        sub = SubmissionC(team, {qid: [] for qid in by_id})

    for qel in root:
        if qel.tag != "Query" or not qel.get("id"):
            warn(root.tag, f"ignored element {qel.tag!r} without a query id")
            continue
        qid = qel.get("id")
        if qid not in by_id:
            warn(qid, "submission references an unknown query id; ignored")
            continue
        query = by_id[qid]
        if kind is FillQuery:
            raw: dict[str, list[tuple[int, float, NodeId]]] = {}
            declared: dict[str, list[tuple[int, str]]] = {}
            for order, ael in enumerate(qel):
                if ael.tag != "Answer":
                    warn(qid, f"ignored element {ael.tag!r}")
                    continue
                var = ael.get("var")
                if not var or var not in query.variables:
                    warn(qid, f"answer for unknown variable {var!r}; dropped")
                    continue
                # the rank check below also covers answers dropped from here on
                declared.setdefault(var, []).append((order, ael.get("rank")))
                try:
                    conf = float(ael.get("confidence", "nan"))
                    node = decode_node(ael.text or "")
                except (ValueError, GraphError, ProtocolError) as exc:
                    warn(qid, f"unparseable answer dropped: {exc}")
                    continue
                if not (math.isfinite(conf) and 0.0 <= conf <= 1.0):
                    warn(qid, f"confidence {conf!r} outside [0,1]; answer dropped")
                    continue
                raw.setdefault(var, []).append((order, conf, node))
            for var, items in raw.items():
                # rank by descending confidence, ties by document order;
                # declared rank attributes must agree or the set is flagged
                ordered = sorted(items, key=lambda t: (-t[1], t[0]))
                rank_of_order = {o: str(i + 1) for i, (o, _, _) in enumerate(ordered)}
                for order, rank in declared.get(var, ()):
                    if rank is not None and rank_of_order.get(order) != rank:
                        warn(
                            qid,
                            f"declared rank {rank} for {var} disagrees "
                            "with confidence ordering",
                        )
                sub.answers[qid][var] = [(node, conf) for _, conf, node in ordered]
        elif kind is ChoiceQuery:
            answers = [c for c in qel if c.tag == "Answer"]
            if len(answers) != 1:
                warn(qid, f"expected exactly one Answer, got {len(answers)}; dropped")
                continue
            try:
                sub.answers[qid] = decode_relation(answers[0].text or "")
            except ProtocolError as exc:
                warn(qid, f"unparseable answer dropped: {exc}")
        else:
            for pel in qel:
                if pel.tag != "Path":
                    warn(qid, f"ignored element {pel.tag!r}")
                    continue
                try:
                    path = _parse_path_element(pel)
                except (ProtocolError, GraphError, OracleError) as exc:
                    warn(qid, f"unparseable path dropped: {exc}")
                    continue
                if path.source != query.source or path.target != query.target:
                    warn(qid, "path endpoints do not match the query; dropped")
                    continue
                sub.answers[qid].append(path)

    if kind is ChoiceQuery:
        for qid in by_id:
            if qid not in sub.answers:
                warn(qid, "no answer submitted; scored as wrong")
    return sub, diagnostics
