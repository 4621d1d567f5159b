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

Writing and reading
-------------------
One line writer, `_Writer`, writes every document, byte for byte as
ElementTree's `indent` and `tostring` would: two spaces of indent per depth,
attributes in the order given, `<Tag attrs />` for an element without
children; text escapes &, < and >, and an attribute also '"', CR, LF and TAB.
A path's repeated lines are rendered once per document, in `functools.cache`
memos the writer owns: a path is its Path line, its Source line by node, its
middle steps' Edge and Node lines by (relation, node), its last Edge line by
relation and its Target line by node, and then `</Path>`.
Names XML 1.0 cannot carry are refused where they enter: graph files,
ontologies, a query's id and labels, a `Submission`'s team and answers.
So the writers check nothing; they are given only valid values.  ElementTree
only reads, after expat has refused a DOCTYPE in the prolog.  Each read
decodes every distinct relation text, and every distinct node text not in
the graph's table (`KnowledgeGraph.by_text`, when the caller passes it),
once, in `functools.cache` memos owned by that call; a graph node's text
is looked up, never parsed.  Query and key files are read by one strict
rule (`_children`), a submission's queries by one lenient filter.

Each query type's rules on the wire have one home, its codec, looked up once
per document: its Query element in query and key files (`write`, `read`);
in submissions, its answer tag, the answer read (None: none; a warning per
fault), what is wrong with an answer (`check`: None when nothing is) and
the answer written, the oracle's answer, and `empty`, a query's answer
until answered (None: none).
"""

from __future__ import annotations

import contextlib
import xml.etree.ElementTree as ET
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import get_args
from xml.parsers import expat

from .formats import WARNING, Diagnostic
from .graph import GraphError, NodeId, is_variable_name
from .ontology import canonical_label, decimal, label_fault, name_fault
from .oracle import OracleError, Path, PatternTriple, Variable
from .querygen import ChoiceQuery, FillAnswer, FillQuery, PathQuery, Query, QueryError, require_key


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class Submission:
    """A team's answers to queries of one type, `kind`, by query id: per
    variable ranked (node, confidence) pairs (FillQuery), one relation
    (ChoiceQuery), or paths (PathQuery).  Valid once built: the constructor
    refuses, with ProtocolError, any other `kind`, a team `name_fault`
    faults, and, naming the query, what its file would not give back, in
    the order the file is written: ids sorted, then each answer's `check`.
    It stays valid: `answers` is kept as a read-only copy, each mapping a
    `MappingProxyType` and each list a tuple."""

    kind: type
    team: str
    answers: Mapping[str, FillAnswer | str | list[Path]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in get_args(Query):  # compared, not hashed: unhashable kinds too
            raise ProtocolError(f"a submission's kind is a query class, not {self.kind!r}")
        if fault := name_fault(self.team, "team name"):
            raise ProtocolError(fault)
        check = _CODECS[self.kind].check
        for qid in sorted(self.answers):
            if fault := name_fault(qid, "query id"):
                raise ProtocolError(fault)
            if fault := check(self.answers[qid]):
                raise ProtocolError(f"{qid}: {fault}")
        object.__setattr__(self, "answers", _frozen(self.answers))


def _frozen(value):
    """`value` with each mapping in it a read-only copy and each list a tuple."""
    if isinstance(value, list):
        return tuple(map(_frozen, value))
    if isinstance(value, Mapping):
        return MappingProxyType({key: _frozen(item) for key, item in value.items()})
    return value


# --- text and element encodings -------------------------------------------


def encode_relation(relation: str) -> str:
    return "Relation:" + relation.replace(" ", "_")


def decode_relation(text: str) -> str:
    prefix, sep, rest = text.strip().partition(":")
    if not sep or prefix.strip() != "Relation":
        raise ProtocolError(f"expected 'Relation:...' text, got {text!r}")
    relation = rest.strip().replace("_", " ")
    if fault := label_fault(relation):
        raise ProtocolError(fault)
    return relation


def encode_node_ref(ref: NodeId | Variable) -> str:
    if isinstance(ref, Variable):
        return f"{ref.category or 'Any'}:{ref.name}"
    return ref.canonical


def _concrete(ref: NodeId | Variable, text: str) -> NodeId:
    if isinstance(ref, Variable):
        raise ProtocolError(f"variable where a concrete node was expected: {text!r}")
    return ref


def decode_node_ref(text: str) -> NodeId | Variable:
    """A `Variable` for an `Unknown_<n>` name after a category, `Any` for
    none; else the node `NodeId.parse` reads."""
    category, sep, name = text.partition(":")
    category, name = canonical_label(category), canonical_label(name)
    if sep and category and is_variable_name(name):
        return Variable(name, None if category == "Any" else category)
    try:
        return NodeId.parse(text)
    except GraphError as exc:
        raise ProtocolError(str(exc)) from None


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    """As ElementTree does: also '"', and the CR, LF and TAB a parser would
    read back as spaces."""
    value = _escape_text(value).replace('"', "&quot;")
    return value.replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")


class _Writer:
    """One XML document written line by line, with the bytes ElementTree's
    `indent` and `tostring` give: two spaces per depth, one element per line,
    `<Tag attrs>text</Tag>` for a leaf and `<Tag attrs />` for an element
    that ends with no children.

    The lines of a path are rendered once, in `functools.cache` memos the
    document owns and that die with it: by value (`_path_memos`), for the
    depth of its Path element."""

    def __init__(self, comment: str | None = None):
        self._lines = ['<?xml version="1.0" encoding="UTF-8"?>']
        if comment:
            self._lines.append(f"<!-- {comment} -->")
        self._open: list[tuple[str, int]] = []  # (tag, index of its start line)
        self._path_lines = cache(_path_memos)

    def _head(self, tag: str, attrs: dict[str, str] | None) -> str:
        head = "  " * len(self._open) + "<" + tag
        for name, value in (attrs or {}).items():
            head += f' {name}="{_escape_attribute(value)}"'
        return head

    def start(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self._lines.append(self._head(tag, attrs) + ">")
        self._open.append((tag, len(self._lines) - 1))

    def end(self) -> None:
        tag, start = self._open.pop()
        if start == len(self._lines) - 1:
            self._lines[start] = self._lines[start][:-1] + " />"
        else:
            self._lines.append(f"{'  ' * len(self._open)}</{tag}>")

    def leaf(self, tag: str, text: str, attrs: dict[str, str] | None = None) -> None:
        self._lines.append(f"{self._head(tag, attrs)}>{_escape_text(text)}</{tag}>")

    def path(self, path: Path, index: int) -> None:
        """A Path element, its child lines from the memos and its middle
        steps in one `extend`; the index, an int, needs no escaping."""
        depth = len(self._open)
        sources, steps, last_edges, targets = self._path_lines(depth)
        nodes, relations = path
        pad = "  " * depth
        lines = self._lines
        lines.append(f'{pad}<Path index="{index}">')
        lines.append(sources(nodes[0]))
        lines.extend(map(steps, zip(relations, nodes[1:-1])))
        lines.append(last_edges(relations[-1]))
        lines.append(targets(nodes[-1]))
        lines.append(f"{pad}</Path>")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def _leaf_line(depth: int, tag: str, text: str) -> str:
    return f"{'  ' * depth}<{tag}>{_escape_text(text)}</{tag}>"


def _path_memos(depth: int) -> tuple[Callable[..., str], ...]:
    """The child lines of a Path element at `depth`: Source and Target by
    node, the last Edge by relation, and a middle step's Edge and Node lines,
    joined, by (relation, node).  Each has its own memo, so a relation named
    as a tag never shares a line with a node."""
    inner = depth + 1

    def edge(relation: str) -> str:
        return _leaf_line(inner, "Edge", encode_relation(relation))

    return (
        cache(lambda node: _leaf_line(inner, "Source", node.canonical)),
        cache(lambda step: edge(step[0]) + "\n" + _leaf_line(inner, "Node", step[1].canonical)),
        cache(edge),
        cache(lambda node: _leaf_line(inner, "Target", node.canonical)),
    )


class _Decoder:
    """The node and relation decoders of one document, which is untrusted
    and so owns its memos, each a `functools.cache`: `node_ref` (a variable
    allowed), `node` and `relation` decode each distinct text once, and
    equal texts decode to one shared value; a text that raises is not kept,
    so each occurrence reports.  A text in `by_text`, a graph's node table,
    is that graph's node, unparsed; any other node text is decoded as
    without the table, with the same value or error.  `path_tags` makes the
    expected tags of a path element once per child count."""

    def __init__(self, by_text: Mapping[str, NodeId] | None):
        table = by_text or {}
        # the lambdas hold node_ref and the table, not self: a decoder is no
        # cycle; a table's NodeId, a pair, is true
        self.node_ref = node_ref = cache(lambda text: table.get(text) or decode_node_ref(text))
        self.node = cache(lambda text: _concrete(node_ref(text), text))
        self.relation = cache(decode_relation)
        self.path_tags = cache(_path_tags)


def _path_tags(count: int) -> list[str]:
    """The tags of a path element with `count` (odd, >= 3) children."""
    return ["Source"] + ["Edge", "Node"] * ((count - 3) // 2) + ["Edge", "Target"]


def _parse_path_element(el: ET.Element, decoded: _Decoder) -> Path:
    """Source, then (Edge, Node) pairs, then Edge and Target: the tags are
    checked, each step holds text only, and the texts are read once, nodes
    decoded before relations."""
    tags = [c.tag for c in el]
    if len(tags) < 3 or len(tags) % 2 == 0:
        raise ProtocolError("path must alternate Source/Edge/Node/.../Target")
    expected = decoded.path_tags(len(tags))
    if tags != expected:
        raise ProtocolError(
            f"path elements out of order: got {tags}, expected {expected}"
        )
    if any(map(len, el)):
        raise ProtocolError(f"<{next(c.tag for c in el if len(c))}> holds an element")
    texts = [c.text or "" for c in el]
    return Path(tuple(map(decoded.node, texts[::2])), tuple(map(decoded.relation, texts[1::2])))


# --- query and key files ----------------------------------------------------

CONFIDENTIAL_COMMENT = "CONFIDENTIAL answer key - do not distribute to participants"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _decimal(text: str | None, message: str) -> int:
    number = decimal(text or "")  # None for a missing attribute too
    _require(number is not None, message)
    return number


def _text(el: ET.Element) -> str:
    """The text of an element that holds text only."""
    if len(el):
        raise ProtocolError(f"<{el.tag}> holds an element")
    return el.text or ""


class _PrologEnd(Exception):
    """Raised at the root's start tag: a DOCTYPE comes before it or never."""


def _end_prolog(*_) -> None:
    raise _PrologEnd


def _refuse_doctype(name: str, *_) -> None:
    raise ProtocolError(f"DOCTYPE {name!r} refused: a document declares no DTD and no entity")


def _load_root(text: str, suffix: str) -> tuple[ET.Element, type]:
    """The root element, which must be a type's tag plus `suffix`, and that
    query type.  A DOCTYPE, which alone can declare entities, is refused:
    expat reads the prolog, up to the root's start tag, before ElementTree
    reads the document."""
    prolog = expat.ParserCreate()
    prolog.StartDoctypeDeclHandler = _refuse_doctype
    prolog.StartElementHandler = _end_prolog
    with contextlib.suppress(_PrologEnd, expat.ExpatError):  # ElementTree reports malformed XML
        prolog.Parse(text, True)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from None
    kinds = {f"Q{kind.letter}{suffix}": kind for kind in get_args(Query)}
    _require(
        root.tag in kinds,
        f"unexpected root element {root.tag!r}, expected one of {tuple(kinds)}",
    )
    return root, kinds[root.tag]


def _query_type(queries: list[Query]) -> type:
    """The one query type of a document, which holds at least one query."""
    kinds = {type(q) for q in queries}
    _require(bool(kinds), "a document holds at least one query")
    _require(len(kinds) == 1, "query and key files hold a single query type")
    return kinds.pop()


def _children(
    el: ET.Element, fields: tuple[str, ...], lists: tuple[str, ...], needs: str = ""
) -> tuple[dict[str, str], dict[str, list[ET.Element]]]:
    """The one strict reading of the children of a query file's element: the
    text of each tag in `fields`, each there once (else `needs`) and holding
    text only, and the elements of each tag in `lists`, in file order.  Any
    other child is an unknown element."""
    texts: dict[str, str] = {}
    found: dict[str, list[ET.Element]] = {tag: [] for tag in lists}
    for child in el:
        tag = child.tag
        if tag in found:
            found[tag].append(child)
        elif tag not in fields:
            raise ProtocolError(f"unknown element {tag!r}")
        elif tag in texts:
            raise ProtocolError(f"<{tag}> appears twice")
        else:
            texts[tag] = _text(child)
    _require(len(texts) == len(fields), needs)
    return texts, found


# --- one codec per query type (see the module text) -------------------------


class _FillCodec:
    answer_tag, empty = "Answer", dict

    def write(self, out: _Writer, q: FillQuery, keyed: bool) -> None:
        out.start("Query", {"id": q.id})
        for t in q.triples:
            out.start("Triple")
            out.leaf("Subject", encode_node_ref(t.subject))
            out.leaf("Pred", encode_relation(t.relation))
            out.leaf("Object", encode_node_ref(t.object))
            out.end()
        for i, binding in enumerate(require_key(q) if keyed else (), start=1):
            out.start("Binding", {"index": str(i)})
            for name, node in sorted(binding):
                out.leaf("Var", node.canonical, {"name": name})
            out.end()
        out.end()

    def read(self, qel: ET.Element, qid: str, keyed: bool, decoded: _Decoder) -> FillQuery:
        _, found = _children(qel, (), ("Triple", "Binding") if keyed else ("Triple",))
        triples = []
        needs = "Triple needs Subject/Pred/Object"
        for cel in found["Triple"]:
            parts, _ = _children(cel, ("Subject", "Pred", "Object"), (), needs)
            subject = decoded.node_ref(parts["Subject"])
            relation = decoded.relation(parts["Pred"])
            triples.append(PatternTriple(subject, relation, decoded.node_ref(parts["Object"])))
        bindings = []
        for cel in found.get("Binding", ()):
            pairs = []
            for vel in _children(cel, (), ("Var",))[1]["Var"]:
                name = vel.get("name")
                _require(bool(name), "Var without a name")
                pairs.append((name, decoded.node(_text(vel))))
            bindings.append(pairs)
        return FillQuery(qid, tuple(triples), tuple(bindings) if keyed else None)

    def check(self, answer: FillAnswer) -> str | None:
        for var in sorted(answer):
            if fault := name_fault(var, "variable name"):
                return fault
            for _, conf in answer[var]:
                if not 0.0 <= conf <= 1.0:
                    return f"{var} has confidence {conf!r}, not in [0, 1]"
        return None

    def write_answer(self, out: _Writer, answer: FillAnswer) -> None:
        for var in sorted(answer):
            for rank, (node, conf) in enumerate(answer[var], start=1):
                text = repr(float(conf)).removesuffix(".0")
                attrs = {"var": var, "rank": str(rank), "confidence": text}
                out.leaf("Answer", node.canonical, attrs)

    def read_answer(
        self, elements: Iterator[ET.Element], query: FillQuery, warn: Callable, decoded: _Decoder
    ) -> FillAnswer:
        qid, variables = query.id, set(query.variables)
        raw: dict[str, list[tuple[int, float, NodeId]]] = {}
        declared: dict[str, list[tuple[int, str]]] = {}
        for order, ael in enumerate(elements):
            var = ael.get("var")
            if var not in variables:
                warn(qid, f"answer for unknown variable {var!r}; dropped")
                continue
            # the rank check below also covers answers dropped from here on
            declared.setdefault(var, []).append((order, ael.get("rank")))
            try:
                conf = float(ael.get("confidence", "nan"))
                node = decoded.node(_text(ael))
            except ValueError as exc:
                warn(qid, f"unparseable answer dropped: {exc}")
                continue
            if not 0.0 <= conf <= 1.0:
                warn(qid, f"confidence {conf!r} outside [0,1]; answer dropped")
                continue
            raw.setdefault(var, []).append((order, conf, node))
        answer = {}
        for var, items in raw.items():
            # rank by descending confidence, ties by document order;
            # declared rank attributes must agree or the set is flagged
            ordered = sorted(items, key=lambda t: (-t[1], t[0]))
            rank_of_order = {o: str(i + 1) for i, (o, _, _) in enumerate(ordered)}
            for order, rank in declared.get(var, ()):
                if rank is not None and rank_of_order.get(order) != rank:
                    warn(qid, f"declared rank {rank} for {var} disagrees with confidence ordering")
            answer[var] = [(node, conf) for _, conf, node in ordered]
        return answer

    def oracle_answer(self, q: FillQuery) -> FillAnswer:
        return {v: [(node, 1.0) for node in nodes] for v, nodes in q.keyed_nodes().items()}


class _ChoiceCodec:
    answer_tag, empty = "Answer", None

    def write(self, out: _Writer, q: ChoiceQuery, keyed: bool) -> None:
        out.start("Query", {"id": q.id})
        out.leaf("Subject", q.subject.canonical)
        out.leaf("Pred", "Relation:Unknown_1")
        out.leaf("Object", q.object.canonical)
        for i, option in enumerate(q.options, start=1):
            out.leaf("Option", encode_relation(option), {"index": str(i)})
        if keyed:
            out.leaf("Correct", encode_relation(q.correct), {"index": str(q.key + 1)})
        out.end()

    def read(self, qel: ET.Element, qid: str, keyed: bool, decoded: _Decoder) -> ChoiceQuery:
        lists = ("Option", "Correct") if keyed else ("Option",)
        needs = "choice query needs Subject/Pred/Object"
        parts, found = _children(qel, ("Subject", "Pred", "Object"), lists, needs)
        prefix, _, name = parts["Pred"].partition(":")
        _require(
            canonical_label(prefix) == "Relation" and is_variable_name(canonical_label(name)),
            f"Pred {parts['Pred']!r} is not Relation:Unknown_<n>",
        )
        numbered = {}  # tag -> (index, text) of each Option, or Correct
        for tag, cs in found.items():
            message = f"{tag} without a numeric index"
            numbered[tag] = [(_decimal(c.get("index"), message), _text(c)) for c in cs]
        correct = numbered.get("Correct", [])
        if keyed:
            _require(len(correct) == 1, "need exactly one Correct")
        options = sorted((index, decoded.relation(text)) for index, text in numbered["Option"])
        _require(
            [i for i, _ in options] == list(range(1, len(options) + 1)),
            "option indices must be 1..n",
        )
        subject, obj = decoded.node(parts["Subject"]), decoded.node(parts["Object"])
        labels = tuple(label for _, label in options)
        query = ChoiceQuery(qid, subject, obj, labels, correct[0][0] - 1 if keyed else None)
        for index, text in correct:
            _require(
                decoded.relation(text) == query.correct,
                f"Correct text {text!r} is not option {index}",
            )
        return query

    def check(self, answer: str) -> str | None:
        return label_fault(answer)

    def write_answer(self, out: _Writer, answer: str) -> None:
        out.leaf("Answer", encode_relation(answer))

    def read_answer(
        self, elements: Iterator[ET.Element], query: ChoiceQuery, warn: Callable, decoded: _Decoder
    ) -> str | None:
        answers = list(elements)
        if len(answers) != 1:
            warn(query.id, f"expected exactly one Answer, got {len(answers)}; dropped")
            return None
        try:
            return decoded.relation(_text(answers[0]))
        except ProtocolError as exc:
            warn(query.id, f"unparseable answer dropped: {exc}")
            return None

    def oracle_answer(self, q: ChoiceQuery) -> str:
        return q.correct


class _PathCodec:
    answer_tag, empty = "Path", list

    def write(self, out: _Writer, q: PathQuery, keyed: bool) -> None:
        out.start("Query", {"id": q.id, "max_edges": str(q.max_edges)})
        out.leaf("Source", q.source.canonical)
        out.leaf("Target", q.target.canonical)
        for i, path in enumerate(require_key(q) if keyed else (), start=1):
            out.path(path, i)
        out.end()

    def read(self, qel: ET.Element, qid: str, keyed: bool, decoded: _Decoder) -> PathQuery:
        needs = "path query needs Source and Target"
        ends, found = _children(qel, ("Source", "Target"), ("Path",) if keyed else (), needs)
        source, target = decoded.node(ends["Source"]), decoded.node(ends["Target"])
        key = tuple(_parse_path_element(p, decoded) for p in found["Path"]) if keyed else None
        max_edges = _decimal(qel.get("max_edges"), "bad max_edges")
        return PathQuery(qid, source, target, max_edges, key)

    def check(self, answer: list[Path]) -> str | None:
        # each distinct label once; sorted, so no message hangs on string hashing
        for label in sorted(set().union(*[p.relations for p in answer])):
            if fault := label_fault(label):
                return fault
        return None

    def write_answer(self, out: _Writer, answer: list[Path]) -> None:
        for i, path in enumerate(answer, start=1):
            out.path(path, i)

    def read_answer(
        self, elements: Iterator[ET.Element], query: PathQuery, warn: Callable, decoded: _Decoder
    ) -> list[Path]:
        paths = []
        for pel in elements:
            try:
                path = _parse_path_element(pel, decoded)
            except (ProtocolError, GraphError, OracleError) as exc:
                warn(query.id, f"unparseable path dropped: {exc}")
                continue
            if path.source != query.source or path.target != query.target:
                warn(query.id, "path endpoints do not match the query; dropped")
                continue
            paths.append(path)
        return paths

    def oracle_answer(self, q: PathQuery) -> list[Path]:
        return list(require_key(q))


_CODECS = {FillQuery: _FillCodec(), ChoiceQuery: _ChoiceCodec(), PathQuery: _PathCodec()}


def _emit_document(queries: list[Query], keyed: bool, params: dict[str, str]) -> str:
    kind = _query_type(queries)
    write = _CODECS[kind].write
    out = _Writer(CONFIDENTIAL_COMMENT if keyed else None)
    out.start("Q" + kind.letter + ("Key" if keyed else ""), dict(sorted(params.items())))
    for q in queries:
        write(out, q, keyed)
    out.end()
    return out.text()


def _read_document(
    text: str, keyed: bool, by_text: Mapping[str, NodeId] | None
) -> tuple[list[Query], dict[str, str]]:
    root, kind = _load_root(text, "Key" if keyed else "")
    _require(len(root) > 0, f"{root.tag} document without a Query")
    read = _CODECS[kind].read
    queries: list[Query] = []
    seen: set[str] = set()
    decoded = _Decoder(by_text)
    for qel in root:
        _require(qel.tag == "Query", f"unknown element {qel.tag!r}")
        qid = qel.get("id")
        _require(bool(qid), "Query without an id attribute")
        _require(qid not in seen, f"duplicate query id {qid!r}")
        seen.add(qid)
        try:
            queries.append(read(qel, qid, keyed, decoded))
        except ProtocolError as exc:  # each error inside a query names it once
            raise ProtocolError(f"{qid}: {exc}") from None
        except QueryError as exc:  # a constructor's, which names the query
            raise ProtocolError(str(exc)) from None
    return queries, dict(root.attrib)


def emit_query_xml(queries: list[Query]) -> str:
    """One document per type; mixing types in one call is rejected.  Answer
    keys are never serialized here."""
    return _emit_document(queries, False, {})


def parse_query_xml(text: str, by_text: Mapping[str, NodeId] | None = None) -> list[Query]:
    """Keyless structural queries for participant-side tooling: every
    parsed query has the key None.  A query the constructor refuses is a
    ProtocolError with the constructor's text.  `by_text`, a graph's node
    table (`KnowledgeGraph.by_text`), spares parsing its nodes' texts and
    changes no result."""
    return _read_document(text, False, by_text)[0]


def emit_key_xml(queries: list[Query], params: dict[str, str] | None = None) -> str:
    """Sealed answer keys.  A key file restates the query structure alongside
    the key material, so scoring needs no query file; it still needs the
    graph, to check each submitted path."""
    return _emit_document(queries, True, params or {})


def parse_key_xml(
    text: str, by_text: Mapping[str, NodeId] | None = None
) -> tuple[list[Query], dict[str, str]]:
    """Inverse of emit_key_xml: full Query values with their answer keys,
    plus the parameter echo from the root attributes.  `by_text` as for
    `parse_query_xml`."""
    return _read_document(text, True, by_text)


# --- submissions -------------------------------------------------------------


def emit_submission(sub: Submission) -> str:
    """A submission document, its root and answers chosen by its type:
    queries by id, a fill query's answers by variable and then rank.  A
    confidence is written as `repr` gives it, less a trailing ".0", so it
    reads back as the same float.  A `Submission` is valid once built, so
    all it holds reads back."""
    write_answer = _CODECS[sub.kind].write_answer
    out = _Writer()
    out.start("Q" + sub.kind.letter, {"team": sub.team})
    for qid in sorted(sub.answers):
        out.start("Query", {"id": qid})
        write_answer(out, sub.answers[qid])
        out.end()
    out.end()
    return out.text()


def emit_oracle_submission(queries: list[Query], team: str) -> str:
    """The submission that answers each query with its key, in key-file
    order: per variable each keyed node once at confidence 1
    (`FillQuery.keyed_nodes`), the correct option, or every keyed path."""
    kind = _query_type(queries)
    answer = _CODECS[kind].oracle_answer
    return emit_submission(Submission(kind, team, {q.id: answer(q) for q in queries}))


def parse_submission_xml(
    text: str, expected: list[Query], by_text: Mapping[str, NodeId] | None = None
) -> tuple[Submission, list[Diagnostic]]:
    """Match a submission document against the expected queries of its
    root's type; an id of another type is an unknown query id.  Malformed
    XML is fatal; per-item violations drop only that item with a
    diagnostic, and a repeated query id keeps its first element.  Queries
    with no usable answers are present but empty, save choice queries,
    which have no empty answer: each one unanswered is warned of.
    `by_text` as for `parse_query_xml`."""
    root, kind = _load_root(text, "")
    team = root.get("team")
    _require(team is not None, "submission root must carry a team attribute")
    codec = _CODECS[kind]
    by_id = {q.id: q for q in expected if type(q) is kind}
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    decoded = _Decoder(by_text)

    def warn(where: str, message: str) -> None:
        diagnostics.append(Diagnostic(WARNING, where, message))

    def answers_of(qel: ET.Element, qid: str) -> Iterator[ET.Element]:
        """A Query's answer elements; each other child is warned of as met."""
        for child in qel:
            if child.tag == codec.answer_tag:
                yield child
            else:
                warn(qid, f"ignored element {child.tag!r}")

    answers = {qid: codec.empty() for qid in by_id} if codec.empty else {}

    for qel in root:
        if qel.tag != "Query" or not qel.get("id"):
            warn(root.tag, f"ignored element {qel.tag!r} without a query id")
            continue
        qid = qel.get("id")
        if qid not in by_id:
            warn(qid, "submission references an unknown query id; ignored")
            continue
        if qid in seen:
            warn(qid, f"duplicate query id {qid!r}; ignored")
            continue
        seen.add(qid)
        answer = codec.read_answer(answers_of(qel, qid), by_id[qid], warn, decoded)
        if answer is not None:
            answers[qid] = answer

    for qid in by_id:
        if qid not in answers:
            warn(qid, "no answer submitted; scored as wrong")
    return Submission(kind, team, answers), diagnostics
