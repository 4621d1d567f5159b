"""Perturbed team submissions and the report each one must receive.

A team starts from the oracle's submission and applies seeded changes: fill
answers re-ranked, padded with wrong nodes or dropped, declared ranks that
disagree with the confidences, out-of-range confidences, unknown variables,
wrong or unlisted choice options, and dropped, duplicated, mislabeled,
non-simple, over-long and foreign-endpoint paths, plus an unknown query id.
The expected scores follow from the perturbation alone, by the conventions
the README of kgbench states; ``kgbench.scoring`` is never called.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from kgbench.rng import SplitMix64

VARIABLE = re.compile(r"Unknown_\d+")
FILL_OPS = ("keep", "pad", "tail", "drop", "wrong", "ranks", "confidence", "bad")
CHOICE_OPS = ("keep", "wrong", "unlisted", "missing", "double")
PATH_OPS = ("drop", "duplicate", "mislabel", "nonsimple", "overlong", "foreign")


# The harness reads and writes submission XML itself, so a team's bytes stay
# fixed when kgbench's own codec changes.
def encode_relation(relation: str) -> str:
    return "Relation:" + relation.replace(" ", "_")


def decode_relation(text: str) -> str:
    return text.partition(":")[2].replace("_", " ")


@dataclass
class Answers:
    """The oracle's answers and the query structure, read from the files."""

    fill_vars: dict[str, list[tuple[str, str]]]  # qid -> [(var, category)]
    fill: dict[str, dict[str, list[str]]]  # qid -> var -> keyed nodes
    options: dict[str, list[str]]  # qid -> option texts
    choice: dict[str, str]  # qid -> correct option text
    path_query: dict[str, tuple[str, str, int]]  # qid -> (source, target, k)
    paths: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]]  # key paths


def read_answers(files: dict[str, str]) -> Answers:
    """`files` maps queries_a/b/c and sub_a/b/c to their XML text."""
    fill_vars = {}
    for q in ET.fromstring(files["queries_a"]):
        seen: dict[str, str] = {}
        for triple in q:
            for part in ("Subject", "Object"):
                category, _, name = triple.find(part).text.partition(":")
                if VARIABLE.fullmatch(name) and name not in seen:
                    seen[name] = category
        fill_vars[q.get("id")] = list(seen.items())
    fill = {q.get("id"): {} for q in ET.fromstring(files["sub_a"])}
    for q in ET.fromstring(files["sub_a"]):
        for a in q:
            fill[q.get("id")].setdefault(a.get("var"), []).append(a.text)
    options = {
        q.get("id"): [o.text for o in q.findall("Option")]
        for q in ET.fromstring(files["queries_b"])
    }
    choice = {q.get("id"): q.find("Answer").text for q in ET.fromstring(files["sub_b"])}
    path_query = {
        q.get("id"): (q.find("Source").text, q.find("Target").text, int(q.get("max_edges")))
        for q in ET.fromstring(files["queries_c"])
    }
    paths = {}
    for q in ET.fromstring(files["sub_c"]):
        paths[q.get("id")] = [
            (
                tuple(c.text for c in p if c.tag != "Edge"),
                tuple(decode_relation(c.text) for c in p if c.tag == "Edge"),
            )
            for p in q
        ]
    return Answers(fill_vars, fill, options, choice, path_query, paths)


def traversal(labels, edges, inverse: dict[str, str]) -> dict[str, set[tuple[str, str]]]:
    """node -> {(other, relation as traversed)} for both directions."""
    adj = {label: set() for label in labels}
    for a, rel, b in edges:
        adj[labels[a]].add((labels[b], rel))
        adj[labels[b]].add((labels[a], inverse[rel]))
    return adj


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


class TeamMaker:
    def __init__(self, answers: Answers, labels, adj, inverse: dict[str, str]):
        self.ans = answers
        self.labels = list(labels)
        self.adj = adj
        self.inverse = inverse
        self.relations = sorted(inverse)
        self._pools: dict[str, list[str]] = {}
        self._overlong_cache: dict[tuple[str, str, int], tuple | None] = {}

    # -- fill ----------------------------------------------------------------

    def _wrong_nodes(self, rng: SplitMix64, category: str, keyed: list[str], n: int):
        if category not in self._pools:
            self._pools[category] = [
                x for x in self.labels if category == "Any" or x.startswith(category + ":")
            ]
        picks = rng.sample(self._pools[category], n + len(keyed))
        return [x for x in picks if x not in keyed][:n]

    def _fill(self, rng: SplitMix64, team: str):
        root = ET.Element("QA", {"team": team})
        per_query = {}
        for qid, variables in self.ans.fill_vars.items():
            qel = ET.SubElement(root, "Query", {"id": qid})
            rr = {}
            for var, category in variables:
                keyed = self.ans.fill[qid][var]
                op = rng.choice(FILL_OPS)
                wrong = self._wrong_nodes(rng, category, keyed, 1 + rng.randrange(3))
                # (node, confidence, declared rank) in document order
                if op == "pad":
                    rows, rr[var] = wrong + keyed, 1.0 / (len(wrong) + 1)
                elif op == "tail":
                    rows, rr[var] = keyed + wrong, 1.0
                elif op == "drop":
                    rows, rr[var] = [], 0.0
                elif op == "wrong":
                    rows, rr[var] = wrong, 0.0
                else:
                    rows, rr[var] = list(keyed), 1.0
                entries = [(n, 1.0 - i / 100, i + 1) for i, n in enumerate(rows)]
                if op == "ranks" and len(entries) > 1:
                    entries = [(n, c, len(entries) - i) for i, (n, c, _) in enumerate(entries)]
                elif op == "ranks":
                    entries = [(n, c, 2) for n, c, _ in entries]
                elif op == "confidence":
                    # keyed nodes come first in the document but a wrong node
                    # carries the highest confidence, so it ranks first
                    entries = [(n, 0.9 - i / 100, i + 2) for i, n in enumerate(keyed)]
                    entries.append((wrong[0], 0.95, 1))
                    rr[var] = 0.5
                elif op == "bad":
                    entries.insert(0, (wrong[0], 1.5, 0))
                for node, conf, rank in entries:
                    ET.SubElement(
                        qel, "Answer",
                        {"var": var, "rank": str(rank), "confidence": f"{conf:.3f}"},
                    ).text = node
                if op == "bad":
                    ET.SubElement(
                        qel, "Answer", {"var": "Unknown_99", "rank": "1", "confidence": "1"}
                    ).text = keyed[0]
            per_query[qid] = rr
        mrrs = [sum(rr.values()) / len(rr) for rr in per_query.values()]
        expected = {
            "per_query": per_query,
            "mrr_mean_of_queries": _mean(mrrs),
            "mrr_mean_of_variables": _mean([x for rr in per_query.values() for x in rr.values()]),
        }
        return root, expected

    # -- choice --------------------------------------------------------------

    def _choice(self, rng: SplitMix64, team: str):
        root = ET.Element("QB", {"team": team})
        per_query = {}
        for qid, correct in self.ans.choice.items():
            op = rng.choice(CHOICE_OPS)
            per_query[qid] = op == "keep"
            if op == "missing":
                continue
            qel = ET.SubElement(root, "Query", {"id": qid})
            if op == "wrong":
                answers = [rng.choice([o for o in self.ans.options[qid] if o != correct])]
            elif op == "unlisted":
                answers = ["Relation:Not_A_Listed_Relation"]
            elif op == "double":
                answers = [correct, correct]
            else:
                answers = [correct]
            for text in answers:
                ET.SubElement(qel, "Answer").text = text
        n = len(per_query)
        expected = {
            "per_query": per_query,
            "correct": sum(per_query.values()),
            "accuracy": sum(per_query.values()) / n if n else 0.0,
        }
        return root, expected

    # -- paths ---------------------------------------------------------------

    def _overlong(self, source: str, target: str, length: int):
        """A simple path of exactly `length` edges, by bounded DFS, or None."""
        key = (source, target, length)
        if key not in self._overlong_cache:
            self._overlong_cache[key] = self._search(source, target, length, 20000)
        return self._overlong_cache[key]

    def _search(self, source: str, target: str, length: int, budget: int):
        stack = [(source, (source,), ())]
        while stack and budget > 0:
            node, nodes, rels = stack.pop()
            budget -= 1
            for other, rel in sorted(self.adj[node], reverse=True):
                if other in nodes:
                    continue
                if len(rels) + 1 == length:
                    if other == target:
                        return nodes + (other,), rels + (rel,)
                elif other != target:
                    stack.append((other, nodes + (other,), rels + (rel,)))
        return None

    def _paths(self, rng: SplitMix64, team: str):
        root = ET.Element("QC", {"team": team})
        per_query = {}
        qids = list(self.ans.path_query)
        for qid in qids:
            source, target, k = self.ans.path_query[qid]
            key = self.ans.paths[qid]
            kept = list(key)
            ops = [op for op in PATH_OPS if rng.randrange(2)]
            if "drop" in ops:
                for i in sorted(rng.sample(range(len(kept)), rng.randrange(len(kept) + 1)), reverse=True):
                    del kept[i]
            entries = [(p, True) for p in kept]  # (path, counts as a match)
            extra = []  # invalid or dropped entries: (path, parsed)
            if "duplicate" in ops and kept:
                entries += [(rng.choice(kept), True) for _ in range(1 + rng.randrange(2))]
            if "mislabel" in ops:
                nodes, rels = rng.choice(key)
                i = rng.randrange(len(rels))
                wrong = [r for r in self.relations if (nodes[i + 1], r) not in self.adj[nodes[i]]]
                rels = rels[:i] + (rng.choice(wrong),) + rels[i + 1:]
                extra.append(((nodes, rels), True))
            if "nonsimple" in ops:
                # step to the second node and back, then walk on: the source repeats
                nodes, rels = rng.choice(key)
                extra.append((((nodes[0], nodes[1]) + nodes,
                               (rels[0], self.inverse[rels[0]]) + rels), True))
            if "overlong" in ops:
                found = self._overlong(source, target, k + 1)
                if found is not None:
                    extra.append((found, True))
            if "foreign" in ops:
                others = [
                    q for q in qids
                    if self.ans.path_query[q][:2] != (source, target) and self.ans.paths[q]
                ]
                if others:
                    extra.append((rng.choice(self.ans.paths[rng.choice(others)]), False))
            entries += [(p, False) for p, parsed in extra if parsed]
            order = list(range(len(entries)))
            rng.shuffle(order)
            submitted = [entries[i] for i in order]
            submitted += [(p, None) for p, parsed in extra if not parsed]
            qel = ET.SubElement(root, "Query", {"id": qid})
            for n, ((nodes, rels), _) in enumerate(submitted, start=1):
                qel.append(_path_element(nodes, rels, n))
            scored = [ok for _, ok in submitted if ok is not None]
            matched = len({p for p, ok in submitted if ok})
            recall = matched / len(key) if key else 0.0
            precision = matched / len(scored) if scored else 0.0
            per_query[qid] = {
                "recall": recall,
                "precision": precision,
                "f1": _f1(precision, recall),
                "valid": scored,
            }
        ET.SubElement(root, "Query", {"id": "Q.C.999"})
        expected = {
            "per_query": per_query,
            "recall": _mean([q["recall"] for q in per_query.values()]),
            "precision": _mean([q["precision"] for q in per_query.values()]),
            "f1": _mean([q["f1"] for q in per_query.values()]),
        }
        return root, expected

    def make(self, seed: int, team: str) -> tuple[dict[str, str], dict]:
        """Submission texts for files sub_a/b/c and the expected report."""
        rng = SplitMix64(seed)
        subs, expected = {}, {"team": team}
        for name, build in (("a", self._fill), ("b", self._choice), ("c", self._paths)):
            root, expected[name] = build(rng, team)
            ET.indent(root)
            subs[name] = '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
                root, encoding="unicode"
            ) + "\n"
        return subs, expected


def _path_element(nodes, rels, index: int) -> ET.Element:
    el = ET.Element("Path", {"index": str(index)})
    ET.SubElement(el, "Source").text = nodes[0]
    for rel, node in zip(rels[:-1], nodes[1:-1]):
        ET.SubElement(el, "Edge").text = encode_relation(rel)
        ET.SubElement(el, "Node").text = node
    ET.SubElement(el, "Edge").text = encode_relation(rels[-1])
    ET.SubElement(el, "Target").text = nodes[-1]
    return el


def oracle_expected(answers: Answers) -> dict:
    """The oracle's own submission scores 1.0 everywhere."""
    return {
        "team": "oracle",
        "a": {
            "per_query": {q: {v: 1.0 for v, _ in vs} for q, vs in answers.fill_vars.items()},
            "mrr_mean_of_queries": 1.0 if answers.fill_vars else 0.0,
            "mrr_mean_of_variables": 1.0 if answers.fill_vars else 0.0,
        },
        "b": {
            "per_query": {q: True for q in answers.choice},
            "correct": len(answers.choice),
            "accuracy": 1.0 if answers.choice else 0.0,
        },
        "c": {
            "per_query": {
                q: {"recall": 1.0, "precision": 1.0, "f1": 1.0, "valid": [True] * len(p)}
                for q, p in answers.paths.items()
            },
            "recall": 1.0 if answers.paths else 0.0,
            "precision": 1.0 if answers.paths else 0.0,
            "f1": 1.0 if answers.paths else 0.0,
        },
    }


def report_mismatches(report: dict, expected: dict) -> list[str]:
    """Differences between a report.json and the expected scores."""
    bad = []

    def same(where: str, got, want) -> None:
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{where}: got {got!r}, expected {want!r}")

    same("team", report.get("team"), expected["team"])
    a, want_a = report["type_a"], expected["a"]
    same("type_a.num_queries", a["num_queries"], len(want_a["per_query"]))
    for field in ("mrr_mean_of_queries", "mrr_mean_of_variables"):
        same(f"type_a.{field}", a[field], want_a[field])
    for entry in a["per_query"]:
        rr = want_a["per_query"].get(entry["id"], {})
        same(f"{entry['id']}.mrr", entry["mrr"], sum(rr.values()) / len(rr) if rr else -1.0)
        for var, value in entry["per_variable"].items():
            same(f"{entry['id']}.{var}", value, rr.get(var, -1.0))
    b, want_b = report["type_b"], expected["b"]
    same("type_b.correct", b["correct"], want_b["correct"])
    same("type_b.accuracy", b["accuracy"], want_b["accuracy"])
    same("type_b.per_query", b["per_query"], want_b["per_query"])
    c, want_c = report["type_c"], expected["c"]
    for field in ("recall", "precision", "f1"):
        same(f"type_c.{field}", c[field], want_c[field])
    same("type_c.num_queries", c["num_queries"], len(want_c["per_query"]))
    for entry in c["per_query"]:
        want = want_c["per_query"].get(entry["id"])
        if want is None:
            bad.append(f"{entry['id']}: unexpected path query")
            continue
        for field in ("recall", "precision", "f1"):
            same(f"{entry['id']}.{field}", entry[field], want[field])
        same(f"{entry['id']}.verdicts", [v == "valid" for v in entry["verdicts"]], want["valid"])
    return bad
