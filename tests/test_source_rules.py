"""Rules on the source under src/kgbench, read with `ast`, so that text in a
docstring or a comment does not count."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kgbench"
TREES = {
    path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(SRC.rglob("*.py"))
}


def test_no_assert_statements():
    # checks raise; an assert would vanish under `python -O`, which the
    # README promises the checks survive
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_no_unused_imports():
    # an unused import is dead code; `from __future__` imports and the names
    # a module lists in `__all__` (re-exports) are exempt
    found = []
    for name, tree in TREES.items():
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        found += [
            f"{name}:{line}: {imported_name}"
            for imported_name, line in imported.items()
            if imported_name not in read | exported
        ]
    assert not found


def test_no_unreferenced_private_names():
    # a module-level private name (`_name`, not `__name__`) that nothing
    # under src/ reads, as a name or an attribute, is a helper left behind
    # when its callers moved
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    found = [
        f"{name}:{node.lineno}: {defined}"
        for name, tree in TREES.items()
        for node in tree.body
        for defined in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            else [t.id for t in node.targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.Assign)
            else [node.target.id]
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            else []
        )
        if defined.startswith("_") and not defined.startswith("__") and defined not in read
    ]
    assert not found


def test_the_submission_writers_check_nothing():
    # a Submission is valid once built, as a query is: its constructor asks
    # each rule, so the writers ask none (a `*_fault` or a codec's `check`)
    # and raise nothing of their own
    writers = [
        node
        for node in ast.walk(TREES["protocol.py"])
        if isinstance(node, ast.FunctionDef) and node.name in ("emit_submission", "write_answer")
    ]
    assert len(writers) == 4  # emit_submission and one write_answer per codec
    found = [
        f"{writer.name}:{node.lineno}"
        for writer in writers
        for node in ast.walk(writer)
        if isinstance(node, ast.Raise)
        or isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", "")).endswith(
            ("_fault", "check")
        )
    ]
    assert found == []


QUERY_TYPES = {"FillQuery", "ChoiceQuery", "PathQuery"}


def query_type_tests(trees: dict[str, ast.Module]) -> list[str]:
    """Each `isinstance` call whose classes name a query type, and each
    comparison (`is`, `==`, `in` and their negations) with an operand that
    names one, by file and line."""
    compare = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                operands = node.args[1:]
            elif isinstance(node, ast.Compare) and any(isinstance(op, compare) for op in node.ops):
                operands = [node.left, *node.comparators]
            else:
                continue
            named = {
                getattr(n, "id", None) or getattr(n, "attr", None)
                for operand in operands
                for n in ast.walk(operand)
            }
            if named & QUERY_TYPES:
                found.append(f"{name}:{node.lineno}")
    return found


def test_no_query_type_tests():
    # a query type's rules live in its class and in one record per type
    # (protocol's codecs, the score function a ScoreReport picks), so no
    # module branches on a query's type
    assert query_type_tests(TREES) == []


def test_the_query_type_rule_finds_each_form():
    source = """
isinstance(q, FillQuery)
isinstance(q, (ChoiceQuery, Variable))
isinstance(q, querygen.PathQuery)
sub.kind is FillQuery
kind is not ChoiceQuery
type(q) == PathQuery
kind in (FillQuery, PathQuery)
isinstance(q, Variable)
type(q) is kind
{FillQuery: "fill"}[type(q)]
"""
    found = query_type_tests({"m.py": ast.parse(source)})
    assert found == [f"m.py:{line}" for line in range(2, 9)]
