"""Mutation analysis of one kgbench module: which one-site changes does the
tier-1 suite miss?

Usage, from the root of a source checkout:

    python3 tools/mutate.py src/kgbench/oracle.py --lines 158-225,234
    python3 tools/mutate.py src/kgbench/oracle.py --lines 158-225 --list
    python3 tools/mutate.py MODULE [--lines SPEC] [--list] [-- PYTEST ARGS]

Each mutant changes one site of MODULE (`--lines` keeps the sites whose
expression starts on one of the given lines or ranges):
- a comparison moved across its boundary or negated (`<` and `<=`, `>` and
  `>=`, `==` and `!=`, `in` and `not in`, `is` and `is not`);
- `+` and `-`, or `*` and `/`, swapped;
- `and` and `or` swapped;
- a `not` dropped;
- the test of an `if`, `elif`, `while` or conditional expression that is
  neither a comparison nor a `not` (`if len(el):`, `if any(...)`) negated;
- an int or float constant n made n + 1.

The checkout's `src/`, `tests/`, `tools/`, `perfbench/` (both read by
`tests/test_manifest.py`), `pyproject.toml` and `README.md` (read by
`tests/test_cli.py`) are copied into a
temporary directory (under $TMPDIR when it is set); each mutant is written
there as the module unparsed from its changed syntax tree, and the suite
runs there with `-x`, `src/` of the copy first on the path, without
`tests/test_mutate.py`, which checks EQUIVALENT against the checkout.
The checkout itself is never written.  The unchanged module, unparsed the
same way, must pass first; a mutant is killed when the suite fails, or
runs five times as long (at least 30 s), since a mutant may loop forever.
A survivor listed in EQUIVALENT is reported with the reason it gives the
same output; any other survivor wants a test.  It runs by hand, not in CI:
each mutant runs the suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}

# (module file name, the site's source line stripped, the mutant as listed)
# -> why the mutant gives the same output as the module
EQUIVALENT = {
    ("oracle.py", "distance = [limit + 1] * len(rows)", "'limit + 1': 1 -> 2"):
        "enumerate_paths, the one caller, enters a node only within limit "
        "hops of the target, so any distance past limit reads the same",
    ("oracle.py", "distance[target] = 0", "'distance[target] = 0': 0 -> 1"):
        "the BFS enters a node only at a distance of 1 or more, so it never "
        "enters the target again, and enumerate_paths tests for the target "
        "before it reads a distance",
    ("ontology.py", "@lru_cache(maxsize=1024)", "'maxsize=1024': 1024 -> 1025"):
        "the cache only remembers label_fault's answers, which follow from "
        "the label alone, so its size changes no answer",
    ("protocol.py", "ordered = sorted(items, key=lambda t: (-t[1], t[0]))", "'t[0]': 0 -> 1"):
        "items are appended in document order and sorted is stable, so equal "
        "confidences keep document order without the tie-break",
}


def mutants(
    tree: ast.AST, parents: dict[ast.AST, ast.AST], lines: set[int] | None
) -> list[tuple[ast.AST, ast.AST, ast.AST, str]]:
    """Each one-site change, as (node, the node that replaces it, the node
    whose source names the site, what changed), in source order.  A number
    is named by the expression it stands in, as the number alone is no
    site."""
    found: list[tuple[ast.AST, ast.AST, ast.AST, str]] = []
    for node in ast.walk(tree):
        if lines is not None and getattr(node, "lineno", None) not in lines:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    ops = [*node.ops[:i], SWAPS[type(op)](), *node.ops[i + 1:]]
                    new = ast.Compare(node.left, ops, node.comparators)
                    at = f" at {i + 1}" if len(ops) > 1 else ""
                    found.append((node, new, node, f"{_name(op)} -> {_name(ops[i])}{at}"))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            new = ast.BinOp(node.left, SWAPS[type(node.op)](), node.right)
            found.append((node, new, node, f"{_name(node.op)} -> {_name(new.op)}"))
        elif isinstance(node, ast.BoolOp):
            new = ast.BoolOp(SWAPS[type(node.op)](), node.values)
            found.append((node, new, node, f"{_name(node.op)} -> {_name(new.op)}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, node.operand, node, "not dropped"))
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)) and not (
            isinstance(node.test, ast.Compare)
            or isinstance(node.test, ast.UnaryOp) and isinstance(node.test.op, ast.Not)
        ):
            # a comparison has its own mutants, and a `not` is dropped
            found.append((node.test, ast.UnaryOp(ast.Not(), node.test), node.test, "negated"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = ast.Constant(node.value + 1)
            found.append((node, new, parents[node], f"{node.value!r} -> {new.value!r}"))
    return sorted(found, key=lambda m: (m[0].lineno, m[0].col_offset))


def _name(op: ast.AST) -> str:
    return type(op).__name__


def replace(parents: dict[ast.AST, ast.AST], node: ast.AST, new: ast.AST) -> Callable[[], None]:
    """Put `new` where `node` stands in its parent; returns the undo."""
    parent = parents[node]
    for field, value in ast.iter_fields(parent):
        if value is node:
            setattr(parent, field, new)
            return lambda: setattr(parent, field, node)
        for i, item in enumerate(value if isinstance(value, list) else ()):
            if item is node:
                value[i] = new
                return lambda: value.__setitem__(i, node)
    raise ValueError(f"{node!r} is not a child of {parent!r}")


def describe(source: str, node: ast.AST, change: str) -> str:
    """The changed expression's source text on one line, and the change."""
    text = " ".join((ast.get_source_segment(source, node) or "").split())
    if len(text) > 60:
        text = text[:57] + "..."
    return f"{text!r}: {change}"


def sites(
    source: str, lines: set[int] | None
) -> tuple[ast.AST, dict[ast.AST, ast.AST], list, list[tuple[int, str, str]]]:
    """The module's syntax tree, each node's parent, its mutants on `lines`
    (all lines for None), and per mutant (line, the line's source stripped,
    the mutant as listed), the last two an EQUIVALENT key's."""
    tree = ast.parse(source)
    parents = {child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)}
    found = mutants(tree, parents, lines)
    source_lines = source.splitlines()
    listed = [
        (node.lineno, source_lines[node.lineno - 1].strip(), describe(source, named, change))
        for node, _, named, change in found
    ]
    return tree, parents, found, listed


def parse_lines(spec: str | None) -> set[int] | None:
    if spec is None:
        return None
    lines: set[int] = set()
    for part in spec.split(","):
        first, _, last = part.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    return lines


def run_suite(copy: Path, pytest_args: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for the suite in the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *pytest_args]
    try:
        proc = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Arguments after -- go to pytest in place of the default, tests.")
    parser.add_argument("module", help="path of the module under src/, e.g. src/kgbench/oracle.py")
    parser.add_argument("--lines", help="lines to mutate, e.g. 10-20,31 (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    pytest_args = argv[split + 1:] or ["tests"]

    module = Path(args.module).resolve()
    relative = module.relative_to(ROOT)
    source = module.read_text(encoding="utf-8")
    tree, parents, found, listed = sites(source, parse_lines(args.lines))
    if args.list:
        for line, _, text in listed:
            print(f"{relative}:{line} {text}")
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        # test_mutate.py checks EQUIVALENT against the checkout's modules,
        # which a mutant changes
        for name in ("src", "tests", "tools", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", "test_mutate.py"))
        for name in ("pyproject.toml", "README.md"):  # tests/test_cli.py reads the README
            shutil.copy(ROOT / name, copy)
        target = copy / relative
        target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
        start = time.perf_counter()
        if run_suite(copy, pytest_args, None) != "passed":
            print(f"error: the suite fails on {relative} unparsed, unchanged", file=sys.stderr)
            return 1
        baseline = time.perf_counter() - start
        print(f"unchanged module passes in {baseline:.0f} s; {len(found)} mutants", flush=True)
        survivors = 0
        for (node, new, _, _), (line, code, text) in zip(found, listed):
            revert = replace(parents, node, new)
            try:
                target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
            finally:
                revert()
            outcome = run_suite(copy, pytest_args, max(30.0, 5 * baseline))
            reason = EQUIVALENT.get((module.name, code, text))
            if outcome == "passed":
                survivors += reason is None
                outcome = f"equivalent: {reason}" if reason else "SURVIVED"
            print(f"{relative}:{line} {text} -> {outcome}", flush=True)
    print(f"{survivors} survivor(s) not listed as equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
