import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_equivalent_mutant_names_a_site_of_today():
    # a rewritten site would turn its equivalent mutant into an unexplained
    # SURVIVED; this lists the mutants and runs none
    mutate = load_mutate()
    assert mutate.EQUIVALENT
    listed = {}
    for module, code, change in mutate.EQUIVALENT:
        if module not in listed:
            source = (ROOT / "src" / "kgbench" / module).read_text(encoding="utf-8")
            listed[module] = {(line, text) for _, line, text in mutate.sites(source, None)[3]}
        assert (code, change) in listed[module], (module, code, change)


def test_a_bare_condition_is_negated():
    # a comparison has its own mutants and a `not` is dropped, so neither is
    # negated as well
    mutate = load_mutate()
    source = (
        "if len(el):\n    pass\nelif any(el):\n    pass\nwhile queue:\n    pass\n"
        "x = yes if ok else no\nif a < b:\n    pass\nif not c:\n    pass\n"
    )
    tree, parents, found, listed = mutate.sites(source, None)
    assert [(line, text) for line, _, text in listed] == [
        (1, "'len(el)': negated"),
        (3, "'any(el)': negated"),
        (5, "'queue': negated"),
        (7, "'ok': negated"),
        (8, "'a < b': Lt -> LtE"),
        (10, "'not c': not dropped"),
    ]
    node, new, _, _ = found[0]
    revert = mutate.replace(parents, node, new)
    assert ast.unparse(tree).splitlines()[0] == "if not len(el):"
    revert()
    assert ast.unparse(tree).splitlines()[0] == "if len(el):"
