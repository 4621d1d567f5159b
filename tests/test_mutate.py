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
