"""Output bytes at benchmark scale: the seed-1 pipeline of each benchmark
workload, with the oracle team, must write the files `tests/manifest.json`
pins.  `python3 tools/manifest.py` rewrites the manifest; only a change that
means to alter output does so, and names each changed file."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_manifest_tool():
    spec = importlib.util.spec_from_file_location("manifest", ROOT / "tools" / "manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_outputs_match_the_manifest(tmp_path):
    tool = load_manifest_tool()
    pinned = json.loads(tool.MANIFEST.read_text(encoding="utf-8"))
    made = tool.outputs(tmp_path)
    differ = sorted(name for name in pinned.keys() | made.keys()
                    if pinned.get(name) != made.get(name))
    assert not differ, f"files that differ from tests/manifest.json: {differ}"
