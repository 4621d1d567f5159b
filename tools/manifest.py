"""Pin kgbench's output bytes at benchmark scale: write tests/manifest.json.

Usage, from anywhere:

    python3 tools/manifest.py

Runs the seed-1 pipeline of each benchmark workload (`perfbench/world.py`)
with the oracle team, in process through `kgbench.cli.main`: the world text,
`gen-queries`, the three `answer` commands and one `score` of the oracle's
submissions.  The manifest maps each file those commands write, by
`<workload>/<file name>`, to its sha256.  `tests/test_manifest.py` runs the
same pipelines and names every file that differs.  Rewrite the manifest only
with a change that means to alter output, and name each changed file in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "manifest.json"
ONTOLOGY = ROOT / "src" / "kgbench" / "data" / "core_relations.ont"
SEED = 1


def perfbench(name: str):
    """A module of `perfbench/`, which is no package, loaded by path and
    registered under its name, as `dataclasses` needs."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs(out: Path) -> dict[str, str]:
    """Run every workload's seed-1 pipeline in a directory of its own under
    `out`; the sha256 of each file written, by its path under `out`."""
    from kgbench import cli

    world, salt = perfbench("world"), perfbench("run").WORLD_SALT
    relations = sorted(world.load_inverse(ONTOLOGY.read_text(encoding="utf-8")))
    for name, w in world.WORKLOADS.items():
        d = out / name
        d.mkdir(parents=True)
        graph = d / f"world.{w.fmt}"
        drawn = world.generate_world(SEED ^ salt, w.nodes, w.edges, w.skew, w.shares, relations)
        graph.write_text(world.world_text(drawn, w.fmt), encoding="utf-8")
        args = ["--graph", str(graph), "--format", w.fmt, "--ontology", str(ONTOLOGY)]
        commands = [[
            "gen-queries", *args, "--seed", str(SEED),
            "--count-a", str(w.count_a), "--count-b", str(w.count_b),
            "--count-c", str(w.count_c), "--max-edges", str(w.max_edges), "--out", str(d),
        ] + (["--require-unique"] if w.require_unique else [])]
        commands += [
            ["answer", *args, "--queries", str(d / f"queries_{t}.xml"),
             "--team", "oracle", "--out", str(d / f"sub_{t}.xml")]
            for t in "abc"
        ]
        commands.append([
            "score", *args,
            "--keys", *(str(d / f"keys_{t}.xml") for t in "abc"),
            "--submissions", *(str(d / f"sub_{t}.xml") for t in "abc"),
            "--out", str(d),
        ])
        for argv in commands:
            if cli.main(argv) != 0:
                raise RuntimeError(f"{name}: {argv[0]} failed")
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        hashes = outputs(Path(tmp))
    MANIFEST.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} file hashes to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
