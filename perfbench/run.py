"""kgbench benchmark: the CLI referee pipeline on seeded synthetic worlds.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs ``validate-graph``, ``gen-queries``, three ``answer``
commands and the workload's ``score`` calls one after another in one fresh
interpreter that imports ``src/`` of the checkout.  Repetitions repeat until
the time is spent and every end-to-end metric is a median over them.  With
``--trace 1`` repetitions alternate untraced and traced (see tracing.py), and
a last child times the oracle's path enumeration at bounds 4 to 7.

Every command's outputs are checked: exit codes, byte-identical files across
repetitions, the oracle team scoring 1.0, and each perturbed team's report
against the scores its perturbation implies (teams.py).  The last line of
standard output is the JSON result; a record with run metadata and file
hashes goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
ONTOLOGY = SRC / "kgbench" / "data" / "core_relations.ont"
RUN_LIMIT_S = 170  # a run must end within 180 s
SWEEP_BOUNDS = (4, 5, 6, 7)
WORLD_SALT = 0x5EED_0F_40_41D
TEAM_SALT = 0x7EA_3
# child.probe() takes about this long on a 2-core x86-64 host with CPython
# 3.11 in its faster state; end-to-end times are seconds at that speed
PROBE_REF_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "gen_s": "s",
    "answer_s": "s",
    "score_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """One benchmark run: its inputs, its repetitions and its checks."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.dir = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0  # commands that exited non-zero or whose outputs failed a check
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}  # output file -> sha256
        self.expected: dict[str, dict] = {}  # team -> expected report
        self.graph = self.dir / f"world.{workload.fmt}"

    def prepare(self) -> bool:
        """Write the world; for a workload with perturbed teams, run a warm-up
        repetition and build the teams from its oracle answers.  False when
        the warm-up fails."""
        from world import generate_world, load_inverse, world_text

        w = self.w
        self.inverse = load_inverse(ONTOLOGY.read_text(encoding="utf-8"))
        self.world = generate_world(
            self.seed ^ WORLD_SALT, w.nodes, w.edges, w.skew, w.shares, sorted(self.inverse)
        )
        self.graph.write_text(world_text(self.world, self.w.fmt), encoding="utf-8")
        self.reference[self.graph.name] = _sha256(self.graph)
        if self.w.teams == 1:
            return True
        warm = self.dir / "warm"
        before = self.failed
        self.execute(warm, self.commands(warm, teams=[]), trace=False)
        return self.failed == before

    def derive_expected(self, out: Path) -> None:
        """Expected reports, from the first outputs of gen-queries and answer;
        perturbed teams' submissions are written here too."""
        from teams import TeamMaker, oracle_expected, read_answers, traversal

        answers = read_answers({
            f"{kind}_{t}": (out / ("q" if kind == "queries" else "") / f"{kind}_{t}.xml")
            .read_text(encoding="utf-8")
            for kind in ("queries", "sub") for t in "abc"
        })
        self.expected["oracle"] = oracle_expected(answers)
        labels = self.world.labels
        maker = TeamMaker(
            answers, labels, traversal(labels, self.world.edges, self.inverse), self.inverse
        )
        for t in range(1, self.w.teams):
            team = f"team{t:02d}"
            subs, self.expected[team] = maker.make(self.seed ^ TEAM_SALT ^ (t << 32), team)
            for kind, text in subs.items():
                path = self.dir / "teams" / team / f"sub_{kind}.xml"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")

    # -- commands ------------------------------------------------------------

    def commands(self, out: Path, teams: list[str]) -> list[list[str]]:
        w = self.w
        graph = ["--graph", str(self.graph), "--format", w.fmt, "--ontology", str(ONTOLOGY)]
        gen = [
            "gen-queries", *graph, "--seed", str(self.seed),
            "--count-a", str(w.count_a), "--count-b", str(w.count_b),
            "--count-c", str(w.count_c), "--max-edges", str(w.max_edges),
            "--out", str(out / "q"),
        ] + (["--require-unique"] if w.require_unique else [])
        cmds = [["validate-graph", *graph], gen]
        for t in "abc":
            cmds.append([
                "answer", *graph, "--queries", str(out / "q" / f"queries_{t}.xml"),
                "--team", "oracle", "--out", str(out / f"sub_{t}.xml"),
            ])
        for team in teams:
            subs = out if team == "oracle" else self.dir / "teams" / team
            cmds.append([
                "score", *graph,
                "--keys", *(str(out / "q" / f"keys_{t}.xml") for t in "abc"),
                "--submissions", *(str(subs / f"sub_{t}.xml") for t in "abc"),
                "--out", str(out / f"report_{team}"),
            ])
        return cmds

    def teams(self) -> list[str]:
        return ["oracle"] + [f"team{t:02d}" for t in range(1, self.w.teams)]

    def execute(self, out: Path, cmds: list[list[str]], trace: bool) -> dict | None:
        """Run `cmds` in a fresh child and check their outputs."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result = self.child(out, {"commands": cmds, "trace": trace})
        self.attempted += len(cmds)
        if result is None:
            self.failed += len(cmds)
            self.failures.append(f"{out.name}: child process failed or timed out")
            return None
        bad = set()
        for i, (argv, c) in enumerate(zip(cmds, result["commands"])):
            if c["exit"] != 0:
                bad.add(i)
                self.failures.append(f"{argv[0]} exited {c['exit']}: {c['stderr']}")
        if not self.expected and not bad:
            try:
                self.derive_expected(out)
            except Exception:  # malformed outputs: the program failed, not the run
                self.failures.append("cannot read the oracle's outputs:\n" + traceback.format_exc())
                bad.add(1)
        for name in self.check_outputs(out):
            bad.add(self.producer(name))
        self.failed += len(bad)
        return result

    def producer(self, name: str) -> int:
        """Index in `commands` of the command that writes output `name`."""
        if name.startswith("q/"):
            return 1
        if name.startswith("sub_"):
            return 2 + "abc".index(name[4])
        return 5 + self.teams().index(name.split("/")[0].removeprefix("report_"))

    def child(self, out: Path, plan: dict) -> dict | None:
        plan = dict(plan, src=str(SRC))
        plan_file, result_file = out / "plan.json", out / "result.json"
        plan_file.write_text(json.dumps(plan), encoding="utf-8")
        remaining = RUN_LIMIT_S - (time.monotonic() - START)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(plan_file), str(result_file)],
                capture_output=True, text=True, timeout=max(remaining, 1),
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or not result_file.exists():
            sys.stderr.write(proc.stderr[-4000:])
            return None
        return json.loads(result_file.read_text(encoding="utf-8"))

    # -- checks --------------------------------------------------------------

    def check_outputs(self, out: Path) -> list[str]:
        """Every output file must match the first copy seen; reports are also
        checked against the expected scores the first time they appear.
        Returns the names of the outputs that failed."""
        bad = []
        for path in sorted(out.rglob("*")):
            if not path.is_file() or path.name in ("plan.json", "result.json"):
                continue
            name = str(path.relative_to(out))
            digest = _sha256(path)
            if name not in self.reference:
                self.reference[name] = digest
                if path.name == "report.json" and not self.check_report(path):
                    bad.append(name)
            elif self.reference[name] != digest:
                self.failures.append(f"{name} differs between repetitions")
                bad.append(name)
        return bad

    def check_report(self, path: Path) -> bool:
        from teams import report_mismatches

        team = path.parent.name.removeprefix("report_")
        if team not in self.expected:
            self.failures.append(f"{team}: no expected scores (an earlier command failed)")
            return False
        report = json.loads(path.read_text(encoding="utf-8"))
        problems = report_mismatches(report, self.expected[team])
        self.failures += [f"{team}: {p}" for p in problems]
        return not problems

    def finish(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def at_reference_speed(command: dict) -> float:
    """A command's wall time scaled to the reference host speed: the mean of
    PROBE_REF_S / s over the probe samples s taken evenly over its run."""
    samples = command["probe_s"]
    return command["wall_s"] * sum(PROBE_REF_S / s for s in samples) / len(samples)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over repetitions; commands are in `Run.commands` order."""
    walls = [[at_reference_speed(c) for c in r["commands"]] for r in reps]
    return {
        "setup_s": median([x[0] for x in walls]),
        "gen_s": median([x[1] for x in walls]),
        "answer_s": median([sum(x[2:5]) for x in walls]),
        "score_s": median([s for x in walls for s in x[5:]]),
        "pipeline_s": median([sum(x) for x in walls]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(traced: list[dict], plain: list[dict], sweep: dict | None) -> dict:
    """Layer metrics from the traced repetitions (times are medians, counts
    come from the first and must repeat), plus the sweep and the overhead."""
    def self_s(bucket: str) -> float:
        return median([r["trace"]["self_s"].get(bucket, 0.0) for r in traced])

    counts = traced[0]["trace"]["counts"]
    count = lambda name: counts.get(name, 0)  # noqa: E731
    paths = count("oracle.paths_found")
    oracle_calls = count("querygen.oracle_calls")
    m = {
        "formats.parse_s": self_s("formats.parse"),
        "formats.parse_calls": count("formats.parse_tgf") + count("formats.parse_xgml"),
        "graph.build_s": self_s("graph.build"),
        "graph.index_s": self_s("graph.index"),
        "graph.sorted_nodes_s": self_s("graph.sorted_nodes"),
        "graph.sorted_nodes_calls": count("graph.KnowledgeGraph.sorted_nodes"),
        "graph.has_link_calls": count("graph.KnowledgeGraph.has_link"),
        "graph.neighbors_calls": count("graph.KnowledgeGraph.neighbors"),
        "ontology.load_s": self_s("ontology.load"),
        "querygen.fill_s": self_s("querygen.fill"),
        "querygen.choice_s": self_s("querygen.choice"),
        "querygen.path_s": self_s("querygen.path"),
        "querygen.oracle_calls": oracle_calls,
        "querygen.accepted": count("querygen.accepted"),
        "querygen.yield": count("querygen.accepted") / oracle_calls if oracle_calls else 0.0,
        "oracle.enumerate_paths_s": self_s("oracle.enumerate_paths"),
        "oracle.enumerate_paths_calls": count("oracle.enumerate_paths"),
        "oracle.paths_found": paths,
        "oracle.neighbors_per_path": (
            count("oracle.enumerate_paths.neighbors") / paths if paths else 0.0
        ),
        "oracle.solve_pattern_s": self_s("oracle.solve_pattern"),
        "oracle.solve_pattern_calls": count("oracle.solve_pattern"),
        "oracle.bindings_found": count("oracle.bindings_found"),
        "oracle.answer_choice_s": self_s("oracle.answer_choice"),
        "protocol.emit_s": self_s("protocol.emit"),
        "protocol.parse_query_s": self_s("protocol.parse_query"),
        "protocol.parse_key_s": self_s("protocol.parse_key"),
        "protocol.parse_submission_s": self_s("protocol.parse_submission"),
        "protocol.bytes_emitted": count("protocol.bytes_emitted"),
        "protocol.bytes_parsed": count("protocol.bytes_parsed"),
        "protocol.diagnostics": count("protocol.diagnostics"),
        "scoring.score_fill_s": self_s("scoring.score_fill"),
        "scoring.score_choice_s": self_s("scoring.score_choice"),
        "scoring.score_paths_s": self_s("scoring.score_paths"),
        "scoring.validate_path_calls": count("scoring.validate_path"),
        "scoring.report_s": self_s("scoring.report"),
        "cli.self_check_s": median(
            [r["trace"]["total_s"].get("cli.self_check", 0.0) for r in traced]
        ),
        "cli.self_s": self_s("cli.self"),
        "rng.draws": count("rng.SplitMix64.next_u64"),
        "trace.overhead_s": (
            median([sum(map(at_reference_speed, r["commands"])) for r in traced])
            - median([sum(map(at_reference_speed, r["commands"])) for r in plain])
        ),
    }
    for k in SWEEP_BOUNDS:
        m[f"oracle.paths_k{k}_s"] = sweep[str(k)]["wall_s"] if sweep else 0.0
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    if name in ("querygen.yield", "oracle.neighbors_per_path"):
        return "ratio"
    return "count"


def metadata(args) -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kgbench" / "cli.py").is_file():
        print(f"error: no kgbench source tree at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from world import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    meta = metadata(args)
    run = Run(WORKLOADS[args.workload], args.seed)
    deadline = START + args.seconds
    plain, traced, unit_s = [], [], 0.0
    # A unit is one untraced repetition, followed by a traced one when
    # tracing.  Units repeat while another one fits in the time given.
    ready = run.prepare()
    while ready and (not plain or (not run.failures and time.monotonic() + unit_s <= deadline)):
        began = time.monotonic()
        out = run.dir / "rep"
        for trace in (False, True)[: 1 + args.trace]:
            result = run.execute(out, run.commands(out, run.teams()), trace=trace)
            if result is None:
                break
            (traced if trace else plain).append(result)
        if result is None:
            break
        unit_s = max(unit_s, time.monotonic() - began)

    sweep = None
    if args.trace and traced:
        queries = run.dir / "rep" / "q" / "queries_c.xml"
        sweep_out = run.dir / "sweep"
        sweep_out.mkdir()
        result = run.child(sweep_out, {"sweep": {
            "graph": str(run.graph), "format": run.w.fmt, "ontology": str(ONTOLOGY),
            "queries": str(queries), "bounds": list(SWEEP_BOUNDS),
        }})
        run.attempted += 1
        if result is None:
            run.failed += 1
            run.failures.append("path-bound sweep failed")
        else:
            sweep = result["sweep"]
        counts = [r["trace"]["counts"] for r in traced]
        if any(c != counts[0] for c in counts):
            run.failed += 1
            run.failures.append("trace counts differ between traced repetitions")

    metrics = {}
    if args.trace and traced:
        for name, value in sorted(per_layer(traced, plain, sweep).items()):
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    elif not args.trace and plain:
        for name, value in end_to_end(plain).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name]}

    record = {
        "meta": meta,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "metrics": metrics,
        "sweep": sweep,
        "failures": run.failures[:50],
        "sha256": run.reference,
        "walls": [[c["wall_s"] for c in r["commands"]] for r in plain + traced],
        "speed_factors": [
            [at_reference_speed(c) / c["wall_s"] for c in r["commands"]] for r in plain + traced
        ],
    }
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    record_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    run.finish()
    for problem in run.failures[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta, "record": str(record_file.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": metrics,
    }))
    return 0


START = time.monotonic()

if __name__ == "__main__":
    sys.exit(main())
