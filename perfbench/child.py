"""One repetition in a fresh interpreter: run CLI commands one after another.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

The plan names the source tree to import, the argv of each command, and
whether to trace.  The result holds each command's exit code, its wall time
less the time of the host-speed probes, the probe samples, the process's
peak RSS, and, when traced, the per-layer record.  A plan with a "sweep"
entry instead times ``enumerate_paths`` over the given path-query pairs at
each bound, untraced.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback

PROBE_INTERVAL_S = 0.025


def probe() -> float:
    """Seconds for a fixed loop that allocates, hashes and sorts about as the
    CLI does, with the collector off so the program's heap cannot slow it.
    It uses no kgbench code, so no change to the program moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(5000):
            table[str(i * 7919 % 5003)] = i * i
        sorted(table)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Samples the host's speed around and, unless traced, during a command.

    The host's speed flips between states up to 1.7x apart within seconds.
    `probe()` runs before and after the command and, from a SIGALRM handler,
    every PROBE_INTERVAL_S while it runs, so its samples are spread evenly
    over the command's wall time.  `during_s` is the time the probes took
    inside the command, to be subtracted from its wall time.  A traced
    command is sampled only before and after, so no probe lands in a span.
    """

    def __init__(self, during: bool):
        self.during = during

    def __enter__(self) -> "HostProbe":
        self.samples = [probe()]
        self.during_s = 0.0
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        t = probe()
        self.samples.append(t)
        self.during_s += t

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())


def run_commands(plan: dict) -> dict:
    import kgbench
    from kgbench import cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(kgbench)
    commands = []
    for argv in plan["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with HostProbe(during=tracer is None) as host, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
        commands.append({
            "wall_s": wall - host.during_s,
            "probe_s": host.samples,
            "exit": code,
            "stderr": err.getvalue()[-4000:] if code else "",
        })
    result = {"commands": commands}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "counts": dict(tracer.counts),
        }
    return result


def run_sweep(sweep: dict) -> dict:
    from kgbench import formats, protocol
    from kgbench.ontology import load_ontology
    from kgbench.oracle import enumerate_paths

    def read(path: str) -> str:
        with open(path, encoding="utf-8") as f:
            return f.read()

    ontology = load_ontology(read(sweep["ontology"]))
    graph, _ = formats.parse_graph(read(sweep["graph"]), ontology, sweep["format"])
    pairs = [(q.source, q.target) for q in protocol.parse_query_xml(read(sweep["queries"]))]
    enumerate_paths(graph, *pairs[0], 1)  # builds the traversal index untimed
    bounds = {}
    for k in sweep["bounds"]:
        start = time.perf_counter()
        found = sum(len(enumerate_paths(graph, s, t, k)) for s, t in pairs)
        bounds[str(k)] = {"wall_s": time.perf_counter() - start, "paths": found}
    return {"sweep": bounds}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])
    result = run_sweep(plan["sweep"]) if "sweep" in plan else run_commands(plan)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
