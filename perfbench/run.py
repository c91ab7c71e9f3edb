"""End-to-end benchmark of the ``psl`` command line, with a traced per-layer run.

Usage, from the root of a psl checkout::

    python3 perfbench/run.py --workload feature_film --seed 1 --seconds 30 --trace 0

Each run is one closed loop: a single client on a single thread calls the
real entry point, ``psl.cli.main``, in-process, each op starting when the
previous one ends.  Every input goes through the six commands check, fmt,
compile, simulate, stats and render.  A run generates its inputs from
``--seed``, writes them to a fresh directory under ``.perfbench/``, makes
an untimed warm-up pass over the first inputs, then times whole passes
until ``--seconds`` have elapsed, and removes the directory.  Every op is
checked by an oracle (see ``oracles.py``); a miss is counted, never fatal.
Before each op, dirty files are synced and the heap is collected and
frozen, so the file system's and the collector's work inside an op is that
op's own, as in a fresh ``psl`` process.

Reported times are wall times rescaled to a nominal host.  On a shared
host the same run drifts by 20-30% with the neighbours' load, so a fixed
stdlib workload (``reference_work``) is timed after every quarter second
of ops, and each op's time is multiplied by ``REF_NOMINAL_NS`` over the
mean of the reference samples around it.  A change to ``psl`` moves the
rescaled times exactly as it moves the wall times.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json`` from a traced pass whose spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--pin`` rewrites the SHA-256 digests of every op's output for the
default seed in ``perfbench/digests/``; only do so when an output change
is intended.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STYLE = HERE / "bench.style"
DIGESTS = HERE / "digests"
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
#: Fresh interpreters timed for ``setup_s``, after one untimed import.
SETUP_SAMPLES = 11
#: Candidate tail percentiles; the tail is the highest one that leaves at
#: least ten of one pass's samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)
STYLED = ("check", "compile", "simulate", "render")
#: Every reported time is rescaled to a host on which one unit of
#: ``reference_work`` takes this long.
REF_NOMINAL_NS = 25_000_000
#: Op time between two reference samples.
REF_EVERY_NS = 250_000_000
#: Inputs in the untimed warm-up pass: the first two cover every code
#: path a workload takes (both defect kinds in broken_drafts).
WARM_UP_INPUTS = 2
WORKLOAD_NAMES = ("feature_film", "writers_room", "broken_drafts")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the default-seed digests instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "psl" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no psl checkout at {ROOT} (src/psl and corpus/ are needed)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    from psl.cli import main as cli_main
    from psl.stylesheet import load_stylesheet

    import inputs
    from oracles import Oracle, read_durations

    board = inputs.WORKLOADS[args.workload](args.seed, ROOT / "corpus")
    digest_file = DIGESTS / f"{args.workload}.json"
    pinned = {} if args.pin else json.loads(digest_file.read_text(encoding="utf-8"))
    if args.seed != DEFAULT_SEED:  # generated inputs differ; corpus outputs do not
        pinned = {key: value for key, value in pinned.items() if key.startswith("corpus/")}

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        oracle = Oracle(read_durations(STYLE), pinned, run_dir)
        loop = Loop(board, run_dir, oracle, cli_main)
        if args.pin:
            return pin(loop, args, digest_file)
        loop.run_pass(inputs=board[:WARM_UP_INPUTS])  # untimed and uncounted
        loop.attempted = loop.failed = 0
        oracle.misses.clear()
        if args.trace:
            report = traced_run(loop, args, load_stylesheet(str(STYLE)))
            declared = spec["per_layer"]
        else:
            report = timed_run(loop, args.seconds, setup_seconds())
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        os.sync()  # settle the deletions here, not in the next run's timing

    metrics = {}
    for metric in declared:
        metrics[metric["name"]] = {"value": report.pop(metric["name"]), "unit": metric["unit"]}
        print(f"  {metric['name']:<26} {metrics[metric['name']]['value']:>14.6g} {metric['unit']}")
    if report:
        raise KeyError(f"measured but not declared in BENCHMARK.json: {sorted(report)}")
    ratio = loop.failed / max(loop.attempted, 1)
    print(f"  {'failed_ratio':<26} {ratio:>14.6g} ({loop.failed} of {loop.attempted} ops)")
    for miss in oracle.misses[:20]:
        print(f"perfbench: oracle miss: {miss}", file=sys.stderr)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


class Loop:
    """Drives every op of one workload through ``psl.cli.main`` in-process."""

    def __init__(self, board, run_dir: Path, oracle, cli_main) -> None:
        from inputs import OPS
        self.ops = OPS
        self.board = board
        self.run_dir = run_dir
        self.oracle = oracle
        self.cli_main = cli_main
        self.attempted = self.failed = 0
        self.passes = 0
        self.shots = sum(inp.shots for inp in board)
        self.paths = {}
        for inp in board:
            path = run_dir / "in" / (inp.label if inp.label.endswith(".psl") else inp.label + ".psl")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(inp.text, encoding="utf-8")
            self.paths[inp.label] = path

    def run_op(self, inp, cmd: str, tracer=None) -> tuple[int, tuple]:
        """Run one command; returns its wall time in ns and what the oracle needs."""
        argv = [cmd, str(self.paths[inp.label])]
        if cmd in STYLED:
            argv += ["--style", str(STYLE)]
        out_dir = None
        if cmd == "render":
            # A fresh directory per pass: deleting files during the run
            # would leave the file system busy under later ops.
            out_dir = self.run_dir / "out" / f"pass{self.passes}" / inp.label
            argv += ["--out", str(out_dir)]
        out, err = io.StringIO(), io.StringIO()
        # Start each op the way a fresh process on a quiet host would: no
        # dirty files and no collector work left over from earlier ops.
        os.sync()
        gc.collect()
        gc.freeze()
        span = tracer.span(f"cli.{cmd}", inp.label) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            start = time.perf_counter_ns()
            try:
                rc = self.cli_main(argv)
            except SystemExit as stop:
                rc = stop.code
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter_ns() - start
        return elapsed, (inp, cmd, rc, out.getvalue(), err.getvalue(), out_dir)

    def judge(self, result: tuple) -> None:
        self.attempted += 1
        self.failed += not self.oracle.judge(*result)

    def run_pass(self, tracer=None, layers=None, inputs=None) -> dict:
        """One pass over every input (or the given ones) and op.

        Returns ns per command and check latencies, each op rescaled by
        the reference samples taken just before and after it, and the
        median of those scales.
        """
        self.passes += 1
        segments, refs, since = [[]], [reference_ns()], 0
        for inp in self.board if inputs is None else inputs:
            root = tracer.span("input", inp.label) if tracer else contextlib.nullcontext()
            with root:  # parent of the input's CLI and layer spans
                for cmd in self.ops:
                    elapsed, result = self.run_op(inp, cmd, tracer)
                    segments[-1].append((cmd, elapsed))
                    self.judge(result)
                    since += elapsed
                    if since >= REF_EVERY_NS:
                        refs.append(reference_ns())
                        segments.append([])
                        since = 0
                if layers is not None:
                    layers(inp, tracer)
        if segments[-1]:
            refs.append(reference_ns())
        else:
            segments.pop()
        spent, checks, scales = dict.fromkeys(self.ops, 0.0), [], []
        for k, segment in enumerate(segments):
            scales.append(2 * REF_NOMINAL_NS / (refs[k] + refs[k + 1]))
            for cmd, elapsed in segment:
                spent[cmd] += elapsed * scales[-1]
                if cmd == "check":
                    checks.append(elapsed * scales[-1])
        return {"spent": spent, "checks": checks, "scale": statistics.median(scales)}


def timed_run(loop: Loop, seconds: float, setup: float) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(loop.run_pass())
    checks = [ns / 1e6 for p in passes for ns in p["checks"]]
    tail_name, tail = tail_of(passes)
    busy = [sum(p["spent"].values()) / 1e9 for p in passes]
    print(f"perfbench: {len(loop.board)} inputs, {loop.shots} shots, {len(passes)} timed passes, "
          f"check tail is {tail_name} of {len(checks)} samples")
    print("perfbench: times rescaled to the nominal host; median scale per pass "
          + ", ".join(f"{p['scale']:.3f}" for p in passes) + " (raw wall time is about value / scale)")
    report = {
        "setup_s": setup,
        "shots_per_s": statistics.median(loop.shots / b for b in busy),
        "check_p50_ms": statistics.median(checks),
        "check_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for cmd in loop.ops:
        report[f"{cmd}_s"] = statistics.median(p["spent"][cmd] / 1e9 for p in passes)
    return report


def traced_run(loop: Loop, args, style) -> dict:
    from tracing import Tracer, layer_metrics, simulate_peak_kb, trace_layers

    start = time.perf_counter()
    metrics, overheads, tracer = [], [], Tracer()
    while not metrics or time.perf_counter() - start < args.seconds:
        untraced = sum(loop.run_pass()["spent"].values()) / 1e6
        first = len(tracer.spans)
        scale = loop.run_pass(tracer, lambda inp, t: trace_layers(inp, style, t))["scale"]
        spans = tracer.spans[first:]
        cli_ms = scale * sum((s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
                             if s["name"].startswith("cli."))
        overheads.append(cli_ms - untraced)
        values, unsampled, rows = layer_metrics(spans, scale)
        metrics.append(values)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "passes": len(metrics)})
    print(f"perfbench: {len(metrics)} traced passes, {len(tracer.spans)} spans in {path}")
    if len(rows) <= 10:
        print("  stage split, ms: input | shots | bytes | transitions | parse | validate | "
              "compile (incl. validate) | simulate | timeline (incl. simulate) | SVG")
        for r in rows:
            print(f"  {r['input']} | {r['shots']} | {r['bytes']} | {r['transitions']} | "
                  + " | ".join(f"{r[k]:.1f}" for k in
                               ("parse", "validate", "compile", "simulate", "timeline", "svg")))
    if unsampled:
        print(f"  reported as 0, layer not reached on this workload: {', '.join(sorted(unsampled))}")
    report = {name: statistics.median(m[name] for m in metrics) for name in metrics[0]}
    report["petri.peak_kb"] = simulate_peak_kb(loop.board, style)
    report["trace.overhead_ms"] = statistics.median(overheads)
    report["trace.spans"] = len(tracer.spans) / len(metrics)
    return report


def tail_of(passes: list[dict]) -> tuple[str, float]:
    """The highest candidate percentile with ten of one pass's check samples
    beyond it, by nearest rank over all passes; with fewer than twenty
    checks a pass, the median over passes of each pass's slowest check."""
    per_pass = len(passes[0]["checks"])
    for p in TAIL_PERCENTILES:
        if per_pass * (100 - p) / 100 >= 10:
            samples = sorted(ns / 1e6 for run in passes for ns in run["checks"])
            return f"p{p:g}", samples[math.ceil(p / 100 * len(samples)) - 1]
    return "slowest of each pass", statistics.median(max(run["checks"]) / 1e6 for run in passes)


def setup_seconds() -> float:
    """Median wall time of ``import psl.cli`` in fresh interpreters, rescaled."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter_ns(); import psl.cli; print(time.perf_counter_ns() - t)")
    samples, refs = [], [reference_ns()]
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=60, cwd=ROOT)
        refs.append(reference_ns())
        samples.append(int(done.stdout) / 1e9 * 2 * REF_NOMINAL_NS / (refs[-2] + refs[-1]))
    return statistics.median(samples[1:])


def reference_work() -> int:
    """Fixed stdlib work shaped like psl's: dict and tuple copies, exact
    fractions, formatted text and JSON.  Never change it: every reported
    time is relative to it."""
    marking = {f"p{i}": (i, "token") for i in range(400)}
    for _ in range(100):
        marking = {pid: tuple(list(tokens)) for pid, tokens in marking.items()}
    doc = [{"t0": str(Fraction(i, 3) + Fraction(1, i + 2)), "svg": f'<line x1="{i / 7:.2f}"/>'}
           for i in range(1500)]
    return len(json.loads(json.dumps(doc, indent=2))) + len(marking)


def reference_ns() -> int:
    gc.collect()
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


def pin(loop: Loop, args, digest_file: Path) -> int:
    if args.seed != DEFAULT_SEED:
        print(f"perfbench: --pin records the default seed ({DEFAULT_SEED}) only", file=sys.stderr)
        return 2
    digests = {}
    for inp in loop.board:
        for cmd in loop.ops:
            _, result = loop.run_op(inp, cmd)
            _, _, rc, out, err, out_dir = result
            digests[f"{inp.label}:{cmd}"] = loop.oracle.digest(rc, out, err, out_dir)
            loop.judge(result)
    DIGESTS.mkdir(exist_ok=True)
    digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for miss in loop.oracle.misses:
        print(f"perfbench: oracle miss: {miss}", file=sys.stderr)
    print(f"perfbench: pinned {len(digests)} digests in {digest_file}, "
          f"{loop.failed} of {loop.attempted} ops missed their oracle")
    return 1 if loop.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
