"""Seeded POSS/CERT benchmark for ordlattice.

Run from the root of a checkout::

    python3 perfbench/run.py --workload merged-logs --seed 1 --seconds 20 --trace 0

The workload's documents and questions are generated from the seed, the
documents are loaded through ``cli.load_database`` (set-up), and one client
asks the question pool in a closed loop, one question at a time, in whole
passes until ``--seconds`` of loop time have passed.  Every verdict is
checked against the answer fixed at generation time; checking, and a
garbage collection before each question, are kept out of the loop's wall
time and out of the latencies.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by spans around the package's calls,
and prints the per-layer metrics, the counters and the tracing overhead.
The last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS, SETUP_MIN_S = 5, 0.5   # loads before the loop: at least this many and this long
PASS_SETUP_S = 0.1                 # loads after each untimed pass, so set-up samples span the run
QUESTION_KINDS = ("poss", "cert", "accum", "position")
METHODS = ("dedup", "width_dp", "union_dp", "swap_concat", "safe_swaps", "bounded_width_accum",
           "noprod_union_accum", "multiset_check", "backtracking", "bruteforce", "complete_failure")
DP_METHODS = ("width_dp", "union_dp", "bounded_width_accum", "noprod_union_accum")


def import_package():
    """Import ordlattice from this checkout's ``src``; exit 1 when it is not there."""
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ordlattice
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ordlattice from {src}: {exc}")
    if not Path(ordlattice.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: ordlattice resolved to {ordlattice.__file__}, outside {src}")


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: host speed at this moment, for diagnosis only."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * 7) % 13
    return (perf_counter() - start) * 1000


def host_probe() -> float:
    return statistics.median(ref_loop_ms() for _ in range(3))


def load_all(workload, workdir):
    from ordlattice import cli

    return {
        name.removesuffix(".json"): cli.load_database(workdir / name)
        for name, doc in workload.documents.items()
        if "relations" in doc
    }


def time_loads(workload, workdir, reps, seconds):
    """Load every document at least ``reps`` times and for at least ``seconds``."""
    times = []
    while len(times) < reps or sum(times) < seconds:
        start = perf_counter()
        dbs = load_all(workload, workdir)
        times.append(perf_counter() - start)
    return dbs, times


def method_of(result):
    method = getattr(result, "method", None)
    if method is None and isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], str):
        for line in result[1].splitlines():  # cli output
            if line.startswith("method: "):
                return line[len("method: "):]
    return method


def ask_pass(questions, dbs, samples, tracer=None):
    """Ask every question once, in order; returns the seconds not spent asking.

    Garbage is collected before each question and answers are checked after
    it, both outside the question's timing: a question never pays for the
    previous one's cyclic garbage, and peak memory does not depend on when
    the collector happened to run.
    """
    from ordlattice.errors import ResourceExceeded

    untimed = 0.0
    for q in questions:
        t = perf_counter()
        gc.collect()
        untimed += perf_counter() - t
        if tracer:
            tracer.question = q.qid
        t0 = perf_counter()
        try:
            result, outcome = q.ask(dbs), None
        except ResourceExceeded:
            result, outcome = None, "refused"
        except Exception as exc:  # an unexpected exception is a failed question, not a crash
            result, outcome = None, f"error: {exc!r}"
        t1 = perf_counter()
        if tracer:
            tracer.question = None
        if outcome is None:
            try:
                message = q.check(result, dbs)
            except Exception as exc:  # output the checker cannot read is a wrong answer
                message = f"unreadable result: {exc!r}"
            outcome = "ok" if message is None else f"wrong: {message}"
        samples.append((q, t1 - t0, outcome, method_of(result)))
        untimed += perf_counter() - t1
    return untimed


class Loop:
    """Whole passes of the closed loop; ``seconds`` excludes checking and collecting."""

    def __init__(self):
        self.samples = []
        self.passes = 0
        self.seconds = 0.0

    def run_pass(self, questions, dbs, tracer=None):
        start = perf_counter()
        untimed = ask_pass(questions, dbs, self.samples, tracer)
        self.seconds += perf_counter() - start - untimed
        self.passes += 1


def p50_ms(values):
    return 1000 * statistics.median(values)


def summarize(samples, loop_s):
    asked = len(samples)
    failed = [s for s in samples if s[2] != "ok" and s[2] != "refused"]
    refused = sum(1 for s in samples if s[2] == "refused")
    latencies = [s[1] for s in samples]
    return {
        "asked": asked,
        "failed": failed,
        "refused": refused,
        "questions_per_s": asked / loop_s,
        "latencies": latencies,
        "by_kind": {k: [s[1] for s in samples if s[0].kind == k] for k in QUESTION_KINDS},
    }


def end_to_end(summary, setup_s):
    lat = summary["latencies"]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "questions_per_s": (summary["questions_per_s"], "1/s"),
        "latency_p50_ms": (p50_ms(lat), "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
    }
    for kind in QUESTION_KINDS:
        metrics[f"{kind}_p50_ms"] = (p50_ms(summary["by_kind"][kind]), "ms")
    metrics["decided_ratio"] = ((summary["asked"] - summary["refused"] - sum(
        1 for s in summary["failed"] if s[2].startswith("error"))) / summary["asked"], "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def counters(questions, dbs, samples):
    """Per-question counts on the evaluated relation; they repeat exactly for a seed."""
    from ordlattice import cli
    from ordlattice.algebra import CompleteFailure, evaluate
    from ordlattice.core import ia_partition, width_and_chain_partition

    first = {}
    for q, _, outcome, method in samples:
        first.setdefault(q.qid, (outcome, method))
    cache = {}
    rows = []
    for q in questions:
        key = (q.scenario, q.query)
        if key not in cache:
            r = evaluate(cli.parse_query(q.query), dbs[q.scenario])
            if isinstance(r, CompleteFailure):
                cache[key] = (0, 0, 0, 0, 1)
            else:
                width, chains = width_and_chain_partition(r)
                cache[key] = (r.size, width, ia_partition(r).cardinality, len(r.hasse_edges()),
                              math.prod(len(c) + 1 for c in chains.chains))
        size, width, classes, edges, ideals = cache[key]
        outcome, method = first[q.qid]
        rows.append({"question": q.qid, "kind": q.kind, "scenario": q.scenario, "query": q.query,
                     "bucket": q.size, "sweep": q.sweep,
                     "result.rows": size, "result.width": width, "result.ia_classes": classes,
                     "result.hasse_edges": edges, "dp.ideals": ideals if method in DP_METHODS else 0,
                     "method": method, "refused": outcome == "refused"})
    totals = {name: (sum(r[name] for r in rows), "count")
              for name in ("result.rows", "result.width", "result.ia_classes", "result.hasse_edges", "dp.ideals")}
    totals["refused.count"] = (sum(r["refused"] for r in rows), "count")
    for m in METHODS:
        totals[f"method.{m}"] = (sum(r["method"] == m for r in rows), "count")
    totals["method.other"] = (sum(r["method"] is not None and r["method"] not in METHODS for r in rows), "count")
    return totals, rows


def report(label, metrics, samples):
    for name, (value, unit) in metrics.items():
        count = f" (n={samples})" if name.startswith("latency_") else ""
        print(f"{label} {name} = {value:.6g} {unit}{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded POSS/CERT benchmark for ordlattice.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import tracing
    import workloads

    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.GENERATORS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{stem}-") as tmp:
        workdir = Path(tmp)
        start = perf_counter()
        workload = workloads.GENERATORS[args.workload](args.seed, workdir)
        for name, doc in workload.documents.items():
            (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        generator_s = perf_counter() - start

        dbs, setup_times = time_loads(workload, workdir, SETUP_REPS, SETUP_MIN_S)
        gc.collect()
        gc.freeze()  # generator and set-up objects stay out of collector passes in the loop
        host_before = host_probe()
        questions = workload.questions
        loop = Loop()
        if args.trace == 0:
            while loop.passes == 0 or loop.seconds < args.seconds:
                loop.run_pass(questions, dbs)
                setup_times += time_loads(workload, workdir, 1, PASS_SETUP_S)[1]
            host_after = host_probe()
            summary = summarize(loop.samples, loop.seconds)
            metrics = end_to_end(summary, statistics.median(setup_times))
        else:
            # untraced and traced passes alternate, so host drift hits both alike
            plain = Loop()
            tracer = tracing.Tracer()
            while loop.passes == 0 or plain.seconds + loop.seconds < args.seconds:
                plain.run_pass(questions, dbs)
                with tracer.active():
                    loop.run_pass(questions, dbs, tracer)
            host_after = host_probe()
            summary = summarize(loop.samples, loop.seconds)
            untraced = summarize(plain.samples, plain.seconds)
            metrics = tracing.layer_metrics(tracer, loop.passes)
            metrics.update(tracing.scaling_exponents(tracer, {q.qid for q in questions if q.sweep}))
            totals, per_question = counters(questions, dbs, loop.samples)
            metrics.update(totals)
            metrics["trace.questions_per_s"] = (summary["questions_per_s"], "1/s")
            metrics["trace.untraced_questions_per_s"] = (untraced["questions_per_s"], "1/s")
            metrics["trace.overhead"] = (untraced["questions_per_s"] / summary["questions_per_s"], "ratio")
            summary["failed"] += untraced["failed"]
            summary["asked"] += untraced["asked"]
            tracer.write(OUT / f"{stem}-spans.jsonl")
            with open(OUT / f"{stem}-questions.jsonl", "w", encoding="utf-8") as fh:
                for row in per_question:
                    fh.write(json.dumps(row) + "\n")
            metrics["host.ref_loop_ms.before"] = (host_before, "ms")
            metrics["host.ref_loop_ms.after"] = (host_after, "ms")

    failed = summary["failed"]
    diagnostics = {
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "pool": len(questions),
        "passes": loop.passes,
        "samples": len(summary["latencies"]),
        "samples_by_kind": {k: len(v) for k, v in summary["by_kind"].items()},
        "failed_ratio": len(failed) / summary["asked"],
        "generator_s": generator_s,
        "host.ref_loop_ms": [host_before, host_after],
        "loop_s": loop.seconds,
        "failures": [f"q{s[0].qid} {s[0].kind} {s[0].scenario}: {s[2]}" for s in failed[:10]],
    }
    report(args.workload, metrics, len(summary["latencies"]))
    print("diagnostics " + json.dumps(diagnostics))
    result = {
        "correct": not failed,
        "attempted": summary["asked"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}-result.json").write_text(json.dumps({"diagnostics": diagnostics, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
