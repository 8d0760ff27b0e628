"""Benchmark for diam_ramsey: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

The package is imported from src/ next to this directory, never from an
installed copy. The workload's fixed input set runs as many times as fit
in --seconds (at least once); each pass is a rep. Every output is
checked after its rep, untimed.

Set-up is a fresh import of the package plus input generation. A batch
of SETUP_BATCH set-ups runs before the first rep and after every rep, so
that the set-ups sample the whole run and not one moment of the host's
speed; each rep uses the latest set-up.

With --trace 0 the speed probe of speed.py runs through the whole
measurement. norm_wall_s is the median rep time and setup_s the median
set-up time, each with the probes taken out and scaled to the probe's
reference speed; raw_wall_s and raw_setup_s, printed beside them, are
the same medians unscaled.

With --trace 1 untraced reps alternate with traced reps, which run with
the wrappers of tracing.py installed, and no probe runs. The run reports
the per-layer metrics named in BENCHMARK.json as medians over the traced
reps, and the overhead of tracing as the median ratio of a traced rep to
the untraced rep just before it. Spans go to .perfbench_out/ when the
run ends.

Exact counters (nodes expanded, certificates, colorings swept, and in a
traced run the call count of every wrapped entry point) must be
identical in every rep; an operation that raises, returns a wrong value
or breaks that rule is counted as failed, and any failure makes the
exit code 1. --smoke runs the same code paths on tiny inputs, two reps.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A full record (environment,
quartiles, per-rep times, counters, errors) is written to
.perfbench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Rep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PACKAGE = "diam_ramsey"
SETUP_BATCH = 10


def fresh_import():
    for name in [n for n in sys.modules if n.split(".")[0] == PACKAGE]:
        del sys.modules[name]
    api = importlib.import_module(PACKAGE)
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {api.__file__}, not {SRC}")
    return api


def set_up_batch(workload, seed, smoke, times):
    """SETUP_BATCH timed set-ups; returns the last import and its inputs.

    Appends each set-up's (start, end) perf_counter_ns() to times. The
    copies of the package dropped by earlier set-ups are collected first,
    untimed, so every set-up starts from the same heap.
    """
    for _ in range(SETUP_BATCH):
        gc.collect()
        t0 = time.perf_counter_ns()
        api = fresh_import()
        inputs = workload.setup(api, seed, smoke)
        times.append((t0, time.perf_counter_ns()))
    return api, inputs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def shown(value):
    return f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"


def cpu_s(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def git_commit():
    """HEAD's commit read from .git directly; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_rep(workload, api, inputs, tracer=None):
    """One pass over the inputs, traced if a tracer is given, then gated."""
    rep = Rep()
    cpu0 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.rep_id += 1
        tracer.install(api)
    t0 = time.perf_counter_ns()
    workload.run(api, inputs, rep)
    rep.span_ns = (t0, time.perf_counter_ns())
    rep.wall_s = (rep.span_ns[1] - t0) / 1e9
    if tracer is not None:
        tracer.remove()
        rep.stats = tracer.snapshot()
    rep.parent_cpu_s = cpu_s(resource.RUSAGE_SELF) - cpu0[0]
    rep.worker_cpu_s = cpu_s(resource.RUSAGE_CHILDREN) - cpu0[1]
    workload.gate(api, inputs, rep)
    return rep


def measure(workload, set_up, budget_s, min_rounds, max_rounds, tracers):
    """Run rounds until the next one would pass budget_s.

    A round is one rep per entry of tracers, in order (None: untraced).
    set_up() runs before the first round and after every round, and
    returns the import and inputs the next round uses. Returns the reps as
    one list per entry.
    """
    rounds = []
    start = time.perf_counter()
    api, inputs = set_up()
    while True:
        rounds.append([run_rep(workload, api, inputs, t) for t in tracers])
        api, inputs = set_up()
        elapsed = time.perf_counter() - start
        typical = statistics.median(
            sum(rep.wall_s for rep in reps) for reps in rounds)
        if len(rounds) >= max_rounds or (
            len(rounds) >= min_rounds and elapsed + typical > budget_s
        ):
            return [list(column) for column in zip(*rounds)]


def check_determinism(reps, counts):
    """Fail every op of a rep whose exact counts differ from the first rep's.

    counts(rep) returns a dict of the rep's exact counts.
    """
    ref = counts(reps[0])
    for rep in reps[1:]:
        got = counts(rep)
        if got != ref:
            diff = sorted(k for k in set(ref) | set(got) if ref.get(k) != got.get(k))
            for idx in range(len(rep.ops)):
                rep.fail(idx, f"counts differ from the first rep: {diff}")


def layer_metrics(workload, rep, untraced_wall):
    """Per-layer numbers of one traced rep (0 where a layer did no work).

    untraced_wall is the wall time of the untraced rep just before it.
    """
    def ratio(a, b):
        return a / b if b else 0.0

    def s(name):
        return rep.stats[name]  # (calls, ns, self ns, units)

    nodes = sum(v[0] for k, v in rep.counters.items() if k != "colorings")
    certs = sum(v[1] for k, v in rep.counters.items() if k != "colorings")
    cf_calls, cf_ns, cf_self, _ = s("search.compute_f")
    searched = cf_calls > 0
    worker_cpu = rep.worker_cpu_s if searched else 0.0
    out = {
        "search.nodes_expanded": (nodes, "count"),
        "search.nodes_per_s": (ratio(nodes, cf_ns / 1e9), "1/s"),
        "search.self_s": (cf_self / 1e9, "s"),
        "search.parent_cpu_s": (rep.parent_cpu_s if searched else 0.0, "s"),
        "search.worker_cpu_s": (worker_cpu, "s"),
        "search.worker_utilisation": (
            ratio(worker_cpu, workload.workers * cf_ns / 1e9)
            if workload.workers > 1 else 0.0, "ratio"),
        "search.certificates": (certs, "count"),
    }
    for name in ("checker.extend", "checker.retract"):
        calls, ns, _self, _units = s(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.ns_per_call"] = (ratio(ns, calls), "ns")
    calls, ns, _self, units = s("checker.exists_solution")
    out["checker.exists_solution.calls"] = (calls, "count")
    out["checker.exists_solution.us_per_pos"] = (ratio(ns / 1e3, units), "us")
    calls, ns, _self, _units = s("checker.validate_witness")
    out["checker.validate_witness.us_per_call"] = (ratio(ns / 1e3, calls), "us")
    calls, ns, _self, units = s("coloring.construct")
    out["coloring.construct.calls"] = (calls, "count")
    out["coloring.construct.us_per_pos"] = (ratio(ns / 1e3, units), "us")
    for name in ("coloring.format", "coloring.parse", "constructions.build"):
        _calls, ns, _self, units = s(name)
        out[f"{name}.us_per_pos"] = (ratio(ns / 1e3, units), "us")
    for name in ("find_extremal_b1", "classify_lemma21", "check_lemma22"):
        calls, ns, _self, _units = s(f"lemmas.{name}")
        out[f"lemmas.{name}.us_per_call"] = (ratio(ns / 1e3, calls), "us")
    _calls, ns, _self, _units = s("lemmas.sweep")
    out["lemmas.colorings_per_s"] = (
        ratio(rep.counters.get("colorings", 0), ns / 1e9), "1/s")
    out["trace.overhead_ratio"] = (rep.wall_s / untraced_wall, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, two reps, same code paths")
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_ns = []

    def set_up():
        return set_up_batch(workload, args.seed, args.smoke, setup_ns)

    env = environment(args.seed)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f" seconds={args.seconds:g}{' smoke' if args.smoke else ''}")
    print("# env " + json.dumps(env))

    reps_wanted = (2, 2) if args.smoke else (1, 1 << 30)
    tracer = None
    traced = []
    if args.trace:
        tracer = Tracer()
        plain, traced = measure(workload, set_up, args.seconds,
                                *reps_wanted, (None, tracer))
        check_determinism(
            traced, lambda r: {k: v[0] for k, v in r.stats.items()})
    else:
        probe = SpeedProbe()
        probe.start()
        try:
            (plain,) = measure(workload, set_up, args.seconds,
                               *reps_wanted, (None,))
        finally:
            probe.stop()
    reps = plain + traced
    check_determinism(reps, lambda r: r.counters)

    attempted = sum(len(r.ops) for r in reps)
    failed = sum(r.failed for r in reps)
    rss_mb = max(resource.getrusage(w).ru_maxrss
                 for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    times = {}
    if args.trace:
        times["raw_wall_s"] = [r.wall_s for r in plain]
        times["raw_setup_s"] = [(b - a) / 1e9 for a, b in setup_ns]
    else:
        times["norm_wall_s"] = [probe.norm_s(*r.span_ns) for r in plain]
        times["setup_s"] = [probe.norm_s(a, b) for a, b in setup_ns]
        times["raw_wall_s"] = [probe.net_ns(*r.span_ns) / 1e9 for r in plain]
        times["raw_setup_s"] = [probe.net_ns(a, b) / 1e9 for a, b in setup_ns]
    lines = {}
    for name, values in times.items():
        q1, med, q3 = quartiles(values)
        lines[name] = (med, "s", f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}")
    lines["peak_rss_mb"] = (rss_mb, "MB", "parent and workers")
    lines["failed_ratio"] = (failed / attempted, "ratio",
                             f"{failed} of {attempted} operations")
    if "search" in args.workload:
        nodes = sum(v[0] for v in reps[0].counters.values())
        lines["nodes_expanded"] = (nodes, "count", "per rep")
    checks = [ns / 1e6 for r in reps for ns in r.check_ns]
    if checks:
        n = f"n={len(checks)} checked colorings"
        lines["check_p50_ms"] = (statistics.median(checks), "ms", n)
        lines["check_p90_ms"] = (statistics.quantiles(checks, n=10)[-1], "ms", n)
    for name, (value, unit, detail) in lines.items():
        print(f"{name:40s} {shown(value)} {unit:6s} ({detail})")

    if args.trace:
        per_rep = [layer_metrics(workload, t, p.wall_s)
                   for p, t in zip(plain, traced)]
        # Counts are identical in every traced rep; times take the median.
        metrics = {
            name: {"value": v if unit == "count" else
                   statistics.median(m[name][0] for m in per_rep),
                   "unit": unit}
            for name, (v, unit) in per_rep[0].items()
        }
        print("traced reps " + ", ".join(f"{r.wall_s:.4f}" for r in traced)
              + f" s; wrapper cost {tracer.call_cost_ns:.1f} ns per call")
        for name, m in metrics.items():
            print(f"{name:40s} {shown(m['value'])} {m['unit']}")
    else:
        metrics = {name: {"value": lines[name][0], "unit": lines[name][1]}
                   for name in ("norm_wall_s", "setup_s", "peak_rss_mb")}
    errors = [f"rep {i + 1}: {op[0]}: {op[2]}"
              for i, r in enumerate(reps) for op in r.ops if op[2]]
    for line in errors[:20]:
        print("FAILED " + line)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    record = {
        "args": vars(args),
        "env": env,
        "report": {k: {"value": v[0], "unit": v[1], "detail": v[2]}
                   for k, v in lines.items()},
        "metrics": metrics,
        "times_s": times,
        "traced_rep_wall_s": [r.wall_s for r in traced],
        "trace_call_cost_ns": tracer.call_cost_ns if tracer else None,
        "speed_probes": None if args.trace else {
            "count": len(probe.samples),
            "kernel_ns_quartiles": quartiles([p[2] for p in probe.samples]),
        },
        "counters": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in reps[0].counters.items()},
        "errors": errors,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
