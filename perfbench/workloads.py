"""The four workloads: their inputs, the timed part, and the correctness gate.

A workload has three parts:

* setup(api, seed, smoke) builds the inputs; it is timed as set-up, with
  the package import, apart from the reps;
* run(api, inputs, rep) is the timed part: every operation goes through
  rep.attempt, which records its outcome or the exception it raised;
* gate(api, inputs, rep) runs untimed afterwards and records, per
  operation, why its outcome is wrong.

rep.counters holds the exact counts of each operation (nodes expanded,
certificates, colorings swept); the runner requires them to be identical
in every rep of a run. The expected values below were computed by the
package itself at the commit that introduced this benchmark; f*(3,3,3;2)
has no closed form and its value 25 comes from that run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# search-value: (sizes, colors, strict, expected f); value_only, n_cap 30.
SEARCH_VALUE = (
    ((4, 4, 4), 2, False, 29),
    ((3, 3), 3, False, 20),
    ((3, 3, 3), 2, True, 25),
)
SEARCH_VALUE_SMOKE = (
    ((3, 3, 3), 2, False, 20),
    ((2, 2), 3, False, 11),
    ((2, 2), 2, True, 9),
)
SEARCH_VALUE_N_CAP = 30

# search-certs-2w: (sizes, colors, expected f, expected certificate count);
# all_certificates, two workers, the closed form's default n_cap.
SEARCH_CERTS = (
    ((3, 3, 3), 2, 20, 21),
    ((5, 5), 2, 22, 95),
    ((2, 2), 4, 15, 2),
    ((3, 3), 3, 20, 5),
)
SEARCH_CERTS_SMOKE = (
    ((3, 3, 3), 2, 20, 21),
    ((2, 2), 4, 15, 2),
)
SEARCH_CERTS_WORKERS = 2

# verify-constructions: constructions for m = 2..m_max, both one-position
# extensions for m <= ext_max, and `flips` seeded colorings made by
# flipping 1..3 positions of a construction with m <= ext_max.
VERIFY = {"m_max": 500, "ext_max": 200, "flips": 32}
VERIFY_SMOKE = {"m_max": 20, "ext_max": 10, "flips": 4}

# lemma-sweep: m and the full report of sweep_lemmas(m).
LEMMA = (6, {
    "total": 65536,
    "case_counts": {"no_b1": 32, "i": 13018, "ii": 28178, "iii": 24308},
    "branch_counts": {"no_big_set": 32, "big_set": 65504},
    "ties": 0,
})
LEMMA_SMOKE = (3, {
    "total": 128,
    "case_counts": {"no_b1": 4, "i": 24, "ii": 62, "iii": 38},
    "branch_counts": {"no_big_set": 4, "big_set": 124},
    "ties": 0,
})


@dataclass
class Rep:
    """One pass over a workload's inputs."""

    # [label, outcome, error or None] per operation, in run order.
    ops: list[list] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)
    check_ns: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    # perf_counter_ns() at the start and the end of the timed part.
    span_ns: tuple[int, int] = (0, 0)
    parent_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    # Traced reps only: wrapped entry point -> (calls, ns, self ns, units)
    # made during this rep.
    stats: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def attempt(self, label: str, fn: Callable[[], Any]) -> Any:
        try:
            out, err = fn(), None
        except Exception as exc:  # an operation that raises has failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        self.ops.append([label, out, err])
        return out

    def fail(self, index: int, why: str) -> None:
        if self.ops[index][2] is None:
            self.ops[index][2] = why

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op[2] is not None)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    gate: Callable
    workers: int = 1


# ----------------------------------------------------------------------
# search-value / search-certs-2w


def _setup_value(api, seed, smoke):
    table = SEARCH_VALUE_SMOKE if smoke else SEARCH_VALUE
    cfg = api.SearchConfig(n_cap=SEARCH_VALUE_N_CAP, mode="value_only")
    ops = [
        (api.ProblemSpec(sizes, r, strict), cfg, f, None)
        for sizes, r, strict, f in table
    ]
    random.Random(seed).shuffle(ops)
    return ops


def _setup_certs(api, seed, smoke):
    table = SEARCH_CERTS_SMOKE if smoke else SEARCH_CERTS
    cfg = api.SearchConfig(
        mode="all_certificates", worker_count=SEARCH_CERTS_WORKERS
    )
    ops = [(api.ProblemSpec(sizes, r), cfg, f, n) for sizes, r, f, n in table]
    random.Random(seed).shuffle(ops)
    return ops


def _run_search(api, ops, rep):
    for spec, cfg, _f, _n in ops:
        res = rep.attempt(spec.label(), lambda: api.compute_f(spec, cfg))
        if res is not None:
            rep.counters[spec.label()] = (
                res.stats.nodes_expanded, len(res.certificates)
            )


def _gate_search(api, ops, rep):
    for idx, (spec, _cfg, f, n_certs) in enumerate(ops):
        res = rep.ops[idx][1]
        if res is None:
            continue
        known = api.known_value(spec)
        if res.inconclusive or res.f_value != f or known not in (None, f):
            rep.fail(idx, f"{spec.label()} = {res.f_value}, expected {f}")
        elif n_certs is not None and len(res.certificates) != n_certs:
            rep.fail(
                idx, f"{spec.label()}: {len(res.certificates)} certificates, "
                f"expected {n_certs}"
            )
        elif any(
            c.length != f - 1 or api.exists_solution(c, spec) is not None
            for c in res.certificates
        ) or len(set(res.certificates)) != len(res.certificates):
            rep.fail(idx, f"{spec.label()}: a certificate does not check")


# ----------------------------------------------------------------------
# verify-constructions


@dataclass
class _VerifyInputs:
    m_max: int
    ext_max: int
    flips: list[tuple[int, tuple[int, ...]]]
    # Per flip: does it contain a solution? Filled by the first gate.
    flip_reference: list[bool] | None = None


def _setup_verify(api, seed, smoke):
    params = VERIFY_SMOKE if smoke else VERIFY
    rng = random.Random(seed)
    flips = []
    for _ in range(params["flips"]):
        m = rng.randint(2, params["ext_max"])
        digits = [c for c, k in api.lower_bound_runs(m) for _ in range(k)]
        for p in rng.sample(range(len(digits)), rng.randint(1, 3)):
            digits[p] = 1 - digits[p]
        flips.append((m, tuple(digits)))
    return _VerifyInputs(params["m_max"], params["ext_max"], flips)


def _timed_check(api, rep, c, spec):
    """exists_solution plus validate_witness on any witness, timed.

    Returns whether c avoids; only booleans are kept, so the memory a run
    holds does not grow with its reps.
    """
    t0 = time.perf_counter_ns()
    w = api.exists_solution(c, spec)
    if w is not None:
        api.validate_witness(w, c, spec)
    rep.check_ns.append(time.perf_counter_ns() - t0)
    return w is None


def _run_verify(api, inp, rep):
    for m in range(2, inp.m_max + 1):
        spec = api.ProblemSpec((m, m, m), 2)
        built = []

        def construction():
            c = api.lower_bound_coloring(m)
            built.append(c)
            t0 = time.perf_counter_ns()
            report = api.verify_avoiding(c, spec)
            rep.check_ns.append(time.perf_counter_ns() - t0)
            back = api.parse_run_string(api.format_run_string(c), 2)
            return c.length, report.avoids, back == c

        rep.attempt(f"construction m={m}", construction)
        # Check the extensions now, so one construction is alive at a time.
        for x in (0, 1) if m <= inp.ext_max else ():
            rep.attempt(
                f"extension m={m} +{x}",
                lambda: _timed_check(api, rep, built[0].extended(x), spec),
            )
    for i, (m, digits) in enumerate(inp.flips):
        spec = api.ProblemSpec((m, m, m), 2)
        rep.attempt(
            f"flip {i} m={m}",
            lambda: _timed_check(api, rep, api.Coloring(digits, 2), spec),
        )


def _contains_solution(api, spec, digits):
    """Independent reference: the incremental DP, position by position."""
    state = api.IncrementalState(spec)
    return any(state.extend(x) for x in digits)


def _gate_verify(api, inp, rep):
    if inp.flip_reference is None:
        inp.flip_reference = [
            _contains_solution(api, api.ProblemSpec((m, m, m), 2), digits)
            for m, digits in inp.flips
        ]
    flips_at = len(rep.ops) - len(inp.flips)
    for idx, (label, out, err) in enumerate(rep.ops):
        if err is not None:
            continue
        if label.startswith("construction"):
            m = int(label.split("=")[1])
            length, avoids, round_trip = out
            if length != api.formula_f_mmm2(m) - 1 or not avoids:
                rep.fail(idx, f"{label}: length {length}, avoids {avoids}")
            elif not round_trip:
                rep.fail(idx, f"{label}: run-string round trip differs")
        elif label.startswith("extension"):
            if out:
                rep.fail(idx, f"{label}: no solution found")
        elif out == inp.flip_reference[idx - flips_at]:
            rep.fail(idx, f"{label}: avoids={out} disagrees with the reference")


# ----------------------------------------------------------------------
# lemma-sweep


def _setup_lemma(api, seed, smoke):
    return LEMMA_SMOKE if smoke else LEMMA


def _run_lemma(api, inp, rep):
    m, _expected = inp
    report = rep.attempt(f"sweep m={m}", lambda: api.sweep_lemmas(m, workers=1))
    if report is not None:
        rep.counters["colorings"] = report.total


def _gate_lemma(api, inp, rep):
    _m, expected = inp
    report = rep.ops[0][1]
    if report is not None:
        got = {key: getattr(report, key) for key in expected}
        if got != expected:
            rep.fail(0, f"sweep report {got} differs from {expected}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-value", _setup_value, _run_search, _gate_search),
        Workload(
            "search-certs-2w", _setup_certs, _run_search, _gate_search,
            workers=SEARCH_CERTS_WORKERS,
        ),
        Workload(
            "verify-constructions", _setup_verify, _run_verify, _gate_verify
        ),
        Workload("lemma-sweep", _setup_lemma, _run_lemma, _gate_lemma),
    )
}
