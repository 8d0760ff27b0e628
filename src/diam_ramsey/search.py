"""Exact computation of f values by pruned depth-first search.

The value f(m1, ..., mt; r) is one more than the length of the longest
coloring containing no solution chain. The search grows colorings position
by position, pruning any prefix that already contains a solution (sound:
solutions persist under extension), and reports the maximum avoiding
length reached together with the avoiding colorings at that length.

compute_f explores one representative per color-permutation orbit: a
prefix may introduce a new color only as the smallest color index not yet
used; enumerate_avoiding expands those representatives at a length into
their orbits. Every run is cut into n = min(workers, usable CPUs) parts.
At n = 1 the whole walk runs in the calling process and none is started.
At n > 1 the caller first walks the shallow levels a level at a time,
down to the shallowest level with at least _DEAL_PER_PART * n avoiding
prefixes, as cube-and-conquer cuts a problem into cubes, and deals those
prefixes round-robin in lexicographic order. It then starts n - 1 child
processes for parts 1..n-1, walks part 0 itself, and reads the children's
results in turn; each part walks only below its own prefixes. One merge
of the levels and the parts (max depth, sorted certificate union at that
depth, summed node counts) fixes the result, so it does not depend on the
worker count. stats.worker_count still reports the requested count.
"""

from __future__ import annotations

import os
import time
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import permutations
from multiprocessing import Pipe, Process

from .checker import IncrementalState, ProblemSpec, exists_solution
from .coloring import Coloring, _require_count, format_run_string
from .errors import FormulaContradictedError, SearchBudgetError

__all__ = [
    "SearchConfig",
    "SearchStats",
    "SearchResult",
    "compute_f",
    "formula_f_mmm2",
    "known_value",
    "enumerate_avoiding",
]

# Certificates each mode keeps at the best length (None: all of them).
_CERT_CAP = {"value_only": 0, "one_certificate": 1, "all_certificates": None}

# A run cut into n > 1 parts deals them the avoiding prefixes of the
# shallowest level that holds at least this many per part.
_DEAL_PER_PART = 256


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for compute_f.

    n_cap bounds the explored length (default: known closed form plus 2,
    required explicitly when no closed form applies). mode controls
    certificate collection. max_nodes aborts the search with partial
    statistics when the nodes expanded over the whole search exceed it.
    Whether a run raises or returns is the same at every worker count; the
    partial count carried on the error may differ.
    """

    n_cap: int | None = None
    mode: str = "one_certificate"
    worker_count: int = 1
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        for name in ("n_cap", "worker_count", "max_nodes"):
            value = getattr(self, name)
            # n_cap and max_nodes may be None: no cap, no budget
            if value is not None or name == "worker_count":
                _require_count(value, name, 1)
        modes = tuple(_CERT_CAP)
        # A tuple compares by ==, so an unhashable mode is refused too.
        if self.mode not in modes:
            raise ValueError(f"mode must be one of {modes}, got {self.mode!r}")


@dataclass(frozen=True)
class SearchStats:
    """Counters of a compute_f run.

    max_depth is the longest avoiding length reached: f - 1 on a conclusive
    run, n_cap on an inconclusive one, and the deepest length so far on a
    SearchBudgetError.
    """

    nodes_expanded: int
    max_depth: int
    wall_time: float
    worker_count: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a compute_f run.

    Conclusive runs carry f_value and certificates of length f_value - 1.
    When every branch reached n_cap still avoiding, the run is marked
    inconclusive (f exceeds n_cap) and the certificates have length n_cap.
    """

    spec: ProblemSpec
    f_value: int | None
    inconclusive: bool
    n_cap: int
    certificates: tuple[Coloring, ...]
    stats: SearchStats

    def to_json(self) -> dict:
        out: dict = {"spec": self.spec.to_json()}
        if self.inconclusive:
            out["inconclusive"] = {"f_greater_than": self.n_cap}
        else:
            out["f_value"] = self.f_value
        out["certificates"] = [format_run_string(c) for c in self.certificates]
        out["stats"] = self.stats.to_json()
        return out


def formula_f_mmm2(m: int) -> int:
    """Closed form for f(m,m,m;2): 8m-5+floor((2m-2)/3), plus 1 at m in {2,5}."""
    _require_count(m, "m", 2)
    return 8 * m - 5 + (2 * m - 2) // 3 + (1 if m in (2, 5) else 0)


# (number of sets, number of colors) -> f(m, ..., m; r) as a function of m
_CLOSED_FORMS = {
    (2, 2): lambda m: 5 * m - 3,
    (2, 3): lambda m: 9 * m - 7,
    (2, 4): lambda m: 12 * m - 9,
    (3, 2): formula_f_mmm2,
}


def known_value(spec: ProblemSpec) -> int | None:
    """Closed-form value of f for the families that have one, else None.

    The families are the keys of _CLOSED_FORMS, each with all sets of one
    size m: f(m,m;2) = 5m-3, f(m,m;3) = 9m-7, f(m,m;4) = 12m-9, and
    f(m,m,m;2). The strict variant has no covered closed form.
    """
    form = _CLOSED_FORMS.get((spec.t, spec.num_colors))
    if spec.strict or form is None or len(set(spec.sizes)) != 1:
        return None
    return form(spec.sizes[0])


# ======================================================================
# core DFS
# ======================================================================

class _Stop(Exception):
    """Internal: a part passed max_nodes."""


def _search_from(
    spec: ProblemSpec,
    n_cap: int,
    mode: str,
    guard: int | None,
    max_nodes: int | None,
    prefixes: list[tuple[int, ...]],
) -> tuple[int, list[tuple[int, ...]], int]:
    """Walk the avoiding tree below each of the avoiding prefixes, in order.

    Each prefix is replayed into the state (keeping what it shares with the
    one before) and only the nodes below it are walked, so [()] is the
    whole walk and the walks below the prefixes of one level add up to the
    walk below that level.

    Returns (best length, certificates at that length in lexicographic
    order, nodes expanded) over the nodes below the prefixes; with none
    avoiding it returns (0, [], nodes). The walk stops as soon as the count
    passes max_nodes, so a count above it marks a partial result. Raises
    FormulaContradictedError when an avoiding coloring of length >= guard
    appears.
    """
    state = IncrementalState(spec)
    # The state holds the prefix: extend appends x unless x closes a
    # solution, and retract drops it.
    extend, retract, digits = state.extend, state.retract, state._digits
    r = spec.num_colors
    cap = _CERT_CAP[mode]
    best = 0
    certs: list[tuple[int, ...]] = []
    nodes = 0

    def dfs(depth: int, used: int) -> None:
        nonlocal best, nodes
        if depth >= n_cap:
            return
        cmax = used if used < r else r - 1
        d = depth + 1
        for x in range(cmax + 1):
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise _Stop
            if extend(x):
                continue
            if guard is not None and d >= guard:
                raise FormulaContradictedError(
                    f"avoiding coloring of length {d} found, but "
                    f"{spec.label()} = {guard} was expected: "
                    "FORMULA CONTRADICTED",
                    coloring=Coloring(digits, r),
                    expected=guard,
                )
            if d >= best:
                if d > best:
                    best = d
                    certs.clear()
                if cap is None or len(certs) < cap:
                    certs.append(tuple(digits))
            dfs(d, used if x < used else x + 1)
            retract()

    with suppress(_Stop):
        for prefix in prefixes:
            k = 0
            while k < len(digits) and digits[k] == prefix[k]:
                k += 1
            for _ in range(len(digits) - k):
                retract()
            for x in prefix[k:]:
                extend(x)
            # A representative's colors are 0..max in order of appearance.
            dfs(len(prefix), max(prefix, default=-1) + 1)
    return best, certs, nodes


def _levels(
    spec: ProblemSpec,
    n_cap: int,
    guard: int | None,
    max_nodes: int | None,
    parts: int,
) -> tuple[list[tuple], list[tuple[int, ...]]]:
    """The shallow levels of the walk, and the prefixes to deal below them.

    Walks the avoiding tree a level at a time, each level one _search_from
    call in all_certificates mode one deeper than the last level's avoiding
    prefixes, until a level holds _DEAL_PER_PART * parts of them. Returns
    the levels' _search_from triples, in order, and that level's prefixes
    in lexicographic order; they are [] when the levels already are the
    whole walk (no prefix avoids one level further, or n_cap is reached)
    or passed max_nodes.
    """
    walked, nodes = [], 0
    prefixes: list[tuple[int, ...]] = [()]
    while len(prefixes) < _DEAL_PER_PART * parts:
        left = None if max_nodes is None else max_nodes - nodes
        depth, level, count = walk = _search_from(
            spec, len(prefixes[0]) + 1, "all_certificates", guard, left, prefixes
        )
        walked.append(walk)
        nodes += count
        if depth in (0, n_cap) or (left is not None and count > left):
            return walked, []
        prefixes = level
    return walked, prefixes


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parts(workers: int) -> int:
    """Parts a run at this worker count is cut into: min(workers, CPUs)."""
    return min(workers, _usable_cpus())


def _deal(prefixes: list, parts: int) -> list[list]:
    """The prefixes dealt round-robin into n = min(parts, len(prefixes))
    parts, so none is empty: part k gets the k-th, the (k + n)-th and so
    on, in their order."""
    n = min(parts, len(prefixes))
    return [prefixes[k::n] for k in range(n)]


def _report(conn, fn, args: tuple) -> None:
    """A child's part: send fn(*args), or the exception it raised."""
    try:
        out = fn(*args)
    except Exception as exc:
        out = exc
    conn.send(out)


def _job_results(fn, jobs: list[tuple]) -> list:
    """[fn(*job) for job in jobs]: jobs[0] here, each other job in a child.

    Each child is a Process of the default start method, started before
    jobs[0] runs and sending its result or exception back over a Pipe (no
    fn returns an exception). The children are read in turn; a child's
    exception is raised here, and one that dies without reporting is a
    RuntimeError, not a hang. One job starts no process. Returned or
    raised, every child is terminated and joined and its Pipe end closed.
    """
    children = []
    try:
        for job in jobs[1:]:
            recv, send = Pipe(duplex=False)
            proc = Process(target=_report, args=(send, fn, job), daemon=True)
            proc.start()
            # Only the child holds the write end now: its death is an EOF.
            send.close()
            children.append((proc, recv))
        results = [fn(*jobs[0])]
        for proc, recv in children:
            try:
                out = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a worker process exited with code {proc.exitcode} "
                    "without reporting its part"
                ) from None
            if isinstance(out, Exception):
                raise out
            results.append(out)
        return results
    finally:
        for proc, recv in children:
            proc.terminate()
        for proc, recv in children:
            proc.join()
            recv.close()


def compute_f(spec: ProblemSpec, config: SearchConfig | None = None) -> SearchResult:
    """Compute f for the given spec by exhaustive pruned search.

    The value is 1 + (maximum avoiding length). If some branch is still
    avoiding at config.n_cap the result is inconclusive (f > n_cap) rather
    than a value. When a closed form is known for the spec, finding an
    avoiding coloring at least that long raises FormulaContradictedError:
    either the formula table or the search would have to be wrong, and the
    run must fail loudly rather than return.

    With n = min(config.worker_count, usable CPUs) > 1 parts, _levels walks
    the shallow levels here and deals their prefixes, and _job_results
    walks part 0 here and the other parts in n - 1 child processes (see
    the module docstring); each part stops after the nodes the levels left
    of max_nodes. At n = 1 the walk runs here from the empty prefix.

    Raises:
        SearchBudgetError: more than config.max_nodes nodes expanded over
            the whole search. The raise/return decision is the same at
            every worker count; the partial statistics riding on the
            exception may differ.
        FormulaContradictedError: see above; a part raises it even when
            another part passed the budget.
        ValueError: no n_cap given and no closed form known for the spec.
    """
    if config is None:
        config = SearchConfig()
    guard = known_value(spec)
    if config.n_cap is not None:
        n_cap = config.n_cap
    elif guard is not None:
        n_cap = guard + 2
    else:
        raise ValueError(
            f"no closed form known for {spec.label()}; supply SearchConfig.n_cap"
        )
    t0 = time.perf_counter()
    mode = config.mode
    max_nodes = config.max_nodes
    parts = _parts(config.worker_count)
    walked, prefixes = [], [()]
    if parts > 1:
        walked, prefixes = _levels(spec, n_cap, guard, max_nodes, parts)
    if prefixes:
        done = sum(count for _, _, count in walked)
        left = None if max_nodes is None else max_nodes - done
        jobs = [
            (spec, n_cap, mode, guard, left, dealt)
            for dealt in _deal(prefixes, parts)
        ]
        walked += _job_results(_search_from, jobs)
    best = max(depth for depth, _, _ in walked)
    certs = [c for depth, found, _ in walked if depth == best for c in found]
    nodes = sum(count for _, _, count in walked)
    budget_hit = max_nodes is not None and nodes > max_nodes
    certs = sorted(certs)[: _CERT_CAP[mode]]

    wall = time.perf_counter() - t0
    stats = SearchStats(
        nodes_expanded=nodes,
        max_depth=best,
        wall_time=wall,
        worker_count=config.worker_count,
    )
    if budget_hit:
        raise SearchBudgetError(
            f"node budget {config.max_nodes} exhausted for {spec.label()} "
            f"(deepest avoiding length so far: {best})",
            stats=stats,
        )
    colorings = tuple(Coloring(t, spec.num_colors) for t in certs)
    # Belt and suspenders: certificates must survive the full checker.
    for cert in colorings:
        if exists_solution(cert, spec) is not None:
            raise AssertionError(
                "search reported a certificate that contains a solution"
            )
    inconclusive = best >= n_cap
    return SearchResult(
        spec=spec,
        f_value=None if inconclusive else best + 1,
        inconclusive=inconclusive,
        n_cap=n_cap,
        certificates=colorings,
        stats=stats,
    )


def enumerate_avoiding(spec: ProblemSpec, length: int) -> list[Coloring]:
    """All avoiding colorings of exactly the given length, lexicographically.

    They are the images of compute_f's certificates at n_cap=length, the
    least member of each color-permutation orbit, under every injection of
    their colors into 0..r-1. The walk is a full one however many of them
    a caller keeps. Raises FormulaContradictedError as compute_f does.
    """
    _require_count(length, "length", 1)
    r = spec.num_colors
    res = compute_f(spec, SearchConfig(n_cap=length, mode="all_certificates"))
    if not res.inconclusive:
        return []
    found = sorted(
        tuple(image[x] for x in rep)
        for rep in res.certificates
        for image in permutations(range(r), max(rep) + 1)
    )
    return [Coloring(t, r) for t in found]
