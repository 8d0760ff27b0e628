"""Exact computation of f values by pruned depth-first search.

The value f(m1, ..., mt; r) is one more than the length of the longest
coloring containing no solution chain. The search grows colorings position
by position, pruning any prefix that already contains a solution (sound:
solutions persist under extension), and reports the maximum avoiding
length reached together with the avoiding colorings at that length.

compute_f explores one representative per color-permutation orbit: a
prefix may introduce a new color only as the smallest color index not yet
used. enumerate_avoiding walks the unreduced tree and has no orbit option;
the representatives at a length come from compute_f. Every run is
cut into n = min(workers, usable CPUs) parts, one process each (no process
at all when n is 1). Each part walks the shallow levels itself and deals
the avoiding prefixes at a fixed depth round-robin in DFS order, keeping
only its own subtrees; the merge (max over part maxima, sorted certificate
union, summed node counts) fixes the result, so it does not depend on the
worker count. stats.worker_count still reports the requested count.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from multiprocessing import Pool

from .checker import IncrementalState, ProblemSpec, exists_solution
from .coloring import Coloring, format_run_string
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

# Length of the avoiding prefixes dealt to the parts of a run: the i-th in
# DFS order goes to part i % parts, and part 0 owns every shorter prefix.
_SPLIT_DEPTH = 12


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
        if self.n_cap is not None and self.n_cap < 1:
            raise ValueError(f"n_cap must be >= 1, got {self.n_cap}")
        if self.mode not in _CERT_CAP:
            raise ValueError(
                f"mode must be one of {tuple(_CERT_CAP)}, got {self.mode!r}"
            )
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


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
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
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
    """Internal: a part passed max_nodes or reached its certificate limit."""


def _search_from(
    spec: ProblemSpec,
    n_cap: int,
    mode: str,
    symmetry: bool,
    guard: int | None,
    max_nodes: int | None,
    part: int,
    parts: int,
    limit: int | None = None,
) -> tuple[int, list[tuple[int, ...]], int]:
    """Walk the avoiding tree from the root, keeping part `part` of `parts`.

    The avoiding prefixes of length _SPLIT_DEPTH are dealt in DFS order:
    the i-th goes to part i % parts, and part 0 also owns every shorter
    prefix. Every part walks the shallow levels, but it counts nodes and
    records lengths and certificates only where it owns them, so the parts
    add up to exactly one whole walk.

    Returns (best length, certificates at that length in lexicographic
    order, nodes expanded) over the owned nodes; a part that owns nothing
    returns (0, [], 0). The walk stops as soon as the count passes
    max_nodes (so a count above it marks a partial result) or, in
    all_certificates mode, once `limit` certificates of length n_cap are
    recorded. Raises FormulaContradictedError when an avoiding coloring of
    length >= guard appears.
    """
    state = IncrementalState(spec)
    # The state holds the prefix: extend appends x, retract drops it.
    extend, retract, digits = state.extend, state.retract, state._digits
    r = spec.num_colors
    cap = _CERT_CAP[mode]
    split = _SPLIT_DEPTH
    lead = part == 0
    best = 0
    certs: list[tuple[int, ...]] = []
    nodes = 0
    dealt = 0

    def dfs(depth: int, used: int) -> None:
        nonlocal best, nodes, dealt
        if depth >= n_cap:
            return
        cmax = min(r - 1, used)
        d = depth + 1
        mine = lead or d > split
        for x in range(cmax + 1):
            if mine:
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    raise _Stop
            if not extend(x):
                if guard is not None and d >= guard:
                    raise FormulaContradictedError(
                        f"avoiding coloring of length {d} found, but "
                        f"{spec.label()} = {guard} was expected: "
                        "FORMULA CONTRADICTED",
                        coloring=Coloring(digits, r),
                        expected=guard,
                    )
                keep = mine
                if d == split:
                    keep = dealt % parts == part
                    dealt += 1
                if keep and d >= best:
                    if d > best:
                        best = d
                        certs.clear()
                    if cap is None or len(certs) < cap:
                        certs.append(tuple(digits))
                        if len(certs) == limit and d == n_cap:
                            raise _Stop
                if keep or d < split:
                    dfs(d, max(used, x + 1))
            retract()

    with suppress(_Stop):
        # used = r opens every color at every depth: the unreduced tree.
        dfs(0, 0 if symmetry else r)
    return best, certs, nodes


def _worker_search(args: tuple) -> tuple[int, list[tuple[int, ...]], int]:
    return _search_from(*args)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _job_results(fn, args: tuple, workers: int):
    """Yield an iterator of fn(args + (k, n)) for k < n, in any order.

    n = min(workers, usable CPUs) parts run one process each; with n == 1
    fn runs in this process and none is started. Leaving the block
    terminates the pool, whether the loop ended, broke off or raised.
    """
    n = min(workers, _usable_cpus())
    jobs = [args + (k, n) for k in range(n)]
    if n == 1:
        yield map(fn, jobs)
        return
    with Pool(n) as pool:
        yield pool.imap_unordered(fn, jobs)


def compute_f(spec: ProblemSpec, config: SearchConfig | None = None) -> SearchResult:
    """Compute f for the given spec by exhaustive pruned search.

    The value is 1 + (maximum avoiding length). If some branch is still
    avoiding at config.n_cap the result is inconclusive (f > n_cap) rather
    than a value. When a closed form is known for the spec, finding an
    avoiding coloring at least that long raises FormulaContradictedError:
    either the formula table or the search would have to be wrong, and the
    run must fail loudly rather than return.

    Raises:
        SearchBudgetError: more than config.max_nodes nodes expanded over
            the whole search. The raise/return decision is the same at
            every worker count; the partial statistics riding on the
            exception may differ.
        FormulaContradictedError: see above.
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
    args = (spec, n_cap, mode, True, guard, max_nodes)
    best, certs, nodes, budget_hit = 0, [], 0, False
    with _job_results(_worker_search, args, config.worker_count) as results:
        for wbest, wcerts, wnodes in results:
            nodes += wnodes
            if wbest > best:
                best, certs = wbest, wcerts
            elif wbest == best:
                certs.extend(wcerts)
            # A part that hit its cap counted more than max_nodes itself.
            if max_nodes is not None and nodes > max_nodes:
                budget_hit = True
                break
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


def enumerate_avoiding(
    spec: ProblemSpec, length: int, limit: int | None = None
) -> list[Coloring]:
    """Avoiding colorings of exactly the given length, lexicographically.

    Returns at most `limit` colorings (all of them when limit is None).
    When any exist, compute_f with n_cap=length and mode "all_certificates"
    returns one representative per color-permutation orbit of them.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    best, found, _nodes = _search_from(
        spec, length, "all_certificates", False, None, None, 0, 1, limit
    )
    return [Coloring(t, spec.num_colors) for t in found] if best == length else []
