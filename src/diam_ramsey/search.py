"""Exact computation of f values by pruned depth-first search.

The value f(m1, ..., mt; r) is one more than the length of the longest
coloring containing no solution chain. The search grows colorings position
by position, pruning any prefix that already contains a solution (sound:
solutions persist under extension), and reports the maximum avoiding
length reached together with the avoiding colorings at that length.

Symmetry reduction explores one representative per color-permutation
orbit: a prefix may introduce a new color only as the smallest color index
not yet used. Parallel runs split the tree at a fixed depth and farm the
subtrees to worker processes; the merge (max over subtree maxima, sorted
certificate union) is associative, so results do not depend on the worker
count. At most one process runs per CPU and per job, whatever count is
requested; stats.worker_count still reports the requested count.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
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

_MODES = ("value_only", "one_certificate", "all_certificates")

# Tree depth at which parallel runs hand subtrees to workers.
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
    symmetry_reduction: bool = True
    worker_count: int = 1
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.n_cap is not None and self.n_cap < 1:
            raise ValueError(f"n_cap must be >= 1, got {self.n_cap}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    max_depth: int
    wall_time: float
    worker_count: int

    def to_json(self) -> dict:
        return {
            "nodes_expanded": self.nodes_expanded,
            "max_depth": self.max_depth,
            "wall_time": self.wall_time,
            "worker_count": self.worker_count,
        }


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


def known_value(spec: ProblemSpec) -> int | None:
    """Closed-form value of f for the families that have one, else None.

    Covers f(m,m;2) = 5m-3, f(m,m;3) = 9m-7, f(m,m;4) = 12m-9, and
    f(m,m,m;2). The strict variant has no covered closed form.
    """
    if spec.strict:
        return None
    sizes = spec.sizes
    if len(sizes) == 2 and sizes[0] == sizes[1]:
        m = sizes[0]
        if spec.num_colors == 2:
            return 5 * m - 3
        if spec.num_colors == 3:
            return 9 * m - 7
        if spec.num_colors == 4:
            return 12 * m - 9
    if len(sizes) == 3 and sizes[0] == sizes[1] == sizes[2]:
        if spec.num_colors == 2:
            return formula_f_mmm2(sizes[0])
    return None


# ======================================================================
# core DFS
# ======================================================================

class _BudgetHit(Exception):
    """Internal: node budget exhausted mid-subtree."""


def _replay_prefix(spec: ProblemSpec, prefix: tuple[int, ...]) -> IncrementalState:
    state = IncrementalState(spec)
    for color in prefix:
        if state.extend(color):
            raise AssertionError("subtree stub must be an avoiding prefix")
    return state


def _search_from(
    spec: ProblemSpec,
    prefix: tuple[int, ...],
    n_cap: int,
    mode: str,
    symmetry: bool,
    guard: int | None,
    max_nodes: int | None,
) -> tuple[int, list[tuple[int, ...]], int, bool]:
    """Exhaust the avoiding subtree under `prefix`.

    Returns (best length, certificates at that length in lexicographic
    order, nodes expanded, budget_hit). The prefix itself counts: an
    avoiding prefix of length L yields best >= L. Raises
    FormulaContradictedError when an avoiding coloring of length >= guard
    appears.
    """
    state = _replay_prefix(spec, prefix)
    r = spec.num_colors
    best = len(prefix)
    certs: list[tuple[int, ...]] = [prefix] if mode != "value_only" else []
    nodes = 0
    budget_hit = False
    digits = list(prefix)

    def dfs(depth: int, used: int) -> None:
        nonlocal best, nodes
        if depth >= n_cap:
            return
        cmax = min(r - 1, used) if symmetry else r - 1
        for x in range(cmax + 1):
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise _BudgetHit
            if not state.extend(x):
                digits.append(x)
                d = depth + 1
                if guard is not None and d >= guard:
                    raise FormulaContradictedError(
                        f"avoiding coloring of length {d} found, but "
                        f"{spec.label()} = {guard} was expected: "
                        "FORMULA CONTRADICTED",
                        coloring=Coloring(digits, r),
                        expected=guard,
                    )
                if d > best:
                    best = d
                    if mode == "all_certificates":
                        certs.clear()
                        certs.append(tuple(digits))
                    elif mode == "one_certificate":
                        certs[:] = [tuple(digits)]
                elif d == best and mode == "all_certificates":
                    certs.append(tuple(digits))
                dfs(d, max(used, x + 1) if symmetry else used)
                digits.pop()
            state.retract()

    used0 = (max(prefix) + 1) if prefix else 0
    try:
        dfs(len(prefix), used0 if symmetry else 0)
    except _BudgetHit:
        budget_hit = True
    return best, certs, nodes, budget_hit


def _worker_search(args: tuple) -> tuple[int, list[tuple[int, ...]], int, bool]:
    return _search_from(*args)


@contextmanager
def _job_results(fn, jobs: list, workers: int):
    """Yield an iterator of fn(job) over jobs, in any order.

    Runs at most one process per CPU and per job; with a single process it
    maps in this process and starts none. Leaving the block terminates the
    pool, whether the loop ended, broke off or raised.
    """
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs <= 1:
        yield map(fn, jobs)
        return
    with Pool(procs) as pool:
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
    symmetry = config.symmetry_reduction

    if config.worker_count == 1 or n_cap <= _SPLIT_DEPTH:
        best, certs, nodes, budget_hit = _search_from(
            spec, (), n_cap, mode, symmetry, guard, config.max_nodes
        )
    else:
        # The parent walks the tree down to the split depth. The avoiding
        # prefixes at that depth are the subtree stubs; when the tree dies
        # earlier, the walk's own certificates are the answer.
        best, stubs, nodes, budget_hit = _search_from(
            spec, (), _SPLIT_DEPTH, "all_certificates", symmetry, guard,
            config.max_nodes,
        )
        certs = [] if mode == "value_only" else stubs
        if best == _SPLIT_DEPTH and not budget_hit:
            # Each job may spend what the walk left of the budget; a job
            # that overspends pushes the running total past it too.
            max_nodes = config.max_nodes
            cap = None if max_nodes is None else max_nodes - nodes
            jobs = [
                (spec, stub, n_cap, mode, symmetry, guard, cap)
                for stub in stubs
            ]
            best = 0
            certs = []
            with _job_results(
                _worker_search, jobs, config.worker_count
            ) as results:
                for wbest, wcerts, wnodes, _hit in results:
                    nodes += wnodes
                    if max_nodes is not None and nodes > max_nodes:
                        budget_hit = True
                        break
                    if wbest > best:
                        best = wbest
                        certs = wcerts
                    elif wbest == best:
                        certs.extend(wcerts)
            certs.sort()

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
    if mode == "one_certificate" and len(certs) > 1:
        certs = [min(certs)]
    colorings = tuple(Coloring(t, spec.num_colors) for t in certs)
    # Belt and suspenders: certificates must survive the full checker.
    for cert in colorings:
        if exists_solution(cert, spec) is not None:
            raise AssertionError(
                "search reported a certificate that contains a solution"
            )
    if best >= n_cap:
        return SearchResult(
            spec=spec,
            f_value=None,
            inconclusive=True,
            n_cap=n_cap,
            certificates=colorings,
            stats=stats,
        )
    return SearchResult(
        spec=spec,
        f_value=best + 1,
        inconclusive=False,
        n_cap=n_cap,
        certificates=colorings,
        stats=stats,
    )


def enumerate_avoiding(
    spec: ProblemSpec,
    length: int,
    limit: int | None = None,
    symmetry_reduction: bool = False,
) -> list[Coloring] | list[tuple[Coloring, int]]:
    """Avoiding colorings of exactly the given length, lexicographically.

    Returns at most `limit` colorings (all of them when limit is None).
    With symmetry_reduction the list holds one representative per
    color-permutation orbit paired with its orbit size r!/(r-u)! where u
    is the number of distinct colors the representative uses.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    r = spec.num_colors
    best, found, _nodes, _hit = _search_from(
        spec, (), length, "all_certificates", symmetry_reduction, None, None
    )
    found = found[:limit] if best == length else []
    if not symmetry_reduction:
        return [Coloring(t, r) for t in found]
    return [(Coloring(t, r), math.perm(r, len(set(t)))) for t in found]
