"""Command-line front end.

Six subcommands cover the workflow end to end: `compute` runs the exact
search, `construct` emits the lower-bound colorings, `verify` and
`witness` check explicit colorings against a spec, `check-lemma`
machine-validates the structure lemmas, and `table` compares closed
forms against searched values row by row.

Exit codes: 0 success, 1 contradicted formula or lemma violation,
2 usage or input error, 3 search inconclusive (cap reached).

Each subcommand prints nothing: it returns (spec, result, stats, lines,
code), and `main` renders it. Output is the text lines by default;
--json switches every subcommand to a machine schema with the fixed
envelope {command, spec, result, stats, version}. JSON serialization is
deterministic (sorted keys), so runs with different worker counts differ
at most in the stats block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .checker import ProblemSpec, Witness, exists_solution
from .coloring import (
    _require_codec,
    _require_count,
    format_run_string,
    parse_run_string,
)
from .constructions import lower_bound_coloring, verify_avoiding
from .errors import (
    DiamRamseyError,
    FormulaContradictedError,
    LemmaViolationError,
    SearchBudgetError,
)
from .lemmas import check_lemma22, classify_lemma21, find_extremal_b1, sweep_lemmas
from .search import _CLOSED_FORMS, SearchConfig, compute_f, known_value

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_REFUTED = 1
_EXIT_USAGE = 2
_EXIT_INCONCLUSIVE = 3

# Node budget per table row; rows whose search would blow past this are
# reported as skipped instead of stalling the whole table.
_TABLE_NODE_BUDGET = 5_000_000

# family -> (number of sets, number of colors); all sets have size m
_FAMILIES = {"m" * t + str(r): (t, r) for t, r in _CLOSED_FORMS}

_Outcome = tuple[ProblemSpec | None, dict, dict | None, list[str], int]


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _resolve_workers(requested: int | None) -> int:
    """--workers wins; otherwise DIAM_RAMSEY_WORKERS; otherwise 1."""
    if requested is not None:
        _require_count(requested, "--workers", 1)
        return requested
    env = os.environ.get("DIAM_RAMSEY_WORKERS")
    if env is None:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(
            f"DIAM_RAMSEY_WORKERS must be an integer, got {env!r}"
        )
    _require_count(workers, "DIAM_RAMSEY_WORKERS", 1)
    return workers


def _spec(args: argparse.Namespace) -> ProblemSpec:
    return ProblemSpec(
        sizes=args.sizes, num_colors=args.colors, strict=args.strict
    )


def _braced(elements) -> str:
    return "{" + ",".join(map(str, elements)) + "}"


def _format_witness(w: Witness) -> str:
    return ",".join(_braced(s.elements) for s in w.sets)


# ======================================================================
# subcommands: each returns (spec, result, stats, lines, exit code)
# ======================================================================

def _cmd_compute(args: argparse.Namespace) -> _Outcome:
    spec = _spec(args)
    mode = {
        "none": "value_only",
        "one": "one_certificate",
        "all": "all_certificates",
    }[args.certificates]
    if args.cap is not None:
        _require_count(args.cap, "--cap", 1)
    elif known_value(spec) is None:
        raise ValueError(f"no closed form known for {spec.label()}; pass --cap")
    if mode != "value_only":
        _require_codec(spec.num_colors)  # fail before the search, not after
    config = SearchConfig(
        n_cap=args.cap, mode=mode, worker_count=_resolve_workers(args.workers)
    )
    result = compute_f(spec, config)
    body = result.to_json()
    body.pop("spec")
    stats = body.pop("stats")
    if result.inconclusive:
        lines = [f"{spec.label()} > {result.n_cap} (cap reached; inconclusive)"]
    else:
        lines = [f"{spec.label()} = {result.f_value}"]
    lines += [f"certificate: {c}" for c in body["certificates"]]
    st = result.stats
    lines.append(
        f"nodes expanded: {st.nodes_expanded}, "
        f"max depth: {st.max_depth}, "
        f"wall time: {st.wall_time:.2f}s, "
        f"workers: {st.worker_count}"
    )
    code = _EXIT_INCONCLUSIVE if result.inconclusive else _EXIT_OK
    return spec, body, stats, lines, code


def _cmd_construct(args: argparse.Namespace) -> _Outcome:
    c = lower_bound_coloring(args.m, force_general=args.force_general)
    spec = ProblemSpec(sizes=(args.m,) * 3, num_colors=2)
    text = format_run_string(c)
    return spec, {"coloring": text, "length": c.length}, None, [text], _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> _Outcome:
    spec = _spec(args)
    c = parse_run_string(args.string, num_colors=args.colors)
    report = verify_avoiding(c, spec)
    body = report.to_json()
    body.pop("spec")
    lines = [
        f"spec: {spec.label()}",
        f"length: {report.length}",
        f"avoids: {'true' if report.avoids else 'false'}",
    ]
    if report.witness is not None:
        lines.append(f"witness: {_format_witness(report.witness)}")
    return spec, body, None, lines, _EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> _Outcome:
    spec = _spec(args)
    c = parse_run_string(args.string, num_colors=args.colors)
    w = exists_solution(c, spec)
    if w is None:
        return spec, {"witness": None}, None, ["none"], _EXIT_OK
    lines = [
        _format_witness(w),
        f"colors: {','.join(map(str, w.colors))}",
        f"diameters: {','.join(map(str, w.diams))}",
    ]
    return spec, {"witness": w.to_json()}, None, lines, _EXIT_OK


def _cmd_check_lemma(args: argparse.Namespace) -> _Outcome:
    if args.exhaustive:
        report = sweep_lemmas(args.m, workers=_resolve_workers(args.workers))
        cc, bc = report.case_counts, report.branch_counts
        lines = [
            f"lemma {args.which}, m = {report.m}: "
            f"all {report.total} colorings of [1,{3 * report.m - 2}]",
            f"  cases: no_b1={cc['no_b1']} (i)={cc['i']} "
            f"(ii)={cc['ii']} (iii)={cc['iii']}",
            f"  branches: no_big_set={bc['no_big_set']} "
            f"big_set={bc['big_set']}, ties={report.ties}",
            "PASS: zero violations",
        ]
        result = {"which": args.which, "pass": True, **report.to_json()}
        return None, result, None, lines, _EXIT_OK

    # single-coloring mode
    c = parse_run_string(args.string, num_colors=2)
    if args.which == "2.1":
        ext = find_extremal_b1(c, args.m)
        if ext is None:
            result: dict = {"which": "2.1", "big_set": None}
            lines = ["no big set; lemma 2.1 is vacuous here"]
        else:
            case = classify_lemma21(c, args.m)
            result = {
                "which": "2.1",
                "big_set": list(ext.b1.elements),
                "color": ext.color_c1,
                "beta": ext.beta,
                "alpha": ext.alpha,
                "case": case.case_tag,
                "mask": list(case.mask),
                "mu": case.mu,
                "nu": case.nu,
                "substrings": [
                    {"name": n, "digits": d, "span": list(span)}
                    for n, d, span in case.h_strings
                ],
            }
            lines = [
                f"B1 = {_braced(ext.b1.elements)} "
                f"(color {ext.color_c1}, beta={ext.beta}, alpha={ext.alpha})",
                f"case ({case.case_tag}), mask {'/'.join(case.mask)}, "
                f"mu={case.mu}, nu={case.nu}",
            ]
    else:
        finding = check_lemma22(c, args.m)
        result = {"which": "2.2", "branch": finding.branch}
        lines = [f"branch: {finding.branch}"]
        for name in ("d1", "d2", "a1", "a2", "a3"):
            s = getattr(finding, name)
            result[name] = None if s is None else list(s.elements)
            if s is not None:
                lines.append(f"{name} = {_braced(s.elements)}")
    return None, result, None, lines + ["PASS"], _EXIT_OK


def _cmd_table(args: argparse.Namespace) -> _Outcome:
    _require_count(args.m_max, "--m-max", 2)
    t, r = _FAMILIES[args.family]
    workers = _resolve_workers(args.workers)
    rows = []
    lines = [f"{'m':>4} {'formula':>8} {'computed':>9}  status"]
    for m in range(2, args.m_max + 1):
        spec = ProblemSpec(sizes=(m,) * t, num_colors=r)
        predicted = known_value(spec)
        assert predicted is not None  # every listed family has a closed form
        config = SearchConfig(
            n_cap=predicted,
            mode="value_only",
            worker_count=workers,
            max_nodes=_TABLE_NODE_BUDGET,
        )
        try:
            result = compute_f(spec, config)
        except SearchBudgetError:
            computed, status = None, "skipped (budget)"
        else:
            # n_cap is the closed form, so reaching it raises, not returns.
            computed = result.f_value
            status = "ok" if computed == predicted else "MISMATCH"
        rows.append({"m": m, "formula": predicted, "computed": computed,
                     "status": status})
        shown = "-" if computed is None else computed
        lines.append(f"{m:>4} {predicted:>8} {shown:>9}  {status}")
    mismatch = any(row["status"] == "MISMATCH" for row in rows)
    code = _EXIT_REFUTED if mismatch else _EXIT_OK
    return None, {"family": args.family, "rows": rows}, None, lines, code


# ======================================================================
# parser plumbing
# ======================================================================

def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", type=_sizes_arg, required=True,
                   help="comma-separated set sizes, e.g. 2,2,2")
    p.add_argument("--colors", type=int, required=True,
                   help="number of colors r")
    p.add_argument("--strict", action="store_true",
                   help="strictly increasing diameters (f*)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diam-ramsey",
        description="Exact solver and verifier for nondecreasing-diameter "
                    "Ramsey numbers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute f exactly by search")
    _add_spec_flags(p)
    p.add_argument("--cap", type=int, default=None,
                   help="maximum length to explore (default: closed form + 2)")
    p.add_argument("--certificates", choices=("none", "one", "all"),
                   default="one", help="certificate collection mode")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("construct", help="emit the lower-bound coloring")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--force-general", action="store_true",
                   help="general family even where a special string is longer")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring against a spec")
    p.add_argument("--string", required=True,
                   help="run-length coloring string, e.g. 0^210^3")
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-lemma", help="validate the structure lemmas")
    p.add_argument("--which", choices=("2.1", "2.2"), required=True)
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true",
                       help="sweep all 2^(3m-2) colorings")
    group.add_argument("--string",
                       help="check one run-length coloring string")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_check_lemma)

    p = sub.add_parser("witness", help="print the canonical solution chain")
    p.add_argument("--string", required=True)
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("table", help="closed form vs computed, row by row")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_table)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors via exit(2)
        return int(exc.code or 0)
    try:
        spec, result, stats, lines, code = args.func(args)
    except (FormulaContradictedError, LemmaViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REFUTED
    except (DiamRamseyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except MemoryError:  # an input too large to hold, such as 0^{10^12}
        print("error: out of memory", file=sys.stderr)
        return _EXIT_USAGE
    if args.json:
        doc = {
            "command": args.command,
            "spec": None if spec is None else spec.to_json(),
            "result": result,
            "stats": stats,
            "version": __version__,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
