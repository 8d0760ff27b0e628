"""Command-line front end.

Six subcommands cover the workflow end to end: `compute` runs the exact
search, `construct` emits the lower-bound colorings, `verify` and
`witness` check explicit colorings against a spec, `check-lemma`
machine-validates the structure lemmas, and `table` compares closed
forms against searched values row by row.

Exit codes: 0 success, 1 contradicted formula or lemma violation,
2 usage or input error, 3 search inconclusive (cap reached).

Output is human-readable by default; --json switches every subcommand to
a machine schema with the fixed envelope {command, spec, result, stats,
version}. JSON serialization is deterministic (sorted keys), so runs
with different worker counts differ at most in the stats block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .checker import ProblemSpec, Witness, exists_solution
from .coloring import format_run_string, parse_run_string
from .constructions import lower_bound_coloring, verify_avoiding
from .errors import (
    DiamRamseyError,
    FormulaContradictedError,
    LemmaViolationError,
    SearchBudgetError,
)
from .lemmas import check_lemma22, classify_lemma21, find_extremal_b1, sweep_lemmas
from .search import SearchConfig, compute_f, known_value

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_REFUTED = 1
_EXIT_USAGE = 2
_EXIT_INCONCLUSIVE = 3

# Node budget per table row; rows whose search would blow past this are
# reported as skipped instead of stalling the whole table.
_TABLE_NODE_BUDGET = 5_000_000

_FAMILIES: dict[str, tuple[int, int]] = {
    # family -> (number of sets, number of colors); all sets have size m
    "mm2": (2, 2),
    "mm3": (2, 3),
    "mm4": (2, 4),
    "mmm2": (3, 2),
}


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
        return requested
    env = os.environ.get("DIAM_RAMSEY_WORKERS")
    if env is None:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"DIAM_RAMSEY_WORKERS must be an integer, got {env!r}"
        )


def _emit_json(command: str, spec: ProblemSpec | None, result: dict,
               stats: dict | None) -> None:
    doc = {
        "command": command,
        "spec": None if spec is None else spec.to_json(),
        "result": result,
        "stats": stats,
        "version": __version__,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def _format_witness(w: Witness) -> str:
    return ",".join(
        "{" + ",".join(str(x) for x in s.elements) + "}" for s in w.sets
    )


# ======================================================================
# subcommands
# ======================================================================

def _cmd_compute(args: argparse.Namespace) -> int:
    spec = ProblemSpec(
        sizes=args.sizes, num_colors=args.colors, strict=args.strict
    )
    mode = {
        "none": "value_only",
        "one": "one_certificate",
        "all": "all_certificates",
    }[args.certificates]
    config = SearchConfig(
        n_cap=args.cap, mode=mode, worker_count=_resolve_workers(args.workers)
    )
    result = compute_f(spec, config)
    if args.json:
        body = result.to_json()
        body.pop("spec")
        stats = body.pop("stats")
        _emit_json("compute", spec, body, stats)
    else:
        if result.inconclusive:
            print(f"{spec.label()} > {result.n_cap} (cap reached; inconclusive)")
        else:
            print(f"{spec.label()} = {result.f_value}")
        for c in result.certificates:
            print(f"certificate: {format_run_string(c)}")
        st = result.stats
        print(
            f"nodes expanded: {st.nodes_expanded}, "
            f"max depth: {st.max_depth}, "
            f"wall time: {st.wall_time:.2f}s, "
            f"workers: {st.worker_count}"
        )
    return _EXIT_INCONCLUSIVE if result.inconclusive else _EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    c = lower_bound_coloring(args.m, force_general=args.force_general)
    spec = ProblemSpec(sizes=(args.m,) * 3, num_colors=2)
    if args.json:
        _emit_json(
            "construct",
            spec,
            {"coloring": format_run_string(c), "length": c.length},
            None,
        )
    else:
        print(format_run_string(c))
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = ProblemSpec(
        sizes=args.sizes, num_colors=args.colors, strict=args.strict
    )
    c = parse_run_string(args.string, num_colors=args.colors)
    report = verify_avoiding(c, spec)
    if args.json:
        body = report.to_json()
        body.pop("spec")
        _emit_json("verify", spec, body, None)
    else:
        print(f"spec: {spec.label()}")
        print(f"length: {report.length}")
        print(f"avoids: {'true' if report.avoids else 'false'}")
        if report.witness is not None:
            print(f"witness: {_format_witness(report.witness)}")
    return _EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    spec = ProblemSpec(
        sizes=args.sizes, num_colors=args.colors, strict=args.strict
    )
    c = parse_run_string(args.string, num_colors=args.colors)
    w = exists_solution(c, spec)
    if args.json:
        _emit_json(
            "witness",
            spec,
            {"witness": None if w is None else w.to_json()},
            None,
        )
    elif w is None:
        print("none")
    else:
        print(_format_witness(w))
        print(f"colors: {','.join(map(str, w.colors))}")
        print(f"diameters: {','.join(map(str, w.diams))}")
    return _EXIT_OK


def _cmd_check_lemma(args: argparse.Namespace) -> int:
    if args.exhaustive:
        report = sweep_lemmas(args.m, workers=_resolve_workers(args.workers))
        if args.json:
            _emit_json(
                "check-lemma",
                None,
                {"which": args.which, "pass": True, **report.to_json()},
                None,
            )
        else:
            cc, bc = report.case_counts, report.branch_counts
            print(f"lemma {args.which}, m = {report.m}: "
                  f"all {report.total} colorings of [1,{3 * report.m - 2}]")
            print(
                f"  cases: no_b1={cc['no_b1']} (i)={cc['i']} "
                f"(ii)={cc['ii']} (iii)={cc['iii']}"
            )
            print(
                f"  branches: no_big_set={bc['no_big_set']} "
                f"big_set={bc['big_set']}, ties={report.ties}"
            )
            print("PASS: zero violations")
        return _EXIT_OK

    # single-coloring mode
    c = parse_run_string(args.string, num_colors=2)
    if args.which == "2.1":
        ext = find_extremal_b1(c, args.m)
        if ext is None:
            result: dict = {"which": "2.1", "big_set": None}
            human = ["no big set; lemma 2.1 is vacuous here"]
        else:
            case = classify_lemma21(c, ext)
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
            human = [
                f"B1 = {{{','.join(map(str, ext.b1.elements))}}} "
                f"(color {ext.color_c1}, beta={ext.beta}, alpha={ext.alpha})",
                f"case ({case.case_tag}), mask {'/'.join(case.mask)}, "
                f"mu={case.mu}, nu={case.nu}",
            ]
    else:
        finding = check_lemma22(c, args.m)

        def _els(s):
            return None if s is None else list(s.elements)

        result = {
            "which": "2.2",
            "branch": finding.branch,
            "d1": _els(finding.d1),
            "d2": _els(finding.d2),
            "a1": _els(finding.a1),
            "a2": _els(finding.a2),
            "a3": _els(finding.a3),
        }
        human = [f"branch: {finding.branch}"]
        for name in ("d1", "d2", "a1", "a2", "a3"):
            s = getattr(finding, name)
            if s is not None:
                human.append(
                    f"{name} = {{{','.join(map(str, s.elements))}}}"
                )
    if args.json:
        _emit_json("check-lemma", None, result, None)
    else:
        for line in human:
            print(line)
        print("PASS")
    return _EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    t, r = _FAMILIES[args.family]
    workers = _resolve_workers(args.workers)
    rows = []
    any_mismatch = False
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
            rows.append({"m": m, "formula": predicted, "computed": None,
                         "status": "skipped (budget)"})
            continue
        computed = result.n_cap if result.inconclusive else result.f_value
        status = "ok" if computed == predicted else "MISMATCH"
        if status == "MISMATCH":
            any_mismatch = True
        rows.append({"m": m, "formula": predicted, "computed": computed,
                     "status": status})
    if args.json:
        _emit_json("table", None, {"family": args.family, "rows": rows}, None)
    else:
        print(f"{'m':>4} {'formula':>8} {'computed':>9}  status")
        for row in rows:
            computed = "-" if row["computed"] is None else row["computed"]
            print(f"{row['m']:>4} {row['formula']:>8} {computed:>9}  "
                  f"{row['status']}")
    return _EXIT_REFUTED if any_mismatch else _EXIT_OK


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("construct", help="emit the lower-bound coloring")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--force-general", action="store_true",
                   help="general family even where a special string is longer")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring against a spec")
    p.add_argument("--string", required=True,
                   help="run-length coloring string, e.g. 0^210^3")
    _add_spec_flags(p)
    p.add_argument("--json", action="store_true")
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_lemma)

    p = sub.add_parser("witness", help="print the canonical solution chain")
    p.add_argument("--string", required=True)
    _add_spec_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("table", help="closed form vs computed, row by row")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors via exit(2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormulaContradictedError, LemmaViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_REFUTED
    except (DiamRamseyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
