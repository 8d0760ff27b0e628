"""Command-line interface: output, JSON schema, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diam_ramsey.cli as cli_mod
import diam_ramsey.search as search_mod
from diam_ramsey import __version__
from diam_ramsey.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def _masked(out: str) -> str:
    """stdout with the only varying field, the wall time, replaced by *."""
    out = re.sub(r"wall time: [0-9.]+s", "wall time: *s", out)
    return re.sub(r'"wall_time": [0-9.e-]+', '"wall_time": "*"', out)


def _doc(command: str, result: dict, spec: dict | None = None,
         stats: dict | None = None) -> str:
    """The exact stdout of a --json call."""
    return json.dumps(
        {"command": command, "spec": spec, "result": result, "stats": stats,
         "version": __version__},
        indent=2, sort_keys=True,
    ) + "\n"


def _spec(*sizes: int, colors: int = 2) -> dict:
    return {"sizes": list(sizes), "num_colors": colors, "strict": False}


# (argv, exit code, full stdout with the wall time masked)
GOLDEN = [
    ("compute --sizes 2,2 --colors 2", 0,
     "f(2,2;2) = 7\n"
     "certificate: 010^31\n"
     "nodes expanded: 45, max depth: 6, wall time: *s, workers: 1\n"),
    ("compute --sizes 2,2 --colors 4 --cap 10", 3,
     "f(2,2;4) > 10 (cap reached; inconclusive)\n"
     "certificate: 012010^323\n"
     "nodes expanded: 6344, max depth: 10, wall time: *s, workers: 1\n"),
    ("compute --sizes 2,2 --colors 2 --certificates all --json", 0,
     _doc("compute",
          {"certificates": ["010^31", "01010^2", "0101^20"], "f_value": 7},
          _spec(2, 2),
          {"max_depth": 6, "nodes_expanded": 45, "wall_time": "*",
           "worker_count": 1})),
    ("construct --m 3", 0, "01^20^21^2010^21^60^2\n"),
    ("construct --m 3 --json", 0,
     _doc("construct", {"coloring": "01^20^21^2010^21^60^2", "length": 19},
          _spec(3, 3, 3))),
    ("verify --string 0^12 --sizes 2,2,2 --colors 2", 0,
     "spec: f(2,2,2;2)\nlength: 12\navoids: false\n"
     "witness: {1,2},{3,4},{5,6}\n"),
    ("verify --string 0^12 --sizes 2,2,2 --colors 2 --json", 0,
     _doc("verify",
          {"avoids": False, "length": 12,
           "witness": {"colors": [0, 0, 0], "diams": [1, 1, 1],
                       "sets": [[1, 2], [3, 4], [5, 6]]}},
          _spec(2, 2, 2))),
    ("witness --string 0^12 --sizes 2,2,2 --colors 2", 0,
     "{1,2},{3,4},{5,6}\ncolors: 0,0,0\ndiameters: 1,1,1\n"),
    ("witness --string 10101101110 --sizes 2,2,2 --colors 2 --json", 0,
     _doc("witness", {"witness": None}, _spec(2, 2, 2))),
    ("check-lemma --which 2.1 --m 3 --string 1101001", 0,
     "B1 = {2,4,7} (color 1, beta=0, alpha=1)\n"
     "case (i), mask i, mu=0, nu=0\nPASS\n"),
    ("check-lemma --which 2.1 --m 3 --string 1101001 --json", 0,
     _doc("check-lemma",
          {"which": "2.1", "big_set": [2, 4, 7], "color": 1, "beta": 0,
           "alpha": 1, "case": "i", "mask": ["i"], "mu": 0, "nu": 0,
           "substrings": [
               {"name": "H0", "digits": "01", "span": [3, 4]},
               {"name": "H1", "digits": "0", "span": [6, 6]},
           ]})),
    ("check-lemma --which 2.1 --m 2 --string 0011", 0,
     "no big set; lemma 2.1 is vacuous here\nPASS\n"),
    ("check-lemma --which 2.2 --m 3 --string 1101001", 0,
     "branch: big_set\na1 = {1,2,4}\na2 = {1,2,4}\na3 = {1,2,4}\nPASS\n"),
    ("check-lemma --which 2.2 --m 2 --string 0011 --json", 0,
     _doc("check-lemma",
          {"which": "2.2", "branch": "no_big_set", "d1": [1, 2],
           "d2": [3, 4], "a1": None, "a2": None, "a3": None})),
    ("check-lemma --which 2.2 --m 2 --exhaustive", 0,
     "lemma 2.2, m = 2: all 16 colorings of [1,4]\n"
     "  cases: no_b1=2 (i)=2 (ii)=8 (iii)=4\n"
     "  branches: no_big_set=2 big_set=14, ties=0\n"
     "PASS: zero violations\n"),
    ("table --family mm2 --m-max 3", 0,
     "   m  formula  computed  status\n"
     "   2        7         7  ok\n"
     "   3       12        12  ok\n"),
    ("table --family mmm2 --m-max 3 --json", 0,
     _doc("table",
          {"family": "mmm2",
           "rows": [
               {"m": 2, "formula": 12, "computed": 12, "status": "ok"},
               {"m": 3, "formula": 20, "computed": 20, "status": "ok"},
           ]})),
]


@pytest.mark.parametrize(
    "argv,code,expected", GOLDEN, ids=[argv for argv, _, _ in GOLDEN]
)
def test_golden_output(capsys, argv: str, code: int, expected: str) -> None:
    got_code, out, err = run(capsys, *argv.split())
    assert (got_code, _masked(out), err) == (code, expected, "")


# ======================================================================
# happy paths
# ======================================================================

def test_compute_prints_value(capsys) -> None:
    code, out, _ = run(capsys, "compute", "--sizes", "2,2,2", "--colors", "2")
    assert code == 0
    assert "f(2,2,2;2) = 12" in out


def test_compute_strict(capsys) -> None:
    code, out, _ = run(
        capsys, "compute", "--sizes", "2,2", "--colors", "2",
        "--strict", "--cap", "12",
    )
    assert code == 0
    assert "f*(2,2;2) = 9" in out


def test_construct_emits_known_string(capsys) -> None:
    code, out, _ = run(capsys, "construct", "--m", "5")
    assert code == 0
    assert out.strip() == "01^40^41^40^81^40^21^70^3"


def test_witness_prints_chain(capsys) -> None:
    code, out, _ = run(
        capsys, "witness", "--string", "0^12", "--sizes", "2,2,2",
        "--colors", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "{1,2},{3,4},{5,6}"


def test_witness_none(capsys) -> None:
    code, out, _ = run(
        capsys, "witness", "--string", "10101101110", "--sizes", "2,2,2",
        "--colors", "2",
    )
    assert code == 0
    assert out.strip() == "none"


def test_verify_avoiding(capsys) -> None:
    code, out, _ = run(
        capsys, "verify", "--string", "10101101110", "--sizes", "2,2,2",
        "--colors", "2",
    )
    assert code == 0
    assert "avoids: true" in out


def test_verify_not_avoiding_shows_witness(capsys) -> None:
    code, out, _ = run(
        capsys, "verify", "--string", "0^12", "--sizes", "2,2,2",
        "--colors", "2",
    )
    assert code == 0
    assert "avoids: false" in out
    assert "witness: {1,2},{3,4},{5,6}" in out


def test_check_lemma_exhaustive(capsys) -> None:
    code, out, _ = run(
        capsys, "check-lemma", "--which", "2.1", "--m", "2", "--exhaustive",
    )
    assert code == 0
    assert "PASS" in out
    assert "no_b1=2 (i)=2 (ii)=8 (iii)=4" in out


def test_check_lemma_single_string(capsys) -> None:
    code, out, _ = run(
        capsys, "check-lemma", "--which", "2.2", "--m", "2",
        "--string", "0011",
    )
    assert code == 0
    assert "no_big_set" in out


def test_table_ok(capsys) -> None:
    code, out, _ = run(capsys, "table", "--family", "mm2", "--m-max", "4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip().startswith(("2", "3", "4"))]
    assert len(lines) == 3
    assert all("ok" in ln for ln in lines)


# ======================================================================
# JSON schema
# ======================================================================

def test_json_envelope_fields(capsys) -> None:
    code, doc = run_json(
        capsys, "compute", "--sizes", "2,2", "--colors", "2", "--json",
    )
    assert code == 0
    assert set(doc) == {"command", "spec", "result", "stats", "version"}
    assert doc["command"] == "compute"
    assert doc["version"] == __version__
    assert doc["spec"] == {"sizes": [2, 2], "num_colors": 2, "strict": False}
    assert doc["result"]["f_value"] == 7
    assert doc["stats"]["worker_count"] == 1


def test_json_roundtrips_all_commands(capsys) -> None:
    calls = [
        ("construct", "--m", "3", "--json"),
        ("verify", "--string", "0^6", "--sizes", "2,2", "--colors", "2",
         "--json"),
        ("witness", "--string", "0^6", "--sizes", "2,2", "--colors", "2",
         "--json"),
        ("check-lemma", "--which", "2.1", "--m", "2", "--exhaustive",
         "--json"),
        ("table", "--family", "mmm2", "--m-max", "3", "--json"),
    ]
    for argv in calls:
        code, doc = run_json(capsys, *argv)
        assert code == 0, argv
        assert set(doc) == {"command", "spec", "result", "stats", "version"}
        assert doc["command"] == argv[0]


def test_json_worker_invariance(capsys) -> None:
    """Identical JSON output except the stats block."""
    docs = []
    for w in ("1", "2"):
        _, doc = run_json(
            capsys, "compute", "--sizes", "2,2,2", "--colors", "2",
            "--certificates", "all", "--workers", w, "--json",
        )
        docs.append(doc)
    a, b = docs
    assert a["stats"]["worker_count"] == 1
    assert b["stats"]["worker_count"] == 2
    a.pop("stats")
    b.pop("stats")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_workers_env_override(capsys, monkeypatch) -> None:
    monkeypatch.setenv("DIAM_RAMSEY_WORKERS", "2")
    _, doc = run_json(
        capsys, "compute", "--sizes", "2,2", "--colors", "2", "--json",
    )
    assert doc["stats"]["worker_count"] == 2
    # explicit flag beats the environment
    _, doc = run_json(
        capsys, "compute", "--sizes", "2,2", "--colors", "2",
        "--workers", "1", "--json",
    )
    assert doc["stats"]["worker_count"] == 1


# ======================================================================
# exit codes
# ======================================================================

def test_exit_3_on_inconclusive(capsys) -> None:
    code, out, _ = run(
        capsys, "compute", "--sizes", "2,2", "--colors", "4", "--cap", "10",
    )
    assert code == 3
    assert "inconclusive" in out


def test_exit_2_on_usage_errors(capsys) -> None:
    assert run(capsys, "compute", "--sizes", "2,2")[0] == 2     # missing flag
    assert run(capsys, "bogus")[0] == 2                         # bad command
    assert run(capsys, "compute", "--sizes", "1,2",
               "--colors", "2")[0] == 2                         # size < 2
    assert run(capsys, "verify", "--string", "0^x",
               "--sizes", "2,2", "--colors", "2")[0] == 2       # parse error
    assert run(capsys, "check-lemma", "--which", "2.2",
               "--m", "3", "--string", "0101")[0] == 2          # wrong length


def test_exit_2_on_bad_sizes(capsys) -> None:
    code, out, err = run(capsys, "compute", "--sizes", "2,x", "--colors", "2")
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: argument --sizes: expected comma-separated integers, "
        "got '2,x'\n"
    )


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_exit_2_on_compute_without_closed_form_or_cap(
    capsys, flag: list[str]
) -> None:
    """The CLI names its own --cap option, not the library's n_cap field."""
    code, out, err = run(
        capsys, "compute", "--sizes", "2,2", "--colors", "2", "--strict", *flag
    )
    assert (code, out) == (2, "")
    assert err == "error: no closed form known for f*(2,2;2); pass --cap\n"


def test_exit_2_on_non_ascii_digit(capsys) -> None:
    code, out, err = run(
        capsys, "verify", "--string", "\u00b2", "--sizes", "2,2", "--colors", "2"
    )
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: expected a color digit (token '\u00b2' at offset 0)\n"
    )


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_exit_2_on_table_without_rows(capsys, flag: list[str]) -> None:
    for m_max in ("1", "-3"):
        code, out, err = run(
            capsys, "table", "--family", "mm2", "--m-max", m_max, *flag
        )
        assert (code, out) == (2, "")
        assert err == f"error: --m-max must be >= 2, got {m_max}\n"


_COMPUTE = ["compute", "--sizes", "2,2", "--colors", "2"]
_TABLE = ["table", "--family", "mm2", "--m-max", "2"]
_SWEEP = ["check-lemma", "--which", "2.1", "--m", "2", "--exhaustive"]


@pytest.mark.parametrize("flag", [[], ["--json"]])
@pytest.mark.parametrize(
    "argv, env, message",
    [
        (_COMPUTE + ["--cap", "0"], None, "--cap must be >= 1, got 0"),
        (_COMPUTE + ["--cap", "-4"], None, "--cap must be >= 1, got -4"),
        (_COMPUTE + ["--workers", "0"], None, "--workers must be >= 1, got 0"),
        (_TABLE + ["--workers", "0"], None, "--workers must be >= 1, got 0"),
        (_SWEEP + ["--workers", "0"], None, "--workers must be >= 1, got 0"),
        (_COMPUTE + ["--workers", "-1"], "2",
         "--workers must be >= 1, got -1"),
        (_COMPUTE, "0", "DIAM_RAMSEY_WORKERS must be >= 1, got 0"),
        (_TABLE, "0", "DIAM_RAMSEY_WORKERS must be >= 1, got 0"),
        (_SWEEP, "-2", "DIAM_RAMSEY_WORKERS must be >= 1, got -2"),
    ],
)
def test_exit_2_names_the_count_option(
    capsys, monkeypatch, argv: list[str], env: str | None, message: str,
    flag: list[str],
) -> None:
    """A count below 1 is refused in the words of the option or the
    variable that gave it, before any search or sweep runs."""
    if env is None:
        monkeypatch.delenv("DIAM_RAMSEY_WORKERS", raising=False)
    else:
        monkeypatch.setenv("DIAM_RAMSEY_WORKERS", env)
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_table_row_over_budget_is_skipped(capsys, monkeypatch) -> None:
    # f(2,2;2) takes 45 nodes and f(3,3;2) 647: only the second row is cut
    monkeypatch.setattr(cli_mod, "_TABLE_NODE_BUDGET", 100)
    code, out, err = run(capsys, "table", "--family", "mm2", "--m-max", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "   2        7         7  ok",
        "   3       12         -  skipped (budget)",
    ]
    code, doc = run_json(
        capsys, "table", "--family", "mm2", "--m-max", "3", "--json"
    )
    assert code == 0
    assert doc["result"]["rows"][1] == {
        "m": 3, "formula": 12, "computed": None, "status": "skipped (budget)",
    }


def test_exit_2_on_uncodable_certificates_before_search(
    capsys, monkeypatch
) -> None:
    """Certificates over more than 10 colors cannot be written, so compute
    refuses before it searches."""
    def no_search(*args, **kwargs):
        raise AssertionError("compute_f must not run")

    monkeypatch.setattr(cli_mod, "compute_f", no_search)
    code, out, err = run(
        capsys, "compute", "--sizes", "2,2", "--colors", "11", "--cap", "4",
    )
    assert (code, out) == (2, "")
    assert err == "error: codec supports at most 10 colors, got 11\n"


def test_exit_2_on_verify_past_the_codec_limit(capsys) -> None:
    """verify cannot read a string over more than 10 colors, and says so
    in the words compute uses."""
    code, out, err = run(
        capsys, "verify", "--string", "01", "--sizes", "2,2", "--colors", "11",
    )
    assert (code, out) == (2, "")
    assert err == "error: codec supports at most 10 colors, got 11\n"


_HUGE = 10**20  # above sys.maxsize; a smaller huge length would allocate


@pytest.mark.parametrize("flag", [[], ["--json"]])
@pytest.mark.parametrize(
    "argv, n",
    [
        (["verify", "--string", f"0^{{{_HUGE}}}", "--sizes", "2",
          "--colors", "2"], _HUGE),
        (["construct", "--m", str(_HUGE)], 8 * _HUGE - 6 + (2 * _HUGE - 2) // 3),
    ],
    ids=["verify", "construct"],
)
def test_exit_2_on_a_length_past_sys_maxsize(capsys, argv, n, flag) -> None:
    """Not exit 1, which means a contradicted formula or a lemma violation."""
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (2, "")
    assert err == (
        f"error: coloring length {n} exceeds sys.maxsize ({sys.maxsize})\n"
    )


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_exit_2_on_a_length_beyond_memory(capsys, monkeypatch, flag) -> None:
    """A length within sys.maxsize can still exceed memory: the parse's
    MemoryError is a usage error (exit 2) with one line, not a traceback."""

    def too_long(s, num_colors):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "parse_run_string", too_long)
    code, out, err = run(
        capsys, "verify", "--string", "0^{1000000000000}", "--sizes", "2",
        "--colors", "2", *flag,
    )
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_value_only_runs_past_the_codec_limit(capsys) -> None:
    code, out, _ = run(
        capsys, "compute", "--sizes", "2,2", "--colors", "11", "--cap", "4",
        "--certificates", "none",
    )
    assert code == 3
    assert out.startswith("f(2,2;11) > 4 (cap reached; inconclusive)\n")


def test_exit_2_on_bad_env(capsys, monkeypatch) -> None:
    monkeypatch.setenv("DIAM_RAMSEY_WORKERS", "many")
    code, _, err = run(capsys, "compute", "--sizes", "2,2", "--colors", "2")
    assert code == 2
    assert "DIAM_RAMSEY_WORKERS" in err


def test_exit_1_on_formula_contradiction(capsys, monkeypatch) -> None:
    monkeypatch.setattr(search_mod, "known_value", lambda s: 5)
    code, _, err = run(
        capsys, "compute", "--sizes", "2,2", "--colors", "2", "--cap", "8",
    )
    assert code == 1
    assert "error" in err


def test_exit_1_on_table_mismatch(capsys, monkeypatch) -> None:
    # a wrongly high closed form: the search ends below it
    monkeypatch.setattr(search_mod, "known_value", lambda s: 9)
    monkeypatch.setattr(cli_mod, "known_value", lambda s: 9)
    code, out, _ = run(capsys, "table", "--family", "mm2", "--m-max", "2")
    assert code == 1
    assert "MISMATCH" in out


def test_exit_1_on_lemma_violation(capsys, monkeypatch) -> None:
    import diam_ramsey.lemmas as lemmas_mod

    monkeypatch.setattr(lemmas_mod, "_match_case_i", lambda *a: None)
    monkeypatch.setattr(lemmas_mod, "_match_case_ii", lambda *a: False)
    monkeypatch.setattr(lemmas_mod, "_match_case_iii", lambda *a: False)
    code, _, err = run(
        capsys, "check-lemma", "--which", "2.1", "--m", "2",
        "--string", "1111",
    )
    assert code == 1
    assert "LEMMA VIOLATION" in err


def test_exit_1_on_lemma_violation_in_the_sweep(capsys, monkeypatch) -> None:
    import diam_ramsey.lemmas as lemmas_mod

    monkeypatch.setattr(lemmas_mod, "_match_case_i", lambda *a: None)
    monkeypatch.setattr(lemmas_mod, "_match_case_ii", lambda *a: False)
    monkeypatch.setattr(lemmas_mod, "_match_case_iii", lambda *a: False)
    monkeypatch.delenv("DIAM_RAMSEY_WORKERS", raising=False)
    code, _, err = run(
        capsys, "check-lemma", "--which", "2.2", "--m", "3", "--exhaustive",
    )
    assert code == 1
    assert "LEMMA VIOLATION" in err


def test_module_runs_as_a_process() -> None:
    """`python -m diam_ramsey.cli` exits with main()'s code."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("DIAM_RAMSEY_WORKERS", None)
    for argv, code in (
        (["construct", "--m", "2"], 0),
        (["compute", "--sizes", "2,2", "--colors", "4", "--cap", "10"], 3),
        (["bogus"], 2),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "diam_ramsey.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, (argv, proc.stderr)


def test_version_flag(capsys) -> None:
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert __version__ in out
