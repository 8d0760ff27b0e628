"""Tests of the benchmark itself, on its --smoke inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(name, trace):
    proc = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    assert "# env " in proc.stdout


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["search-certs-2w", "verify-constructions"])
def test_exact_counters_do_not_depend_on_the_seed(name):
    counts = []
    for seed in ("1", "2"):
        proc = bench(ROOT, "--workload", name, "--seed", seed, "--trace", "1",
                     "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = last_json(proc)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "lemma-sweep", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_fails_a_wrong_value():
    api = run.fresh_import()
    ops = workloads._setup_value(api, 1, smoke=True)
    rep = workloads.Rep()
    workloads._run_search(api, ops, rep)
    spec, cfg, f, n = ops[0]
    ops[0] = (spec, cfg, f + 1, n)
    workloads._gate_search(api, ops, rep)
    assert rep.failed == 1 and "expected" in rep.ops[0][2]


def test_gate_fails_a_flip_that_disagrees_with_the_reference():
    api = run.fresh_import()
    inp = workloads._setup_verify(api, 1, smoke=True)
    rep = workloads.Rep()
    workloads._run_verify(api, inp, rep)
    workloads._gate_verify(api, inp, rep)
    assert rep.failed == 0
    inp.flip_reference[0] = not inp.flip_reference[0]
    rep.ops[-len(inp.flips)][2] = None
    workloads._gate_verify(api, inp, rep)
    assert rep.failed == 1


def test_changed_counters_fail_the_later_rep():
    reps = [workloads.Rep(), workloads.Rep()]
    for i, rep in enumerate(reps):
        rep.attempt("op", lambda: None)
        rep.counters["op"] = (100 + i, 0)
    run.check_determinism(reps, lambda r: r.counters)
    assert reps[0].failed == 0 and reps[1].failed == 1


def test_speed_probe_takes_out_probes_and_scales_by_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_NS
    # Two probes of 3 ms each, whose timed kernel ran at half the
    # reference speed.
    probe.samples = [(500_000_000, 3_000_000, 2 * ref),
                     (1_500_000_000, 3_000_000, 2 * ref)]
    assert probe.net_ns(0, 2_000_000_000) == 2_000_000_000 - 6_000_000
    assert probe.norm_s(0, 2_000_000_000) == pytest.approx(1.994 / 2)
    # A short interval takes its speed from the probes about its middle,
    # and one with no probe near it from the nearest.
    assert probe.norm_s(900_000_000, 1_100_000_000) == pytest.approx(0.1)
    probe.samples[1] = (1_500_000_000, 3_000_000, ref)
    assert probe.norm_s(5_000_000_000, 6_000_000_000) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        speed.SpeedProbe().norm_s(0, 1)


def test_speed_probe_runs_on_its_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
