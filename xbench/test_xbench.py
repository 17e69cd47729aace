"""Self-test of the benchmark at toy sizes.

Run from the root of a checkout:  python3 -m pytest -q xbench/test_xbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TIMED_UNITS = {"s"}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result, record = run.run_workload(workload, 3, 0.0, trace=False, toy=True, setup_repeats=1)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["samples"]["jobs"] >= run.MIN_JOBS
    assert record["machine"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, record = run.run_workload(workload, 5, 0.0, trace=True, toy=True)
    second, _ = run.run_workload(workload, 5, 0.0, trace=True, toy=True)
    assert first["correct"] and second["correct"], record["problems"]
    assert _units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] not in TIMED_UNITS}
    again = {k: m["value"] for k, m in second["metrics"].items() if m["unit"] not in TIMED_UNITS}
    assert counts == again
    assert counts["cli.main.calls"] > 0


def test_predicted_zeros_on_mc_trials():
    result, record = run.run_workload("mc_trials", 7, 0.0, trace=True, toy=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"], record["problems"]
    assert m["linalg.haar_unitary_mat.calls"] == 0
    assert m["oracles.apply.dense.calls"] == 0
    assert m["oracles.apply.rank1.calls"] + m["oracles.apply.diag.calls"] == m["oracles.queries"]


def test_query_total_matches_reports(tmp_path):
    import spans

    runner = run.Runner("mc_trials", 9, tmp_path, toy=True)
    tracer = spans.install(spans.Tracer())
    try:
        runner.run_round(0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not runner.problems
    assert runner.sampled_queries > 0
    assert tracer.counts["oracles.queries"] == runner.sampled_queries


def test_tracer_uninstall_restores_every_binding():
    import importlib

    import spans

    mods = {m: importlib.import_module(f"xhoglab.{m}") for m in spans.MODULES}
    before = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()}
    tracer = spans.install(spans.Tracer())
    assert mods["xhog"].trial_rng is not before[("xhog", "trial_rng")]
    assert mods["uprep"].haar_unitary_mat is not before[("uprep", "haar_unitary_mat")]
    tracer.uninstall()
    after = {(m, k): v for m, mod in mods.items() for k, v in vars(mod).items()}
    assert after == before


def test_check_report_rejects_wrong_outputs():
    validators = jobs.load_validators(HERE.parent / "src")
    argv = ["lp", "certify", "-n", "4"]
    good = {"schema_version": 1, "action": "certify", "n": 4, "b_exact": "23/8",
            "transcript": "...\nOPTIMAL b = 23/8\n"}
    assert jobs.check_report(("cli", argv), 0, good, validators) == []
    bad = dict(good, transcript="...\nOPTIMAL b = 11/4\n")
    assert jobs.check_report(("cli", argv), 0, bad, validators)
    assert jobs.check_report(("cli", argv), 1, good, validators)
    assert jobs.check_report(("cli", argv), None, None, validators)
    xhog = ["xhog", "--strategy", "naive", "--family", "canonical", "-n", "8", "--trials", "10"]
    report = {"schema_version": 1, "strategy": "naive", "family": "canonical", "n": 8,
              "trials": 10, "master_seed": 1, "b_mean": 2.0, "std_err": 0.1,
              "total_queries": 11, "wall_seconds": 0.0}
    assert jobs.check_report(("cli", xhog), 0, report, validators)
    assert jobs.check_report(("cli", xhog), 0, dict(report, total_queries=10), validators) == []


def test_pooled_gate_uses_five_standard_errors():
    kind = jobs.Kind("k", target=2.0)
    assert jobs.pooled_problem(kind, [(2.4, 0.1, 100)]) is None
    assert jobs.pooled_problem(kind, [(2.6, 0.1, 100)])
    floor = jobs.Kind("k", floor=2.0)
    assert jobs.pooled_problem(floor, [(2.1, 0.5, 10), (1.95, 0.5, 10)]) is None
    assert jobs.pooled_problem(floor, [(1.9, 0.5, 10), (1.95, 0.5, 10)])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
