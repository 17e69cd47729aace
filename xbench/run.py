"""xhoglab benchmark: one workload, end-to-end metrics or per-layer spans.

Usage, from the root of a checkout:

    python3 xbench/run.py --workload mc_trials --seed 1 --seconds 30 --trace 0

One client in this process runs the workload's job list (xbench/jobs.py) back
to back, each job a ``xhoglab.cli.main(argv)`` call or a direct Monte Carlo
helper call, and checks every output.  ``--trace 0`` measures for ``--seconds``
(and at least MIN_JOBS jobs) and reports the end-to-end metrics; ``--trace 1``
traces a fixed job list and reports per-layer spans and counters.  The last line of stdout is the result JSON; the line before it
records the machine, the seed and the sample counts.  BLAS is pinned to one
thread before numpy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402  (xbench/ is on sys.path: it holds this script)
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 100  # so that the 90th percentile has at least 10 samples beyond it
SETUP_REPEATS = 5
WARMUP_ROUND = 1_000_000  # round index of the toy warm-up jobs' seeds

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

_SPAN_METRICS = (
    "linalg.trial_rng", "linalg.haar_state_amps", "linalg.born_sample",
    "linalg.haar_unitary_mat", "linalg.distance_to_eigenvalue_hull",
    "linalg.unitary_channel_diamond_distance",
    "linalg.UnitaryOp", "linalg.DensityMatrix",
    "oracles.apply.rank1", "oracles.apply.diag", "oracles.apply.dense",
    "oracles.canonical_oracle", "oracles.fourier_phase_oracle", "oracles.random_prep_oracle",
    "oracles.sample_oracle_output", "oracles.fwht",
    "xhog.run_experiment", "xhog.strategy_naive_sample", "xhog.strategy_k_copy_mode",
    "xhog.strategy_collision_amplify",
    "uprep.channel_distance_bound_report", "uprep.t_composed_diamond", "uprep.draw_plan",
    "uprep.rotation_R",
    "symmetrize.sigma_R_exact", "symmetrize.rho_R_protocol_exact", "symmetrize.build_R",
    "fourier_lp.naive_fourier_value", "fourier_lp.verify_dual_feasibility",
    "fourier_lp.build_primal", "fourier_lp.solve_primal_numeric",
    "cli.main",
)
_SELF_ONLY = ("xhog.max_xeb_mc", "xhog.collision_rate_mc", "xhog.posterior_mc")
_COUNTERS = {
    "linalg.haar_unitary_mat.flop_computed": "flop",
    "oracles.queries": "count",
    "xhog.collision_amplify.collision_share": "ratio",
    "xhog.collision_amplify.amplified_hit_share": "ratio",
    "xhog.collision_amplify.grover_iterations": "count",
    "uprep.decompose_phi.calls": "count",
    "xhog.mc_rows": "count",
    "xhog.mc_chunk_bytes_computed": "B",
    "symmetrize.dense_bytes_computed": "B",
    "fourier_lp.constraints_checked": "count",
    "cli.report_bytes": "B",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
    "failed_share": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in _SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{name}.self_s": "s" for name in _SELF_ONLY})
    units.update(_COUNTERS)
    return units


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs rounds of one workload's job list and keeps the checks' tally."""

    def __init__(self, workload: str, seed: int, out_dir: Path, toy: bool = False):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.out_path = out_dir / "report.json"
        self.validators = jobs.load_validators(SRC)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.estimates = defaultdict(list)
        self.report_bytes = 0
        self.sampled_queries = 0
        self.kind_times = defaultdict(list)

    def _fail(self, message: str, jobs_failed: int = 1):
        self.failed += jobs_failed
        self.problems.append(message)

    def run_round(self, round_index: int, toy=None, tracer=None, pool=True) -> list:
        """Run one round of jobs; returns each job's latency in seconds."""
        toy = self.toy if toy is None else toy
        times = []
        for j, kind in enumerate(jobs.round_jobs(self.workload)):
            self.out_path.unlink(missing_ok=True)
            if tracer is not None:
                queries0, violations0 = tracer.counts["oracles.queries"], tracer.ledger_violations
            cmd, elapsed, rc, report, output = jobs.execute(
                kind, jobs.job_seed(self.seed, round_index, j), toy, self.out_path
            )
            times.append(elapsed)
            if not toy and tracer is None:
                self.kind_times[kind.name].append(elapsed)
            self.attempted += 1
            problems = jobs.check_report(cmd, rc, report, self.validators)
            if tracer is not None and not problems:
                sampled = cmd[0] == "cli" and cmd[1][0] == "xhog" and "--exact" not in cmd[1]
                want = report["total_queries"] if sampled else 0
                got = tracer.counts["oracles.queries"] - queries0
                if got != want:
                    problems.append(f"oracle queries {got} != reported total_queries {want}")
                if tracer.ledger_violations != violations0:
                    problems.append("a trial's queries fall outside the per-trial ledger")
                self.sampled_queries += want
                if cmd[0] == "cli":
                    # the wall_seconds line is the one part of a report that varies by run
                    lines = self.out_path.read_bytes().splitlines(keepends=True)
                    self.report_bytes += sum(len(x) for x in lines if b"wall_seconds" not in x)
            if problems:
                tail = output.strip().splitlines()[-1:] if output.strip() else []
                self._fail(f"{' '.join(map(str, cmd[1:]))}: {'; '.join(problems)} {tail}")
            elif pool and not toy and kind.pooled:
                self.estimates[kind].append(jobs.estimate(kind, report))
        return times

    def pooled_checks(self):
        for kind, estimates in self.estimates.items():
            problem = jobs.pooled_problem(kind, estimates)
            if problem:
                self._fail(problem, jobs_failed=len(estimates))

    def setup_seconds(self, repeats: int) -> float:
        """Median wall time of a fresh interpreter importing xhoglab and running
        one toy job of each kind of the workload."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), self.workload, str(self.out_path.parent)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
            )
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            if proc.returncode != 0:
                self._fail(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return statistics.median(times)

    def measure(self, seconds: float) -> tuple:
        """Untraced rounds for ``seconds`` and at least MIN_JOBS jobs."""
        round_times, job_times = [], []
        t_end = time.perf_counter() + seconds
        r = 0
        while time.perf_counter() < t_end or len(job_times) < MIN_JOBS:
            times = self.run_round(r)
            round_times.append(sum(times))
            job_times.extend(times)
            r += 1
        return round_times, job_times


def run_end_to_end(runner: Runner, seconds: float, setup_repeats: int = SETUP_REPEATS):
    setup_s = runner.setup_seconds(setup_repeats)
    runner.run_round(WARMUP_ROUND, toy=True)
    round_times, job_times = runner.measure(seconds)
    runner.pooled_checks()
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_times),
        "job_p50_s": statistics.median(job_times),
        "job_p90_s": statistics.quantiles(job_times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_share": (runner.attempted - runner.failed) / runner.attempted,
    }
    samples = {"rounds": len(round_times), "jobs": len(job_times)}
    return metrics, samples


def run_traced(runner: Runner, rounds: int):
    """Trace ``rounds`` rounds; every third also runs untraced first, to time the tracing."""
    runner.run_round(WARMUP_ROUND, toy=True)
    tracer = spans.Tracer()
    overhead = []
    cpu = 0.0
    for r in range(rounds):
        untraced = sum(runner.run_round(r, pool=False)) if r % 3 == 0 else None
        spans.install(tracer)
        c0 = time.process_time()
        try:
            traced = sum(runner.run_round(r, tracer=tracer))
        finally:
            cpu += time.process_time() - c0
            tracer.uninstall()
        if untraced is not None:
            overhead.append(traced - untraced)
    runner.pooled_checks()
    if tracer.counts["oracles.queries"] != runner.sampled_queries:
        runner._fail("oracles.queries differs from the summed report total_queries", 0)

    metrics = {}
    for name in _SPAN_METRICS:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    for name in _SELF_ONLY:
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    c = tracer.counts
    metrics.update({name: c[name] for name in _COUNTERS})  # counted in the span wrappers
    amplify = c["xhog.collision_amplify.collisions"] + c["xhog.collision_amplify.amplified"]
    metrics.update({
        "xhog.collision_amplify.collision_share":
            c["xhog.collision_amplify.collisions"] / amplify if amplify else 0.0,
        "xhog.collision_amplify.amplified_hit_share":
            c["xhog.collision_amplify.amplified_hits"] / c["xhog.collision_amplify.amplified"]
            if c["xhog.collision_amplify.amplified"] else 0.0,
        "cli.report_bytes": runner.report_bytes,
        "proc.cpu_s": cpu,
        "trace.overhead_s": statistics.median(overhead),
        "failed_share": runner.failed / runner.attempted,
    })
    return metrics, {"rounds": rounds, "jobs": rounds * len(jobs.round_jobs(runner.workload))}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
                 setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Run one workload; returns (result, record) as printed by main.

    ``toy`` shrinks every job to its warm-up size (for the self-test); the
    job list, the round structure and the checks stay the same.
    """
    (ROOT / ".xbench_out").mkdir(exist_ok=True)
    # fixed-length name: the report path is part of every report's bytes
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".xbench_out"))
    try:
        runner = Runner(workload, seed, out_dir, toy=toy)
        if trace:
            rounds = math.ceil(MIN_JOBS / len(jobs.round_jobs(workload)))
            values, samples = run_traced(runner, 2 if toy else rounds)
            units = per_layer_units()
        else:
            values, samples = run_end_to_end(runner, seconds, setup_repeats)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": samples,
        "kind_p50_s": {k: statistics.median(v) for k, v in runner.kind_times.items()},
        "machine": machine_record(),
        "problems": runner.problems[:20],
    }
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "xhoglab" / "cli.py").is_file():
        print(f"error: no xhoglab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xhoglab

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if Path(xhoglab.__file__).resolve().parent != SRC / "xhoglab":
        print(f"error: imported xhoglab from {xhoglab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
