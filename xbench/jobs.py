"""Workloads of the xhoglab benchmark: job kinds, their sizes, and output checks.

A job is one ``xhoglab.cli.main(argv)`` call, or one direct call of a Monte
Carlo helper of ``xhoglab.xhog``.  Each workload is a fixed round of jobs that
a single client runs back to back; rounds repeat with fresh job seeds.  Job
sizes are chosen so that the kinds of a workload take about the same time, so
that neither the median nor the 90th percentile of job latency falls in a gap
between kinds.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

SCHEMAS = {"xhog": "xeb_estimate.json", "verify": "verify_transcript.json", "lp": "lp_transcript.json"}

# Statistical checks compare a pooled estimate against a closed form.  They sit
# at 5 standard errors (never 3), so a change to RNG consumption cannot flip
# them by chance.
GATE_SE = 5.0


@dataclass(frozen=True)
class Kind:
    """One kind of job: CLI argv or a direct MC helper call, its size and checks.

    ``size`` is the trial/case/draw count of the full-size job (0 for jobs
    whose size is fixed by their n); ``toy`` the count, and ``toy_argv`` the
    argv if it differs, used in warm-up, set-up and self-test runs.
    ``target`` is a closed form the pooled estimate must lie within GATE_SE
    standard errors of; ``floor`` a value the pooled estimate must exceed.
    """

    name: str
    argv: tuple = ()
    toy_argv: tuple = ()
    mc: tuple = ()
    size: int = 0
    toy: int = 0
    size_flag: str = "--trials"
    seeded: bool = True
    target: float | None = None
    floor: float | None = None

    @property
    def pooled(self) -> bool:
        return self.target is not None or self.floor is not None

    def command(self, seed: int, toy: bool) -> tuple:
        """("cli", argv) or ("mc", function name, args) for one job."""
        size = self.toy if toy else self.size
        if self.mc:
            fn, *head = self.mc
            return ("mc", fn, (*head, size, seed))
        argv = list(self.toy_argv if toy and self.toy_argv else self.argv)
        if size:
            argv += [self.size_flag, str(size)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return ("cli", argv)


def _xhog(strategy, family, n, size, toy, k=None, target=None, floor=None):
    argv = ["xhog", "--strategy", strategy, "--family", family, "-n", str(n)]
    name = f"xhog {strategy} {family} -n {n}"
    if k is not None:
        argv += ["-k", str(k)]
        name += f" -k {k}"
    return Kind(name, tuple(argv), size=size, toy=toy, target=target, floor=floor)


def query_ledger(argv) -> tuple:
    """(min, max) oracle queries per trial of an xhog job."""
    from xhoglab.xhog import fixed_grover_iterations

    strategy = argv[argv.index("--strategy") + 1]
    if strategy == "naive":
        return 1, 1
    n, k = int(argv[argv.index("-n") + 1]), int(argv[argv.index("-k") + 1])
    if strategy == "k_copy_mode":
        return k, k
    return k, k + 1 + 2 * fixed_grover_iterations(n, k)


def _naive_haar(n):
    big = 2**n
    return 2 * big / (big + 1)


def _naive_fourier(n):
    return 3 - 2 / 2**n


def _harmonic_over(big):
    return float(sum(Fraction(1, i) for i in range(1, big + 1)) / big)


WORKLOADS = {
    "mc_trials": (
        (_xhog("naive", "canonical", 8, 2100, 4, target=_naive_haar(8)), 1),
        (_xhog("naive", "fourier", 8, 750, 4, target=_naive_fourier(8)), 1),
        (_xhog("k_copy_mode", "canonical", 6, 1000, 4, k=4), 1),
        (_xhog("collision_amplify", "canonical", 9, 300, 4, k=8, floor=2.0), 1),
    ),
    "dense_haar": (
        (_xhog("naive", "random_prep", 8, 10, 1, target=_naive_haar(8)), 1),
        (_xhog("collision_amplify", "random_prep", 7, 45, 1, k=6, floor=2.0), 1),
        (Kind("verify uprep -n 8 -T 2", ("verify", "uprep", "-n", "8", "-T", "2"), size=2, toy=1), 1),
        (Kind("verify uprep -n 6 -T 3", ("verify", "uprep", "-n", "6", "-T", "3"), size=120, toy=1), 1),
    ),
    "closed_form": (
        (Kind("lp certify -n 4", ("lp", "certify", "-n", "4"), seeded=False), 1),
        (Kind("lp certify -n 8", ("lp", "certify", "-n", "8"), ("lp", "certify", "-n", "5"),
              seeded=False), 1),
        (Kind("lp solve -n 3", ("lp", "solve", "-n", "3"), seeded=False), 1),
        (Kind("lp naive-value -n 4", ("lp", "naive-value", "-n", "4"), seeded=False), 1),
        (Kind("xhog naive fourier -n 4 --exact",
              ("xhog", "--strategy", "naive", "--family", "fourier", "-n", "4", "--exact"),
              seeded=False), 1),
        (Kind("verify symmetrize -n 2 -k 3", ("verify", "symmetrize", "-n", "2", "-k", "3"),
              size=20, toy=1, size_flag="--cases"), 2),
        (Kind("verify symmetrize -n 1 -k 4", ("verify", "symmetrize", "-n", "1", "-k", "4"),
              size=30, toy=1, size_flag="--cases"), 2),
        (Kind("max_xeb_mc 256", mc=("max_xeb_mc", 256), size=100_000, toy=1000,
              target=_harmonic_over(256)), 1),
        (Kind("collision_rate_mc 4", mc=("collision_rate_mc", 4), size=200_000, toy=1000,
              target=2 / (16 * 17)), 2),
        (Kind("posterior_mc 4 4 2", mc=("posterior_mc", 4, 4, 2), size=150_000, toy=1000,
              target=3 / 20), 2),
    ),
}


def round_jobs(workload: str):
    """The fixed job list of one round: each kind ``copies`` times, interleaved."""
    kinds = WORKLOADS[workload]
    most = max(c for _, c in kinds)
    return [kind for i in range(most) for kind, copies in kinds if i < copies]


def job_seed(workload_seed: int, round_index: int, job_index: int) -> int:
    """Job --seed derived from the workload seed; the program sees only this."""
    ss = np.random.SeedSequence((workload_seed, round_index, job_index))
    return int(ss.generate_state(1)[0])


def execute(kind: Kind, seed: int, toy: bool, out_path: Path):
    """Run one job.  Returns (command, seconds, exit code, report or None, output).

    Only the call into the program is timed.  Its stdout and stderr are
    captured, as a user piping them would; the CLI writes its report with
    --out, and the report is read back after the clock stops.  A job that
    raises gets exit code None and its traceback as output.
    """
    from xhoglab import cli, xhog

    cmd = kind.command(seed, toy)
    buf = io.StringIO()
    rc = res = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            if cmd[0] == "mc":
                res = getattr(xhog, cmd[1])(*cmd[2])
                rc = 0
            else:
                rc = cli.main([*cmd[1], "--out", str(out_path)])
        except Exception:  # a raising job is a failed job, not a failed benchmark
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    report = None
    if res is not None:
        weight = res[2] if cmd[1] == "posterior_mc" else cmd[2][-2]
        report = {"mean": res[0], "se": res[1], "weight": weight}
    elif rc is not None and out_path.exists():
        try:
            report = json.loads(out_path.read_text())
        except json.JSONDecodeError as exc:  # checked as "no report written"
            buf.write(f"report is not JSON: {exc}\n")
    return cmd, elapsed, rc, report, buf.getvalue()


def estimate(kind: Kind, report: dict):
    """(mean, standard error, weight) that this job adds to its kind's pooled check."""
    if kind.mc:
        return report["mean"], report["se"], report["weight"]
    return report["b_mean"], report["std_err"], report["trials"]


def check_report(cmd: tuple, rc, report, validators: dict) -> list:
    """Exact per-job checks of one command's output.  Returns a list of problems;
    an empty list means the job passed."""
    if rc is None:
        return ["raised"]
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None:
        return ["no report written"]
    if cmd[0] == "mc":
        ok = all(math.isfinite(report[k]) for k in ("mean", "se")) and report["se"] > 0
        return [] if ok and report["weight"] > 0 else [f"degenerate estimate {report}"]
    argv = cmd[1]
    problems = [f"schema: {e.message}" for e in validators[argv[0]].iter_errors(report)]
    if problems:
        return problems
    big = 2 ** int(argv[argv.index("-n") + 1])
    want = Fraction(3 * big - 2, big)  # b = 3 - 2/N: naive Fourier value and LP optimum
    want_s = f"{want.numerator}/{want.denominator}"
    if argv[0] == "xhog":
        exact = "--exact" in argv
        trials = report["trials"]
        if not exact and trials != int(argv[argv.index("--trials") + 1]):
            problems.append(f"trials {trials} differs from --trials")
        lo, hi = query_ledger(argv)
        if not lo * trials <= report["total_queries"] <= hi * trials:
            problems.append(f"total_queries {report['total_queries']} outside [{lo}, {hi}] x {trials}")
        if exact and report.get("b_exact") != want_s:
            problems.append(f"b_exact {report.get('b_exact')} != {want_s}")
    elif argv[0] == "verify":
        if report["ok"] is not True:
            problems.append("verify report ok is not true")
    elif argv[1] == "certify":
        last = report.get("transcript", "").rstrip("\n").splitlines()[-1:]
        if last != [f"OPTIMAL b = {want_s}"] or report.get("b_exact") != want_s:
            problems.append(f"certificate does not end in OPTIMAL b = {want_s}")
    elif argv[1] == "solve":
        if not report.get("residual", math.inf) <= 1e-9:
            problems.append(f"residual {report.get('residual')} > 1e-9")
    elif report.get("b_exact") != want_s:
        problems.append(f"b_exact {report.get('b_exact')} != {want_s}")
    return problems


def pooled_problem(kind: Kind, estimates: list):
    """Check the kind's estimates pooled over a run; returns a problem or None.

    Pooling keeps the gates exact in distribution even where one job has few
    trials (a 10-trial job's own standard error is too noisy for a 5-SE gate).
    """
    if not estimates:
        return None
    w = np.array([e[2] for e in estimates], dtype=float)
    mean = float(np.dot(w, [e[0] for e in estimates]) / w.sum())
    se = float(np.sqrt(np.sum((w * [e[1] for e in estimates]) ** 2)) / w.sum())
    if kind.target is not None and abs(mean - kind.target) > GATE_SE * se:
        return f"{kind.name}: pooled {mean:.6g} is {abs(mean - kind.target) / se:.1f} SE from {kind.target:.6g}"
    if kind.floor is not None and not mean > kind.floor:
        return f"{kind.name}: pooled {mean:.6g} is not above {kind.floor}"
    return None


def load_validators(src: Path) -> dict:
    import jsonschema

    schemas = src / "xhoglab" / "schemas"
    return {
        cmd: jsonschema.Draft7Validator(json.loads((schemas / name).read_text()))
        for cmd, name in SCHEMAS.items()
    }
