"""Command-line entry point: experiment runner, verification sweeps, LP certification.

Every stochastic command requires an explicit --seed and is bit-reproducible:
rerunning with the same flags produces byte-identical reports apart from the
wall_seconds field.  A report's config is the parsed command line.  Exit codes:
0 success, 1 verification failure or failed cross-check, 2 usage error, 3 I/O
error; ``main`` maps each exception to its code through ``EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time

import numpy as np

from . import SCHEMA_VERSION, __version__, fourier_lp, xhog
from .fourier_lp import CERTIFY_CAP, ENUM_CAP
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    MAX_TRIALS,
    expected_max_simplex,
    haar_state_amps,
    rank2_update_distance,
    trial_rng,
    trial_streams,
)

SIMPLEX_MIN_TRIALS = 100
# --cases of verify symmetrize and verify oracles: each case holds ~0.5-0.9 KB of checks in
# memory until the report is written, so the cap keeps them under 1 MiB
MAX_CASES = 2**10
# verify uprep's 8 rotation cases take streams from max(ROTATION_STREAM, --trials) on, past
# every stream of the distance sweep, which draws trial i from stream i
ROTATION_STREAM = 10**6

# exception -> (exit code, stderr prefix); main uses the entry nearest in the exception's
# MRO, so a CertificateError, which is a ValueError, exits 1
EXIT_CODES = {
    fourier_lp.CertificateError: (1, "certificate invalid:"),
    fourier_lp.CrossCheckError: (1, "error: internal cross-check failed:"),
    ValueError: (2, "error:"),
    OSError: (3, "I/O error:"),
}


def cmd_xhog(args):
    est = xhog.run_experiment(
        args.strategy,
        args.family,
        args.n,
        args.trials,
        args.seed if args.seed is not None else 0,
        k=args.k,
        exact=args.exact,
        keep_trials=bool(args.csv),
    )
    if args.csv:
        est.write_csv(args.csv)
    if est.exact_value is not None:
        v = est.exact_value
        summary = f"b={v.numerator}/{v.denominator} (exact)"
    else:
        summary = f"b={est.b_mean:.6f} ± {est.std_err:.6f} (queries={est.total_queries})"
    return est.to_json_dict(), summary, 0


def _check(checks, name, value, bound):
    ok = bool(value <= bound)
    checks.append({"name": name, "value": float(value), "bound": float(bound), "ok": ok})
    return ok


def _verify_symmetrize(args, checks):
    from .symmetrize import check_block_cap, random_resource, verify_symmetrization

    if not (1 <= args.n <= MAX_QUBITS and args.k >= 1 and 1 <= args.cases <= MAX_CASES):
        raise ValueError(
            f"symmetrize needs 1 <= -n <= {MAX_QUBITS}, -k >= 1 and 1 <= --cases <= {MAX_CASES}"
        )
    check_block_cap(2**args.n, args.k)
    for i, rng in enumerate(trial_streams(args.seed, 0, args.cases)):
        psi = haar_state_amps(rng.standard_normal(2 * 2**args.n))
        spec = random_resource(args.k, rng)
        dev = verify_symmetrization(psi, spec)
        _check(checks, f"case_{i}_max_entry_deviation", dev, 1e-10)


def _verify_oracles(args, checks):
    from .oracles import HALF_SQRT2, _reflect, canonical_from_prep, canonical_oracle, refl_from_prep
    from .oracles import embed_extended_to_ancilla as embed, preparation_input, random_prep_oracle

    if not (1 <= args.n <= MAX_QUBITS and 1 <= args.cases <= MAX_CASES):
        raise ValueError(f"oracles needs 1 <= -n <= {MAX_QUBITS} and 1 <= --cases <= {MAX_CASES}")
    for i, rng in enumerate(trial_streams(args.seed, 0, args.cases)):
        psi = haar_state_amps(rng.standard_normal(2 * 2**args.n))
        o = canonical_oracle(psi)
        bot = preparation_input(o)  # the flag
        got = o.apply(bot)
        _check(checks, f"case_{i}_flag_to_psi", np.max(np.abs(got - np.append(psi, 0))), 1e-10)
        _check(checks, f"case_{i}_involution", np.max(np.abs(o.apply(got) - bot)), 1e-10)
    # each simulation circuit runs against a fresh random prep oracle, which counts its calls
    rng = trial_rng(args.seed, args.cases)
    psi = haar_state_amps(rng.standard_normal(2 * 2**args.n))
    ext = np.column_stack(haar_state_amps(rng.standard_normal((2, 2 * (2**args.n + 1)))))  # probes
    reflected, oracled = ext[:-1], ext
    o = canonical_oracle(psi)
    for t in (1, 2, 3):
        reflected = np.column_stack([_reflect(psi, c) for c in reflected.T])
        oracled = o.apply(oracled)
        prep = random_prep_oracle(psi, rng)
        copy, got = refl_from_prep(prep, t, ext[:-1])
        _check(checks, f"refl_ledger_T{t}", abs(prep.calls - (2 * t + 1)), 0)
        dev = max(np.max(np.abs(copy - psi)), np.max(np.abs(got - reflected)))
        _check(checks, f"refl_action_T{t}", dev, 1e-10)
        prep = random_prep_oracle(psi, rng)
        copy, got = canonical_from_prep(prep, t, embed(ext))
        _check(checks, f"canonical_ledger_T{t}", abs(prep.calls - (4 * t + 2)), 0)
        want = embed(np.append(psi, -1.0) * HALF_SQRT2)
        dev = max(np.max(np.abs(copy - want)), np.max(np.abs(got - embed(oracled))))
        _check(checks, f"canonical_action_T{t}", dev, 1e-10)


def _verify_uprep(args, checks):
    from .uprep import channel_distance_bound_report, decompose_phi, rotation_R

    rep = channel_distance_bound_report(args.n, args.T, args.trials, args.seed)
    _check(checks, f"mean_distance_T{args.T}", rep["mean_distance"], rep["bound"])
    start = max(ROTATION_STREAM, args.trials)
    for i, rng in enumerate(trial_streams(args.seed, start, start + 8)):
        plan = decompose_phi(*haar_state_amps(rng.standard_normal((2, 2 * 2**args.n))))
        # R is I + B (E - I) B^dagger; the residual certifies that E moves at most two
        # directions, and R phi = psi_perp tells R from R^dagger, whose eigenvalues agree
        r = rotation_R(plan)
        dist, residual = rank2_update_distance(r.basis, r.block)
        miss = np.max(np.abs(r.apply(plan.phi) - plan.psi_perp))
        dev = max(abs(dist - 2 * abs(plan.beta)), residual, miss)
        _check(checks, f"case_{i}_rotation_distance_equality", dev, 1e-8)


def _verify_simplex(args, checks):
    # above N = 2^14 max_xeb_mc's 2048-row chunk would pass 256 MiB; below 100 trials the
    # standard error is too noisy for the 3-SE gate, which then fails correct code; and
    # max_xeb_mc keeps 16 bytes per trial, 512 MiB at 2^25
    if not (1 <= args.N <= MAX_DIM and SIMPLEX_MIN_TRIALS <= args.trials <= MAX_TRIALS):
        raise ValueError(
            f"simplex needs 1 <= -N <= {MAX_DIM} and"
            f" {SIMPLEX_MIN_TRIALS} <= --trials <= {MAX_TRIALS}"
        )
    mean, se = xhog.max_xeb_mc(args.N, args.trials, args.seed)
    target = float(expected_max_simplex(args.N))
    _check(checks, f"expected_max_N{args.N}", abs(mean - target), 3 * se)


# each suite's function and the flags it reads, with their defaults; a suite's parser
# declares only these, so a flag the suite does not read is a usage error
SUITES = {
    "symmetrize": (_verify_symmetrize, {"-n": 2, "-k": 2, "--cases": 20}),
    "oracles": (_verify_oracles, {"-n": 2, "--cases": 20}),
    "uprep": (_verify_uprep, {"-n": 2, "-T": 1, "--trials": 1000}),
    "simplex": (_verify_simplex, {"-N": 8, "--trials": 1000}),
}


def cmd_verify(args):
    t0 = time.perf_counter()
    checks = []
    SUITES[args.suite][0](args, checks)
    ok = all(c["ok"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "seed": args.seed,
        "checks": checks,
        "ok": ok,
        "wall_seconds": time.perf_counter() - t0,
    }
    lines = []
    for c in checks:
        status = "OK" if c["ok"] else "FAIL"
        lines.append(f"{c['name']}: deviation {c['value']:.3e} (bound {c['bound']:.3e}) {status}")
    return report, "\n".join(lines), 0 if ok else 1


def cmd_lp(args):
    # checked before any work: dual_certificate's C(2^n, 2^(n-1)) alone takes
    # ~30 s at n = 20, and a negative n is no size at all; solve has no LP at n = 0
    n_range = {"certify": (0, CERTIFY_CAP), "solve": (1, ENUM_CAP), "naive-value": (0, ENUM_CAP)}
    lo, hi = n_range[args.action]
    if not lo <= args.n <= hi:
        raise ValueError(f"lp {args.action} needs {lo} <= -n <= {hi}")
    report = {"schema_version": SCHEMA_VERSION, "action": args.action, "n": args.n}
    if args.action == "naive-value":
        b = fourier_lp.naive_fourier_value(args.n)
        report["b_exact"] = f"{b.numerator}/{b.denominator}"
        summary = f"b = {b.numerator}/{b.denominator}"
    elif args.action == "certify":
        cert = fourier_lp.dual_certificate(args.n)
        transcript = fourier_lp.verify_dual_feasibility(cert)
        report["transcript"] = transcript
        report["b_exact"] = f"{cert.b.numerator}/{cert.b.denominator}"
        summary = transcript.rstrip("\n").splitlines()[-1]
    else:  # solve
        value, _ = fourier_lp.solve_primal_numeric(fourier_lp.build_primal(args.n))
        target = float(fourier_lp.dual_certificate(args.n).b / 2**args.n)
        report["optimal_value"] = value
        report["certificate_value"] = target
        report["residual"] = abs(value - target)
        summary = f"optimum = {value:.12f} (certificate {target:.12f})"
        if report["residual"] > 1e-9:
            raise fourier_lp.CrossCheckError(f"numeric LP {summary}")
    return report, summary, 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process: parse_args leaves the parser unchanged."""
    p = argparse.ArgumentParser(prog="xhoglab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    # the report options every command shares
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out")
    common.add_argument("--emit-config", action="store_true")

    px = sub.add_parser("xhog", parents=[common], help="run a scored heavy-output experiment")
    px.add_argument("--strategy", required=True, choices=xhog.STRATEGIES)
    px.add_argument("--family", required=True, choices=xhog.FAMILIES)
    px.add_argument("-n", type=int, required=True)
    px.add_argument("--trials", type=int, default=1000)
    px.add_argument("--seed", type=int)
    px.add_argument("-k", type=int, default=2)
    # --exact keeps no per-trial rows for --csv to write
    rows = px.add_mutually_exclusive_group()
    rows.add_argument("--exact", action="store_true")
    rows.add_argument("--csv")
    px.set_defaults(func=cmd_xhog)

    pv = sub.add_parser("verify", help="run a randomized verification sweep")
    suites = pv.add_subparsers(dest="suite", required=True)
    for name, (_, flags) in SUITES.items():
        ps = suites.add_parser(name, parents=[common])
        for flag, default in flags.items():
            ps.add_argument(flag, type=int, default=default)
        ps.add_argument("--seed", type=int, required=True)
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("lp", parents=[common], help="exact/numeric linear program certification")
    pl.add_argument("action", choices=["certify", "solve", "naive-value"])
    pl.add_argument("-n", type=int, required=True)
    pl.set_defaults(func=cmd_lp)
    return p


def _check_writable(path):
    """Raise the OSError that opening ``path`` for writing would give for a directory at
    ``path`` or a missing or unwritable directory above it, without creating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    """Run one command: each cmd_* returns (report, summary, exit code) or raises, and
    only this function prints the config, writes the report and maps exceptions."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    config = {k: v for k, v in vars(args).items() if k not in ("func", "emit_config")}
    try:
        if args.command == "xhog" and not args.exact and args.seed is None:
            raise ValueError("--seed is required for stochastic runs")
        if args.emit_config:
            print(json.dumps(config, sort_keys=True, indent=2))
            return 0
        # a run can take minutes, so the files it ends by writing are checked first
        out, rows = args.out, getattr(args, "csv", None)
        for flag, path in (("--out", out), ("--csv", rows)):
            if path == "":
                raise ValueError(f"{flag} needs a file name, not ''")
        if out and rows and os.path.realpath(out) == os.path.realpath(rows):
            raise ValueError(f"--csv {rows} and --out {out} name the same file")
        for path in (out, rows):
            if path:
                _check_writable(path)
        report, summary, rc = args.func(args)
        report["config"] = config
        report["version"] = __version__
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    except tuple(EXIT_CODES) as exc:
        rc, prefix = next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)
        print(f"{prefix} {exc}", file=sys.stderr)
        return rc
    if summary:
        print(summary)
    return rc


if __name__ == "__main__":
    sys.exit(main())
