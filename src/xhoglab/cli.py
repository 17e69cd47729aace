"""Command-line entry point: experiment runner, verification sweeps, LP certification.

Every stochastic command requires an explicit --seed and is bit-reproducible:
rerunning with the same flags produces byte-identical reports apart from the
wall_seconds field.  Exit codes: 0 success, 1 verification/assertion failure,
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import SCHEMA_VERSION, __version__
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    PureState,
    bot_state,
    expected_max_simplex,
    haar_state_amps,
    rank2_identity_distance,
    trial_rng,
    trial_streams,
)

SIMPLEX_MIN_TRIALS = 100


def _emit(report, path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _finish(report, config, out_path, quiet_summary=None):
    report["config"] = config
    report["version"] = __version__
    try:
        _emit(report, out_path)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3
    if quiet_summary:
        print(quiet_summary)
    return 0


def cmd_xhog(args) -> int:
    from .fourier_lp import CrossCheckError
    from .xhog import FAMILIES, STRATEGIES, run_experiment

    if args.strategy not in STRATEGIES or args.family not in FAMILIES:
        print(f"error: unknown strategy/family {args.strategy}/{args.family}", file=sys.stderr)
        return 2
    if not args.exact and args.seed is None:
        print("error: --seed is required for stochastic runs", file=sys.stderr)
        return 2
    config = {
        "command": "xhog",
        "strategy": args.strategy,
        "family": args.family,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "k": args.k,
        "schedule": args.schedule,
        "exact": args.exact,
        "out": args.out,
        "csv": args.csv,
    }
    if args.emit_config:
        print(json.dumps(config, sort_keys=True, indent=2))
        return 0
    params = {"k": args.k, "schedule": args.schedule}
    try:
        est = run_experiment(
            args.strategy,
            args.family,
            args.n,
            args.trials,
            args.seed if args.seed is not None else 0,
            strategy_params=params,
            exact=args.exact,
            keep_trials=bool(args.csv),
        )
    except CrossCheckError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        try:
            est.write_csv(args.csv)
        except OSError as exc:
            print(f"error: cannot write csv: {exc}", file=sys.stderr)
            return 3
    report = est.to_json_dict()
    if est.exact_value is not None:
        v = est.exact_value
        summary = f"b={v.numerator}/{v.denominator} (exact)"
    else:
        summary = f"b={est.b_mean:.6f} ± {est.std_err:.6f} (queries={est.total_queries})"
    return _finish(report, config, args.out, summary)


def _check(checks, name, value, bound):
    ok = bool(value <= bound)
    checks.append({"name": name, "value": float(value), "bound": float(bound), "ok": ok})
    return ok


def _verify_symmetrize(args, checks):
    from .symmetrize import ResourceSpec, check_dense_cap, verify_symmetrization

    if not (1 <= args.n <= MAX_QUBITS and args.k >= 1 and args.cases >= 1):
        raise ValueError(f"symmetrize needs 1 <= -n <= {MAX_QUBITS}, -k >= 1 and --cases >= 1")
    check_dense_cap(2**args.n, args.k)
    for i, rng in enumerate(trial_streams(args.seed, 0, args.cases)):
        psi = PureState(haar_state_amps(2**args.n, rng))
        spec = ResourceSpec.random(args.k, rng)
        dev = verify_symmetrization(psi, spec)
        _check(checks, f"case_{i}_max_entry_deviation", dev, 1e-10)


def _verify_oracles(args, checks):
    from .oracles import HALF_SQRT2, _reflect, canonical_from_prep, canonical_oracle, refl_from_prep
    from .oracles import embed_extended_to_ancilla as embed, random_prep_oracle

    if not (1 <= args.n <= MAX_QUBITS and args.cases >= 1):
        raise ValueError(f"oracles needs 1 <= -n <= {MAX_QUBITS} and --cases >= 1")
    for i, rng in enumerate(trial_streams(args.seed, 0, args.cases)):
        psi = PureState(haar_state_amps(2**args.n, rng))
        o = canonical_oracle(psi)
        bot = bot_state(args.n).amps
        got = o.apply(bot)
        _check(checks, f"case_{i}_flag_to_psi", np.max(np.abs(got - psi.with_bot().amps)), 1e-10)
        _check(checks, f"case_{i}_involution", np.max(np.abs(o.apply(got) - bot)), 1e-10)
    # each simulation circuit runs against a sealed random prep oracle, which counts its calls
    rng = trial_rng(args.seed, args.cases)
    psi = PureState(haar_state_amps(2**args.n, rng))
    ext = np.column_stack([haar_state_amps(2**args.n + 1, rng) for _ in range(2)])  # probes
    reflected, oracled = ext[:-1], ext
    o = canonical_oracle(psi)
    for t in (1, 2, 3):
        reflected = np.column_stack([_reflect(psi.amps, c) for c in reflected.T])
        oracled = o.apply(oracled)
        prep = random_prep_oracle(psi, rng, sealed=True)
        copy, got = refl_from_prep(prep, t, ext[:-1])
        _check(checks, f"refl_ledger_T{t}", abs(prep.calls - (2 * t + 1)), 0)
        dev = max(np.max(np.abs(copy - psi.amps)), np.max(np.abs(got - reflected)))
        _check(checks, f"refl_action_T{t}", dev, 1e-10)
        prep = random_prep_oracle(psi, rng, sealed=True)
        copy, got = canonical_from_prep(prep, t, embed(ext))
        _check(checks, f"canonical_ledger_T{t}", abs(prep.calls - (4 * t + 2)), 0)
        want = embed(np.append(psi.amps, -1.0) * HALF_SQRT2)
        dev = max(np.max(np.abs(copy - want)), np.max(np.abs(got - embed(oracled))))
        _check(checks, f"canonical_action_T{t}", dev, 1e-10)


def _verify_uprep(args, checks):
    from .uprep import channel_distance_bound_report, decompose_phi, rotation_R

    rep = channel_distance_bound_report(args.n, args.t, args.trials, args.seed)
    _check(checks, f"mean_distance_T{args.t}", rep["mean_distance"], rep["bound"])
    for i, rng in enumerate(trial_streams(args.seed, 10**6, 10**6 + 8)):
        psi = PureState(haar_state_amps(2**args.n, rng))
        phi = PureState(haar_state_amps(2**args.n, rng))
        plan = decompose_phi(psi, phi)
        # R is I off span{psi, psi_perp}; the residual certifies that rank-2 subspace
        dist, residual = rank2_identity_distance(rotation_R(plan).mat)
        dev = max(abs(dist - 2 * abs(plan.beta)), residual)
        _check(checks, f"case_{i}_rotation_distance_equality", dev, 1e-8)


def _verify_simplex(args, checks):
    if not 1 <= args.big_n <= MAX_DIM:
        raise ValueError(
            f"simplex needs 1 <= -N <= {MAX_DIM}: above that, max_xeb_mc's 2048-row chunk"
            " would pass 256 MiB"
        )
    if args.trials < SIMPLEX_MIN_TRIALS:
        raise ValueError(
            f"simplex needs --trials >= {SIMPLEX_MIN_TRIALS}: with fewer trials the standard"
            " error is too noisy for the 3-SE gate, which then fails correct code"
        )
    from .xhog import max_xeb_mc

    mean, se = max_xeb_mc(args.big_n, args.trials, args.seed)
    target = float(expected_max_simplex(args.big_n))
    _check(checks, f"expected_max_N{args.big_n}", abs(mean - target), 3 * se)


def cmd_verify(args) -> int:
    suites = {
        "symmetrize": _verify_symmetrize,
        "oracles": _verify_oracles,
        "uprep": _verify_uprep,
        "simplex": _verify_simplex,
    }
    if args.suite not in suites:
        print(f"error: unknown suite {args.suite}", file=sys.stderr)
        return 2
    if args.seed is None:
        print("error: --seed is required", file=sys.stderr)
        return 2
    config = {
        "command": "verify",
        "suite": args.suite,
        "n": args.n,
        "k": args.k,
        "T": args.t,
        "cases": args.cases,
        "trials": args.trials,
        "N": args.big_n,
        "seed": args.seed,
        "out": args.out,
    }
    if args.emit_config:
        print(json.dumps(config, sort_keys=True, indent=2))
        return 0
    t0 = time.perf_counter()
    checks = []
    try:
        suites[args.suite](args, checks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = all(c["ok"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "seed": args.seed,
        "checks": checks,
        "ok": ok,
        "wall_seconds": time.perf_counter() - t0,
    }
    for c in checks:
        status = "OK" if c["ok"] else "FAIL"
        print(f"{c['name']}: deviation {c['value']:.3e} (bound {c['bound']:.3e}) {status}")
    rc = _finish(report, config, args.out)
    if rc:
        return rc
    return 0 if ok else 1


def cmd_lp(args) -> int:
    from .fourier_lp import (
        CERTIFY_CAP,
        ENUM_CAP,
        CertificateError,
        CrossCheckError,
        build_primal,
        dual_certificate,
        naive_fourier_value,
        solve_primal_numeric,
        verify_dual_feasibility,
    )

    config = {"command": "lp", "action": args.action, "n": args.n, "out": args.out}
    if args.emit_config:
        print(json.dumps(config, sort_keys=True, indent=2))
        return 0
    # checked before any work: dual_certificate's C(2^n, 2^(n-1)) alone takes
    # ~30 s at n = 20, and a negative n is no size at all; solve has no LP at n = 0
    n_range = {"certify": (0, CERTIFY_CAP), "solve": (1, ENUM_CAP), "naive-value": (0, ENUM_CAP)}
    lo, hi = n_range[args.action]
    if not lo <= args.n <= hi:
        print(f"error: lp {args.action} needs {lo} <= -n <= {hi}", file=sys.stderr)
        return 2
    report = {"schema_version": SCHEMA_VERSION, "action": args.action, "n": args.n}
    try:
        if args.action == "naive-value":
            b = naive_fourier_value(args.n)
            report["b_exact"] = f"{b.numerator}/{b.denominator}"
            summary = f"b = {b.numerator}/{b.denominator}"
        elif args.action == "certify":
            cert = dual_certificate(args.n)
            transcript = verify_dual_feasibility(cert)
            report["transcript"] = transcript
            report["b_exact"] = f"{cert.b.numerator}/{cert.b.denominator}"
            summary = transcript.rstrip("\n").splitlines()[-1]
        else:  # solve
            value, _ = solve_primal_numeric(build_primal(args.n))
            cert = dual_certificate(args.n)
            target = cert.b / 2**args.n
            report["optimal_value"] = value
            report["certificate_value"] = float(target)
            report["residual"] = abs(value - float(target))
            summary = f"optimum = {value:.12f} (certificate {float(target):.12f})"
            if report["residual"] > 1e-9:
                print(summary)
                print("error: numeric optimum disagrees with certificate", file=sys.stderr)
                return 1
    except CertificateError as exc:
        print(f"certificate invalid: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _finish(report, config, args.out, summary)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xhoglab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    px = sub.add_parser("xhog", help="run a scored heavy-output experiment")
    px.add_argument("--strategy", required=True)
    px.add_argument("--family", required=True)
    px.add_argument("-n", type=int, required=True)
    px.add_argument("--trials", type=int, default=1000)
    px.add_argument("--seed", type=int)
    px.add_argument("-k", type=int, default=2)
    px.add_argument("--schedule", choices=["fixed", "adaptive"], default="fixed")
    px.add_argument("--exact", action="store_true")
    px.add_argument("--out")
    px.add_argument("--csv")
    px.add_argument("--emit-config", action="store_true")
    px.set_defaults(func=cmd_xhog)

    pv = sub.add_parser("verify", help="run a randomized verification sweep")
    pv.add_argument("suite")
    pv.add_argument("-n", type=int, default=2)
    pv.add_argument("-k", type=int, default=2)
    pv.add_argument("-T", dest="t", type=int, default=1)
    pv.add_argument("--cases", type=int, default=20)
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("-N", dest="big_n", type=int, default=8)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--out")
    pv.add_argument("--emit-config", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("lp", help="exact/numeric linear program certification")
    pl.add_argument("action", choices=["certify", "solve", "naive-value"])
    pl.add_argument("-n", type=int, required=True)
    pl.add_argument("--out")
    pl.add_argument("--emit-config", action="store_true")
    pl.set_defaults(func=cmd_lp)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
