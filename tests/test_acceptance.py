"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line so the suite doubles as a report.
All randomized checks use fixed seeds and three-standard-error tolerances.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from xhoglab import oracles, uprep
from xhoglab.cli import main
from xhoglab.fourier_lp import (
    build_primal,
    dual_certificate,
    naive_fourier_value,
    solve_primal_numeric,
    verify_dual_feasibility,
)
from xhoglab.linalg import (
    UnitaryOp,
    expected_max_simplex,
    haar_state_amps,
    trial_rng,
    unitary_channel_diamond_distance,
)
from xhoglab.oracles import OracleHandle, embed_extended_to_ancilla, random_prep_oracle
from xhoglab.symmetrize import random_resource, verify_symmetrization
from xhoglab.uprep import (
    channel_distance_bound_report,
    decompose_phi,
    rotation_R,
    swap_via_canonical,
)
from xhoglab.xhog import collision_rate_mc, max_xeb_mc, posterior_mc, run_experiment


def _report(num, desc, ok):
    print(f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_exact_one_query_value():
    t0 = time.perf_counter()
    ok = all(
        naive_fourier_value(n) == 3 - Fraction(2, 2**n) for n in (1, 2, 3, 4)
    )
    ok = ok and (time.perf_counter() - t0) <= 60.0
    _report(1, "exact 1-query value 3 - 2/2^n, n=1..4", ok)


def test_criterion_02_dual_certificate():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        cert = dual_certificate(n)
        transcript = verify_dual_feasibility(cert)  # raises on nonzero residual
        b = cert.b
        ok = ok and transcript.rstrip().endswith(
            f"OPTIMAL b = {b.numerator}/{b.denominator}"
        )
    ok = ok and (time.perf_counter() - t0) <= 10.0
    _report(2, "dual certificate, zero rational residuals, n=1..4", ok)


def test_criterion_03_numeric_lp():
    ok = True
    for n in (1, 2, 3):
        n_dim = 2**n
        value, _ = solve_primal_numeric(build_primal(n))
        ok = ok and abs(value - (3 - 2 / n_dim) / n_dim) <= 1e-9
    _report(3, "independent numeric LP optimum within 1e-9, n=1..3", ok)


def test_criterion_04_symmetrization():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for k in (1, 2, 3):
            for case in range(100):
                rng = trial_rng(1000 * n + 100 * k, case)
                psi = haar_state_amps(rng.standard_normal(2 * 2**n))
                spec = random_resource(k, rng)
                worst = max(worst, verify_symmetrization(psi, spec))
    ok = worst <= 1e-10 and (time.perf_counter() - t0) <= 120.0
    _report(4, "twirl vs protocol state, 100 cases per (n,k)", ok)


def test_criterion_05_query_ledgers():
    # every count is an oracle handle's calls; the circuits are looked up on their
    # modules, so the one-query mutations below reach them
    psi = haar_state_amps(trial_rng(5, 1).standard_normal(2 * 8))
    probes = np.eye(9, 2, -3, dtype=complex)
    ok = True
    for t in (1, 2, 3):
        prep = random_prep_oracle(psi, trial_rng(5, 0))
        oracles.refl_from_prep(prep, t, probes[:-1])
        ok = ok and prep.calls == 2 * t + 1
        prep = random_prep_oracle(psi, trial_rng(5, 0))
        oracles.canonical_from_prep(prep, t, embed_extended_to_ancilla(probes))
        ok = ok and prep.calls == 4 * t + 2
        _, calls = uprep.simulate_U_psi(psi, trial_rng(5, 2), "ideal", t=t)
        ok = ok and calls == 2 * t
    _report(5, "query ledgers 2T+1, 4T+2, 2T for T=1..3", ok)


def _one_query_off(monkeypatch, module, name, extra):
    """Mutate module.name: its first forward query is dropped (the input passes
    through, uncounted) or, with ``extra``, made twice."""
    real_apply, real_circuit = OracleHandle.apply, getattr(module, name)
    armed = []

    def apply(self, amps):
        if armed and armed.pop():
            if not extra:
                return np.asarray(amps, dtype=complex)
            real_apply(self, amps)
        return real_apply(self, amps)

    def circuit(*args, **kwargs):
        armed.append(True)
        try:
            return real_circuit(*args, **kwargs)
        finally:
            armed.clear()

    monkeypatch.setattr(OracleHandle, "apply", apply)
    monkeypatch.setattr(module, name, circuit)


@pytest.mark.parametrize("extra", [False, True], ids=["skip", "add"])
@pytest.mark.parametrize("module, name", [
    ("oracles", "refl_from_prep"), ("oracles", "canonical_from_prep"), ("uprep", "simulate_U_psi"),
])
def test_criterion_05_fails_a_circuit_one_query_off(module, name, extra, monkeypatch, capsys):
    _one_query_off(monkeypatch, {"oracles": oracles, "uprep": uprep}[module], name, extra)
    # a skipped O_psi query leaves simulate_U_psi's matrix non-unitary, which UnitaryOp rejects
    with pytest.raises((AssertionError, ValueError)):
        test_criterion_05_query_ledgers()
    if module == "oracles":  # verify oracles runs these two circuits, not the dense simulate_U_psi
        assert main(["verify", "oracles", "-n", "3", "--cases", "1", "--seed", "1"]) == 1
    capsys.readouterr()


def test_criterion_06_swap_and_channel_distance():
    ok = True
    # exact swap through the extended-space reflections
    for i in range(20):
        rng = trial_rng(6, i)
        psi = haar_state_amps(rng.standard_normal(2 * 16))
        phi = haar_state_amps(rng.standard_normal(2 * 16))
        plan = decompose_phi(psi, phi)
        s, _ = swap_via_canonical(psi, plan.psi_perp)
        dev = max(
            np.max(np.abs(s.mat @ np.append(psi, 0) - np.append(plan.psi_perp, 0))),
            np.max(np.abs(s.mat @ np.append(plan.psi_perp, 0) - np.append(psi, 0))),
        )
        ok = ok and dev <= 1e-10
    # rotation channel distance equals 2|<psi|phi>| on 100 instances
    for i in range(100):
        rng = trial_rng(60, i)
        psi = haar_state_amps(rng.standard_normal(2 * 8))
        phi = haar_state_amps(rng.standard_normal(2 * 8))
        plan = decompose_phi(psi, phi)
        d = unitary_channel_diamond_distance(rotation_R(plan), UnitaryOp(np.eye(8)))
        ok = ok and abs(d - 2 * abs(np.vdot(psi, phi))) <= 1e-8
    # T-composed simulation distance against (10T+4)/2^(n/2)
    for n in (6, 8):
        for t in (1, 2):
            rep = channel_distance_bound_report(n, t, 10_000, 600 + 10 * n + t)
            ok = ok and rep["mean_distance"] <= rep["bound"]
            ok = ok and rep["bound"] == (10 * t + 4) / 2 ** (n / 2)
    _report(6, "swap identity, distance equality, T-composed bound", ok)


def test_criterion_07_naive_score():
    ok = True
    for n in (4, 6, 8):
        est = run_experiment("naive", "canonical", n, 100_000, 70 + n)
        n_dim = 2**n
        target = 2 * n_dim / (n_dim + 1)
        ok = ok and abs(est.b_mean - target) <= 3 * est.std_err
    _report(7, "naive score 2N/(N+1) within 3 SE, n=4,6,8", ok)


def test_criterion_08_collision_rate_and_posterior():
    n = 4
    rate, se = collision_rate_mc(n, 1_000_000, 8)
    ok = abs(rate - 2 / (2**n * (2**n + 1))) <= 3 * se
    mean, pse, count = posterior_mc(n, 4, 2, 2_000_000, 88)
    ok = ok and count >= 100
    ok = ok and abs(mean - 3 / (2**n + 4)) <= 3 * pse
    _report(8, "collision rate 2/(N(N+1)) and posterior mean within 3 sigma", ok)


def test_criterion_09_collision_amplify():
    n, k, trials = 9, 8, 10_000
    est = run_experiment("collision_amplify", "canonical", n, trials, 2026, k=k)
    ok = est.b_mean >= 2.05
    # recorded query constant: c = 4.5 (worst observed trial uses 35 = 4.375 * 2^3)
    ok = ok and est.total_queries <= 4.5 * 2 ** (n / 3) * trials
    _report(9, "collision+amplify b >= 2.05 with O(2^(n/3)) queries", ok)


def test_criterion_10_expected_maximum():
    ok = True
    for n_dim in (16, 64, 256):
        mean, se = max_xeb_mc(n_dim, 200_000, 10 + n_dim)
        ok = ok and abs(mean - float(expected_max_simplex(n_dim))) <= 3 * se
    _report(10, "expected maximum H_N/N within 3 sigma, N=16,64,256", ok)


def test_criterion_11_reproducible_reports(tmp_path, monkeypatch, capsys):
    runs = {"xhog": [], "verify": [], "lp": []}
    for rep in ("one", "two"):
        d = tmp_path / rep
        d.mkdir()
        monkeypatch.chdir(d)
        assert main([
            "xhog", "--strategy", "naive", "--family", "canonical",
            "-n", "4", "--trials", "200", "--seed", "17", "--out", "x.json",
        ]) == 0
        assert main([
            "verify", "symmetrize", "-n", "1", "-k", "2", "--cases", "5",
            "--seed", "17", "--out", "v.json",
        ]) == 0
        assert main(["lp", "certify", "-n", "3", "--out", "l.json"]) == 0
        for key, name in (("xhog", "x.json"), ("verify", "v.json"), ("lp", "l.json")):
            lines = [
                ln for ln in (d / name).read_text().splitlines()
                if '"wall_seconds"' not in ln
            ]
            runs[key].append("\n".join(lines))
    capsys.readouterr()
    ok = all(a == b for a, b in runs.values())
    _report(11, "byte-identical reruns apart from wall_seconds", ok)
