import math
from fractions import Fraction

import numpy as np
import pytest

from xhoglab import linalg, xhog
from xhoglab.linalg import MAX_DIM, PureState, basis_state, haar_state_amps, trial_rng
from xhoglab.oracles import (
    OracleSealedError,
    SignFunction,
    canonical_oracle,
    fourier_phase_oracle,
    random_prep_oracle,
)
from xhoglab.xhog import (
    collision_rate_mc,
    chernoff_mass_rate,
    fixed_grover_iterations,
    posterior_expectation,
    posterior_mc,
    run_experiment,
    strategy_argmax,
    strategy_collision_amplify,
    strategy_k_copy_mode,
    strategy_naive_sample,
    strategy_uniform,
)


def test_xeb_score_uniform_is_one():
    # the runner scores output z as N * probs[z]; a uniform z averages to 1
    probs = np.abs(haar_state_amps(8, trial_rng(1, 0))) ** 2
    assert abs(np.mean(8 * probs[np.arange(8)]) - 1.0) < 1e-12


def test_xeb_score_point_mass():
    probs = basis_state(8, 0).probabilities()
    assert 8 * probs[0] == 8.0


def test_xeb_score_born_average():
    # E over Haar of the Born-averaged score, sum_z p_z * N p_z, is 2N/(N+1)
    trials = 20000
    vals = np.empty(trials)
    for i in range(trials):
        probs = np.abs(haar_state_amps(8, trial_rng(2, i))) ** 2
        vals[i] = np.dot(probs, 8 * probs)
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - 16 / 9) < 3 * se


def test_strategy_uniform():
    out = strategy_uniform(3, trial_rng(3, 0))
    assert 0 <= out.z < 8 and out.queries_used == 0
    assert strategy_uniform(3, trial_rng(3, 0)).z == out.z


def test_strategy_naive_point_state():
    oracle = canonical_oracle(basis_state(16, 0))
    out = strategy_naive_sample(oracle, trial_rng(4, 0))
    assert out.z == 0 and out.queries_used == 1


def test_strategy_naive_all_families():
    for family in ("canonical", "random_prep", "fourier"):
        est = run_experiment("naive", family, 2, 300, 5)
        assert est.total_queries == 300


def test_run_experiment_seals_oracles(monkeypatch):
    def peeking(oracle, rng):
        oracle.peek_metadata()

    monkeypatch.setattr(xhog, "strategy_naive_sample", peeking)
    for family in xhog.FAMILIES:
        with pytest.raises(OracleSealedError):
            run_experiment("naive", family, 2, 1, 5)


def test_k_copy_mode_tie_break_smallest():
    # flat state: all outcomes equally likely, mode of distinct draws is smallest
    psi = PureState(np.full(4, 0.5))
    rng = trial_rng(6, 0)
    out = strategy_k_copy_mode(canonical_oracle(psi), 3, rng)
    assert out.queries_used == 3
    assert 0 <= out.z < 4


def test_k_copy_reduces_to_naive_at_k1():
    psi = PureState(haar_state_amps(8, trial_rng(7, 0)))
    a = strategy_k_copy_mode(canonical_oracle(psi), 1, trial_rng(7, 1))
    b = strategy_naive_sample(canonical_oracle(psi), trial_rng(7, 1))
    assert a.z == b.z


def test_posterior_expectation():
    assert posterior_expectation(0, 3, 5) == Fraction(1, 13)
    assert posterior_expectation(2, 2, 3) == Fraction(3, 7)
    with pytest.raises(ValueError):
        posterior_expectation(4, 2, 3)


def test_posterior_monte_carlo():
    mean, se, count = posterior_mc(2, 3, 2, 300000, 8)
    assert count > 1000
    assert abs(mean - 3 / 7) < 3 * se


def test_collision_rate_mc():
    rate, se = collision_rate_mc(4, 300000, 9)
    assert abs(rate - 2 / (16 * 17)) < 3 * se


def test_fixed_grover_schedule():
    assert fixed_grover_iterations(9, 8) == math.ceil(math.pi / 4 * 16)


def test_collision_amplify_flat_state_adaptive():
    n = 4
    psi = PureState(np.full(16, 0.25))
    out = strategy_collision_amplify(canonical_oracle(psi), 4, trial_rng(10, 0), "adaptive")
    assert 0 <= out.z < 16
    assert out.queries_used <= 4 + 1 + 2 * 64


def test_collision_amplify_queries_and_validity():
    hits = 0
    for i in range(50):
        rng = trial_rng(11, i)
        psi = PureState(haar_state_amps(64, rng))
        out = strategy_collision_amplify(canonical_oracle(psi), 4, rng)
        t = fixed_grover_iterations(6, 4)
        if out.auxiliary.get("collision"):
            assert out.queries_used <= 4
        else:
            assert out.queries_used == 4 + 1 + 2 * t
            hits += out.auxiliary["amplified_hit"]
    assert hits > 0


def test_collision_amplify_random_prep_family():
    rng = trial_rng(12, 0)
    psi = PureState(haar_state_amps(16, rng))
    out = strategy_collision_amplify(random_prep_oracle(psi, rng), 3, rng)
    assert 0 <= out.z < 16


def test_collision_amplify_rejects_fourier():
    f = SignFunction.random(2, trial_rng(13, 0))
    with pytest.raises(ValueError):
        strategy_collision_amplify(fourier_phase_oracle(f), 3, trial_rng(13, 1))


def test_chernoff_mass_event_rate():
    assert chernoff_mass_rate(9, 8, 2000, 14) >= 0.99


def test_max_xeb_mc_does_not_depend_on_chunk():
    # nothing is drawn between chunks, so 7000-row chunks and the default
    # chunks (the last one partial in both) consume the stream exactly like a
    # single 30000-row chunk
    for seed in (0, 3):
        one = xhog.max_xeb_mc(256, 30_000, seed, chunk=30_000)
        assert xhog.max_xeb_mc(256, 30_000, seed, chunk=7_000) == one
        assert xhog.max_xeb_mc(256, 30_000, seed) == one


def test_mc_helpers_pinned_outputs():
    # seeded outputs recorded when every chunk was a fresh rng.exponential
    # array; 3000-row chunks end in a partial chunk of 1000 rows
    assert xhog.max_xeb_mc(256, 30_000, 1, chunk=7_000) == (0.023940338519521764, 2.7905978307813284e-05)
    assert xhog.max_xeb_mc(16, 5_000, 2) == (0.21160174376541355, 0.0007952146091914986)
    assert collision_rate_mc(4, 10_000, 5, chunk=3_000) == (0.00715625, 0.0001990109823445681)
    assert collision_rate_mc(4, 10_000, 5) == (0.00726875, 0.00020036520367506432)
    assert posterior_mc(3, 4, 1, 10_000, 5, chunk=3_000) == (0.1673269073188455, 0.002039663405082417, 2608)
    assert posterior_mc(3, 4, 1, 10_000, 5) == (0.1662223578986673, 0.0020560313031347337, 2551)
    assert chernoff_mass_rate(3, 1, 10_000, 5, chunk=3_000) == 0.9755
    assert chernoff_mass_rate(3, 1, 10_000, 5) == 0.9767


def test_strategy_argmax():
    out = strategy_argmax(basis_state(8, 3))
    assert out.z == 3
    assert out.auxiliary == {"query_model": False}


def test_argmax_matches_simplex_statistics():
    trials = 20000
    vals = np.empty(trials)
    for i in range(trials):
        psi = PureState(haar_state_amps(16, trial_rng(15, i)))
        vals[i] = psi.probabilities().max()
    target = float(sum(Fraction(1, j) for j in range(1, 17)) / 16)
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - target) < 3 * se


def test_argmax_b_tracks_harmonic_number():
    for n in (4, 6):
        est = run_experiment("argmax", "canonical", n, 2000, 16)
        h = float(sum(Fraction(1, j) for j in range(1, 2**n + 1)))
        assert 0.9 < est.b_mean / h < 1.1


def test_run_experiment_uniform_b_one():
    est = run_experiment("uniform", "canonical", 5, 5000, 17)
    assert abs(est.b_mean - 1.0) < 3 * est.std_err
    assert est.total_queries == 0


def test_run_experiment_exact_fourier():
    est = run_experiment("naive", "fourier", 3, 1, 0, exact=True)
    assert est.exact_value == Fraction(11, 4)
    assert est.to_json_dict()["b_exact"] == "11/4"


def test_run_experiment_rejects_bad_input():
    with pytest.raises(ValueError):
        run_experiment("naive", "canonical", 3, 0, 1)
    with pytest.raises(ValueError):
        run_experiment("nope", "canonical", 3, 10, 1)
    with pytest.raises(ValueError):
        run_experiment("naive", "nope", 3, 10, 1)
    with pytest.raises(ValueError):
        run_experiment("uniform", "canonical", 3, 10, 1, exact=True)


def test_run_experiment_reproducible_and_ledger_consistent():
    a = run_experiment("naive", "canonical", 3, 200, 18, keep_trials=True)
    b = run_experiment("naive", "canonical", 3, 200, 18, keep_trials=True)
    assert a.b_mean == b.b_mean and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("z", "scores", "queries"))
    assert a.total_queries == a.queries.sum()
    assert np.all(np.abs(a.scores) >= 0)


def _reference_loop(strategy, family, n, trials, seed, params):
    """The runner's trials, one trial_rng stream each."""
    zs, scores, queries = [], [], []
    for i in range(trials):
        rng = trial_rng(seed, i)
        oracle, probs, psi = xhog._hidden_instance(family, n, rng)
        outcome = xhog._run_strategy(strategy, params, oracle, probs, psi, n, rng)
        zs.append(outcome.z)
        scores.append(2**n * probs[outcome.z])
        queries.append(outcome.queries_used)
    return zs, scores, queries


def test_run_experiment_matches_a_trial_rng_loop(monkeypatch):
    # a small block puts block edges inside every run
    monkeypatch.setattr(linalg, "STREAM_BLOCK", 7)
    params_of = {"k_copy_mode": ({"k": 1}, {"k": 3}),
                 "collision_amplify": ({"k": 1}, {"k": 3}, {"k": 3, "schedule": "adaptive"})}
    ran = 0
    for strategy in xhog.STRATEGIES:
        for family in xhog.FAMILIES:
            for n in (1, 3, 5):
                for params in params_of.get(strategy, ({},)):
                    try:
                        want = _reference_loop(strategy, family, n, 16, 23, params)
                    except ValueError:
                        with pytest.raises(ValueError):
                            run_experiment(strategy, family, n, 16, 23, strategy_params=params)
                        continue
                    est = run_experiment(strategy, family, n, 16, 23, strategy_params=params,
                                         keep_trials=True)
                    got = (est.z.tolist(), est.scores.tolist(), est.queries.tolist())
                    assert got == want, (strategy, family, n, params)
                    ran += 1
    # per n: 3 families for uniform, naive and argmax, 2 k's for k_copy_mode; collision_amplify
    # needs k >= 2 and a state reflection, so it runs 2 params on 2 families
    assert ran == 3 * (3 * 3 + 2 * 3 + 2 * 2)


def test_k_copy_upper_bound_chain():
    # b <= 2 + 2 C(k,2) * N * 2/(N(N+1)) + slack, per the posterior chain
    n, k, trials = 6, 8, 20000
    est = run_experiment("k_copy_mode", "canonical", n, trials, 19, strategy_params={"k": k})
    n_dim = 2**n
    bound = 2 + 2 * math.comb(k, 2) * 2 / (n_dim + 1)
    assert est.b_mean <= bound + 5 * est.std_err


def test_run_experiment_pinned_outputs():
    # seeded (b_mean, std_err, total_queries) recorded when every copy drew its own
    # Born CDF and fwht was a butterfly; the first four are the benchmark's kinds
    pinned = [
        ("naive", "canonical", 8, 40, {}, (1.689618308926773, 0.22001799686527498, 40)),
        ("naive", "fourier", 8, 40, {}, (2.6171875, 0.36700588798397205, 40)),
        ("k_copy_mode", "canonical", 6, 40, {"k": 4}, (1.930025566990676, 0.14020167213959756, 160)),
        ("collision_amplify", "canonical", 9, 20, {"k": 8}, (1.7694850191808746, 0.20909919802661103, 700)),
        ("k_copy_mode", "random_prep", 5, 40, {"k": 3}, (1.9497285528986232, 0.1952062647144959, 120)),
        ("collision_amplify", "random_prep", 5, 40, {"k": 3}, (1.7415014818187, 0.1461262515354837, 562)),
        ("naive", "fourier", 3, 200, {}, (3.0675, 0.15746410215454404, 200)),
        ("naive", "fourier", 5, 200, {}, (3.4375, 0.193675520617429, 200)),
    ]
    for strategy, family, n, trials, params, want in pinned:
        est = run_experiment(strategy, family, n, trials, 1, strategy_params=params)
        assert (est.b_mean, est.std_err, est.total_queries) == want, (strategy, family, n)


def test_run_experiment_accepts_k_at_the_cap():
    # the caps above it are exit-2 cases in test_cli.py
    est = run_experiment("k_copy_mode", "canonical", 1, 2, 1, strategy_params={"k": MAX_DIM})
    assert est.total_queries == 2 * MAX_DIM
