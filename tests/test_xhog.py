import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from xhoglab import linalg, xhog
from xhoglab.linalg import MAX_DIM, haar_state_amps, trial_rng, trial_streams
from xhoglab.oracles import (
    OracleHandle,
    canonical_oracle,
    fourier_coefficients_float,
    fourier_phase_oracle,
    random_prep_oracle,
    sample_oracle_output,
)
from xhoglab.xhog import (
    collision_rate_mc,
    fixed_grover_iterations,
    posterior_mc,
    run_experiment,
    strategy_collision_amplify,
    strategy_k_copy_mode,
    strategy_naive_sample,
)


def test_xeb_score_uniform_is_one():
    # the runner scores output z as N * probs[z]; a uniform z averages to 1
    probs = np.abs(haar_state_amps(trial_rng(1, 0).standard_normal(2 * 8))) ** 2
    assert abs(np.mean(8 * probs[np.arange(8)]) - 1.0) < 1e-12


def test_xeb_score_point_mass():
    probs = np.abs(np.eye(8)[0]) ** 2
    assert 8 * probs[0] == 8.0


def test_xeb_score_born_average():
    # E over Haar of the Born-averaged score, sum_z p_z * N p_z, is 2N/(N+1)
    trials = 20000
    vals = np.empty(trials)
    for i in range(trials):
        probs = np.abs(haar_state_amps(trial_rng(2, i).standard_normal(2 * 8))) ** 2
        vals[i] = np.dot(probs, 8 * probs)
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - 16 / 9) < 3 * se


def test_strategy_uniform():
    # uniform's string is the trial's rng.integers(N), drawn after its instance; no query
    est = run_experiment("uniform", "canonical", 3, 20, 3, keep_trials=True)
    assert all(0 <= z < 8 for z in est.z) and est.total_queries == 0
    for i in (0, 19):
        rng = trial_rng(3, i)
        rng.standard_normal(16)
        assert est.z[i] == rng.integers(8)
    assert np.array_equal(run_experiment("uniform", "canonical", 3, 20, 3, keep_trials=True).z, est.z)


def test_strategy_naive_point_state():
    handles = [canonical_oracle(np.eye(16)[0]), canonical_oracle(np.eye(16)[5])]
    z = strategy_naive_sample(handles, trial_rng(4, 0).random((2, 1)))
    assert z.tolist() == [0, 5] and [h.calls for h in handles] == [1, 1]


def test_strategy_naive_all_families():
    for family in ("canonical", "random_prep", "fourier"):
        est = run_experiment("naive", family, 2, 300, 5)
        assert est.total_queries == 300


def test_run_experiment_hands_strategies_only_the_queries(monkeypatch):
    # no accessor reaches the hidden state: a strategy sees each handle's kind, dim, query
    # count and the three query methods; 3-trial blocks put block edges inside each run
    seen = []

    def inspecting(oracles, u):
        seen.extend({name for name in dir(oracle) if not name.startswith("_")} for oracle in oracles)
        return np.zeros(len(oracles), dtype=np.intp)

    monkeypatch.setattr(xhog, "strategy_naive_sample", inspecting)
    monkeypatch.setattr(xhog, "TRIAL_BLOCK_ENTRIES", 3 * 4)
    for family in xhog.FAMILIES:
        run_experiment("naive", family, 2, 7, 5)
    public = {"apply", "apply_adjoint", "apply_controlled", "calls", "dim", "kind"}
    assert seen == [public] * (7 * len(xhog.FAMILIES))


def test_run_experiment_counts_queries_on_the_handle(monkeypatch):
    # a block strategy reports no query count: the total and the CSV column are the
    # handles' own calls
    real = xhog.strategy_naive_sample
    handles = []

    def recording(oracles, u):
        handles.extend(oracles)
        return real(oracles, u)

    monkeypatch.setattr(xhog, "strategy_naive_sample", recording)
    monkeypatch.setattr(xhog, "TRIAL_BLOCK_ENTRIES", 3 * 8)
    for family in xhog.FAMILIES:
        handles.clear()
        est = run_experiment("naive", family, 3, 20, 6, keep_trials=True)
        assert est.total_queries == 20 == sum(h.calls for h in handles)
        assert est.queries.tolist() == [1] * 20


def test_every_query_is_one_handle_call(monkeypatch, tmp_path):
    # the benchmark's tracer counts one query per OracleHandle.apply* call and checks the
    # count against total_queries, so no handle may serve several trials or queries
    counted = [0]

    def counting(real):
        def apply(self, amps):
            counted[0] += 1
            return real(self, amps)
        return apply

    for attr in ("apply", "apply_adjoint", "apply_controlled"):
        monkeypatch.setattr(OracleHandle, attr, counting(getattr(OracleHandle, attr)))
    monkeypatch.setattr(xhog, "TRIAL_BLOCK_ENTRIES", 20)
    ran = 0
    for strategy in xhog.STRATEGIES:
        for family in xhog.FAMILIES:
            for n in (1, 3):
                if strategy == "collision_amplify" and family == "fourier":
                    continue  # no state reflection; a usage error
                counted[0] = 0
                est = run_experiment(strategy, family, n, 11, 29, k=3, keep_trials=True)
                est.write_csv(tmp_path / "rows.csv")
                with open(tmp_path / "rows.csv") as fh:
                    column = sum(int(row["queries"]) for row in csv.DictReader(fh))
                assert counted[0] == est.total_queries == column, (strategy, family, n)
                ran += 1
    assert ran == 2 * (3 * 4 - 1)


@pytest.mark.parametrize("n", [1, 12])
def test_k_copy_block_memory_is_bounded_whatever_k(n):
    # a block holds O(rows (N + k)) entries; (rows, k, N) comparisons and (rows, k, k) tie
    # counts peaked at 513 MiB (n = 1) and 259 MiB (n = 14)
    run_experiment("k_copy_mode", "canonical", n, 1, 1, k=2)  # first-call allocations
    tracemalloc.start()
    try:
        run_experiment("k_copy_mode", "canonical", n, 2, 1, k=MAX_DIM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_k_copy_mode_tie_break_smallest():
    # flat state: all outcomes equally likely; each row's mode, ties to the smallest string
    psi = np.full(4, 0.5)
    u = trial_rng(6, 0).random((6, 3))
    handles = [canonical_oracle(psi) for _ in range(6)]
    z = strategy_k_copy_mode(handles, u)
    assert [h.calls for h in handles] == [3] * 6
    samples = sample_oracle_output([canonical_oracle(psi) for _ in range(6)], u)
    for got, row in zip(z, samples):
        counts = [row.tolist().count(s) for s in range(4)]
        assert got == counts.index(max(counts))
    assert any(len(set(row)) == 3 for row in samples.tolist())  # a three-way tie is seen


def test_k_copy_reduces_to_naive_at_k1():
    psi = haar_state_amps(trial_rng(7, 0).standard_normal((5, 2 * 8)))
    u = trial_rng(7, 1).random((5, 1))
    a = strategy_k_copy_mode([canonical_oracle(p) for p in psi], u)
    b = strategy_naive_sample([canonical_oracle(p) for p in psi], u)
    assert a.tolist() == b.tolist()


def test_block_random_prep_handles_cannot_draw(monkeypatch):
    # a block's random-prep handles are built after its streams are gone, so a query that
    # needs a fresh Haar direction raises, a usage-class error, instead of drawing
    handles = []
    real = xhog.strategy_naive_sample

    def keeping(oracles, u):
        handles.extend(oracles)
        return real(oracles, u)

    monkeypatch.setattr(xhog, "strategy_naive_sample", keeping)
    run_experiment("naive", "random_prep", 3, 4, 2)
    with pytest.raises(ValueError, match="no generator"):
        handles[0].apply(np.eye(8)[1])


def test_one_trial_random_prep_handle_draws_from_its_trial_stream(monkeypatch):
    # a block of one trial keeps its stream: its handle draws a fresh Haar direction
    # exactly as a handle built on trial_rng(seed, i) does after the same draws; the
    # probe runs inside the block, while the stream is still that trial's
    probe = np.arange(8) + 1j * np.arange(8)[::-1]
    answers = []
    real = xhog.strategy_naive_sample

    def probing(oracles, u):
        z = real(oracles, u)
        answers.extend(oracle.apply(probe) for oracle in oracles)
        return z

    monkeypatch.setattr(xhog, "strategy_naive_sample", probing)
    monkeypatch.setattr(xhog, "TRIAL_BLOCK_ENTRIES", 1)
    run_experiment("naive", "random_prep", 3, 4, 2)
    assert len(answers) == 4
    for i, answer in enumerate(answers):
        rng = trial_rng(2, i)
        psi = haar_state_amps(rng.standard_normal(16))
        reference = random_prep_oracle(psi, rng)
        sample_oracle_output([reference], rng.random((1, 1)))  # the copy's query of |0>
        assert np.array_equal(answer, reference.apply(probe)), i


def test_posterior_monte_carlo():
    mean, se, count = posterior_mc(2, 3, 2, 300000, 8)
    assert count > 1000
    assert abs(mean - 3 / 7) < 3 * se


@pytest.mark.parametrize("args", [(2, 3, 5, 1000, 1), (0, 3, 0, 1000, 1), (2, 3, -1, 1000, 1)])
def test_posterior_mc_rejects_an_m_no_row_can_meet(args):
    # m > k or m < 0 is checked before drawing; at N = 1 every draw is string 0, so m < k
    # leaves no row, which once returned (nan, nan, 0) after numpy warnings
    with pytest.raises(ValueError):
        posterior_mc(*args)


def test_collision_rate_mc():
    rate, se = collision_rate_mc(4, 300000, 9)
    assert abs(rate - 2 / (16 * 17)) < 3 * se


def test_monte_carlo_helpers_name_a_negative_seed():
    # they seed through trial_rng, which shares trial_streams' check of the seed
    for call in (lambda: collision_rate_mc(4, 10, -1), lambda: posterior_mc(2, 2, 1, 10, -1),
                 lambda: xhog.max_xeb_mc(8, 10, -1)):
        with pytest.raises(ValueError, match="^seed -1 is negative$"):
            call()


def test_fixed_grover_schedule():
    assert fixed_grover_iterations(9, 8) == math.ceil(math.pi / 4 * 16)


def test_collision_amplify_queries_and_validity():
    hits = 0
    for i in range(50):
        rng = trial_rng(11, i)
        psi = haar_state_amps(rng.standard_normal(2 * 64))
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
    psi = haar_state_amps(rng.standard_normal(2 * 16))
    out = strategy_collision_amplify(random_prep_oracle(psi, rng), 3, rng)
    assert 0 <= out.z < 16


def test_collision_amplify_rejects_fourier():
    # the fourier oracle has no state reflection; the runner rejects the pair up front
    with pytest.raises(ValueError, match="--family fourier"):
        run_experiment("collision_amplify", "fourier", 2, 1, 13, k=3)


def test_chernoff_mass_event_rate():
    # k = 8 measurements of a Haar state at n = 9 carry mass >= k/2^(n+2) almost surely
    assert _loop_chernoff(9, 8, 2000, 14, 50_000) >= 0.99


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
    assert _loop_chernoff(3, 1, 10_000, 5, 3_000) == 0.9755
    assert _loop_chernoff(3, 1, 10_000, 5, 50_000) == 0.9767


def test_draw_rows_is_the_count_of_entries_below_u():
    # the first entry not below u, on rows that make a prefix rule slip: zero
    # probabilities (runs of equal entries), u = 0, u equal to an entry, a cumsum
    # that rounds above 1 before the pin, and N = 1
    rows = [
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.25, 0.75],
        [0.25, 0.25, 0.0, 0.5],
        [0.5, 0.5 + 2**-52, 1e-17, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    cdf = xhog._row_cdf(np.array(rows))
    assert cdf[3, 1] > 1.0 and cdf[3, -1] == 1.0  # the rounded entry stays above the pin
    us = sorted({0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0), *np.random.default_rng(3).random(20)})
    for width, table in ((4, cdf), (1, xhog._row_cdf(np.array([[1.0]])))):
        for u in us:
            want = (table < u).sum(axis=1)
            assert np.array_equal(xhog._draw_rows(table, np.full(len(table), u)), want), (width, u)


def _loop_sample_rows(probs, rng):
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return (cum < u[:, None]).sum(axis=1)


def _loop_collision_rate(n, trials, seed, chunk):
    rng = trial_rng(seed, 0)
    hits = 0
    for probs in xhog._exponential_chunks(2**n, trials, rng, chunk):
        probs /= probs.sum(axis=1, keepdims=True)
        hits += int(np.sum(_loop_sample_rows(probs, rng) == _loop_sample_rows(probs, rng)))
    rate = hits / trials
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return rate / 2**n, se / 2**n


def _loop_posterior(n, k, m, trials, seed, chunk):
    rng = trial_rng(seed, 0)
    vals = []
    for probs in xhog._exponential_chunks(2**n, trials, rng, chunk):
        probs /= probs.sum(axis=1, keepdims=True)
        counts = np.zeros(len(probs), dtype=np.int64)
        for _ in range(k):
            counts += _loop_sample_rows(probs, rng) == 0
        vals.append(probs[counts == m, 0])
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals))), len(vals)


def _loop_chernoff(n, k, trials, seed, chunk):
    rng = trial_rng(seed, 0)
    hits = 0
    for probs in xhog._exponential_chunks(2**n, trials, rng, chunk):
        probs /= probs.sum(axis=1, keepdims=True)
        mass = np.zeros(len(probs))
        for _ in range(k):
            mass += np.take_along_axis(probs, _loop_sample_rows(probs, rng)[:, None], 1)[:, 0]
        hits += int(np.sum(mass >= k / 2 ** (n + 2)))
    return hits / trials


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
def test_mc_helpers_match_a_per_draw_loop(n):
    # the reference builds a fresh CDF and draws one uniform vector per sample;
    # 1100-row chunks end in a partial chunk of 800 rows
    trials, chunk = 3000, 1100
    m = 4 if n == 0 else 1  # at N = 1 every draw is string 0, so only m = k is seen
    for seed in range(6):
        assert collision_rate_mc(n, trials, seed, chunk) == _loop_collision_rate(n, trials, seed, chunk)
        assert posterior_mc(n, 4, m, trials, seed, chunk) == _loop_posterior(n, 4, m, trials, seed, chunk)


def test_haar_state_max_probability_matches_simplex_statistics():
    trials = 20000
    vals = np.empty(trials)
    for i, rng in enumerate(trial_streams(15, 0, trials)):
        psi = haar_state_amps(rng.standard_normal(2 * 16))
        vals[i] = (np.abs(psi) ** 2).max()
    target = float(sum(Fraction(1, j) for j in range(1, 17)) / 16)
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - target) < 3 * se


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


def _reference_loop(strategy, family, n, trials, seed, k):
    """The runner's trials, one trial_rng stream and one instance at a time."""
    n_dim = 2**n
    zs, scores, queries = [], [], []
    for i in range(trials):
        rng = trial_rng(seed, i)
        if family == "fourier":
            table = 1 - 2 * rng.integers(0, 2, size=n_dim)
            oracle, probs = fourier_phase_oracle(table), fourier_coefficients_float(table) ** 2
        else:
            psi = haar_state_amps(rng.standard_normal(2 * n_dim))
            oracle = canonical_oracle(psi) if family == "canonical" else random_prep_oracle(psi, rng)
            probs = np.abs(psi) ** 2
        if strategy == "uniform":
            z = int(rng.integers(n_dim))
        elif strategy == "collision_amplify":
            z = strategy_collision_amplify(oracle, k, rng).z
        else:
            copies = 1 if strategy == "naive" else k
            z = int(np.argmax(np.bincount(sample_oracle_output([oracle], rng.random((1, copies)))[0])))
        zs.append(z)
        scores.append(n_dim * probs[z])
        queries.append(oracle.calls)
    return zs, scores, queries


def test_run_experiment_matches_a_trial_rng_loop(monkeypatch):
    # small stream and trial blocks put block edges inside every run; the second pass runs
    # every strategy in one-trial blocks, whose handles keep their trial's stream
    monkeypatch.setattr(linalg, "STREAM_BLOCK", 7)
    ks_of = {"k_copy_mode": (1, 3), "collision_amplify": (1, 3)}
    ran = 0
    for one_trial_blocks in (False, True):
        for strategy in xhog.STRATEGIES:
            for family in xhog.FAMILIES:
                for n in (1, 3, 5):
                    entries = 1 if one_trial_blocks else 3 * 2**n  # 1, or 2 or 3 trials
                    monkeypatch.setattr(xhog, "TRIAL_BLOCK_ENTRIES", entries)
                    for k in ks_of.get(strategy, (2,)):
                        try:
                            est = run_experiment(strategy, family, n, 16, 23, k=k, keep_trials=True)
                        except ValueError:
                            continue  # the runner's own rules; the count below pins which
                        want = _reference_loop(strategy, family, n, 16, 23, k)
                        got = (est.z.tolist(), est.scores.tolist(), est.queries.tolist())
                        assert got == want, (one_trial_blocks, strategy, family, n, k)
                        ran += 1
    # per n: 3 families for uniform and naive, 2 k's for k_copy_mode; collision_amplify
    # needs k >= 2 and a state reflection, so it runs 1 k on 2 families
    assert ran == 2 * 3 * (2 * 3 + 2 * 3 + 1 * 2)


def test_every_strategy_outputs_without_the_scoring_probabilities(monkeypatch):
    # a strategy sees the hidden state only through its oracle handles: with the scoring
    # probabilities replaced by NaN, every trial outputs the same string
    def outputs(strategy, family, n):
        blocks = xhog._trial_blocks(strategy, family, 2**n, 3, 12, trial_streams(31, 0, 12))
        return np.concatenate([np.asarray(z) for z, _, _ in blocks]).tolist()

    hidden = xhog._hidden_instances

    def blind(family, draws, rng):
        oracles, probs = hidden(family, draws, rng)
        return oracles, np.full_like(probs, np.nan)

    ran = 0
    for strategy in xhog.STRATEGIES:
        for family in xhog.FAMILIES:
            for n in (1, 3, 5):
                if strategy == "collision_amplify" and family == "fourier":
                    continue  # no state reflection; a usage error
                want = outputs(strategy, family, n)
                with monkeypatch.context() as m:
                    m.setattr(xhog, "_hidden_instances", blind)
                    assert outputs(strategy, family, n) == want, (strategy, family, n)
                ran += 1
    assert ran == 33


def test_a_random_prep_handle_kept_past_its_block_raises():
    # trial_streams yields one shared Generator, so a one-trial block's handle queried after
    # its block would draw its fresh Haar direction from a later trial's stream
    blocks = xhog._trial_blocks("collision_amplify", "random_prep", 8, 2, 3, trial_streams(5, 0, 3))
    kept = [oracles[0] for _, _, oracles in blocks]
    for oracle in kept:
        with pytest.raises(ValueError, match="block"):
            oracle.apply(np.eye(8)[3])


def test_k_copy_upper_bound_chain():
    # b <= 2 + 2 C(k,2) * N * 2/(N(N+1)) + slack, per the posterior chain
    n, k, trials = 6, 8, 20000
    est = run_experiment("k_copy_mode", "canonical", n, trials, 19, k=k)
    n_dim = 2**n
    bound = 2 + 2 * math.comb(k, 2) * 2 / (n_dim + 1)
    assert est.b_mean <= bound + 5 * est.std_err


def test_run_experiment_pinned_outputs():
    # seeded (b_mean, std_err, total_queries) recorded when every copy drew its own
    # Born CDF and fwht was a butterfly; the first four are the benchmark's kinds
    pinned = [
        ("naive", "canonical", 8, 40, 2, (1.689618308926773, 0.22001799686527498, 40)),
        ("naive", "fourier", 8, 40, 2, (2.6171875, 0.36700588798397205, 40)),
        ("k_copy_mode", "canonical", 6, 40, 4, (1.930025566990676, 0.14020167213959756, 160)),
        ("collision_amplify", "canonical", 9, 20, 8, (1.7694850191808746, 0.20909919802661103, 700)),
        ("k_copy_mode", "random_prep", 5, 40, 3, (1.9497285528986232, 0.1952062647144959, 120)),
        ("collision_amplify", "random_prep", 5, 40, 3, (1.7415014818187, 0.1461262515354837, 562)),
        ("naive", "fourier", 3, 200, 2, (3.0675, 0.15746410215454404, 200)),
        ("naive", "fourier", 5, 200, 2, (3.4375, 0.193675520617429, 200)),
    ]
    for strategy, family, n, trials, k, want in pinned:
        est = run_experiment(strategy, family, n, trials, 1, k=k)
        assert (est.b_mean, est.std_err, est.total_queries) == want, (strategy, family, n)


def test_run_experiment_accepts_k_at_the_cap():
    # the caps above it are exit-2 cases in test_cli.py
    est = run_experiment("k_copy_mode", "canonical", 1, 2, 1, k=MAX_DIM)
    assert est.total_queries == 2 * MAX_DIM
