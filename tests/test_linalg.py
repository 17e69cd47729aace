import math
from fractions import Fraction

import numpy as np
import pytest

from xhoglab import linalg
from xhoglab.linalg import (
    DensityMatrix,
    DimensionError,
    LazyHaarComplement,
    PureState,
    UnitaryOp,
    basis_state,
    expected_max_simplex,
    haar_state,
    haar_unitary,
    trace_distance,
    trial_rng,
    trial_streams,
    unitary_channel_diamond_distance,
)
from xhoglab.xhog import _exponential_chunks


def test_haar_state_norm_and_determinism():
    s1 = haar_state(3, 42)
    s2 = haar_state(3, 42)
    assert abs(np.vdot(s1.amps, s1.amps).real - 1.0) < 1e-12
    assert np.array_equal(s1.amps, s2.amps)
    assert not np.array_equal(s1.amps, haar_state(3, 43).amps)


def test_haar_state_range_check():
    with pytest.raises(DimensionError):
        haar_state(0, 1)
    with pytest.raises(DimensionError):
        haar_state(15, 1)


def test_haar_state_first_moment():
    trials = 20000
    rng = trial_rng(7, 0)
    acc = 0.0
    for _ in range(trials):
        acc += abs(linalg.haar_state_amps(4, rng)[0]) ** 2
    mean = acc / trials
    # |<0|psi>|^2 ~ Beta(1, 3): mean 1/4, var 3/80
    se = math.sqrt(3 / 80 / trials)
    assert abs(mean - 0.25) < 3 * se


def test_haar_unitary_is_unitary_and_deterministic():
    for dim in (1, 2, 5, 8):
        u = haar_unitary(dim, 3)
        assert np.max(np.abs(u.mat @ u.mat.conj().T - np.eye(dim))) < 1e-10
        v = haar_unitary(dim, 3)
        assert np.array_equal(u.mat, v.mat)


def test_haar_unitary_dim1_is_phase():
    u = haar_unitary(1, 9)
    assert abs(abs(u.mat[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_entry_moment():
    trials = 20000
    rng = trial_rng(11, 0)
    acc = 0.0
    for _ in range(trials):
        acc += abs(linalg.haar_unitary_mat(4, rng)[0, 0]) ** 2
    se = math.sqrt(3 / 80 / trials)
    assert abs(acc / trials - 0.25) < 3 * se


def _gaussian(dim, rng):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _assert_unitary_fixing_zero(w):
    dim = len(w)
    assert np.max(np.abs(w.conj().T @ w - np.eye(dim))) < 1e-10
    assert np.max(np.abs(w[:, 0] - np.eye(dim)[0])) < 1e-12
    assert np.max(np.abs(w[0, :] - np.eye(dim)[0])) < 1e-12


def test_lazy_haar_queries_are_consistent():
    rng = trial_rng(61, 0)
    w = LazyHaarComplement(16, rng)
    xs = [_gaussian(16, rng) for _ in range(3)]
    ys = [w.apply(x) for x in xs]
    assert w.rank == 3
    for x, y in zip(xs, ys):
        assert np.max(np.abs(w.apply_adjoint(y) - x)) < 1e-10
        assert np.max(np.abs(w.apply(x) - y)) < 1e-10
    assert w.rank == 3
    # an adjoint query on a fresh vector extends the frames from the output side
    z = _gaussian(16, rng)
    assert np.max(np.abs(w.apply(w.apply_adjoint(z)) - z)) < 1e-10
    assert w.rank == 4
    dense = w.materialize()
    _assert_unitary_fixing_zero(dense)
    for x, y in zip(xs, ys):
        assert np.max(np.abs(dense @ x - y)) < 1e-10
    x = _gaussian(16, rng)
    assert np.max(np.abs(w.apply(x) - dense @ x)) < 1e-10


def test_lazy_haar_single_qubit_and_full_frame():
    rng = trial_rng(71, 0)
    for dim in (1, 2, 9):  # materialized before any query
        _assert_unitary_fixing_zero(LazyHaarComplement(dim, rng).materialize())
    w = LazyHaarComplement(2, rng)  # n = 1: W is a phase on |1>
    y = w.apply(np.array([0.6, 0.8j]))
    assert abs(y[0] - 0.6) < 1e-12 and abs(abs(y[1]) - 0.8) < 1e-12
    w = LazyHaarComplement(8, rng)
    for _ in range(9):
        w.apply(_gaussian(8, rng))
    assert w.rank == 7  # the full frame: N - 1 columns, and no more
    dense = w.materialize()
    _assert_unitary_fixing_zero(dense)
    x = _gaussian(8, rng)
    assert np.max(np.abs(w.apply(x) - dense @ x)) < 1e-10


def test_lazy_haar_entry_moments():
    # w = <1|W|1> for a Haar W on the 3-dim complement: |w|^2 is Beta(1, 2)
    # (mean 1/3, var 1/18, E|w|^4 = 1/6) and the phase of w is uniform, so E[w^2] = 0
    trials = 20000
    w = np.array([LazyHaarComplement(4, trial_rng(73, i)).apply(np.eye(4)[1])[1] for i in range(trials)])
    assert abs(np.mean(np.abs(w) ** 2) - 1 / 3) < 3 * math.sqrt(1 / 18 / trials)
    assert abs(np.mean(w**2)) < 3 * math.sqrt(1 / 6 / trials)


def test_trial_streams_match_trial_rng(capsys):
    # 2^96 + 3 has five entropy words with the index, one more than the hash's pool
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**130 + 11)
    block = linalg.STREAM_BLOCK
    checked = (0, 1, block - 1, block, 2**25 - 1, 2**32 - 1)
    ranges = ((0, block + 1), (2**25 - 1, 2**25), (2**32 - 1, 2**32))
    for seed in seeds:
        seen = []
        for start, stop in ranges:
            for i, mine in zip(range(start, stop), trial_streams(seed, start, stop)):
                if i not in checked:
                    continue
                ref = trial_rng(seed, i)
                assert np.array_equal(mine.random(3), ref.random(3)), (seed, i)
                assert np.array_equal(mine.standard_normal(4), ref.standard_normal(4)), (seed, i)
                assert np.array_equal(mine.integers(0, 10, 5), ref.integers(0, 10, 5)), (seed, i)
                assert mine.bit_generator.state == ref.bit_generator.state, (seed, i)
                seen.append(i)
        assert seen == list(checked)
    for args in ((-1, 0, 1), (0, -1, 1), (0, 0, 2**32 + 1)):
        with pytest.raises(ValueError):
            trial_streams(*args)
    from xhoglab.cli import main

    argv = ["xhog", "--strategy", "naive", "--family", "canonical", "-n", "2", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_measure_computational_point_mass():
    assert linalg.born_sample(basis_state(8, 5).probabilities(), trial_rng(0, 0)) == 5


def test_born_sample_is_generator_choice():
    # the same inverse-CDF draw from the same uniforms, so seeded runs match
    for n in (1, 5, 256):
        probs = np.abs(trial_rng(3, n).normal(size=n)) ** 2
        for size in (None, 7):
            mine, ref = trial_rng(4, n), trial_rng(4, n)
            want = ref.choice(n, size=size, p=probs / probs.sum())
            assert np.array_equal(linalg.born_sample(probs, mine, size=size), want)
            assert mine.random() == ref.random()


def test_measure_computational_born_rule():
    state = PureState(np.array([math.sqrt(0.09), math.sqrt(0.91)]))
    # one batched draw takes the same uniforms as 10^5 scalar draws
    hits = int(np.sum(linalg.born_sample(state.probabilities(), trial_rng(13, 0), size=100_000) == 0))
    p = hits / 100000
    assert abs(p - 0.09) < 3 * math.sqrt(0.09 * 0.91 / 100000)


def test_trace_distance_examples():
    rho0, rho1, plus = (
        DensityMatrix(np.outer(v, v.conj()))
        for v in (np.eye(2)[0], np.eye(2)[1], np.array([1, 1]) / math.sqrt(2))
    )
    assert trace_distance(rho0, rho0) == 0
    assert abs(trace_distance(rho0, rho1) - 1.0) < 1e-12
    assert abs(trace_distance(rho0, plus) - 1 / math.sqrt(2)) < 1e-12


def test_diamond_distance_examples():
    ident = UnitaryOp(np.eye(2))
    assert unitary_channel_diamond_distance(ident, ident) == 0.0
    assert unitary_channel_diamond_distance(ident, UnitaryOp(-np.eye(2))) == 0.0
    assert abs(unitary_channel_diamond_distance(ident, UnitaryOp(np.diag([1.0, -1.0]))) - 2.0) < 1e-12


def test_diamond_distance_generic_phase_pair():
    # eigenvalues {1, e^(i*pi/2)}: chord geometry gives 2 sin(pi/4)
    u = UnitaryOp(np.diag([1.0, 1j]))
    got = unitary_channel_diamond_distance(u, UnitaryOp(np.eye(2)))
    assert abs(got - 2 * math.sin(math.pi / 4)) < 1e-12


def test_query_ledger_additive():
    a = UnitaryOp(np.eye(2), {"prep": 2})
    b = UnitaryOp(np.eye(2), {"prep": 3, "other": 1})
    assert (a @ b).query_ledger == {"prep": 5, "other": 1}


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.5, 0.6]))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))


def test_simplex_sample_basics():
    (e,) = _exponential_chunks(1, 1, trial_rng(0, 0), 1)
    assert (e / e.sum(axis=1, keepdims=True))[0, 0] == 1.0
    (e,) = _exponential_chunks(4, 3, trial_rng(5, 0), 3)
    probs = e / e.sum(axis=1, keepdims=True)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(probs >= 0)


def test_expected_max_values():
    assert expected_max_simplex(1) == 1
    assert expected_max_simplex(2) == Fraction(3, 4)
    assert expected_max_simplex(8) == Fraction(761, 2240)


def test_simplex_max_monte_carlo():
    for n_bins in (2, 4, 8, 16):
        rng = trial_rng(17, n_bins)
        (e,) = _exponential_chunks(n_bins, 20000, rng, 20000)
        samples = (e / e.sum(axis=1, keepdims=True)).max(axis=1)
        target = float(expected_max_simplex(n_bins))
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - target) < 3 * se


def test_bot_state_layout():
    b = linalg.bot_state(2)
    assert b.has_bot and b.dim == 5 and b.amps[4] == 1.0
    assert b.n_qubits == 2
