import math
from fractions import Fraction

import numpy as np
import pytest

from xhoglab import linalg
from xhoglab.linalg import (
    DensityMatrix,
    LazyHaarComplement,
    UnitaryOp,
    expected_max_simplex,
    haar_state_amps,
    haar_unitary_mat,
    trial_rng,
    trial_streams,
    unitary_channel_diamond_distance,
)
from xhoglab.xhog import _exponential_chunks


def test_haar_state_norm_and_determinism():
    s1 = haar_state_amps(np.random.default_rng(42).standard_normal(2 * 8))
    s2 = haar_state_amps(np.random.default_rng(42).standard_normal(2 * 8))
    assert abs(np.vdot(s1, s1).real - 1.0) < 1e-12
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, haar_state_amps(np.random.default_rng(43).standard_normal(2 * 8)))


@pytest.mark.parametrize("n", [1, 3, 8, 14])
def test_haar_state_rows_match_single_rows(n):
    # a block is normalized bit-for-bit as its rows one at a time, and as np.linalg.norm does
    g = trial_rng(41, n).standard_normal((5, 2 * 2**n))
    block = haar_state_amps(g)
    for row, want in zip(g, block):
        assert np.array_equal(haar_state_amps(row), want)
        z = row[: 2**n] + 1j * row[2**n :]
        assert np.array_equal(z / np.linalg.norm(z), want)


def test_haar_state_range_check():
    # the runner checks the qubit count before it draws any Haar state
    from xhoglab.xhog import run_experiment

    for n in (0, 15):
        with pytest.raises(ValueError, match=r"xhog needs 1 <= -n <= 14"):
            run_experiment("naive", "canonical", n, 1, 1)


def test_haar_state_first_moment():
    trials = 20000
    rng = trial_rng(7, 0)
    acc = 0.0
    for _ in range(trials):
        acc += abs(linalg.haar_state_amps(rng.standard_normal(2 * 4))[0]) ** 2
    mean = acc / trials
    # |<0|psi>|^2 ~ Beta(1, 3): mean 1/4, var 3/80
    se = math.sqrt(3 / 80 / trials)
    assert abs(mean - 0.25) < 3 * se


def test_haar_unitary_is_unitary_and_deterministic():
    for dim in (1, 2, 5, 8):
        u = UnitaryOp(haar_unitary_mat(dim, np.random.default_rng(3)))
        assert np.max(np.abs(u.mat @ u.mat.conj().T - np.eye(dim))) < 1e-10
        v = UnitaryOp(haar_unitary_mat(dim, np.random.default_rng(3)))
        assert np.array_equal(u.mat, v.mat)


def test_haar_unitary_dim1_is_phase():
    u = UnitaryOp(haar_unitary_mat(1, np.random.default_rng(9)))
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


def test_lazy_haar_rank_zero_query_on_zero():
    # with no frame, a query on span(|0>) is answered as x[0]|0> and draws nothing
    for dim in (1, 2, 16):
        rng = trial_rng(79, dim)
        w = LazyHaarComplement(dim, rng)
        state = rng.bit_generator.state
        x = np.zeros(dim, dtype=complex)
        x[0] = 0.6 - 0.8j
        for query in (w.apply, w.apply_adjoint):
            y = query(x)
            assert np.array_equal(y, x) and y is not x
        assert w.rank == 0 and rng.bit_generator.state == state


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
    assert linalg.born_sample(np.eye(8)[[5]] ** 2, trial_rng(0, 0).random((1, 1))) == [[5]]
    u = trial_rng(0, 1).random((2, 3))
    assert linalg.born_sample(np.eye(8)[[5, 2]] ** 2, u).tolist() == [[5] * 3, [2] * 3]


def test_born_sample_is_generator_choice():
    # each row's draws are the inverse-CDF draws of choice from the same uniforms, so seeded
    # runs match, and a block of rows gives each row's own draws
    for n in (1, 5, 256):
        probs = np.abs(trial_rng(3, n).normal(size=(4, n))) ** 2
        for size in (1, 7):
            u = np.stack([trial_rng(4, 10 * n + j).random(size) for j in range(4)])
            want = [trial_rng(4, 10 * n + j).choice(n, size=size, p=p / p.sum())
                    for j, p in enumerate(probs)]
            assert np.array_equal(linalg.born_sample(probs, u), want)
            for j in range(4):
                assert np.array_equal(linalg.born_sample(probs[[j]], u[[j]])[0], want[j])


def test_measure_computational_born_rule():
    state = np.array([math.sqrt(0.09), math.sqrt(0.91)])
    # one batched draw takes the same uniforms as 10^5 scalar draws
    u = trial_rng(13, 0).random((1, 100_000))
    hits = int(np.sum(linalg.born_sample(np.abs(state[None]) ** 2, u) == 0))
    p = hits / 100000
    assert abs(p - 0.09) < 3 * math.sqrt(0.09 * 0.91 / 100000)


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


def test_stacked_distances_equal_the_per_block_calls():
    # Haar blocks mostly hold the origin in their hull; blocks with eigenphases in
    # [-1, 1] never do, so both branches of the hull distance run
    rng = trial_rng(89, 0)
    for r in range(1, 7):
        blocks = []
        for _ in range(6):
            v = haar_unitary_mat(r, rng)
            blocks.append(haar_unitary_mat(r, rng))
            blocks.append((v * np.exp(1j * rng.uniform(-1.0, 1.0, r))) @ v.conj().T)
        stack = np.array(blocks)
        for dim in (r, r + 3):
            got = linalg.block_diamond_distance(stack, dim)
            assert got.shape == (len(blocks),) and np.any(got < 2.0)
            assert np.array_equal(got, [linalg.block_diamond_distance(b, dim) for b in blocks])
        eigs = np.linalg.eigvals(stack)
        want = [linalg.distance_to_eigenvalue_hull(row) for row in eigs]
        assert np.array_equal(linalg.distance_to_eigenvalue_hull(eigs), want)
    # an empty block fixes all of C^dim: distance 0, alone or stacked
    assert linalg.block_diamond_distance(np.zeros((0, 0)), 4) == 0.0
    assert np.array_equal(linalg.block_diamond_distance(np.zeros((3, 0, 0)), 4), np.zeros(3))


def _orthonormal(dim, r, rng):
    return np.linalg.qr(rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r)))[0]


def test_from_update_matches_dense_formulas():
    rng = trial_rng(67, 0)
    for dim in (2, 5, 16):
        # a rank-one reflection, as built before from np.outer
        v = linalg.haar_state_amps(rng.standard_normal(2 * dim))
        op = UnitaryOp.from_update(v[:, None], [[-1.0]])
        assert np.max(np.abs(op.mat - (np.eye(dim) - 2.0 * np.outer(v, v.conj())))) < 1e-14
        # a rank-2 rotation block and a Haar block of rank 3, against I + B (E - I) B^dagger
        for r in (2, 3):
            b = _orthonormal(dim, min(r, dim), rng)
            e = UnitaryOp(haar_unitary_mat(b.shape[1], rng)).mat
            want = np.eye(dim) + b @ (e - np.eye(len(e))) @ b.conj().T
            op = UnitaryOp.from_update(b, e)
            assert np.max(np.abs(op.mat - want)) < 1e-14
            UnitaryOp(op.mat)  # and it passes the dense check


def test_from_update_checks_basis_and_block():
    rng = trial_rng(67, 1)
    b = _orthonormal(6, 2, rng)
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
    UnitaryOp.from_update(b * (1 + 1e-10), rot)  # within the dense check's 1e-8
    with pytest.raises(ValueError, match="orthonormal"):
        UnitaryOp.from_update(b * (1 + 1e-7), rot)
    with pytest.raises(ValueError, match="orthonormal"):
        UnitaryOp.from_update(b + 1e-3 * b[:, ::-1], rot)  # 2e-3 off orthogonal
    with pytest.raises(ValueError, match="block is not unitary"):
        UnitaryOp.from_update(b, rot * 1.001)
    with pytest.raises(ValueError, match="block is not unitary"):
        UnitaryOp.from_update(b[:, :1], [[2.0]])
    with pytest.raises(ValueError, match="do not match"):
        UnitaryOp.from_update(b, [[-1.0]])
    with pytest.raises(ValueError, match="do not match"):
        UnitaryOp.from_update(b[:, 0], [[-1.0]])


def test_from_update_of_no_direction_is_identity():
    # householder_vector's u = 0 (psi ~ |0>) is no direction: a zero column is not
    # orthonormal, and an empty basis gives the identity
    with pytest.raises(ValueError, match="orthonormal"):
        UnitaryOp.from_update(np.zeros((4, 1)), [[-1.0]])
    op = UnitaryOp.from_update(np.zeros((4, 0)), np.zeros((0, 0)))
    assert np.array_equal(op.mat, np.eye(4))


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
    # the flag is the last basis index of the extended space, the canonical oracle's input
    from xhoglab.oracles import canonical_oracle, preparation_input

    psi = haar_state_amps(trial_rng(5, 0).standard_normal(2 * 4))
    b = preparation_input(canonical_oracle(psi))
    assert len(b) == 5 and np.array_equal(b, np.eye(5)[4])
