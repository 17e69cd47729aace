import math

import numpy as np
import pytest

from xhoglab import oracles
from xhoglab.linalg import UnitaryOp, born_sample, haar_state_amps, trial_rng
from xhoglab.oracles import (
    canonical_from_prep,
    canonical_oracle,
    embed_extended_to_ancilla,
    fourier_coefficients_float,
    fourier_phase_oracle,
    random_prep_oracle,
    reflect_about_state,
    refl_from_prep,
)


def _haar_state(n, seed):
    return haar_state_amps(np.random.default_rng(seed).standard_normal(2 * 2**n))


def _sign_table(n, rng):
    """A uniform +-1 table of length 2^n, drawn as the fourier family draws it."""
    return 1 - 2 * rng.integers(0, 2, size=2**n)


def _dense(o):
    """The dense operator of an oracle handle: an uncounted query of the identity block,
    so later queries agree with it."""
    return UnitaryOp(o._apply_mat(np.eye(o.dim, dtype=complex), False))


def _reflection(amps):
    """Dense I - 2 |v><v|."""
    return UnitaryOp.from_update(np.asarray(amps, dtype=complex)[:, None], [[-1]]).mat


def test_reflection_about_examples():
    assert np.allclose(_reflection(np.eye(2)[0]), np.diag([-1, 1]))
    plus = np.array([1, 1]) / math.sqrt(2)
    assert np.allclose(_reflection(plus), [[0, -1], [-1, 0]])
    psi = _haar_state(2, 5)
    r = _reflection(psi)
    assert np.max(np.abs(r @ r - np.eye(4))) < 1e-12


def test_canonical_oracle_defining_actions():
    psi = _haar_state(3, 7)
    o = canonical_oracle(psi)
    bot = np.eye(9, dtype=complex)[8]
    got = o.apply(bot)
    assert np.max(np.abs(got - np.append(psi, 0))) < 1e-10
    back = o.apply(got)
    assert np.max(np.abs(back - bot)) < 1e-10
    # a state orthogonal to psi and the flag is fixed
    rng = trial_rng(7, 1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v -= psi * np.vdot(psi, v)
    v = np.append(v / np.linalg.norm(v), 0.0)
    assert np.max(np.abs(o.apply(v) - v)) < 1e-10


def test_canonical_oracle_small_matrix():
    o = _dense(canonical_oracle(np.eye(2)[0])).mat
    assert np.allclose(o, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_oracle_ledger():
    psi = _haar_state(2, 3)
    o = canonical_oracle(psi)
    assert o.calls == 0
    state = np.zeros(5, dtype=complex)
    state[4] = 1.0
    o.apply(state)
    o.apply_adjoint(state)
    assert o.calls == 2


def test_oracle_adjoint_inverts():
    psi = _haar_state(2, 9)
    o = random_prep_oracle(psi, np.random.default_rng(11))
    rng = trial_rng(9, 0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.max(np.abs(o.apply_adjoint(o.apply(v)) - v)) < 1e-10


def test_controlled_application():
    psi = _haar_state(1, 2)
    o = canonical_oracle(psi)
    state = np.zeros(6, dtype=complex)
    state[2 + 3] = 1.0  # control set, flag index in the lower block
    out = o.apply_controlled(state)
    assert np.max(np.abs(out[3:] - np.append(psi, 0))) < 1e-10
    assert o.calls == 1


def test_random_prep_first_column():
    psi = _haar_state(3, 13)
    o = random_prep_oracle(psi, np.random.default_rng(17))
    assert np.max(np.abs(_dense(o).mat[:, 0] - psi)) < 1e-10


def test_random_prep_queries_match_dense():
    psi = _haar_state(3, 14)
    o = random_prep_oracle(psi, np.random.default_rng(18))
    rng = trial_rng(18, 0)
    xs = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3)]
    before = [o.apply(xs[0]), o.apply_adjoint(xs[1])]
    u = _dense(o).mat
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
    assert np.max(np.abs(u @ xs[0] - before[0])) < 1e-10
    assert np.max(np.abs(u.conj().T @ xs[1] - before[1])) < 1e-10
    assert np.max(np.abs(u @ xs[2] - o.apply(xs[2]))) < 1e-10


def test_random_prep_n1_phase():
    o = random_prep_oracle(np.eye(2)[0], np.random.default_rng(19))
    m = _dense(o).mat
    assert abs(m[0, 0] - 1.0) < 1e-10 and abs(m[1, 0]) < 1e-12
    assert abs(abs(m[1, 1]) - 1.0) < 1e-10


def test_householder_matrix_matches_dense_formula():
    for n in (1, 3, 5):
        phase, u = oracles.householder_vector(_haar_state(n, 21 + n))
        want = phase * (np.eye(2**n) - 2.0 * np.outer(u, u.conj()))
        assert np.max(np.abs(oracles.householder_matrix(phase, u) - want)) < 1e-14
    # psi = |0>: u = 0, and V is the phase times the identity
    phase, u = oracles.householder_vector(np.array([1j, 0, 0, 0]))
    assert not u.any()
    assert np.array_equal(oracles.householder_matrix(phase, u), 1j * np.eye(4))


def test_random_prep_completion_invariance():
    # U|1> is uniform on the complement of psi whatever completion prepares psi, so
    # E|U_01|^2 = (1 - |psi_0|^2) / (N - 1)
    psi = _haar_state(2, 23)
    trials = 3000
    vals = np.empty(trials)
    for i in range(trials):
        vals[i] = abs(_dense(random_prep_oracle(psi, trial_rng(29, i))).mat[0, 1]) ** 2
    exact = (1 - abs(psi[0]) ** 2) / (len(psi) - 1)
    assert abs(vals.mean() - exact) < 3 * vals.std(ddof=1) / math.sqrt(trials)


def test_block_query_is_one_call_acting_column_by_column():
    rng = trial_rng(31, 0)
    psi = _haar_state(3, rng)
    block = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    pairs = [
        (lambda: random_prep_oracle(psi, trial_rng(31, 1)), block),
        (lambda: canonical_oracle(psi), np.vstack([block, np.ones((1, 3))])),
        (lambda: fourier_phase_oracle(_sign_table(3, trial_rng(31, 2))), block),
    ]
    for make, x in pairs:
        for adjoint in (False, True):
            whole, cols = make(), make()  # twins: a lazy Haar complement is sampled alike
            query = (lambda o, a: o.apply_adjoint(a)) if adjoint else (lambda o, a: o.apply(a))
            got = query(whole, x)
            assert whole.calls == 1
            assert np.array_equal(got, np.column_stack([query(cols, c) for c in x.T]))


def test_reflect_about_state_is_two_queries():
    rng = trial_rng(32, 0)
    psi = _haar_state(3, rng)
    x = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    for o, v in ((canonical_oracle(psi), np.append(psi, 0)),
                 (random_prep_oracle(psi, rng), psi)):
        got = reflect_about_state(o, x[: o.dim])
        assert o.calls == 2
        assert np.max(np.abs(got - _reflection(v) @ x[: o.dim])) < 1e-12


def test_refl_from_prep_identity_prep():
    # a prep of |0^n> itself: the simulated reflection is diag(-1, 1, 1, 1)
    prep = random_prep_oracle(np.eye(4)[0], np.random.default_rng(30))
    copy, out = refl_from_prep(prep, 1, np.eye(4))
    assert np.allclose(copy, np.eye(4)[0])
    assert np.allclose(out, _reflection(np.eye(4)[0]))


def test_refl_from_prep_ledger():
    psi = _haar_state(2, 31)
    r = _reflection(psi)
    for t in (1, 2, 3):
        prep = random_prep_oracle(psi, trial_rng(31, t))
        copy, out = refl_from_prep(prep, t, np.eye(4))
        assert prep.calls == 2 * t + 1
        assert np.max(np.abs(copy - psi)) < 1e-12
        assert np.max(np.abs(out - np.linalg.matrix_power(r, t))) < 1e-12


def test_canonical_from_prep_ledger():
    psi = _haar_state(2, 41)
    for t in (1, 2, 3):
        prep = random_prep_oracle(psi, trial_rng(41, t))
        canonical_from_prep(prep, t, np.eye(8))
        assert prep.calls == 4 * t + 2


def test_canonical_from_prep_identity_prep():
    # a prep of |0^n> itself; t = 0 runs only the reference preparation
    prep = random_prep_oracle(np.eye(2)[0], np.random.default_rng(42))
    target, _ = canonical_from_prep(prep, 0, np.zeros(4))
    want = np.zeros(4, dtype=complex)
    want[0 * 2 + 1] = 1 / math.sqrt(2)   # |0>|1>
    want[0 * 2 + 0] = -1 / math.sqrt(2)  # -|0>|0>
    assert abs(abs(np.vdot(want, target)) - 1.0) < 1e-10


def _canonical_target(psi):
    """(|psi>|1> - |0^n>|0>)/sqrt(2) in the ancilla encoding."""
    want = np.zeros(2 * len(psi), dtype=complex)
    want[1::2] = psi / math.sqrt(2)  # |psi>|1>
    want[0] -= 1 / math.sqrt(2)  # -|0^n>|0>
    return want


def test_canonical_prep_target_on_haar_preps():
    for n in range(1, 7):
        rng = trial_rng(53, n)
        psi = _haar_state(n, rng)
        prep = random_prep_oracle(psi, rng)
        target, _ = canonical_from_prep(prep, 0, np.zeros(2 ** (n + 1)))
        assert np.max(np.abs(target - _canonical_target(psi))) < 1e-12
        assert prep.calls == 2
        # P^dagger undoes P on a block of columns, two queries each way
        s = rng.standard_normal((2**n, 2, 3)) + 1j * rng.standard_normal((2**n, 2, 3))
        forth = oracles.canonical_prep_circuit(prep, s)
        back = oracles.canonical_prep_circuit(prep, forth, adjoint=True)
        assert np.max(np.abs(back - s)) < 1e-12
        assert prep.calls == 6


def test_canonical_from_prep_matches_canonical_oracle():
    psi = _haar_state(2, 43)
    direct = _dense(canonical_oracle(psi)).mat
    for t in (1, 2, 3):
        prep = random_prep_oracle(psi, trial_rng(43, t))
        copy, sim = canonical_from_prep(prep, t, embed_extended_to_ancilla(np.eye(5)))
        assert np.max(np.abs(copy - _canonical_target(psi))) < 1e-12
        want = np.linalg.matrix_power(direct, t)
        got = np.vstack([sim[1::2], sim[:1]])  # back to the appended-index encoding
        assert np.max(np.abs(got - want)) < 1e-10
        # the simulated oracle is a unitary on the whole 2N-dimensional ancilla space
        _, full = canonical_from_prep(prep, t, np.eye(8))
        assert np.max(np.abs(full.conj().T @ full - np.eye(8))) < 1e-12


def test_encoding_isomorphism_roundtrip():
    rng = trial_rng(47, 0)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    e = embed_extended_to_ancilla(v)
    assert np.array_equal(np.append(e[1::2], e[0]), v)
    assert not e[2::2].any()  # |x>|0> for x != 0^n is outside the encoded subspace


def test_fourier_phase_oracle():
    f = np.array([1, -1])
    assert np.allclose(_dense(fourier_phase_oracle(f)).mat, np.diag([1, -1]))
    ident = fourier_phase_oracle(np.ones(4, dtype=int))
    assert np.allclose(_dense(ident).mat, np.eye(4))
    rng = trial_rng(53, 0)
    f3 = _sign_table(3, rng)
    u = _dense(fourier_phase_oracle(f3)).mat
    assert np.allclose(u @ u, np.eye(8))


def test_fourier_sampling_state():
    # the amplitudes f-hat(z) of H^(x)n U_f H^(x)n |0^n>
    assert np.allclose(fourier_coefficients_float(np.ones(4, dtype=int)), np.eye(4)[0])
    assert np.allclose(fourier_coefficients_float(np.array([1, -1])), [0, 1])


def test_fourier_sampling_matches_dense_circuit():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    hn = np.kron(np.kron(h, h), h)
    rng = trial_rng(59, 0)
    f = _sign_table(3, rng)
    dense = hn @ np.diag(f.astype(complex)) @ hn @ np.eye(8)[0]
    assert np.max(np.abs(dense - fourier_coefficients_float(f))) < 1e-12


def test_fwht_matches_the_hadamard_matrix():
    from scipy.linalg import hadamard

    rng = trial_rng(61, 0)
    for n in range(11):
        h = hadamard(2**n)
        signs = 1 - 2 * rng.integers(0, 2, size=2**n)
        assert np.array_equal(oracles.fwht(signs), h @ signs)  # exact on +-1 vectors
        assert np.array_equal(oracles.fwht(signs.astype(complex)), h @ signs)
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        assert np.allclose(oracles.fwht(v), h @ v)
    with pytest.raises(ValueError):
        oracles.fwht(np.ones(6))


def test_fwht_transforms_each_row():
    rng = trial_rng(63, 0)
    for n in (0, 1, 5, 8):
        signs = 1 - 2 * rng.integers(0, 2, size=(3, 2, 2**n))
        block = oracles.fwht(signs.astype(float))
        assert block.shape == signs.shape
        for row, want in zip(signs.reshape(-1, 2**n), block.reshape(-1, 2**n)):
            assert np.array_equal(oracles.fwht(row), want)  # exact on +-1 rows


def test_fwht_squares_to_n_times_identity():
    n = 14
    rng = trial_rng(67, 0)
    signs = (1 - 2 * rng.integers(0, 2, size=2**n)).astype(float)
    assert np.array_equal(oracles.fwht(oracles.fwht(signs)), 2**n * signs)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    assert np.allclose(oracles.fwht(oracles.fwht(v)), 2**n * v)


def _sampling_oracles(n, rng):
    psi = _haar_state(n, rng)
    return (canonical_oracle(psi), random_prep_oracle(psi, rng),
            fourier_phase_oracle(_sign_table(n, rng)))


@pytest.mark.parametrize("k", [1, 2, 9])
def test_sampled_copies_match_single_copies(k):
    for n in (1, 3, 6):
        batch_side, single_side = _sampling_oracles(n, trial_rng(71, n)), _sampling_oracles(n, trial_rng(71, n))
        for batch, single in zip(batch_side, single_side):
            u = trial_rng(73, n).random((1, k))
            zs = oracles.sample_oracle_output([batch], u)
            assert batch.calls == k  # one query per copy
            singles = [oracles.sample_oracle_output([single], u[:, [j]]) for j in range(k)]
            assert zs.tolist() == np.concatenate(singles, axis=1).tolist()
            assert single.calls == k
    with pytest.raises(ValueError):
        oracles.sample_oracle_output([canonical_oracle(_haar_state(1, 0))], np.empty((1, 0)))


def test_a_block_of_handles_samples_as_each_handle_alone():
    # one query per copy on each handle, and each row the draws of its handle on its own
    for n in (1, 4):
        rows = [_sampling_oracles(n, trial_rng(75, j)) for j in range(5)]
        alone = [_sampling_oracles(n, trial_rng(75, j)) for j in range(5)]
        u = trial_rng(77, n).random((5, 3))
        for family in range(3):
            block = [r[family] for r in rows]
            zs = oracles.sample_oracle_output(block, u)
            assert [h.calls for h in block] == [3] * 5
            for j, handles in enumerate(alone):
                assert zs[j].tolist() == oracles.sample_oracle_output([handles[family]], u[[j]])[0].tolist()


def test_fourier_sampler_draws_from_the_squared_coefficients():
    for n in (3, 5, 9):
        f = _sign_table(n, trial_rng(79, n))
        u = trial_rng(83, n).random((1, 50))
        zs = oracles.sample_oracle_output([fourier_phase_oracle(f)], u)
        want = born_sample(oracles.fourier_coefficients_float(f)[None] ** 2, u)
        assert np.array_equal(zs, want)
