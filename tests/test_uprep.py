import math
import tracemalloc

import numpy as np
import pytest

from xhoglab.linalg import (
    LazyHaarComplement,
    UnitaryOp,
    haar_state_amps,
    rank2_update_distance,
    trial_rng,
    unitary_channel_diamond_distance,
)
from xhoglab import uprep
from xhoglab.uprep import (
    DegenerateStateError,
    channel_distance_bound_report,
    channel_distances,
    decompose_phi,
    draw_plan,
    rotation_R,
    simulate_U_psi,
    swap_via_canonical,
    t_composed_diamond,
    _simulated_composition,
    _swap,
)


def _pair(dim, seed):
    rng = trial_rng(seed, 0)
    return (
        haar_state_amps(rng.standard_normal(2 * dim)),
        haar_state_amps(rng.standard_normal(2 * dim)),
        rng,
    )


def test_decompose_orthogonal_case():
    psi = np.eye(4)[0]
    phi = np.eye(4)[2]
    plan = decompose_phi(psi, phi)
    assert plan.alpha == 1.0 and plan.beta == 0
    assert np.max(np.abs(plan.psi_perp - phi)) < 1e-12


def test_decompose_n1_plus_state():
    plan = decompose_phi(np.eye(2)[0], np.array([1, 1]) / math.sqrt(2))
    assert abs(plan.alpha - 1 / math.sqrt(2)) < 1e-12
    assert abs(plan.beta - 1 / math.sqrt(2)) < 1e-12
    assert abs(math.acos(plan.alpha) - math.pi / 4) < 1e-12


def test_decompose_reconstruction_and_beta():
    psi, phi, _ = _pair(8, 3)
    plan = decompose_phi(psi, phi)
    assert plan.alpha >= 0
    recon = plan.alpha * plan.psi_perp + plan.beta * psi
    assert np.max(np.abs(recon - phi)) < 1e-10
    assert abs(plan.beta - np.vdot(psi, phi)) < 1e-12
    assert abs(np.vdot(psi, plan.psi_perp)) < 1e-10


def test_decompose_degenerate_rejected():
    psi = np.eye(4)[1]
    with pytest.raises(DegenerateStateError):
        decompose_phi(psi, psi * np.exp(0.25j))


def test_rotation_maps_phi_and_fixes_complement():
    psi, phi, rng = _pair(8, 5)
    plan = decompose_phi(psi, phi)
    r = rotation_R(plan)
    assert np.max(np.abs(r.mat @ phi - plan.psi_perp)) < 1e-10
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for b in (psi, plan.psi_perp):
        v -= b * np.vdot(b, v)
    assert np.max(np.abs(r.mat @ v - v)) < 1e-10


def test_rotation_eigenvalues_and_block():
    psi, phi, _ = _pair(4, 7)
    plan = decompose_phi(psi, phi)
    theta = math.acos(plan.alpha)
    r = rotation_R(plan)
    eigs = np.linalg.eigvals(r.mat)
    angles = np.sort(np.abs(np.angle(eigs)))
    assert np.max(np.abs(angles[:-2])) < 1e-8
    assert abs(angles[-1] - theta) < 1e-8 and abs(angles[-2] - theta) < 1e-8
    basis = np.column_stack([plan.psi_perp, psi])
    block = basis.conj().T @ r.mat @ basis
    assert abs(np.linalg.det(block) - 1.0) < 1e-10
    assert abs(np.trace(block).real - 2 * plan.alpha) < 1e-10


def test_rotation_identity_when_already_perp():
    psi = np.eye(4)[0]
    plan = decompose_phi(psi, np.eye(4)[3])
    assert np.max(np.abs(rotation_R(plan).mat - np.eye(4))) < 1e-12


def test_rotation_channel_distance_equality():
    for i in range(10):
        rng = trial_rng(11, i)
        psi = haar_state_amps(rng.standard_normal(2 * 4))
        phi = haar_state_amps(rng.standard_normal(2 * 4))
        plan = decompose_phi(psi, phi)
        d = unitary_channel_diamond_distance(rotation_R(plan), UnitaryOp(np.eye(4)))
        assert abs(d - 2 * abs(plan.beta)) < 1e-8


def test_rank2_rotation_distance_matches_dense():
    for n in range(1, 9):
        for i in range(3):
            rng = trial_rng(37, 100 * n + i)
            plan = decompose_phi(haar_state_amps(rng.standard_normal(2 * 2**n)),
                                 haar_state_amps(rng.standard_normal(2 * 2**n)))
            r = rotation_R(plan)
            d, residual = rank2_update_distance(r.basis, r.block)
            dense = unitary_channel_diamond_distance(r, UnitaryOp(np.eye(2**n)))
            assert abs(d - dense) < 1e-12
            assert residual == 0.0  # a 2 x 2 block has no third singular value
    # basis-state instance: R = I, a block of I, distance 0
    r = rotation_R(decompose_phi(np.eye(4)[0], np.eye(4)[3]))
    assert rank2_update_distance(r.basis, r.block) == (0.0, 0.0)
    assert unitary_channel_diamond_distance(r, UnitaryOp(np.eye(4))) == 0.0


def test_rank2_residual_exposes_a_third_direction():
    psi, phi, _ = _pair(8, 47)
    plan = decompose_phi(psi, phi)
    v = np.eye(8)[7]
    for b in (psi, plan.psi_perp):
        v = v - b * np.vdot(b, v)
    v /= np.linalg.norm(v)
    # a phase inside the rotation's arc leaves the eigenvalue hull, hence the distance, unchanged
    block = np.eye(3, dtype=complex)
    block[:2, :2] = plan.block
    block[2, 2] = np.exp(0.5j * math.acos(plan.alpha))
    u = UnitaryOp.from_update(np.column_stack([plan.psi_perp, psi, v]), block)
    dense = unitary_channel_diamond_distance(u, UnitaryOp(np.eye(8)))
    assert abs(dense - 2 * abs(plan.beta)) < 1e-12
    d, residual = rank2_update_distance(u.basis, u.block)
    assert abs(d - dense) < 1e-12
    assert abs(residual - abs(block[2, 2] - 1)) < 1e-12
    # the residual is R - I's Frobenius norm outside its best rank-2 subspace
    sv = np.linalg.svd(u.mat - np.eye(8), compute_uv=False)
    assert abs(residual - np.sqrt(np.sum(sv[2:] ** 2))) < 1e-12
    # I + |0><2| is no rotation: its block on (|0>, |2>) is a shear, which from_update rejects
    with pytest.raises(ValueError, match="block is not unitary"):
        UnitaryOp.from_update(np.eye(4)[:, [0, 2]], [[1.0, 1.0], [0.0, 1.0]])


def test_swap_via_canonical():
    psi, phi, rng = _pair(4, 13)
    plan = decompose_phi(psi, phi)
    s, calls = swap_via_canonical(psi, plan.psi_perp)
    assert calls == (2, 1)  # O_psi, O_psi_perp: the handles' counts
    assert np.max(np.abs(s.mat @ np.append(psi, 0) - np.append(plan.psi_perp, 0))) < 1e-10
    assert np.max(np.abs(s.mat @ np.append(plan.psi_perp, 0) - np.append(psi, 0))) < 1e-10
    bot = np.eye(5)[4]
    assert np.max(np.abs(s.mat @ bot - bot)) < 1e-10
    assert np.max(np.abs(s.mat @ s.mat - np.eye(5))) < 1e-10
    # n=1 basis-state instance is the plain 0<->1 permutation
    s01, _ = swap_via_canonical(np.eye(2)[0], np.eye(2)[1])
    assert np.allclose(s01.mat, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        swap_via_canonical(psi, phi)


def test_closed_form_swap_matches_the_handle_route():
    # t_composed_diamond applies the swap in closed form; the handles run O_psi O_perp O_psi
    for i in range(5):
        psi, phi, rng = _pair(16, 90 + i)
        plan = decompose_phi(psi, phi)
        s, _ = swap_via_canonical(psi, plan.psi_perp)
        x = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        assert np.max(np.abs(_swap(plan, x) - s.mat[:-1, :-1] @ x)) < 1e-12
        assert np.max(np.abs(s.mat[-1, :-1])) < 1e-12  # the flag stays out


def test_simulate_ideal_first_column_and_ledger():
    psi = haar_state_amps(trial_rng(17, 0).standard_normal(2 * 16))
    for t in (1, 2, 3):
        _, calls = simulate_U_psi(psi, trial_rng(17, 1), "ideal", t=t)
        assert calls == 2 * t
    u1, _ = simulate_U_psi(psi, trial_rng(17, 1), "ideal")
    assert np.max(np.abs(u1.mat[:, 0] - psi)) < 1e-10
    with pytest.raises(ValueError):
        simulate_U_psi(psi, trial_rng(17, 1), "exact")


def test_simulate_single_call_distance():
    psi = haar_state_amps(trial_rng(19, 0).standard_normal(2 * 16))
    ui, _ = simulate_U_psi(psi, trial_rng(19, 1), "ideal")
    ua, _ = simulate_U_psi(psi, trial_rng(19, 1), "approximate")
    plan = draw_plan(psi, trial_rng(19, 1))
    d = unitary_channel_diamond_distance(ui, ua)
    assert abs(d - 2 * abs(plan.beta)) < 1e-8


def test_simulate_ideal_complement_first_moment():
    # entries off the fixed first column should average to ~0 over seeds
    psi = haar_state_amps(trial_rng(23, 0).standard_normal(2 * 4))
    trials = 4000
    acc = np.zeros((4, 3), dtype=complex)
    for i in range(trials):
        acc += simulate_U_psi(psi, trial_rng(23, i + 1), "ideal")[0].mat[:, 1:]
    mean = np.abs(acc / trials)
    # each entry is an average of trials unit-bounded zero-mean variables
    assert np.max(mean) < 5.0 / math.sqrt(trials)


def test_t_composed_fast_path_matches_dense():
    # the lazy path queries W first; the dense composition uses the same W, materialized
    for i in range(5):
        rng = trial_rng(29, i)
        psi = haar_state_amps(rng.standard_normal(2 * 16))
        plan = draw_plan(psi, rng)
        sampler = LazyHaarComplement(16, rng)
        lazy = {t: t_composed_diamond(plan, sampler, t) for t in (1, 2, 3)}
        w = sampler.materialize()
        for t in (1, 2, 3):
            mi, _ = _simulated_composition(plan, w, "ideal", t)
            ma, _ = _simulated_composition(plan, w, "approximate", t)
            assert abs(lazy[t] - unitary_channel_diamond_distance(mi, ma)) < 1e-8


def _mean_t_composed(n, t, draws, seed, dense):
    dists = np.empty(draws)
    for i in range(draws):
        rng = trial_rng(seed, i)
        psi = haar_state_amps(rng.standard_normal(2 * 2**n))
        plan = draw_plan(psi, rng)
        w = LazyHaarComplement(2**n, rng)
        if dense:
            w.materialize()  # one dense Haar draw of W before any query
        dists[i] = t_composed_diamond(plan, w, t)
    return dists.mean(), dists.std(ddof=1) / math.sqrt(draws)


def test_lazy_and_dense_haar_give_same_mean_distance():
    for t in (2, 3):
        lazy, se_lazy = _mean_t_composed(6, t, 2000, 41, dense=False)
        dense, se_dense = _mean_t_composed(6, t, 2000, 43, dense=True)
        assert abs(lazy - dense) < 5 * math.hypot(se_lazy, se_dense)


def test_bound_report():
    rep = channel_distance_bound_report(6, 1, 300, 31)
    assert rep["bound"] == 14 / 8
    assert rep["mean_distance"] <= rep["bound"]
    rep0 = channel_distance_bound_report(6, 0, 10, 31)
    assert rep0["mean_distance"] == 0.0


def test_bound_report_at_T0_draws_nothing(monkeypatch):
    def no_streams(*args):
        raise AssertionError("T = 0 drew a trial")

    monkeypatch.setattr(uprep, "trial_streams", no_streams)
    assert channel_distance_bound_report(6, 0, 10, 31) == {"mean_distance": 0.0, "bound": 0.5}


def _per_draw(n, t, trials, seed):
    """t_composed_diamond of each draw on its own trial_rng stream, as the sweep draws it."""
    out = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        plan = uprep.draw_plan(uprep.haar_state_amps(rng.standard_normal(2 * 2**n)), rng)
        out.append(t_composed_diamond(plan, LazyHaarComplement(2**n, rng), t))
    return np.array(out)


def _no_fallback(*args):
    raise AssertionError("the sweep took a per-draw path")


@pytest.mark.parametrize("n", range(1, 9))
def test_block_kernel_matches_t_composed_diamond(n, monkeypatch):
    # at n = 1 and 2 the lazy frame fills to dim - 1, so the last queries draw no direction
    for t in range(1, 5):
        seed = 900 + 10 * n + t
        with monkeypatch.context() as m:
            m.setattr(uprep, "t_composed_diamond", _no_fallback)
            got = channel_distances(n, t, 24, seed)
        assert np.max(np.abs(got - _per_draw(n, t, 24, seed))) <= 1e-12
    assert channel_distance_bound_report(n, 0, 24, 900)["mean_distance"] == 0.0
    assert t_composed_diamond(None, None, 0) == 0.0


@pytest.mark.parametrize("n, t", [(1, 3), (3, 4), (6, 3), (8, 2)])
def test_a_draws_distance_does_not_depend_on_its_block(n, t, monkeypatch):
    want = channel_distances(n, t, 20, 77)
    for draws in (1, 3):
        monkeypatch.setattr(uprep, "SWEEP_BLOCK_ENTRIES", draws * 2**n)
        assert np.array_equal(channel_distances(n, t, 20, 77), want)


@pytest.mark.parametrize("n, t", [(4, 3), (3, 2), (1, 4), (2, 4)])
def test_a_draw_with_no_new_direction_stays_in_the_block(n, t, monkeypatch):
    # draws 2 and 5 get psi = |0>: their first query has no part off |0>, so the lazy
    # complement draws no direction there and their later queries take earlier Gaussians;
    # at (4, 3) their columns are rank-deficient, and at n = 1, 2 the frame fills early
    seed, trials, odd = 81, 12, (2, 5)
    targets = [haar_state_amps(trial_rng(seed, j).standard_normal(2 * 2**n)) for j in odd]

    def amps(g):
        z = haar_state_amps(g)
        return np.eye(len(z), dtype=complex)[0] if any(np.array_equal(z, x) for x in targets) else z

    monkeypatch.setattr(uprep, "haar_state_amps", amps)
    with monkeypatch.context() as m:
        m.setattr(uprep, "t_composed_diamond", _no_fallback)
        m.setattr(uprep, "trial_rng", _no_fallback, raising=False)
        got = channel_distances(n, t, trials, seed)
    want = _per_draw(n, t, trials, seed)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n, t, trials", [(6, 3, 120), (8, 2, 2000)])
def test_distance_sweep_stays_under_a_mebibyte(n, t, trials):
    channel_distance_bound_report(n, t, 2, 5)  # first-call allocations are not the sweep's
    tracemalloc.start()
    try:
        channel_distance_bound_report(n, t, trials, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
