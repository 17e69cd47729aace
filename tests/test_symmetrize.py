import math

import numpy as np
import pytest

from xhoglab.linalg import DimensionError, PureState, basis_state, haar_state_amps, trace_distance, trial_rng
from xhoglab.symmetrize import (
    ResourceSpec,
    build_R,
    digits_of,
    index_of,
    rho_R_protocol_exact,
    rho_R_sample,
    sigma_R_exact,
    verify_symmetrization,
)


def test_resource_spec_normalization_check():
    with pytest.raises(ValueError):
        ResourceSpec(((0.5, 0.5),))
    s = ResourceSpec(((1, 0), (0, 1)))
    assert s.k == 2


def test_mixed_radix_roundtrip():
    for idx in range(27):
        assert index_of(digits_of(idx, 3, 3), 3) == idx


def test_build_R_single_factor():
    psi = haar_state_amps(4, trial_rng(1, 0))
    psi = PureState(psi)
    r = build_R(psi, ResourceSpec(((1, 0),)))
    assert np.max(np.abs(r.amps - psi.with_bot().amps)) < 1e-12
    r = build_R(psi, ResourceSpec(((0, 1),)))
    assert np.max(np.abs(r.amps - np.eye(5)[4])) < 1e-12


def test_build_R_hand_tensor():
    psi = basis_state(2, 0)
    a = 1 / math.sqrt(2)
    r = build_R(psi, ResourceSpec(((a, a), (a, a))))
    # nonzero entries 1/2 at digit strings (0,0), (0,2), (2,0), (2,2) in base 3
    want = np.zeros(9)
    for digits in ((0, 0), (0, 2), (2, 0), (2, 2)):
        want[index_of(digits, 3)] = 0.5
    assert np.max(np.abs(r.amps - want)) < 1e-12


def test_sigma_single_factor_dephasing():
    psi = PureState(haar_state_amps(4, trial_rng(2, 0)))
    sig = sigma_R_exact(psi, ResourceSpec(((1, 0),)))
    want = np.zeros((5, 5), dtype=complex)
    want[:4, :4] = np.diag(psi.probabilities())
    assert np.max(np.abs(sig.mat - want)) < 1e-12
    sig = sigma_R_exact(psi, ResourceSpec(((0, 1),)))
    assert np.max(np.abs(sig.mat - np.outer(np.eye(5)[4], np.eye(5)[4]))) < 1e-12


def test_sigma_zero_and_nonzero_pattern():
    rng = trial_rng(3, 0)
    psi = PureState(haar_state_amps(2, rng))
    spec = ResourceSpec.random(2, rng)
    sig = sigma_R_exact(psi, spec)
    r = build_R(psi, spec)
    i01, i10 = index_of((0, 1), 3), index_of((1, 0), 3)
    i00, i0b = index_of((0, 0), 3), index_of((0, 2), 3)
    assert abs(sig.mat[i01, i10] - r.amps[i01] * np.conj(r.amps[i10])) < 1e-15
    assert sig.mat[i00, i0b] == 0
    # numerical average over sampled diagonal-phase unitaries approaches sigma
    acc = np.zeros((9, 9), dtype=complex)
    draws = 20000
    for _ in range(draws):
        phases = np.exp(2j * np.pi * rng.random(2))
        u = np.append(phases, 1.0)
        uu = np.kron(u, u)
        vec = uu * r.amps
        acc += np.outer(vec, vec.conj())
    acc /= draws
    assert np.max(np.abs(acc - sig.mat)) < 2e-2


def test_rho_hand_enumeration_block():
    psi = PureState(np.array([1, 1]) / math.sqrt(2))
    rho = rho_R_protocol_exact(psi, ResourceSpec(((1, 0), (1, 0))))
    i01, i10 = index_of((0, 1), 3), index_of((1, 0), 3)
    block = rho.mat[np.ix_([i01, i10], [i01, i10])]
    assert np.max(np.abs(block - np.full((2, 2), 0.25))) < 1e-12


def test_rho_all_bot_spec():
    psi = PureState(haar_state_amps(2, trial_rng(4, 0)))
    out = rho_R_sample(psi, ResourceSpec(((0, 1), (0, 1))), 5)
    want = np.zeros(9)
    want[index_of((2, 2), 3)] = 1.0
    assert np.max(np.abs(out.amps - want)) < 1e-12


def test_rho_sample_converges_to_exact():
    rng = trial_rng(6, 0)
    psi = PureState(haar_state_amps(2, rng))
    spec = ResourceSpec.random(2, rng)
    exact = rho_R_protocol_exact(psi, spec)
    acc = np.zeros((9, 9), dtype=complex)
    draws = 20000
    for i in range(draws):
        z = rho_R_sample(psi, spec, rng)
        acc += np.outer(z.amps, z.amps.conj())
    acc /= draws
    from xhoglab.linalg import DensityMatrix

    assert trace_distance(DensityMatrix(acc), exact) < 0.02


def test_verify_symmetrization_randomized():
    for n in (1, 2):
        for k in (1, 2, 3):
            for case in range(5):
                rng = trial_rng(100 * n + 10 * k, case)
                psi = PureState(haar_state_amps(2**n, rng))
                spec = ResourceSpec.random(k, rng)
                assert verify_symmetrization(psi, spec) <= 1e-10


def test_dimension_cap():
    psi = PureState(haar_state_amps(2**4, trial_rng(7, 0)))
    with pytest.raises(DimensionError):
        build_R(psi, ResourceSpec.random(6, trial_rng(7, 1)))
    # the cap is on (N+1)^k, the side of the dense matrices, not on index bits
    assert build_R(psi, ResourceSpec.random(2, trial_rng(7, 2))).dim == 17**2
    with pytest.raises(DimensionError):
        build_R(psi, ResourceSpec.random(3, trial_rng(7, 3)))  # 17^3 = 4913 > 4096
