import itertools
import math

import numpy as np
import pytest

from xhoglab import symmetrize
from xhoglab.linalg import haar_state_amps, trial_rng
from xhoglab.symmetrize import (
    BLOCK_CAP,
    block_entries,
    build_R,
    check_block_cap,
    group_layout,
    random_resource,
    rho_R_protocol_exact,
    sigma_R_exact,
    verify_symmetrization,
)


def index_of(digits, base):
    """Row-major flat index of a digit string (factor 0 most significant)."""
    return int(np.ravel_multi_index(digits, (base,) * len(digits)))


def test_mixed_radix_roundtrip():
    digits = group_layout(3, 3).digits
    for idx in range(27):
        assert index_of(tuple(digits[idx]), 3) == idx
        assert digits[idx].tolist() == [idx // 9, idx // 3 % 3, idx % 3]


def test_build_R_single_factor():
    psi = haar_state_amps(trial_rng(1, 0).standard_normal(2 * 4))
    r = build_R(psi, ((1, 0),))
    assert np.max(np.abs(r - np.append(psi, 0))) < 1e-12
    r = build_R(psi, ((0, 1),))
    assert np.max(np.abs(r - np.eye(5)[4])) < 1e-12


def test_build_R_hand_tensor():
    psi = np.eye(2)[0]
    a = 1 / math.sqrt(2)
    r = build_R(psi, ((a, a), (a, a)))
    # nonzero entries 1/2 at digit strings (0,0), (0,2), (2,0), (2,2) in base 3
    want = np.zeros(9)
    for digits in ((0, 0), (0, 2), (2, 0), (2, 2)):
        want[index_of(digits, 3)] = 0.5
    assert np.max(np.abs(r - want)) < 1e-12


def test_sigma_single_factor_dephasing():
    psi = haar_state_amps(trial_rng(2, 0).standard_normal(2 * 4))
    sig = sigma_R_exact(psi, ((1, 0),))
    want = np.zeros((5, 5), dtype=complex)
    want[:4, :4] = np.diag(np.abs(psi) ** 2)
    assert np.max(np.abs(sig.mat - want)) < 1e-12
    sig = sigma_R_exact(psi, ((0, 1),))
    assert np.max(np.abs(sig.mat - np.outer(np.eye(5)[4], np.eye(5)[4]))) < 1e-12


def test_sigma_zero_and_nonzero_pattern():
    rng = trial_rng(3, 0)
    psi = haar_state_amps(rng.standard_normal(2 * 2))
    spec = random_resource(2, rng)
    sig = sigma_R_exact(psi, spec)
    r = build_R(psi, spec)
    i01, i10 = index_of((0, 1), 3), index_of((1, 0), 3)
    i00, i0b = index_of((0, 0), 3), index_of((0, 2), 3)
    assert abs(sig.mat[i01, i10] - r[i01] * np.conj(r[i10])) < 1e-15
    assert sig.mat[i00, i0b] == 0
    # numerical average over sampled diagonal-phase unitaries approaches sigma
    acc = np.zeros((9, 9), dtype=complex)
    draws = 20000
    for _ in range(draws):
        phases = np.exp(2j * np.pi * rng.random(2))
        u = np.append(phases, 1.0)
        uu = np.kron(u, u)
        vec = uu * r
        acc += np.outer(vec, vec.conj())
    acc /= draws
    assert np.max(np.abs(acc - sig.mat)) < 2e-2


def test_rho_hand_enumeration_block():
    psi = np.array([1, 1]) / math.sqrt(2)
    rho = rho_R_protocol_exact(psi, ((1, 0), (1, 0)))
    i01, i10 = index_of((0, 1), 3), index_of((1, 0), 3)
    block = rho.mat[np.ix_([i01, i10], [i01, i10])]
    assert np.max(np.abs(block - np.full((2, 2), 0.25))) < 1e-12


def test_rho_all_bot_spec():
    # every factor is the flag, so every run outputs the all-flag string
    psi = haar_state_amps(trial_rng(4, 0).standard_normal(2 * 2))
    rho = rho_R_protocol_exact(psi, ((0, 1), (0, 1)))
    want = np.zeros(9)
    want[index_of((2, 2), 3)] = 1.0
    assert np.max(np.abs(rho.mat - np.outer(want, want))) < 1e-12


def test_verify_symmetrization_randomized():
    for n in (1, 2):
        for k in (1, 2, 3):
            for case in range(5):
                rng = trial_rng(100 * n + 10 * k, case)
                psi = haar_state_amps(rng.standard_normal(2 * 2**n))
                spec = random_resource(k, rng)
                assert verify_symmetrization(psi, spec) <= 1e-10


def test_verify_symmetrization_equals_dense_references():
    # every (n, k) whose dense (N+1)^k-square references stay at most 729 rows
    for n in range(1, 10):
        for k in range(1, 7):
            if (2**n + 1) ** k > 729:
                break
            rng = trial_rng(200 + n, k)
            psi = haar_state_amps(rng.standard_normal(2 * 2**n))
            spec = random_resource(k, rng)
            dense = np.max(np.abs(sigma_R_exact(psi, spec).mat - rho_R_protocol_exact(psi, spec).mat))
            assert verify_symmetrization(psi, spec) == dense


def test_slices_cover_every_group_once(monkeypatch):
    # -n 3 -k 5 is the size that slices; small slices split every size class here
    from xhoglab import symmetrize

    rng = trial_rng(8, 0)
    psi = haar_state_amps(rng.standard_normal(2 * 4))
    spec = random_resource(4, rng)
    want = verify_symmetrization(psi, spec)
    layout = group_layout(5, 4)
    for entries in (1, 50):
        monkeypatch.setattr(symmetrize, "SLICE_ENTRIES", entries)
        ids = np.concatenate([ids for ids, _ in symmetrize._slices(layout)])
        assert sorted(ids) == list(range(math.comb(5 + 4 - 1, 4)))
        assert verify_symmetrization(psi, spec) == want


def test_verify_symmetrization_checks_the_protocol_trace(monkeypatch):
    from xhoglab import symmetrize

    real = symmetrize._protocol_amplitudes

    def halved(*args):
        gamma, prob = real(*args)
        return gamma, prob / 2

    monkeypatch.setattr(symmetrize, "_protocol_amplitudes", halved)
    rng = trial_rng(9, 0)
    psi = haar_state_amps(rng.standard_normal(2 * 4))
    with pytest.raises(ValueError, match="trace"):
        verify_symmetrization(psi, random_resource(2, rng))


def test_multiset_groups_partition_the_index_space():
    for base, k in ((3, 1), (3, 3), (5, 2), (4, 4)):
        layout = group_layout(base, k)
        groups = {int(g): rows for ids, idx in layout.classes for g, rows in zip(ids, idx)}
        assert sorted(groups) == list(range(math.comb(base + k - 1, k)))
        assert np.array_equal(np.sort(np.concatenate(list(groups.values()))), np.arange(base**k))
        # group g is the g-th multiset in combinations_with_replacement order, and holds
        # exactly the flat indices of its distinct reorderings, ascending
        keys = itertools.combinations_with_replacement(range(base), k)
        for g, key in enumerate(keys):
            want = sorted({index_of(p, base) for p in itertools.permutations(key)})
            assert groups[g].tolist() == want
            assert np.all(layout.gid[groups[g]] == g)
        assert sum(len(rows) ** 2 for rows in groups.values()) == block_entries(base, k)


def test_block_entries_closed_form():
    # sum_G |G|^2 is the number of (x, y) pairs whose digit strings are reorderings
    for base, k in ((2, 3), (3, 4), (5, 3), (9, 2)):
        strings = itertools.product(range(base), repeat=k)
        sizes = {}
        for s in strings:
            key = tuple(sorted(s))
            sizes[key] = sizes.get(key, 0) + 1
        assert block_entries(base, k) == sum(v * v for v in sizes.values()) >= base**k
    assert block_entries(10, 1) == 10 and block_entries(4, 0) == 1


def test_verify_builds_the_layout_once_per_size(monkeypatch):
    from xhoglab.cli import main

    # the block cap is checked once, at the command's entry, not once per case
    walks = []
    real = symmetrize.block_entries
    monkeypatch.setattr(symmetrize, "block_entries", lambda *a: walks.append(a) or real(*a))
    group_layout.cache_clear()
    assert main(["verify", "symmetrize", "-n", "1", "-k", "4", "--cases", "30", "--seed", "1"]) == 0
    info = group_layout.cache_info()
    assert (info.misses, info.hits) == (1, 29)
    assert walks == [(3, 4)]


def test_dimension_cap():
    # the cap is on sum_G |G|^2, the block entries the verifier compares, not on index bits;
    # the command checks it once at entry, so no |R> over it is ever built here
    check_block_cap(16, 4)
    for k in (5, 6):
        with pytest.raises(ValueError, match="exceeds the block cap"):
            check_block_cap(16, k)
    psi = haar_state_amps(trial_rng(7, 0).standard_normal(2 * 2**4))
    assert len(build_R(psi, random_resource(2, trial_rng(7, 2)))) == 17**2
    assert block_entries(17, 4) <= BLOCK_CAP < block_entries(17, 5)  # 1.7e6 and 1.3e8
    # the dense references stop at (N+1)^k = 729; 17^3 = 4913 is over it
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        sigma_R_exact(psi, random_resource(3, trial_rng(7, 4)))
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        rho_R_protocol_exact(psi, random_resource(3, trial_rng(7, 4)))
    # a k at the cap's bit length is rejected without walking its partitions
    with pytest.raises(ValueError, match="exceeds the block cap"):
        check_block_cap(2, 10**9)

