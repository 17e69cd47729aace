"""Diagonal-phase symmetrization of resource states and its measurement protocol.

The resource state |R> = (x)_j (alpha_j |psi> + beta_j |bot>) lives on k factors
of dimension N+1.  Averaging |R><R| over diagonal unitaries with i.i.d. uniform
phases (and phase 1 on the flag) gives sigma_R, whose entries survive exactly
when the row and column strings are reorderings of each other.  The same mixed
state is produced by a measure-and-resuperpose protocol: measure k copies of
psi, replace each result by the flag with probability |beta_j|^2, and prepare
a superposition over all reorderings weighted by the factor coefficients.
This module computes both density matrices exactly and checks their equality
block by block over the multiset groups, without building either matrix.  The
group structure depends only on (N+1, k); it is built once as a
:class:`GroupLayout`, and every group of one size is compared in one batch of
array operations.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, check_unit_trace

# sum over the multiset groups of |G|^2, the block entries the verifier compares;
# it also bounds (N+1)^k, the length of |R>
BLOCK_CAP = 2**22
# (N+1)^k cap of the dense references: one 729 x 729 complex matrix is 8.1 MiB; as
# sum_G |G|^2 <= ((N+1)^k)^2 <= 729^2 < BLOCK_CAP, it implies the block cap
DENSE_CAP_DIM = 729
# block entries compared in one batch of array operations: 1 MiB per complex array
SLICE_ENTRIES = 2**16


def random_resource(k, rng) -> tuple:
    """k random unit (alpha_j, beta_j) pairs of Python complex, one per tensor factor."""
    pairs = []
    for _ in range(k):
        v = rng.standard_normal(4)
        a = v[0] + 1j * v[1]
        b = v[2] + 1j * v[3]
        nrm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        pairs.append((complex(a / nrm), complex(b / nrm)))
    return tuple(pairs)


def _partitions(k, largest):
    """The partitions of k into parts of at most ``largest``, parts descending."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def block_entries(base, k) -> int:
    """sum_G |G|^2 over the multiset groups of k-digit strings over [0, base).

    A group's occupation numbers, sorted, form a partition lam of k with at most
    ``base`` parts; C(base, len(lam)) * len(lam)! / prod(multiplicities!) groups
    share it, and each has the multinomial k! / prod(lam_i!) strings.
    """
    total = 0
    for lam in _partitions(k, k):
        if len(lam) > base:
            continue
        keys = math.factorial(len(lam))
        for mult in Counter(lam).values():
            keys //= math.factorial(mult)
        size = math.factorial(k)
        for part in lam:
            size //= math.factorial(part)
        total += math.comb(base, len(lam)) * keys * size * size
    return total


def check_block_cap(n_dim, k):
    # sum_G |G|^2 >= (N+1)^k >= 2^k passes the cap once k reaches its bit length, so a
    # huge k walks no partitions
    if k >= BLOCK_CAP.bit_length() or block_entries(n_dim + 1, k) > BLOCK_CAP:
        raise ValueError(
            "sum over the multiset groups of |G|^2 at (N+1, k) = (2^-n + 1, -k)"
            f" = ({n_dim + 1}, {k}) exceeds the block cap {BLOCK_CAP}"
        )


def check_dense_cap(n_dim, k):
    if k >= DENSE_CAP_DIM.bit_length() or (n_dim + 1) ** k > DENSE_CAP_DIM:
        raise ValueError(f"(N+1)^k = {n_dim + 1}^{k} exceeds the dense cap {DENSE_CAP_DIM}")


def build_R(psi: np.ndarray, spec: tuple) -> np.ndarray:
    """Amplitudes of the tensor product of the k factors alpha_j |psi> + beta_j |bot>."""
    vec = np.array([1.0 + 0j])
    for a, b in spec:
        factor = np.append(a * psi, b)
        vec = np.outer(vec, factor).ravel()
    return vec


@dataclass(frozen=True)
class GroupLayout:
    """The multiset groups of k-digit strings over [0, base).

    ``digits[x]`` holds the row-major digits of flat index x (factor 0 most
    significant) and ``gid[x]`` its group; groups are numbered in
    ``combinations_with_replacement(range(base), k)`` order.  ``classes`` has
    one ``(ids, idx)`` pair per group size s: the ids of the groups of that
    size, ascending, and their (groups, s) matrix of ascending flat indices.
    sigma_R and rho_R are block-diagonal over the groups.  Digits take the
    narrowest unsigned type that holds base - 1, and group ids and flat
    indices are int32, which holds every base^k <= ``BLOCK_CAP``.
    """

    digits: np.ndarray
    gid: np.ndarray
    classes: tuple


@functools.lru_cache(maxsize=4)
def group_layout(base, k) -> GroupLayout:
    """The layout of (base, k), built once per process and shared read-only."""
    digits = np.indices((base,) * k, dtype=np.min_scalar_type(base - 1)).reshape(k, -1).T
    # a sorted digit row read as a flat index: ascending keys are the rows in lexicographic,
    # i.e. combinations_with_replacement, order
    key = np.zeros(len(digits), dtype=np.int32)
    for col in np.sort(digits, axis=1).T:
        key = key * base + col
    # a stable sort by key lists the groups in order, each with its flat indices ascending
    order = np.argsort(key, kind="stable").astype(np.int32)
    first = np.diff(key[order], prepend=-1) != 0  # the first index of each group
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(key))
    gid = np.empty(len(key), dtype=np.int32)
    gid[order] = np.cumsum(first, dtype=np.int32) - 1
    classes = []
    for size in np.unique(sizes):
        ids = np.flatnonzero(sizes == size).astype(np.int32)
        classes.append((ids, order[starts[ids][:, None] + np.arange(size)]))
    for arr in (digits, gid, *(a for c in classes for a in c)):
        arr.flags.writeable = False
    return GroupLayout(digits, gid, tuple(classes))


def _slices(layout):
    """(ids, idx) batches of equal-size groups, at most ~``SLICE_ENTRIES`` block entries each."""
    for ids, idx in layout.classes:
        step = max(1, SLICE_ENTRIES // idx.shape[1] ** 2)
        for lo in range(0, len(ids), step):
            yield ids[lo : lo + step], idx[lo : lo + step]


def _outer(rows):
    """rows[g] rows[g]^dagger for every row g: a (groups, s, s) batch."""
    return rows[:, :, None] * rows.conj()[:, None, :]


def _protocol_amplitudes(layout, probs_psi, spec):
    """Per flat index, the protocol amplitude gamma_x; per group, the outcome probability p_G.

    gamma_x is the product over the factors of beta_j where digit j is the flag
    and alpha_j elsewhere; outcome x occurs with probability the product of
    |beta_j|^2 where digit j is the flag and |alpha_j|^2 |psi_(x_j)|^2
    elsewhere, and p_G sums it over the group.  Each factor is one lookup of
    digit column j in a table of its base values.
    """
    gamma = np.ones(len(layout.gid), dtype=complex)
    weight = np.ones(len(layout.gid))
    for col, (a, b) in zip(layout.digits.T, spec):
        gamma *= np.append(np.full(len(probs_psi), a), b)[col]
        weight *= np.append(abs(a) ** 2 * probs_psi, abs(b) ** 2)[col]
    return gamma, np.bincount(layout.gid, weights=weight)


def _rho_weights(layout, gamma, prob):
    """p_G / |zeta_G|^2 per group, and zero when p_G or zeta_G is zero."""
    nrm2 = np.bincount(layout.gid, weights=gamma.real**2 + gamma.imag**2)
    out = np.zeros(len(prob))
    np.divide(prob, nrm2, out=out, where=(prob > 0.0) & (nrm2 > 0.0))
    return out


def _rho_blocks(gamma, coef, ids, idx):
    """rho_R on a batch of groups: (p_G / |zeta_G|^2) zeta_G zeta_G^dagger."""
    return coef[ids][:, None, None] * _outer(gamma[idx])


def _dense(layout, blocks) -> DensityMatrix:
    """Scatter ``blocks(ids, idx)`` over every batch into one dense matrix (the test reference)."""
    mat = np.zeros((len(layout.gid), len(layout.gid)), dtype=complex)
    for ids, idx in _slices(layout):
        mat[idx[:, :, None], idx[:, None, :]] = blocks(ids, idx)
    return DensityMatrix(mat)


def sigma_R_exact(psi: np.ndarray, spec: tuple) -> DensityMatrix:
    """The diagonal-phase average of |R><R|, evaluated analytically (dense).

    Entry (x, y) equals <x|R><R|y> when the digit strings of x and y are
    reorderings of each other, and is exactly zero otherwise.
    """
    check_dense_cap(len(psi), len(spec))
    r = build_R(psi, spec)
    return _dense(group_layout(len(psi) + 1, len(spec)), lambda ids, idx: _outer(r[idx]))


def rho_R_protocol_exact(psi: np.ndarray, spec: tuple) -> DensityMatrix:
    """Exact output mixture of the measure-and-resuperpose protocol (dense).

    Enumerates every outcome string over [N] plus the flag lottery, groups the
    extended strings by multiset, and mixes the resulting superpositions with
    their outcome probabilities.
    """
    check_dense_cap(len(psi), len(spec))
    layout = group_layout(len(psi) + 1, len(spec))
    gamma, prob = _protocol_amplitudes(layout, np.abs(psi) ** 2, spec)
    coef = _rho_weights(layout, gamma, prob)
    return _dense(layout, lambda ids, idx: _rho_blocks(gamma, coef, ids, idx))


def verify_symmetrization(psi: np.ndarray, spec: tuple) -> float:
    """Max-entry deviation between the analytic average and the protocol mixture.

    Both are compared over the multiset groups, every group of one size in one
    batch, so no (N+1)^k-square matrix is built.  Each block is rank one with a
    nonnegative weight, hence Hermitian and PSD; only the unit trace of each
    side is checked.  The caller checks the block cap first.
    """
    layout = group_layout(len(psi) + 1, len(spec))  # before |R>: its build's temporaries are freed
    gamma, prob = _protocol_amplitudes(layout, np.abs(psi) ** 2, spec)
    coef = _rho_weights(layout, gamma, prob)
    r = build_R(psi, spec)
    dev = tr_sigma = tr_rho = 0.0
    for ids, idx in _slices(layout):
        sigma, rho = _outer(r[idx]), _rho_blocks(gamma, coef, ids, idx)
        tr_sigma += np.trace(sigma, axis1=1, axis2=2).real.sum()
        tr_rho += np.trace(rho, axis1=1, axis2=2).real.sum()
        dev = max(dev, float(np.max(np.abs(sigma - rho))))
    check_unit_trace(tr_sigma)
    check_unit_trace(tr_rho)
    return dev
