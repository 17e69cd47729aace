"""Diagonal-phase symmetrization of resource states and its measurement protocol.

The resource state |R> = (x)_j (alpha_j |psi> + beta_j |bot>) lives on k factors
of dimension N+1.  Averaging |R><R| over diagonal unitaries with i.i.d. uniform
phases (and phase 1 on the flag) gives sigma_R, whose entries survive exactly
when the row and column strings are reorderings of each other.  The same mixed
state is produced by a measure-and-resuperpose protocol: measure k copies of
psi, replace each result by the flag with probability |beta_j|^2, and prepare
a superposition over all reorderings weighted by the factor coefficients.
This module computes both density matrices exactly and checks their equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, DimensionError, PureState, _as_rng, born_sample

# (N+1)^k cap: one dense (N+1)^k x (N+1)^k complex matrix is at most 256 MiB
DENSE_CAP_DIM = 4096


@dataclass(frozen=True)
class ResourceSpec:
    """The (alpha_j, beta_j) coefficient list, one pair per tensor factor."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple((complex(a), complex(b)) for a, b in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        for j, (a, b) in enumerate(coeffs):
            nrm = abs(a) ** 2 + abs(b) ** 2
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError(f"factor {j}: |alpha|^2 + |beta|^2 = {nrm} != 1")

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @classmethod
    def random(cls, k, rng):
        pairs = []
        for _ in range(k):
            v = rng.standard_normal(4)
            a = v[0] + 1j * v[1]
            b = v[2] + 1j * v[3]
            nrm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            pairs.append((a / nrm, b / nrm))
        return cls(tuple(pairs))


def _check_cap(n_dim, k):
    if (n_dim + 1) ** k > DENSE_CAP_DIM:
        raise DimensionError(f"(N+1)^k = {n_dim + 1}^{k} exceeds the dense cap {DENSE_CAP_DIM}")


def digits_of(index, base, k):
    """Row-major mixed-radix digits of a flat index (factor 0 most significant)."""
    out = []
    for _ in range(k):
        out.append(index % base)
        index //= base
    return tuple(reversed(out))


def index_of(digits, base):
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def build_R(psi: PureState, spec: ResourceSpec) -> PureState:
    """Tensor product of the k factors alpha_j |psi> + beta_j |bot>."""
    if psi.has_bot:
        raise ValueError("psi must not carry the flag extension")
    _check_cap(psi.dim, spec.k)
    vec = np.array([1.0 + 0j])
    for a, b in spec.coeffs:
        factor = np.append(a * psi.amps, b)
        vec = np.kron(vec, factor)
    return PureState(vec)


def sigma_R_exact(psi: PureState, spec: ResourceSpec) -> DensityMatrix:
    """The diagonal-phase average of |R><R|, evaluated analytically.

    Entry (x, y) equals <x|R><R|y> when the digit strings of x and y are
    reorderings of each other, and is exactly zero otherwise.
    """
    r = build_R(psi, spec).amps
    base = psi.dim + 1
    k = spec.k
    dim = base**k
    sorted_digits = [tuple(sorted(digits_of(i, base, k))) for i in range(dim)]
    mat = np.zeros((dim, dim), dtype=complex)
    groups = {}
    for i, sd in enumerate(sorted_digits):
        groups.setdefault(sd, []).append(i)
    for idxs in groups.values():
        block = np.array(idxs)
        sub = r[block]
        mat[np.ix_(block, block)] = np.outer(sub, sub.conj())
    return DensityMatrix(mat)


def _zeta_group(group_indices, r_digits, spec, base):
    """Unnormalized zeta amplitudes and the group's outcome probability.

    ``group_indices`` is the list of flat indices whose digit strings are
    reorderings of one another.
    """
    k = spec.k
    amps = np.zeros(len(group_indices), dtype=complex)
    prob = 0.0
    for pos, idx in enumerate(group_indices):
        z = digits_of(idx, base, k)
        gamma = 1.0 + 0j
        weight = 1.0
        for j, zj in enumerate(z):
            a, b = spec.coeffs[j]
            if zj == base - 1:
                gamma *= b
                weight *= abs(b) ** 2
            else:
                gamma *= a
                weight *= abs(a) ** 2 * r_digits[zj]
        amps[pos] = gamma
        prob += weight
    return amps, prob


def rho_R_protocol_exact(psi: PureState, spec: ResourceSpec) -> DensityMatrix:
    """Exact output mixture of the measure-and-resuperpose protocol.

    Enumerates every outcome string over [N] plus the flag lottery, groups the
    extended strings by multiset, and mixes the resulting superpositions with
    their outcome probabilities.
    """
    if psi.has_bot:
        raise ValueError("psi must not carry the flag extension")
    _check_cap(psi.dim, spec.k)
    if spec.k > 6:
        raise DimensionError("protocol enumeration capped at k = 6")
    base = psi.dim + 1
    k = spec.k
    dim = base**k
    probs_psi = psi.probabilities()
    groups = {}
    for i in range(dim):
        groups.setdefault(tuple(sorted(digits_of(i, base, k))), []).append(i)
    mat = np.zeros((dim, dim), dtype=complex)
    for idxs in groups.values():
        amps, prob = _zeta_group(idxs, probs_psi, spec, base)
        nrm2 = float(np.vdot(amps, amps).real)
        if prob <= 0.0 or nrm2 <= 0.0:
            continue
        block = np.array(idxs)
        mat[np.ix_(block, block)] += (prob / nrm2) * np.outer(amps, amps.conj())
    return DensityMatrix(mat)


def rho_R_sample(psi: PureState, spec: ResourceSpec, seed) -> PureState:
    """One protocol execution: measure k copies, run the flag lottery, output zeta."""
    rng = _as_rng(seed)
    base = psi.dim + 1
    k = spec.k
    probs_psi = psi.probabilities()
    xs = born_sample(probs_psi, rng, size=k)
    xbar = []
    for j in range(k):
        a, b = spec.coeffs[j]
        xbar.append(base - 1 if rng.random() < abs(b) ** 2 else int(xs[j]))
    key = tuple(sorted(xbar))
    group = [index_of(p, base) for p in sorted(set(itertools.permutations(key)))]
    amps, _ = _zeta_group(group, probs_psi, spec, base)
    vec = np.zeros(base**k, dtype=complex)
    vec[np.array(group)] = amps
    return PureState(vec / np.linalg.norm(vec))


def verify_symmetrization(psi: PureState, spec: ResourceSpec) -> float:
    """Max-entry deviation between the analytic average and the protocol mixture."""
    sigma = sigma_R_exact(psi, spec)
    rho = rho_R_protocol_exact(psi, spec)
    return float(np.max(np.abs(sigma.mat - rho.mat)))
