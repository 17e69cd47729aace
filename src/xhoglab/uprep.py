"""Simulating a random state-preparation oracle from the canonical oracle.

The construction: draw a Haar-random helper state phi, rotate it onto a state
psi_perp orthogonal to psi, and use the three-reflection composition
O_psi O_{psi_perp} O_psi (which swaps psi and psi_perp) to turn a preparation
of psi_perp into a preparation of psi.  The rotation needs a corrected prep
unitary V' = RV that is not available to the simulator, so the realizable
version substitutes V; the resulting channel error per call site is exactly
2|<psi|phi>|, and the T-query composition stays below (10T+4)/2^(n/2) on
average over phi.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DENSE_MAX_QUBITS,
    DimensionError,
    LazyHaarComplement,
    PureState,
    UnitaryOp,
    _as_rng,
    haar_state_amps,
    haar_unitary_mat,  # noqa: F401  unused here; xbench/test_xbench.py checks its tracer wraps this binding
    orth_basis,
    subspace_diamond_distance,
    trial_streams,
)
from .oracles import householder_vector

log = logging.getLogger(__name__)

DEGENERATE_TOL = 1e-12


class DegenerateStateError(ValueError):
    """phi is (numerically) parallel to psi; the decomposition is undefined."""


@dataclass(frozen=True)
class RotationPlan:
    """The decomposition phi = alpha psi_perp + beta psi with alpha real >= 0."""

    psi: PureState
    phi: PureState
    alpha: float
    beta: complex
    theta: float
    psi_perp: PureState


def decompose_phi(psi: PureState, phi: PureState) -> RotationPlan:
    """Split phi into its psi component and a normalized orthogonal remainder."""
    if psi.dim != phi.dim:
        raise DimensionError("dimension mismatch")
    beta = complex(np.vdot(psi.amps, phi.amps))
    if abs(beta) >= 1.0 - DEGENERATE_TOL:
        raise DegenerateStateError(f"|<psi|phi>| = {abs(beta)} is degenerate")
    rem = phi.amps - beta * psi.amps
    alpha = float(np.linalg.norm(rem))
    psi_perp = PureState(rem / alpha)
    return RotationPlan(psi, phi, alpha, beta, math.acos(min(1.0, alpha)), psi_perp)


def rotation_R(plan: RotationPlan) -> UnitaryOp:
    """The rotation with R phi = psi_perp, identity outside span{psi, psi_perp}.

    In the ordered basis (psi_perp, psi) the 2x2 block is
    [[alpha, conj(beta)], [-beta, alpha]]; it has determinant 1, trace
    2 cos(theta), and eigenvalues e^(+-i theta).
    """
    b = np.column_stack([plan.psi_perp.amps, plan.psi.amps])
    block = np.array([[plan.alpha, np.conj(plan.beta)], [-plan.beta, plan.alpha]])
    mat = np.eye(plan.psi.dim, dtype=complex) + b @ (block - np.eye(2)) @ b.conj().T
    return UnitaryOp(mat)


def swap_via_canonical(psi: PureState, psi_perp: PureState) -> UnitaryOp:
    """O_psi O_{psi_perp} O_psi on the extended space: swaps psi and psi_perp.

    Fixes the flag state and everything orthogonal to all three; costs 2
    queries to O_psi and 1 to O_{psi_perp}.
    """
    from .oracles import canonical_oracle

    if abs(np.vdot(psi.amps, psi_perp.amps)) > 1e-10:
        raise ValueError("psi and psi_perp are not orthogonal")
    o_psi = canonical_oracle(psi).unitary
    o_perp = canonical_oracle(psi_perp).unitary
    out = o_psi @ o_perp @ o_psi
    return UnitaryOp(out.mat, {"O_psi": 2, "O_psi_perp": 1})


def _swap(plan: RotationPlan, x):
    """The n-qubit restriction of the three-reflection swap applied to x: for orthonormal
    psi and psi_perp it is the reflection I - d d^dagger, d = psi - psi_perp."""
    d = plan.psi.amps - plan.psi_perp.amps
    return x - np.multiply.outer(d, d.conj() @ x)


def draw_plan(psi: PureState, rng) -> RotationPlan:
    """Haar-random phi, resampling the measure-zero degenerate case with a log line."""
    while True:
        phi = PureState(haar_state_amps(psi.dim, rng))
        try:
            return decompose_phi(psi, phi)
        except DegenerateStateError:
            log.info("resampled a degenerate helper state at dim %d", psi.dim)


def simulate_U_psi(psi: PureState, seed, mode="ideal", t=1) -> UnitaryOp:
    """The t-query composition of the simulated random prep oracle.

    ideal mode uses the corrected prep V' = RV (maps zeros to psi exactly and
    is distributed as a fresh random prep oracle); approximate mode substitutes
    the available V.  The ledger records 2 canonical-oracle queries per
    simulated query.
    """
    rng = _as_rng(seed)
    plan = draw_plan(psi, rng)
    w = LazyHaarComplement(psi.dim, rng).materialize()
    mat = _simulated_query_matrix(plan, w, mode)
    return UnitaryOp(np.linalg.matrix_power(mat, t), {"O_psi": 2 * t})


def _simulated_query_matrix(plan: RotationPlan, w, mode):
    phase, u = householder_vector(plan.phi.amps)
    v = phase * (np.eye(len(u)) - 2.0 * np.outer(u, u.conj()))
    if mode == "ideal":
        v = rotation_R(plan).mat @ v
    elif mode != "approximate":
        raise ValueError(f"unknown mode {mode!r}")
    return _swap(plan, v @ w)


def t_composed_diamond(plan: RotationPlan, w: LazyHaarComplement, t: int) -> float:
    """Exact diamond distance between the t-fold ideal and approximate unitaries.

    The two compositions differ by a product of t conjugated rank-2 rotations,
    so the eigenvalues of (ideal)^t (approx)^(-t) are those of a matrix acting
    on an invariant subspace of dimension at most 2t, plus 1s.  Only that small
    block is diagonalized.  The approximate query S V W is applied matrix-free
    to the 2(t-1) vectors that block needs, so the sampler w draws W only there.
    """
    if t == 0:
        return 0.0
    block = np.array([[plan.alpha, np.conj(plan.beta)], [-plan.beta, plan.alpha]])
    e = block - np.eye(2)
    s_b = np.column_stack([plan.psi.amps, plan.psi_perp.amps])  # = swap @ (psi_perp, psi)
    if t == 1:
        # W and the swap cancel: the mismatch is the bare rotation, distance 2|beta|
        return 2.0 * abs(plan.beta)
    phase, u = householder_vector(plan.phi.amps)

    def approximate_query(x):  # S V W x, matrix-free
        y = w.apply(x)
        return _swap(plan, phase * (y - 2.0 * u * np.vdot(u, y)))

    cs = [s_b]
    for _ in range(t - 1):
        cs.append(np.column_stack([approximate_query(c) for c in cs[-1].T]))
    q = orth_basis(np.hstack(cs))
    y = q
    for cj in reversed(cs):
        y = y + cj @ (e @ (cj.conj().T @ y))
    return subspace_diamond_distance(q, y)


def channel_distance_bound_report(n, t, trials, seed) -> dict:
    """Per-draw diamond distances of the t-composed simulation, versus the bound.

    Averaging per-draw unitary distances upper-bounds the mixed-channel
    distance by convexity; the report states the margin against
    (10t+4)/2^(n/2).
    """
    if not (1 <= n <= DENSE_MAX_QUBITS and 0 <= t <= 4 and trials >= 1):
        raise DimensionError(f"caps: 1 <= n <= {DENSE_MAX_QUBITS}, 0 <= t <= 4, trials >= 1")
    dim = 2**n
    dists = np.empty(trials)
    for i, rng in enumerate(trial_streams(seed, 0, trials)):
        psi = PureState(haar_state_amps(dim, rng))
        plan = draw_plan(psi, rng)
        w = LazyHaarComplement(dim, rng) if t >= 2 else None
        dists[i] = t_composed_diamond(plan, w, t)
    bound = (10 * t + 4) / 2 ** (n / 2)
    mean = float(dists.mean())
    return {
        "n": n,
        "T": t,
        "trials": trials,
        "mean_distance": mean,
        "bound": bound,
        "margin": bound - mean,
        "seed": seed,
    }
