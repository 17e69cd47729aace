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
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_QUBITS,
    MAX_TRIALS,
    DimensionError,
    LazyHaarComplement,
    UnitaryOp,
    block_diamond_distance,
    haar_state_amps,
    haar_unitary_mat,  # noqa: F401  unused here; xbench/test_xbench.py checks its tracer wraps this binding
    orth_basis,
    trial_streams,
)
from .oracles import canonical_oracle, householder_matrix, householder_vector, prep_query

log = logging.getLogger(__name__)

DEGENERATE_TOL = 1e-12


class DegenerateStateError(ValueError):
    """phi is (numerically) parallel to psi; the decomposition is undefined."""


@dataclass(frozen=True)
class RotationPlan:
    """The decomposition phi = alpha psi_perp + beta psi with alpha real >= 0, of
    unit amplitude vectors."""

    psi: np.ndarray
    phi: np.ndarray
    alpha: float
    beta: complex
    psi_perp: np.ndarray

    @property
    def block(self) -> np.ndarray:
        """The rotation on (psi_perp, psi): [[alpha, conj(beta)], [-beta, alpha]].

        It has determinant 1, trace 2 alpha, and eigenvalues e^(+-i theta) with
        cos(theta) = alpha.
        """
        return np.array([[self.alpha, np.conj(self.beta)], [-self.beta, self.alpha]])


def decompose_phi(psi: np.ndarray, phi: np.ndarray) -> RotationPlan:
    """Split phi into its psi component and a normalized orthogonal remainder."""
    beta = complex(np.vdot(psi, phi))
    if abs(beta) >= 1.0 - DEGENERATE_TOL:
        raise DegenerateStateError(f"|<psi|phi>| = {abs(beta)} is degenerate")
    rem = phi - beta * psi
    alpha = float(np.linalg.norm(rem))
    return RotationPlan(psi, phi, alpha, beta, rem / alpha)


def rotation_R(plan: RotationPlan) -> UnitaryOp:
    """The rotation with R phi = psi_perp, identity outside span{psi, psi_perp},
    acting as ``plan.block`` in the ordered basis (psi_perp, psi)."""
    return UnitaryOp.from_update(np.column_stack([plan.psi_perp, plan.psi]), plan.block)


def swap_via_canonical(psi: np.ndarray, psi_perp: np.ndarray):
    """O_psi O_{psi_perp} O_psi on the extended space: swaps psi and psi_perp.

    Fixes the flag state and everything orthogonal to all three.  Built by
    applying canonical-oracle handles to an identity block; returns the
    matrix and the handles' call counts (2 to O_psi, 1 to O_{psi_perp}).
    """
    if abs(np.vdot(psi, psi_perp)) > 1e-10:
        raise ValueError("psi and psi_perp are not orthogonal")
    o_psi, o_perp = canonical_oracle(psi), canonical_oracle(psi_perp)
    out = o_psi.apply(o_perp.apply(o_psi.apply(np.eye(len(psi) + 1))))
    return UnitaryOp(out), (o_psi.calls, o_perp.calls)


def _swap(plan: RotationPlan, x):
    """The n-qubit restriction of the three-reflection swap applied to x: for orthonormal
    psi and psi_perp it is the reflection I - d d^dagger, d = psi - psi_perp."""
    d = plan.psi - plan.psi_perp
    return x - np.multiply.outer(d, d.conj() @ x)


def draw_plan(psi: np.ndarray, rng) -> RotationPlan:
    """Haar-random phi, resampling the measure-zero degenerate case with a log line."""
    while True:
        try:
            return decompose_phi(psi, haar_state_amps(len(psi), rng))
        except DegenerateStateError:
            log.info("resampled a degenerate helper state at dim %d", len(psi))


def simulate_U_psi(psi: np.ndarray, rng, mode="ideal", t=1):
    """The t-query composition of the simulated random prep oracle.

    ideal mode uses the corrected prep V' = RV (maps zeros to psi exactly and
    is distributed as a fresh random prep oracle); approximate mode substitutes
    the available V.  Draws from the Generator ``rng``; returns the dense
    composition and its O_psi query count.
    """
    plan = draw_plan(psi, rng)
    return _simulated_composition(plan, LazyHaarComplement(len(psi), rng).materialize(), mode, t)


def _simulated_composition(plan: RotationPlan, w, mode, t):
    """(S V W)^t and its O_psi query count, with the swap S run as O_psi O_{psi_perp} O_psi
    on canonical-oracle handles: 2 O_psi queries per simulated query."""
    v = householder_matrix(*householder_vector(plan.phi))
    if mode == "ideal":
        v = rotation_R(plan).apply(v)
    elif mode != "approximate":
        raise ValueError(f"unknown mode {mode!r}")
    o_psi, o_perp = canonical_oracle(plan.psi), canonical_oracle(plan.psi_perp)
    x = np.eye(len(w) + 1, len(w), dtype=complex)  # the n-qubit space; the flag row stays ~0
    for _ in range(t):
        x[:-1] = v @ (w @ x[:-1])
        x = o_psi.apply(o_perp.apply(o_psi.apply(x)))
    return UnitaryOp(x[:-1]), o_psi.calls


def t_composed_diamond(plan: RotationPlan, w: LazyHaarComplement, t: int) -> float:
    """Exact diamond distance between the t-fold ideal and approximate unitaries.

    The two compositions differ by a product of t conjugated rank-2 rotations,
    so the eigenvalues of (ideal)^t (approx)^(-t) are those of a matrix acting
    on an invariant subspace of dimension at most 2t, plus 1s.  Only that small
    block is diagonalized.  The approximate query S V W is the swap after the
    random-prep query V W of ``oracles.prep_query`` for phi, applied matrix-free
    to the 2(t-1) vectors that block needs, so the sampler w draws W only there.
    """
    if t == 0:
        return 0.0
    e = plan.block - np.eye(2)
    s_b = np.column_stack([plan.psi, plan.psi_perp])  # = swap @ (psi_perp, psi)
    if t == 1:
        # W and the swap cancel: the mismatch is the bare rotation, distance 2|beta|
        return 2.0 * abs(plan.beta)
    prep = prep_query(*householder_vector(plan.phi), w)  # V W
    cs = [s_b]
    for _ in range(t - 1):
        cs.append(np.column_stack([_swap(plan, prep(c)) for c in cs[-1].T]))
    q = orth_basis(np.hstack(cs))
    y = q
    for cj in reversed(cs):
        y = y + cj @ (e @ (cj.conj().T @ y))
    return block_diamond_distance(q.conj().T @ y, len(q))


def channel_distance_bound_report(n, t, trials, seed) -> dict:
    """Per-draw diamond distances of the t-composed simulation, versus the bound.

    Averaging per-draw unitary distances upper-bounds the mixed-channel
    distance by convexity; returns their mean and the bound (10t+4)/2^(n/2).
    """
    if not (1 <= n <= MAX_QUBITS and 0 <= t <= 4 and 1 <= trials <= MAX_TRIALS):
        raise DimensionError(f"uprep needs 1 <= -n <= {MAX_QUBITS}, 0 <= -T <= 4 and"
                             f" 1 <= --trials <= {MAX_TRIALS}")
    dim = 2**n
    dists = np.empty(trials)
    for i, rng in enumerate(trial_streams(seed, 0, trials)):
        plan = draw_plan(haar_state_amps(dim, rng), rng)
        w = LazyHaarComplement(dim, rng) if t >= 2 else None
        dists[i] = t_composed_diamond(plan, w, t)
    return {"mean_distance": float(dists.mean()), "bound": (10 * t + 4) / 2 ** (n / 2)}
