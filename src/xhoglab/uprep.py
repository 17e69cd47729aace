"""Simulating a random state-preparation oracle from the canonical oracle.

The construction: draw a Haar-random helper state phi, rotate it onto a state
psi_perp orthogonal to psi, and use the three-reflection composition
O_psi O_{psi_perp} O_psi (which swaps psi and psi_perp) to turn a preparation
of psi_perp into a preparation of psi.  The rotation needs a corrected prep
unitary V' = RV that is not available to the simulator, so the realizable
version substitutes V; the resulting channel error per call site is exactly
2|<psi|phi>|, and the T-query composition stays below (10T+4)/2^(n/2) on
average over phi.  The sweep that checks that bound computes every draw's
distance in blocks of draws, on one path; the per-draw form shares its last
step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_QUBITS,
    MAX_TRIALS,
    LazyHaarComplement,
    UnitaryOp,
    block_diamond_distance,
    haar_state_amps,
    haar_unitary_mat,  # noqa: F401  unused here; xbench/test_xbench.py checks its tracer wraps this binding
    trial_streams,
)
from .oracles import canonical_oracle, householder_matrix, householder_vector, prep_query

log = logging.getLogger(__name__)

DEGENERATE_TOL = 1e-12
# amplitude entries per block of the channel-distance sweep, which takes
# SWEEP_BLOCK_ENTRIES // dim draws at a time: its arrays hold ~25 dim-vectors per draw at
# T = 3, so 2^10 entries keep the tracemalloc peak of (n, T, trials) = (6, 3, 120) at
# 0.55 MiB; 2^11 doubles the block's share of that peak for ~10 % less time
SWEEP_BLOCK_ENTRIES = 2**10


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
            return decompose_phi(psi, haar_state_amps(rng.standard_normal(2 * len(psi))))
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
    Those 2t columns go to :func:`_columns_distances` as a block of one draw,
    the step :func:`channel_distances` runs on a block of many.
    """
    if t == 0:
        return 0.0
    if t == 1:
        # W and the swap cancel: the mismatch is the bare rotation, distance 2|beta|
        return 2.0 * abs(plan.beta)
    prep = prep_query(*householder_vector(plan.phi), w)  # V W
    cs = [plan.psi, plan.psi_perp]  # = swap @ (psi_perp, psi)
    for q in range(2 * (t - 1)):
        cs.append(_swap(plan, prep(cs[q])))
    return float(_columns_distances(np.array(cs)[None], [plan])[0])


def channel_distance_bound_report(n, t, trials, seed) -> dict:
    """Per-draw diamond distances of the t-composed simulation, versus the bound.

    Averaging per-draw unitary distances upper-bounds the mixed-channel
    distance by convexity; returns their mean and the bound (10t+4)/2^(n/2).
    """
    if not (1 <= n <= MAX_QUBITS and 0 <= t <= 4 and 1 <= trials <= MAX_TRIALS):
        raise ValueError(f"uprep needs 1 <= -n <= {MAX_QUBITS}, 0 <= -T <= 4 and"
                         f" 1 <= --trials <= {MAX_TRIALS}")
    mean = float(channel_distances(n, t, trials, seed).mean()) if t else 0.0
    return {"mean_distance": mean, "bound": (10 * t + 4) / 2 ** (n / 2)}


def channel_distances(n, t, trials, seed) -> np.ndarray:
    """``t_composed_diamond`` of draw i on stream (seed, i), for every i < trials (t >= 1).

    One Python pass per draw only draws, in the stream order of the per-draw
    code: psi, the plan, then the 2 dim m Gaussians for the lazy complement's
    new directions, m = min(2(t-1), dim-1).  A draw whose queries find fewer
    than m new directions leaves its last Gaussians unread, as the per-draw
    code never draws them.  The math runs once per block of draws in
    :func:`_block_distances`, which takes every draw.
    """
    dim = 2**n
    streams = trial_streams(seed, 0, trials)
    if t == 1:  # W and the swap cancel: 2|beta| (t_composed_diamond's t = 1 case)
        betas = (draw_plan(haar_state_amps(rng.standard_normal(2 * dim)), rng).beta for rng in streams)
        return np.fromiter((2.0 * abs(b) for b in betas), float, count=trials)
    m = min(2 * (t - 1), dim - 1)
    size = max(1, SWEEP_BLOCK_ENTRIES // dim)
    dists = np.empty(trials)
    plans = []
    gauss = np.empty((size, m, 2, dim))
    for i, rng in enumerate(streams):
        plans.append(draw_plan(haar_state_amps(rng.standard_normal(2 * dim)), rng))
        rng.standard_normal(out=gauss[len(plans) - 1])
        if len(plans) == size or i == trials - 1:
            dists[i + 1 - len(plans) : i + 1] = _block_distances(plans, gauss[: len(plans)], t)
            plans = []
    return dists


def _block_distances(plans, gauss, t):
    """``t_composed_diamond`` for t >= 2 over a block of draws, the draw axis leading.

    ``gauss[b]`` is draw b's (m, 2, dim) Gaussians: the real and imaginary
    parts of the lazy complement's output directions, in the order it draws
    them.  Each of the 2(t-1) queries is ``LazyHaarComplement._map`` on one
    vector per draw.  ``used[b]`` counts draw b's filled frame slots: a query
    that finds a new direction while the frame is below dim - 1 fills slot
    ``used[b]`` and takes that slot's Gaussians, so a draw with no new
    direction at some query (a frame full early, or psi on |0>) stays in step.
    """
    nb, m, _, dim = gauss.shape
    cs = np.empty((nb, 2 * t, dim), dtype=complex)  # t_composed_diamond's columns, as rows
    cs[:, 0], cs[:, 1] = [p.psi for p in plans], [p.psi_perp for p in plans]
    # output frame: each fresh direction off |0>, orthogonalized twice against the earlier ones
    fout = np.empty((nb, m, dim), dtype=complex)
    fout.real, fout.imag = gauss[:, :, 0], gauss[:, :, 1]
    fout[:, :, 0] = 0.0
    for k in range(m):
        for _ in range(2):
            fout[:, k] -= _combine(_overlaps(fout[:, :k], fout[:, k]), fout[:, :k])
        fout[:, k] /= _norms(fout[:, k])[:, None]
    fin = np.zeros_like(fout)  # input frame, filled query by query; unfilled slots are 0
    used = np.zeros(nb, dtype=int)
    # householder_vector(phi): the prep query is phase (I - 2 u u^dagger) W
    u = np.array([p.phi for p in plans])
    lead = np.abs(u[:, 0])
    phase = np.divide(u[:, 0], lead, out=np.ones(nb, dtype=complex), where=lead > 1e-14)
    u /= phase[:, None]
    u[:, 0] -= 1.0
    nrm = _norms(u)[:, None]
    u = np.divide(u, nrm, out=np.zeros_like(u), where=nrm > 1e-14)
    d = cs[:, 0] - cs[:, 1]  # the swap is I - d d^dagger
    for q in range(2 * (t - 1)):
        x, k = cs[:, q], min(q, m)
        res = x.copy()
        res[:, 0] = 0.0
        coef = np.zeros((nb, k), dtype=complex)
        for _ in range(2):
            c = _overlaps(fin[:, :k], res)
            res -= _combine(c, fin[:, :k])
            coef += c
        col = _combine(coef, fout[:, :k])
        col[:, 0] = x[:, 0]
        nrm = _norms(res)
        new = np.flatnonzero((used < dim - 1) & (nrm > 1e-12 * _norms(x)))
        slot = used[new]
        fin[new, slot] = res[new] / nrm[new, None]
        col[new] += nrm[new, None] * fout[new, slot]
        used[new] += 1
        col = phase[:, None] * (col - u * (2.0 * _overlaps(u, col))[:, None])
        cs[:, q + 2] = col - d * _overlaps(d, col)[:, None]
    return _columns_distances(cs, plans)


def _columns_distances(cs, plans):
    """The diamond distances of a block of draws from their 2t columns (rows of ``cs``).

    cs = Q R with Q orthonormal (a Householder QR), and (ideal)^t (approx)^(-t) - I
    has its range in span(cs), inside span(Q).  So the recursion on y = Q Y runs on
    the R coordinates Y from Y = I, exact at any rank of the columns, and the
    distance is that of the block Y on span(Q), plus 1s outside it.
    """
    r = np.linalg.qr(cs.transpose(0, 2, 1), mode="r")
    nb, s, cols = r.shape  # s = min(2t, dim)
    e = np.array([p.block for p in plans]) - np.eye(2)
    y = np.broadcast_to(np.eye(s), (nb, s, s))
    for j in reversed(range(0, cols, 2)):
        rj = r[:, :, j : j + 2]
        y = y + rj @ (e @ (rj.conj().transpose(0, 2, 1) @ y))
    return block_diamond_distance(y, cs.shape[2])


def _overlaps(a, x):
    """a^dagger x per draw: (nb, k, dim) frames, or (nb, dim) vectors, against (nb, dim)."""
    if a.ndim == 2:
        return np.vecdot(a, x)
    return (a.conj() @ x[:, :, None])[:, :, 0]


def _combine(c, a):
    """Coefficients (nb, k) times frames (nb, k, dim): one vector per draw."""
    return (c[:, None] @ a)[:, 0]


def _norms(x):
    """The 2-norm of each draw's vector, sqrt(vdot(x, x).real)."""
    return np.sqrt(np.vecdot(x, x).real)
