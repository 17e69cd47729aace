"""Dense complex state/operator arithmetic, Haar sampling and distance measures.

Everything here is deterministic given a seed.  Seeds for individual trials are
derived from a master seed and a trial counter (see :func:`trial_rng`), so that
parallel experiment runs reproduce bit-for-bit regardless of scheduling.  Loops
over many trials take the same ``SeedSequence((seed, i))`` -> PCG64 streams from
:func:`trial_streams`, which computes the seeding a block of trials at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ATOL = 1e-10

MAX_QUBITS = 14
MAX_DIM = 2**MAX_QUBITS
# verifiers that build dense N x N or 2N x 2N operators stop here
DENSE_MAX_QUBITS = 10


class DimensionError(ValueError):
    """Raised when a dimension is out of range or two operands disagree."""


def trial_rng(master_seed, trial=0):
    """Counter-based RNG derivation: one independent stream per (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(trial))))


# numpy.random.SeedSequence's hash: uint32 words, a pool of four
_MASK32 = 0xFFFFFFFF
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# the trial index must be one entropy word, as trial_rng's (seed, i) tuple has it
TRIAL_INDEX_END = 2**32
STREAM_BLOCK = 4096


def _entropy_words(value: int) -> list:
    """Little-endian uint32 words of a nonnegative int, at least one (SeedSequence's)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(hash_const, mult):
    """SeedSequence's hashmix on uint32 arrays; the constant advances once per call."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    return hashmix


def _seed_sequence_states(seed_words, trials):
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for each i in ``trials``.

    The hash constants evolve independently of the data, so every step is
    one uint32 array operation over the whole block (array arithmetic wraps
    without a warning).  Returns a (len(trials), 4) uint64 array.
    """
    n = len(trials)
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words] + [trials]

    def mix(x, y):
        out = x * np.uint32(_SS_MIX_L)
        out -= y * np.uint32(_SS_MIX_R)
        out ^= out >> 16
        return out

    hashmix = _hasher(_SS_INIT_A, _SS_MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL, len(entropy)):
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hashmix = _hasher(_SS_INIT_B, _SS_MULT_B)
    words = np.empty((8, n), dtype=np.uint64)
    for j in range(8):
        words[j] = hashmix(pool[j % _SS_POOL])
    # uint64 word k is uint32 words 2k (low half) and 2k + 1 (high half)
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


def trial_streams(master_seed, start, stop):
    """The streams ``trial_rng(master_seed, i)`` gives, for i in [start, stop).

    SeedSequence's hash is computed for up to ``STREAM_BLOCK`` indices at a
    time, and PCG64's seeding step turns each result into a state that is
    assigned to one Generator.  That Generator is yielded for every index, so
    a stream is valid only until the next one is drawn.  Ranges are checked
    here, before anything is allocated.
    """
    seed = int(master_seed)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    if not (0 <= start and stop <= TRIAL_INDEX_END):
        raise ValueError(f"trial range [{start}, {stop}) is outside [0, 2^32)")
    return _streams(_entropy_words(seed), start, stop)


def _streams(seed_words, start, stop):
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for lo in range(start, stop, STREAM_BLOCK):
        trials = np.arange(lo, min(lo + STREAM_BLOCK, stop), dtype=np.int64).astype(np.uint32)
        for s_hi, s_lo, i_hi, i_lo in _seed_sequence_states(seed_words, trials).tolist():
            # pcg64_set_seed: inc = 2 initseq + 1; state = ((inc + initstate) * MULT + inc)
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_gen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class PureState:
    """A unit complex amplitude vector over a finite computational basis.

    If ``has_bot`` is set, the last index encodes the flag state orthogonal to
    every n-qubit basis state, and indices 0..dim-2 are the computational basis.
    """

    amps: np.ndarray
    has_bot: bool = False

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        norm = np.vdot(amps, amps).real
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def dim(self) -> int:
        return len(self.amps)

    @property
    def n_qubits(self) -> int:
        n_dim = self.dim - 1 if self.has_bot else self.dim
        n = n_dim.bit_length() - 1
        if 2**n != n_dim:
            raise ValueError("dimension is not a power of two")
        return n

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def with_bot(self) -> "PureState":
        """Embed into the (N+1)-dimensional space with zero amplitude on the flag."""
        if self.has_bot:
            return self
        return PureState(np.append(self.amps, 0.0), has_bot=True)


def basis_state(dim, index, has_bot=False) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v, has_bot=has_bot)


def bot_state(n: int) -> PureState:
    """The flag state on the extended (2^n + 1)-dimensional space."""
    return basis_state(2**n + 1, 2**n, has_bot=True)


@dataclass
class UnitaryOp:
    """A dense unitary with an additive ledger of oracle call counts."""

    mat: np.ndarray
    query_ledger: dict = field(default_factory=dict)

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        d = self.mat.shape[0]
        if self.mat.shape != (d, d):
            raise DimensionError("matrix is not square")
        err = np.max(np.abs(self.mat.conj().T @ self.mat - np.eye(d)))
        if err > 1e-8:
            raise ValueError(f"matrix is not unitary (deviation {err:.3g})")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other: "UnitaryOp") -> "UnitaryOp":
        if self.dim != other.dim:
            raise DimensionError("dimension mismatch in composition")
        ledger = dict(self.query_ledger)
        for k, v in other.query_ledger.items():
            ledger[k] = ledger.get(k, 0) + v
        return UnitaryOp(self.mat @ other.mat, ledger)

    def apply(self, state: PureState) -> PureState:
        return PureState(self.mat @ state.amps, has_bot=state.has_bot)


def check_unit_trace(tr):
    if abs(tr - 1.0) > ATOL:
        raise ValueError(f"trace {tr} is not 1")


@dataclass
class DensityMatrix:
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if np.max(np.abs(self.mat - self.mat.conj().T)) > ATOL:
            raise ValueError("density matrix is not Hermitian")
        check_unit_trace(np.trace(self.mat).real)
        if np.min(np.linalg.eigvalsh(self.mat)) < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def haar_state(n: int, seed) -> PureState:
    """Haar-random n-qubit state: normalized i.i.d. complex Gaussian amplitudes."""
    if not 1 <= n <= MAX_QUBITS:
        raise DimensionError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    rng = _as_rng(seed)
    dim = 2**n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def haar_state_amps(dim: int, rng) -> np.ndarray:
    """Bare amplitude vector of a Haar-random state (hot path, no wrapper).

    One ``standard_normal(2 dim)`` call, split into real and imaginary parts:
    the same draws as two ``standard_normal(dim)`` calls.
    """
    g = rng.standard_normal(2 * dim)
    z = np.empty(dim, dtype=complex)
    z.real = g[:dim]
    z.imag = g[dim:]
    z /= np.linalg.norm(z)
    return z


def haar_unitary(dim: int, seed) -> UnitaryOp:
    """Haar-random unitary via the Ginibre + QR construction.

    The diagonal phase correction makes the distribution exactly Haar, not
    merely unitary.
    """
    if not 1 <= dim <= MAX_DIM:
        raise DimensionError(f"dimension {dim} outside [1, {MAX_DIM}]")
    return UnitaryOp(haar_unitary_mat(dim, _as_rng(seed)))


def haar_unitary_mat(dim: int, rng) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class LazyHaarComplement:
    """A Haar-random unitary W on the complement of |0>, sampled as it is queried.

    W fixes |0> and is kept as orthonormal frames A and B = W A (rows of
    ``_frames[0]`` and ``_frames[1]``).  A query's part outside span(|0>, A)
    becomes a new input direction, sent to a fresh Gaussian direction
    orthogonalized twice against |0> and B; the adjoint does the same with the
    roles swapped.  Given W on A, a Haar W is Haar from the rest of the input
    space onto the rest of the output space, so every answer is distributed
    exactly as under a dense Haar draw (the path-recording view of Ma and
    Huang, "How to Construct Random Unitaries", 2024).  A query costs
    O(dim * rank) instead of the O(dim^3) of a dense draw.
    """

    def __init__(self, dim: int, rng):
        self.dim = dim
        self.rng = rng
        self.rank = 0
        self._frames = np.zeros((2, min(4, dim), dim), dtype=complex)

    def apply(self, x) -> np.ndarray:
        return self._map(x, 0, 1)

    def apply_adjoint(self, y) -> np.ndarray:
        return self._map(y, 1, 0)

    def _map(self, x, src, dst):
        x = np.asarray(x, dtype=complex)
        k = self.rank
        a, b = self._frames[src, :k], self._frames[dst, :k]
        r = x.copy()
        r[0] = 0.0
        coef = np.zeros(k, dtype=complex)
        for _ in range(2):
            c = a.conj() @ r
            r -= c @ a
            coef += c
        out = coef @ b
        out[0] = x[0]
        nrm = math.sqrt(np.vdot(r, r).real)
        if k == self.dim - 1 or nrm <= 1e-12 * math.sqrt(np.vdot(x, x).real):
            return out
        # r / nrm is a new direction on the src side; pair it with a fresh Haar one on the dst side
        g = self.rng.standard_normal(self.dim) + 1j * self.rng.standard_normal(self.dim)
        g[0] = 0.0
        for _ in range(2):
            g -= (b.conj() @ g) @ b
        g /= math.sqrt(np.vdot(g, g).real)
        if k == self._frames.shape[1]:
            self._frames = np.concatenate([self._frames, np.zeros_like(self._frames)], axis=1)
        self._frames[src, k], self._frames[dst, k] = r / nrm, g
        self.rank = k + 1
        return out + nrm * g

    def materialize(self) -> np.ndarray:
        """Dense W.  Completes both frames with one Haar draw on the unsampled
        complements, so later queries agree with the returned matrix."""
        k, m = self.rank, self.dim - 1 - self.rank
        if m > 0:
            e0 = np.eye(self.dim, 1, dtype=complex)
            rest = [
                np.linalg.qr(np.hstack([e0, self._frames[f, :k].T]), mode="complete")[0][:, k + 1 :]
                for f in (0, 1)
            ]
            h = haar_unitary_mat(m, self.rng)
            self._frames = np.concatenate(
                [self._frames[:, :k], np.stack([rest[0].T, (rest[1] @ h).T])], axis=1
            )
            self.rank = self.dim - 1
        a, b = self._frames[:, : self.rank]
        w = b.T @ a.conj()
        w[0, 0] = 1.0
        return w


def born_sample(probs: np.ndarray, rng, size=None):
    """Sample basis indices from a probability vector (renormalized exactly).

    The inverse-CDF draw ``Generator.choice(len(p), size, p=p)`` makes, from
    the same uniforms, without its argument validation.
    """
    p = np.asarray(probs, dtype=float)
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    if a.dim != b.dim:
        raise DimensionError("dimension mismatch")
    sv = np.linalg.svd(a.mat - b.mat, compute_uv=False)
    return 0.5 * float(sv.sum())


def distance_to_eigenvalue_hull(eigs: np.ndarray) -> float:
    """Euclidean distance from the origin to the convex hull of unit-circle points.

    Eigenvalues of a unitary lie on the unit circle, so the hull geometry
    reduces to angular gaps: the origin lies inside the hull iff the largest
    gap between consecutive eigenphases is at most pi; otherwise the nearest
    hull point is on the chord closing that gap.
    """
    angles = np.sort(np.angle(eigs))
    gaps = np.diff(angles, append=angles[0] + 2 * math.pi)
    gmax = float(np.max(gaps))
    if gmax <= math.pi:
        return 0.0
    return math.cos((2 * math.pi - gmax) / 2)


def unitary_channel_diamond_distance(v: UnitaryOp, w: UnitaryOp) -> float:
    """Diamond distance between the channels of two unitaries.

    Computed from the eigenvalues of VW^dagger: with d the distance from the
    origin to their convex hull, the distance is 2 sqrt(1 - d^2).
    """
    if v.dim != w.dim:
        raise DimensionError("dimension mismatch")
    eigs = np.linalg.eigvals(v.mat @ w.mat.conj().T)
    return unitary_eigs_to_diamond(eigs)


def unitary_eigs_to_diamond(eigs: np.ndarray) -> float:
    d = distance_to_eigenvalue_hull(eigs)
    return 2 * math.sqrt(max(0.0, 1.0 - d * d))


def orth_basis(cols, tol=1e-12):
    """Orthonormal basis of the column span, dropping directions below tol (relative)."""
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, sv > tol * max(1.0, sv[0])]


def subspace_diamond_distance(q, uq) -> float:
    """Diamond distance from the identity channel of a unitary U that maps span(q)
    onto itself and fixes its orthogonal complement.

    q is an orthonormal basis (dim x r) and uq = U q; only the r x r block
    q^dagger U q is diagonalized, plus one eigenvalue 1 for the complement.
    """
    eigs = np.linalg.eigvals(q.conj().T @ uq)
    if q.shape[0] > q.shape[1]:
        eigs = np.append(eigs, 1.0)
    return unitary_eigs_to_diamond(eigs)


def rank2_identity_distance(mat):
    """Diamond distance from the identity channel of a dense unitary that differs
    from I on at most two dimensions, with the residual that certifies it.

    Q is built from K = mat - I by column-pivoted Gram-Schmidt, at most two
    columns.  The residual max(||K - QQ^dagger K||_F, ||K - KQQ^dagger||_F) is
    ~0 exactly when mat is the identity off span(Q) and maps span(Q) onto
    itself, so a unitary that differs from I on more dimensions shows a large
    residual instead of a wrong distance.  O(dim^2), no dense eigensolve.
    Returns (distance, residual).
    """
    k = mat - np.eye(len(mat))
    col2 = np.linalg.norm(k, axis=0) ** 2
    q = np.zeros((len(mat), 0), dtype=complex)
    for _ in range(2):
        # pivot: the column farthest from span(q), by Pythagoras (used only to choose)
        j = np.argmax(col2 - np.linalg.norm(q.conj().T @ k, axis=0) ** 2)
        q = orth_basis(np.column_stack([q, k[:, j]]))
    kq = k @ q
    residual = max(np.linalg.norm(k - q @ (q.conj().T @ k)), np.linalg.norm(k - kq @ q.conj().T))
    return subspace_diamond_distance(q, q + kq), float(residual)


def harmonic_number(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def expected_max_simplex(n_bins: int) -> Fraction:
    """Exact E[max coordinate] of the uniform simplex distribution: H_N / N."""
    if n_bins < 1:
        raise DimensionError("n_bins must be >= 1")
    return harmonic_number(n_bins) / n_bins
