"""Dense complex state/operator arithmetic, Haar sampling and distance measures.

Everything here is deterministic given a seed.  Seeds for individual trials are
derived from a master seed and a trial counter (see :func:`trial_rng`), so that
parallel experiment runs reproduce bit-for-bit regardless of scheduling.  Loops
over many trials take the same ``SeedSequence((seed, i))`` -> PCG64 streams from
:func:`trial_streams`, which computes the seeding a block of trials at a time.
:func:`haar_state_amps` and :func:`born_sample` work on rows, so such a loop
draws each trial's numbers from its stream into a row and then normalizes and
samples a whole block of rows at once, with the values of one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ATOL = 1e-10

MAX_QUBITS = 14
MAX_DIM = 2**MAX_QUBITS
# checked before any per-trial array is allocated: 2^25 trials keep a float64 array
# (xhog's scores, verify uprep's distances) at 256 MiB, verify simplex's maxima twice
# over (the chunks and their concatenation), and xhog --csv adds two int32 arrays, z
# and queries, of 128 MiB each (k is capped at MAX_DIM copies, so both fit)
MAX_TRIALS = 2**25


def _seed(master_seed) -> int:
    """The master seed as an int; SeedSequence takes no negative entropy."""
    seed = int(master_seed)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def trial_rng(master_seed, trial=0):
    """Counter-based RNG derivation: one independent stream per (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((_seed(master_seed), int(trial))))


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
    if not (0 <= start and stop <= TRIAL_INDEX_END):
        raise ValueError(f"trial range [{start}, {stop}) is outside [0, 2^32)")
    return _streams(_entropy_words(_seed(master_seed)), start, stop)


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


def _unitarity_error(m) -> float:
    """max |m^dagger m - I| over the entries; 0 for an empty matrix."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])), initial=0.0))


class UnitaryOp:
    """A unitary: dense and checked on construction, or kept as the factors of
    :meth:`from_update`, in which case ``mat`` is built on first read."""

    basis = block = None  # from_update's B and E; None for a dense operator

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        d = mat.shape[0]
        if mat.shape != (d, d):
            raise ValueError("matrix is not square")
        err = _unitarity_error(mat)
        if err > 1e-8:
            raise ValueError(f"matrix is not unitary (deviation {err:.3g})")
        self._mat = mat

    @classmethod
    def from_update(cls, basis, block) -> "UnitaryOp":
        """I + B (E - I) B^dagger: E acts on span(B), the complement is fixed.

        It is unitary exactly when B (dim x r) has orthonormal columns and E
        (r x r) is unitary.  Both are checked in O(dim r^2) with the bound of
        the dense check, so the O(dim^3) product mat^dagger mat is never formed.
        A rank-one reflection is B = v, E = [[-1]]; r = 0 gives the identity.
        """
        b = np.asarray(basis, dtype=complex)
        e = np.asarray(block, dtype=complex)
        if b.ndim != 2 or e.shape != (b.shape[1], b.shape[1]):
            raise ValueError(f"basis {b.shape} and block {e.shape} do not match")
        for what, m in (("basis columns are not orthonormal", b), ("block is not unitary", e)):
            err = _unitarity_error(m)
            if err > 1e-8:
                raise ValueError(f"{what} (deviation {err:.3g})")
        op = object.__new__(cls)
        op._mat, op.basis, op.block = None, b, e
        return op

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            b, e = self.basis, self.block
            self._mat = np.eye(len(b), dtype=complex) + b @ (e - np.eye(len(e))) @ b.conj().T
        return self._mat

    def apply(self, x) -> np.ndarray:
        """The operator applied to x (a vector or a dim x m block); O(dim r m) on the
        factors of from_update, with no dense build."""
        if self._mat is not None:
            return self._mat @ x
        b, e = self.basis, self.block
        return x + b @ ((e - np.eye(len(e))) @ (b.conj().T @ x))


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


def haar_state_amps(g: np.ndarray) -> np.ndarray:
    """Amplitude rows of Haar-random states, the form every hidden state takes.

    Each row of ``g`` (the last axis) holds 2 dim standard normals, drawn by
    one ``rng.standard_normal(2 dim)`` call or two of dim: the first dim are
    the real parts, the rest the imaginary parts.  A single row gives a single
    state.  A row's norm is sqrt(re.re + im.im), the value ``np.linalg.norm``
    gives that row alone, so a block of rows comes out bit-for-bit as its rows
    one at a time would.  The row is multiplied by 1/norm: numpy's complex
    division by a real divisor computes exactly that, at several times the cost.
    """
    dim = g.shape[-1] // 2
    z = np.empty((*g.shape[:-1], dim), dtype=complex)
    z.real = g[..., :dim]
    z.imag = g[..., dim:]
    z *= 1.0 / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[..., None]
    return z


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
    O(dim * rank) instead of the O(dim^3) of a dense draw.  ``rng`` may be
    None when no query will leave span(|0>): a query that needs a fresh
    direction then raises ValueError instead of drawing from some other stream.
    """

    def __init__(self, dim: int, rng):
        self.dim = dim
        self.rng = rng
        self.rank = 0
        self._frames = np.zeros((2, min(4, dim), dim), dtype=complex)

    def _generator(self):
        if self.rng is None:
            raise ValueError("this Haar complement has no generator to sample a new direction")
        return self.rng

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
        if k == 0:  # no frame yet: W keeps x[0]|0>, and all of r is a new direction
            out = np.zeros(self.dim, dtype=complex)
        else:
            a_conj = a.conj()
            coef = np.zeros(k, dtype=complex)
            for _ in range(2):
                c = a_conj @ r
                r -= c @ a
                coef += c
            out = coef @ b
        out[0] = x[0]
        nrm = math.sqrt(np.vdot(r, r).real)
        if k == self.dim - 1 or nrm <= 1e-12 * math.sqrt(np.vdot(x, x).real):
            return out
        # r / nrm is a new direction on the src side; pair it with a fresh Haar one on the dst side
        rng = self._generator()
        g = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
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
            h = haar_unitary_mat(m, self._generator())
            self._frames = np.concatenate(
                [self._frames[:, :k], np.stack([rest[0].T, (rest[1] @ h).T])], axis=1
            )
            self.rank = self.dim - 1
        a, b = self._frames[:, : self.rank]
        w = b.T @ a.conj()
        w[0, 0] = 1.0
        return w


def born_sample(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Basis indices drawn from the rows of a probability matrix (each renormalized
    exactly), one per uniform in the same row of ``u``; returns an array shaped like u.

    A row's draws are the inverse-CDF draws ``Generator.choice(len(p), m, p=p)``
    makes from the same m uniforms, without its argument validation.  Each row
    is searched on its own, so a block holds O(rows (N + m)) entries.
    """
    cdf = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return np.array([c.searchsorted(x, side="right") for c, x in zip(cdf, u)])


def distance_to_eigenvalue_hull(eigs: np.ndarray):
    """Euclidean distance from the origin to the convex hull of unit-circle points,
    for each row of points along the last axis.

    Eigenvalues of a unitary lie on the unit circle, so the hull geometry
    reduces to angular gaps: the origin lies inside the hull iff the largest
    gap between consecutive eigenphases is at most pi; otherwise the nearest
    hull point is on the chord closing that gap.
    """
    angles = np.sort(np.angle(eigs), axis=-1)
    gaps = np.diff(angles, axis=-1, append=angles[..., :1] + 2 * math.pi)
    gmax = np.max(gaps, axis=-1)
    return np.where(gmax <= math.pi, 0.0, np.cos((2 * math.pi - gmax) / 2))


def unitary_channel_diamond_distance(v: UnitaryOp, w: UnitaryOp) -> float:
    """Diamond distance between the channels of two unitaries: that of VW^dagger from
    the identity channel."""
    return block_diamond_distance(v.mat @ w.mat.conj().T, len(v.mat))


def block_diamond_distance(block, dim):
    """Diamond distance from the identity channel of a unitary on C^dim that acts as the
    r x r ``block`` on an r-dimensional subspace and fixes its complement: 2 sqrt(1 - d^2),
    d the distance from 0 to the hull of the block's eigenvalues and, if r < dim, of 1.
    A stack of blocks (..., r, r) gives one distance per block."""
    eigs = np.linalg.eigvals(block)
    if dim > block.shape[-1]:
        eigs = np.concatenate([eigs, np.ones(eigs.shape[:-1] + (1,))], axis=-1)
    d = distance_to_eigenvalue_hull(eigs)
    return 2 * np.sqrt(np.maximum(0.0, 1.0 - d * d))


def rank2_update_distance(basis, block):
    """Diamond distance from the identity channel of I + B (E - I) B^dagger, with the
    residual that certifies it differs from I on at most two dimensions.

    B (dim x r) has orthonormal columns, as ``UnitaryOp.from_update`` checks,
    so the distance comes from the r x r block E alone, plus one eigenvalue 1
    for the complement, and the Frobenius norm of R - I outside its best
    rank-2 subspace is that of E - I: sqrt of the sum of sigma_i(E - I)^2 for
    i >= 3.  A rotation that moves a third direction shows that residual
    instead of a wrong distance.  O(r^3) and no dim-sized array.
    Returns (distance, residual).
    """
    e = np.asarray(block, dtype=complex)
    sv = np.linalg.svd(e - np.eye(len(e)), compute_uv=False)
    return block_diamond_distance(e, len(basis)), float(np.sqrt(np.sum(sv[2:] ** 2)))


def harmonic_number(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def expected_max_simplex(n_bins: int) -> Fraction:
    """Exact E[max coordinate] of the uniform simplex distribution: H_N / N, for N >= 1."""
    return harmonic_number(n_bins) / n_bins
