"""Oracle families and the gate-level reductions between them.

Three oracle families are provided:

* canonical state preparation: the reflection about (|psi> - |bot>)/sqrt(2),
  acting on the (N+1)-dimensional space whose last index is the flag state;
* random state preparation: a unitary fixed to map |0^n> to |psi> and
  Haar-random on the complement of |0^n>;
* Fourier phase: the diagonal +-1 unitary of a Boolean sign function.

Two encodings of the flag state coexist: matrix-level oracles append an
(N+1)-th basis index, while circuit-level constructions use an ancilla qubit
(|psi> encoded as |psi>|1>, the flag as |0^n>|0>).  ``embed_extended_to_ancilla``
is the verified isomorphism between them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import LazyHaarComplement, PureState, UnitaryOp, _as_rng, born_sample

HALF_SQRT2 = 1.0 / math.sqrt(2)


class OracleSealedError(RuntimeError):
    """A strategy attempted to read the hidden state behind an oracle."""


@dataclass(frozen=True)
class SignFunction:
    """A Boolean function f: {0,1}^n -> {-1,+1} stored as a sign table."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", table)
        if len(table) != 2**self.n:
            raise ValueError("sign table length is not 2^n")
        if not np.all(np.abs(table) == 1):
            raise ValueError("sign table entries must be +-1")

    def to_hex(self) -> str:
        """Serialize as lowercase hex: bit=1 means -1, MSB is x = 0^n."""
        bits = 0
        size = 2**self.n
        for x, s in enumerate(self.table):
            if s == -1:
                bits |= 1 << (size - 1 - x)
        width = max(1, (size + 3) // 4)
        return format(bits, f"0{width}x")

    @classmethod
    def from_hex(cls, n: int, text: str) -> "SignFunction":
        size = 2**n
        bits = int(text, 16)
        table = [(-1 if (bits >> (size - 1 - x)) & 1 else 1) for x in range(size)]
        return cls(n, np.array(table))

    @classmethod
    def random(cls, n: int, rng) -> "SignFunction":
        return cls(n, 1 - 2 * rng.integers(0, 2, size=2**n))

    @classmethod
    def from_index(cls, n: int, index: int) -> "SignFunction":
        """The index-th function in the enumeration of all 2^(2^n) sign tables."""
        size = 2**n
        table = [(-1 if (index >> (size - 1 - x)) & 1 else 1) for x in range(size)]
        return cls(n, np.array(table))


def _reflect(v, amps):
    """(I - 2 v v^dagger) amps in O(dim); scaling the overlap by 2 is exact."""
    return amps - v * (2.0 * np.vdot(v, amps))


class OracleHandle:
    """A queryable unitary whose hidden state is sealed from strategies.

    Every forward/adjoint/controlled application increments ``calls`` by one.
    ``apply`` is matrix-free: rank-one, diagonal, or (random prep) a rank-one
    Householder after a lazily sampled Haar complement.  Only a handle built
    from a dense matrix applies one; ``unitary`` materializes it on request.
    """

    def __init__(self, kind, dim, metadata, mat=None, rank1_vec=None, diag=None, haar=None,
                 phase=1.0, sealed=False):
        self.kind = kind
        self.dim = dim
        self.calls = 0
        self.sealed = sealed
        self._metadata = metadata
        self._mat = mat
        self._rank1_vec = rank1_vec
        self._diag = diag
        self._haar = haar
        self._phase = phase

    def peek_metadata(self):
        """Hidden state, for scoring/verification only.  Raises when sealed."""
        if self.sealed:
            raise OracleSealedError("oracle metadata is sealed")
        return self._metadata

    def _apply_mat(self, amps, adjoint):
        if self._haar is not None:
            # phase (I - 2 u u^dagger) W: Householder prep after the lazy Haar complement
            u = self._rank1_vec
            if adjoint:
                return self._haar.apply_adjoint(np.conj(self._phase) * _reflect(u, amps))
            return self._phase * _reflect(u, self._haar.apply(amps))
        if self._rank1_vec is not None:
            return _reflect(self._rank1_vec, amps)
        if self._diag is not None:
            return amps * (self._diag.conj() if adjoint else self._diag)
        m = self._mat
        return (m.conj().T @ amps) if adjoint else (m @ amps)

    def apply(self, state):
        """One oracle query.  Accepts and returns either PureState or ndarray."""
        self.calls += 1
        if isinstance(state, PureState):
            return PureState(self._apply_mat(state.amps, False), has_bot=state.has_bot)
        return self._apply_mat(np.asarray(state, dtype=complex), False)

    def apply_adjoint(self, state):
        self.calls += 1
        if isinstance(state, PureState):
            return PureState(self._apply_mat(state.amps, True), has_bot=state.has_bot)
        return self._apply_mat(np.asarray(state, dtype=complex), True)

    def apply_controlled(self, state_2dim):
        """Block-diagonal controlled form on a doubled space; costs one query."""
        self.calls += 1
        amps = np.asarray(state_2dim, dtype=complex).copy()
        amps[self.dim:] = self._apply_mat(amps[self.dim:], False)
        return amps

    @property
    def unitary(self) -> UnitaryOp:
        """The dense matrix, for tests and cross-checks; later queries agree with it."""
        if self._mat is None:
            if self._rank1_vec is not None:
                v = self._rank1_vec
                self._mat = np.eye(self.dim, dtype=complex) - 2.0 * np.outer(v, v.conj())
                if self._haar is not None:
                    self._mat = self._phase * self._mat @ self._haar.materialize()
            elif self._diag is not None:
                self._mat = np.diag(self._diag.astype(complex))
        return UnitaryOp(self._mat)


def reflection_about(psi: PureState) -> UnitaryOp:
    """I - 2 |psi><psi|: psi is a -1 eigenvector, its complement is fixed."""
    if psi.has_bot:
        raise ValueError("expected a state without the flag extension")
    v = psi.amps
    return UnitaryOp(np.eye(psi.dim, dtype=complex) - 2.0 * np.outer(v, v.conj()))


def canonical_oracle(psi: PureState, sealed=False) -> OracleHandle:
    """The reflection about (|psi> - |bot>)/sqrt(2) on the extended space.

    Acts as |bot> -> |psi>, |psi> -> |bot>, and fixes everything orthogonal
    to both.
    """
    if psi.has_bot:
        raise ValueError("expected a state without the flag extension")
    v = np.empty(psi.dim + 1, dtype=complex)
    np.multiply(psi.amps, HALF_SQRT2, out=v[:-1])
    v[-1] = -HALF_SQRT2
    return OracleHandle("canonical", psi.dim + 1, psi, rank1_vec=v, sealed=sealed)


def householder_vector(psi_amps: np.ndarray):
    """(phase, u) with V = phase (I - 2 u u^dagger) mapping |0> to psi; u = 0 if psi ~ |0>."""
    psi_amps = np.asarray(psi_amps, dtype=complex)
    phase = psi_amps[0] / abs(psi_amps[0]) if abs(psi_amps[0]) > 1e-14 else 1.0
    u = psi_amps / phase
    u[0] -= 1.0
    nrm = np.linalg.norm(u)
    return phase, (u / nrm if nrm > 1e-14 else np.zeros_like(u))


def gram_schmidt_prep(psi_amps: np.ndarray) -> np.ndarray:
    """Alternative completion: first column psi, rest by Gram-Schmidt on the identity."""
    psi_amps = np.asarray(psi_amps, dtype=complex)
    dim = len(psi_amps)
    cols = [psi_amps]
    for i in range(dim):
        if len(cols) == dim:
            break
        c = np.eye(dim)[i].astype(complex)
        for b in cols:
            c = c - b * np.vdot(b, c)
        nrm = np.linalg.norm(c)
        if nrm > 1e-9:
            cols.append(c / nrm)
    return np.column_stack(cols)


def random_prep_oracle(psi: PureState, seed, completion="householder", sealed=False) -> OracleHandle:
    """A unitary with U|0^n> = |psi>, Haar-random on the complement of |0^n>.

    Built as V W: V is a fixed completion preparing psi, W is Haar on the
    subspace orthogonal to |0^n>.  The distribution is independent of the
    choice of V by Haar invariance.  The Householder completion is applied
    matrix-free, with W sampled lazily; the Gram-Schmidt one is a dense
    cross-check.
    """
    if psi.has_bot:
        raise ValueError("expected a state without the flag extension")
    haar = LazyHaarComplement(psi.dim, _as_rng(seed))
    if completion == "gram_schmidt":
        mat = gram_schmidt_prep(psi.amps) @ haar.materialize()
        return OracleHandle("random_prep", psi.dim, psi, mat=mat, sealed=sealed)
    if completion != "householder":
        raise ValueError(f"unknown completion {completion!r}")
    phase, u = householder_vector(psi.amps)
    return OracleHandle("random_prep", psi.dim, psi, rank1_vec=u, haar=haar, phase=phase, sealed=sealed)


def fourier_phase_oracle(f: SignFunction, sealed=False) -> OracleHandle:
    """The phase oracle U_f |x> = f(x) |x>."""
    return OracleHandle("fourier_phase", 2**f.n, f, diag=f.table.astype(complex), sealed=sealed)


@functools.lru_cache(maxsize=None)
def _hadamard(m: int, pairs: bool = False) -> np.ndarray:
    """Sylvester Hadamard matrix of order 2^m, read-only because it is cached; with
    ``pairs``, H (x) I_2, which acts on the float view of a complex vector."""
    h = np.ones((1, 1))
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    if pairs:
        h = np.kron(h, np.eye(2))
    h.flags.writeable = False
    return h


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform H_n v of a length-2^n vector.

    H_n = H_a (x) H_b with a = ceil(n/2), so with v reshaped to a 2^a x 2^b
    matrix V the transform is H_a V H_b: two matrix products with cached
    factors of order at most 2^7 (at n = 14).  Sums of +-1 entries are exact
    in any order, so the transform of a sign table is exact.
    """
    v = np.asarray(vec)
    n = len(v).bit_length() - 1
    if len(v) != 2**n:
        raise ValueError(f"length {len(v)} is not a power of two")
    a = (n + 1) // 2
    if v.dtype.kind == "c":
        x = np.ascontiguousarray(v, dtype=complex).view(float).reshape(2**a, -1)
        return (_hadamard(a) @ x @ _hadamard(n - a, pairs=True)).reshape(-1).view(complex)
    return (_hadamard(a) @ v.reshape(2**a, -1) @ _hadamard(n - a)).reshape(-1)


def fourier_coefficients_float(f: SignFunction) -> np.ndarray:
    return fwht(f.table.astype(float)) / 2**f.n


def fourier_sampling_state(f: SignFunction) -> PureState:
    """The output state of H^(x)n U_f H^(x)n on |0^n>: amplitude f-hat(z) on z."""
    return PureState(fourier_coefficients_float(f).astype(complex))


def refl_from_prep(prep: UnitaryOp, t: int, n_system=None) -> UnitaryOp:
    """Simulate the reflection about psi from a prep unitary with garbage.

    Given prep |0...0> = |psi>|phi>, the operator prep (I - 2|0..0><0..0|)
    prep^dagger acts as R_psi on the system register whenever the garbage
    register holds |phi>.  The ledger records the 2t+1 prep queries needed
    for t reflections (2 per reflection plus one initial garbage preparation).
    """
    dim = prep.dim
    out0 = prep.mat[:, 0]
    if n_system is not None:
        n_sys = 2**n_system
        block = out0.reshape(n_sys, dim // n_sys)
        sv = np.linalg.svd(block, compute_uv=False)
        if sv[0] < 1.0 - 1e-8:
            raise ValueError("prep output on zeros is not a product state")
    mat = np.eye(dim, dtype=complex) - 2.0 * np.outer(out0, out0.conj())
    return UnitaryOp(mat, {"prep": 2 * t + 1})


def embed_extended_to_ancilla(amps_ext: np.ndarray) -> np.ndarray:
    """Isomorphism from the appended-index encoding to the ancilla encoding.

    Index x of the n-qubit basis maps to 2x+1 (|x>|1>); the flag index N maps
    to 0 (|0^n>|0>).
    """
    n_dim = len(amps_ext) - 1
    out = np.zeros(2 * n_dim, dtype=complex)
    out[1::2] = amps_ext[:n_dim]
    out[0] = amps_ext[n_dim]
    return out


def project_ancilla_to_extended(amps_anc: np.ndarray) -> np.ndarray:
    """Inverse of the encoding isomorphism (projects onto the encoded subspace)."""
    n_dim = len(amps_anc) // 2
    out = np.empty(n_dim + 1, dtype=complex)
    out[:n_dim] = amps_anc[1::2]
    out[n_dim] = amps_anc[0]
    return out


def canonical_prep_target(prep: UnitaryOp) -> np.ndarray:
    """The state the two-query circuit prepares from |0^n>|0>:
    (|psi>|1> - |0^n>|0>)/sqrt(2) for psi = prep|0^n>.

    Registers: n-qubit system (index x) tensor one ancilla (index a), basis
    index 2x+a, simulated as the N x 2 array s[x, a].  Stages: ancilla X,
    ancilla H, controlled flag prep (identity here, since the flag's system
    part is |0^n>), controlled prep^dagger, ancilla X, final prep on the
    system register.
    """
    s = np.zeros((prep.dim, 2), dtype=complex)
    s[0, 0] = 1.0
    s = s[:, ::-1] @ (np.array([[1, 1], [1, -1]]) * HALF_SQRT2)  # ancilla X, ancilla H
    s[:, 1] = (s[:, 1].conj() @ prep.mat).conj()  # controlled prep^dagger
    return (prep.mat @ s[:, ::-1]).reshape(-1)  # ancilla X, prep on the system


def canonical_from_prep(prep: UnitaryOp, t: int) -> UnitaryOp:
    """Simulate the canonical oracle for psi = prep|0^n> in the ancilla encoding.

    Returns the reflection about (|psi>|1> - |0^n>|0>)/sqrt(2), built as
    P (I - 2|0><0|) P^dagger for the two-query prep circuit P, whose first
    column is ``canonical_prep_target``.  The ledger records 4t+2 prep
    queries for t simulated oracle queries.
    """
    target = canonical_prep_target(prep)
    mat = np.eye(len(target), dtype=complex) - 2.0 * np.outer(target, target.conj())
    return UnitaryOp(mat, {"prep": 4 * t + 2})


def preparation_input(oracle: OracleHandle) -> np.ndarray:
    """The vector one query maps to a copy of the hidden state.

    For the canonical family it is the flag; for random prep it is |0^n>; for
    the Fourier family it is the all-ones vector, sqrt(N) H^(x)n |0^n>, so the
    query returns the sign table itself.
    """
    if oracle.kind == "fourier_phase":
        return np.ones(oracle.dim, dtype=complex)
    if oracle.kind not in ("canonical", "random_prep"):
        raise ValueError(f"oracle kind {oracle.kind!r} cannot prepare the hidden state")
    start = np.zeros(oracle.dim, dtype=complex)
    start[-1 if oracle.kind == "canonical" else 0] = 1.0
    return start


def sample_oracle_output(oracle: OracleHandle, rng, copies=None):
    """Prepare copies of the hidden state, one query each, and measure them.

    For the Fourier family the query sits between Hadamard layers; its exact
    transform over N gives the amplitudes f-hat(z).  Every copy is the same
    state, so one Born CDF serves all of them, and the indices are those of
    ``copies`` single-copy calls on the same rng.  Returns an int when
    ``copies`` is None (one copy), else an array of ``copies`` indices.
    """
    if copies is not None and copies < 1:
        raise ValueError("copies must be >= 1")
    start = preparation_input(oracle)
    for _ in range(copies or 1):
        out = oracle.apply(start)
    if oracle.kind == "canonical":
        out = out[:-1]
    elif oracle.kind == "fourier_phase":
        out = fwht(out) / oracle.dim
    z = born_sample(np.abs(out) ** 2, rng, copies)
    return int(z) if copies is None else z
