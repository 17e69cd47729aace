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
is the verified isomorphism between them.  A handle exposes only its queries and
their count, so the reductions run as circuits on handles and a query count is
always a handle's ``calls``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import LazyHaarComplement, UnitaryOp, born_sample

HALF_SQRT2 = 1.0 / math.sqrt(2)
# the basis vector that one query maps to the hidden state: the flag, or |0^n>
_START_INDEX = {"canonical": -1, "random_prep": 0}


def _reflect(v, amps):
    """(I - 2 v v^dagger) amps in O(dim); scaling the overlap by 2 is exact."""
    return amps - v * (2.0 * np.vdot(v, amps))


def prep_query(phase, u, haar):
    """The random-prep query phase (I - 2 u u^dagger) W on one vector, W = ``haar``."""
    return lambda a: phase * _reflect(u, haar.apply(a))


class OracleHandle:
    """A queryable unitary: its public members are ``kind``, ``dim``, ``calls`` and
    the three query methods, so a strategy learns the hidden state only by querying.

    The handle is built from two maps on one amplitude vector, the query and its
    adjoint, which the family's factory writes matrix-free; no dense matrix of the
    oracle is ever built.  Every forward/adjoint/controlled application increments
    ``calls``, the program's only query count, by one.  A (dim, m) block is one
    query of oracle (x) I_m, served column by column.
    """

    def __init__(self, kind, dim, query, query_adjoint):
        self.kind = kind
        self.dim = dim
        self.calls = 0
        self._query = query
        self._query_adjoint = query_adjoint

    def _apply_mat(self, amps, adjoint):
        query = self._query_adjoint if adjoint else self._query
        if amps.ndim == 2:
            return np.column_stack([query(col) for col in amps.T])
        return query(amps)

    def apply(self, amps):
        """One oracle query on an amplitude array."""
        self.calls += 1
        return self._apply_mat(np.asarray(amps, dtype=complex), False)

    def apply_adjoint(self, amps):
        self.calls += 1
        return self._apply_mat(np.asarray(amps, dtype=complex), True)

    def apply_controlled(self, state_2dim):
        """Block-diagonal controlled form on a doubled space; costs one query."""
        self.calls += 1
        amps = np.asarray(state_2dim, dtype=complex).copy()
        amps[self.dim:] = self._apply_mat(amps[self.dim:], False)
        return amps


def canonical_oracle(psi: np.ndarray) -> OracleHandle:
    """The reflection about (|psi> - |bot>)/sqrt(2) on the extended space.

    Acts as |bot> -> |psi>, |psi> -> |bot>, and fixes everything orthogonal
    to both.  ``psi`` is a unit amplitude vector.
    """
    v = np.empty(len(psi) + 1, dtype=complex)
    np.multiply(psi, HALF_SQRT2, out=v[:-1])
    v[-1] = -HALF_SQRT2
    reflect = functools.partial(_reflect, v)
    return OracleHandle("canonical", len(psi) + 1, reflect, reflect)


def householder_vector(psi_amps: np.ndarray):
    """(phase, u) with V = phase (I - 2 u u^dagger) mapping |0> to psi; u = 0 if psi ~ |0>."""
    psi_amps = np.asarray(psi_amps, dtype=complex)
    phase = psi_amps[0] / abs(psi_amps[0]) if abs(psi_amps[0]) > 1e-14 else 1.0
    u = psi_amps / phase
    u[0] -= 1.0
    nrm = np.linalg.norm(u)
    return phase, (u / nrm if nrm > 1e-14 else np.zeros_like(u))


def householder_matrix(phase, u) -> np.ndarray:
    """Dense phase (I - 2 u u^dagger); the u = 0 of psi ~ |0> spans no direction."""
    basis = u[:, None] if u.any() else np.zeros((len(u), 0))
    return phase * UnitaryOp.from_update(basis, -np.eye(basis.shape[1])).mat


def random_prep_oracle(psi: np.ndarray, rng) -> OracleHandle:
    """A unitary with U|0^n> = |psi>, Haar-random on the complement of |0^n>.

    Built as V W: V is the Householder completion preparing psi, W is Haar on
    the subspace orthogonal to |0^n>.  The distribution is independent of the
    choice of V by Haar invariance.  V is applied matrix-free, with W sampled
    lazily from the Generator ``rng``.
    """
    haar = LazyHaarComplement(len(psi), rng)
    phase, u = householder_vector(psi)
    return OracleHandle("random_prep", len(psi), prep_query(phase, u, haar),
                        lambda a: haar.apply_adjoint(np.conj(phase) * _reflect(u, a)))


def fourier_phase_oracle(table: np.ndarray) -> OracleHandle:
    """The phase oracle U_f |x> = f(x) |x> of the sign table ``table[x] = f(x)``, a
    length-2^n array of +-1 integers."""
    d = table.astype(complex)
    return OracleHandle("fourier_phase", len(table), lambda a: a * d, lambda a: a * d.conj())


@functools.lru_cache(maxsize=None)
def _hadamard(m: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order 2^m, read-only because it is cached."""
    h = np.ones((1, 1))
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform H_n v of each length-2^n row of ``vec``
    (the last axis; a single vector is a single row).

    H_n = H_a (x) H_b with a = ceil(n/2), so with a row reshaped to a 2^a x 2^b
    matrix V the transform is H_a V H_b: two matrix products with cached
    factors of order at most 2^7 (at n = 14), over a stack of rows at once.
    Sums of +-1 entries are exact in any order, so the transform of a sign
    table is exact.
    """
    v = np.asarray(vec)
    size = v.shape[-1]
    n = size.bit_length() - 1
    if size != 2**n:
        raise ValueError(f"length {size} is not a power of two")
    a = (n + 1) // 2
    rows = v.reshape(*v.shape[:-1], 2**a, 2 ** (n - a))
    return (_hadamard(a) @ rows @ _hadamard(n - a)).reshape(v.shape)


def fourier_coefficients_float(table: np.ndarray) -> np.ndarray:
    """The Fourier coefficients f-hat(z) of a sign table, or of each row of a block of them."""
    return fwht(table.astype(float)) / table.shape[-1]


def reflect_about_state(oracle: OracleHandle, amps) -> np.ndarray:
    """I - 2|psi><psi| as O (I - 2|start><start|) O^dagger with O|start> = |psi>: two queries."""
    amps = oracle.apply_adjoint(amps)
    amps[_START_INDEX[oracle.kind]] *= -1.0
    return oracle.apply(amps)


def refl_from_prep(prep: OracleHandle, t: int, probes):
    """Simulate t reflections about psi = prep|0^n> with 2t+1 prep queries: one
    prepares the reference copy prep|0^n> (the garbage preparation), and each
    reflection is ``reflect_about_state``.  Returns the copy and R_psi^t probes."""
    copy = prep.apply(preparation_input(prep))
    for _ in range(t):
        probes = reflect_about_state(prep, probes)
    return copy, probes


def embed_extended_to_ancilla(amps_ext: np.ndarray) -> np.ndarray:
    """Isomorphism from the appended-index encoding to the ancilla encoding.

    Index x of the n-qubit basis maps to 2x+1 (|x>|1>); the flag index N maps
    to 0 (|0^n>|0>).
    """
    n_dim = len(amps_ext) - 1
    out = np.zeros((2 * n_dim, *np.shape(amps_ext)[1:]), dtype=complex)
    out[1::2] = amps_ext[:n_dim]
    out[0] = amps_ext[n_dim]
    return out


def canonical_prep_circuit(prep: OracleHandle, s, adjoint=False) -> np.ndarray:
    """The two-query circuit P, or P^dagger, with P|0^n>|0> = (|psi>|1> - |0^n>|0>)/sqrt(2)
    for psi = prep|0^n>, on s[x, a] or a block s[x, a, j] (system x, ancilla a, index 2x+a).

    P's stages: ancilla X, ancilla H, controlled flag prep (identity here, since
    the flag's system part is |0^n>), controlled prep^dagger, ancilla X, and
    prep (x) I, one query on the (N, 2m) block.
    """
    s = np.asarray(s, dtype=complex)
    if adjoint:
        s = prep.apply_adjoint(s.reshape(prep.dim, -1)).reshape(s.shape)[:, ::-1]
        s[:, 1] = prep.apply(s[:, 1])  # controlled prep
        return np.stack([s[:, 0] - s[:, 1], s[:, 0] + s[:, 1]], axis=1) * HALF_SQRT2  # H, X
    s = np.stack([s[:, 1] + s[:, 0], s[:, 1] - s[:, 0]], axis=1) * HALF_SQRT2  # ancilla X, H
    s[:, 1] = prep.apply_adjoint(s[:, 1])  # controlled prep^dagger
    return prep.apply(s[:, ::-1].reshape(prep.dim, -1)).reshape(s.shape)  # ancilla X, prep


def canonical_from_prep(prep: OracleHandle, t: int, probes):
    """Simulate t canonical-oracle queries for psi = prep|0^n> with 4t+2 prep queries.

    In the ancilla encoding the oracle is the reflection about P|0^n>|0>, run as
    P (I - 2|0^n 0><0^n 0|) P^dagger: P prepares that reference copy once and
    each reflection runs P^dagger and P.  Returns the copy and the t-fold
    simulated oracle applied to ``probes`` (a 2N vector or a (2N, m) block).
    """
    start = np.eye(2 * prep.dim, 1).reshape(prep.dim, 2)  # |0^n>|0>
    target = canonical_prep_circuit(prep, start).reshape(-1)
    s = np.reshape(probes, (prep.dim, 2, -1))
    for _ in range(t):
        s = canonical_prep_circuit(prep, s, adjoint=True)
        s[0, 0] *= -1.0
        s = canonical_prep_circuit(prep, s)
    return target, s.reshape(np.shape(probes))


def preparation_input(oracle: OracleHandle) -> np.ndarray:
    """The vector one query maps to a copy of the hidden state.

    For the canonical family it is the flag; for random prep it is |0^n>; for
    the Fourier family it is the all-ones vector, sqrt(N) H^(x)n |0^n>, so the
    query returns the sign table itself.
    """
    if oracle.kind == "fourier_phase":
        return np.ones(oracle.dim, dtype=complex)
    start = np.zeros(oracle.dim, dtype=complex)
    start[_START_INDEX[oracle.kind]] = 1.0
    return start


def sample_oracle_output(oracles, u: np.ndarray) -> np.ndarray:
    """Prepare copies of each handle's hidden state, one query each, and measure them.

    ``oracles`` are handles of one kind and dimension; row j of ``u`` holds the
    uniforms of handle j's copies, and row j of the result their indices.  Every
    copy of a handle is the same state, so one Born CDF serves all of a row's
    copies, with the indices that many one-copy calls would give.  For the
    Fourier family the query sits between Hadamard layers; its exact transform
    over N gives the amplitudes f-hat(z).  The query maps the all-ones input to
    the real sign table, so only the real parts are transformed, all rows at once.
    """
    copies = u.shape[1]
    if copies < 1:
        raise ValueError("copies must be >= 1")
    kind, dim = oracles[0].kind, oracles[0].dim
    start = preparation_input(oracles[0])
    out = np.empty((len(oracles), dim), dtype=complex)
    for row, oracle in zip(out, oracles):
        for _ in range(copies):
            amps = oracle.apply(start)
        row[:] = amps
    if kind == "canonical":
        out = out[:, :-1]
    elif kind == "fourier_phase":
        out = fwht(out.real) / dim
    return born_sample(np.abs(out) ** 2, u)
