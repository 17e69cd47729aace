"""Exact optimality analysis of 1-query strategies for the Fourier family.

The acceptance probability of any 1-query algorithm, as a function of the
hidden sign table f, is a degree-2 multilinear polynomial in the 2^n values
f(x).  Maximizing the expected score over such polynomial families is a linear
program; after shift-symmetrization it collapses to a single polynomial with
fixed constant term 1/N, free coefficients only on even-size subsets with
nonzero XOR, and objective weight 2/N on each pair.  A dual solution supported
on balanced sign tables certifies the optimum b = 3 - 2/N exactly, matching
the naive strategy's value 3 - 2/2^n.

One pair order, ``_pairs(N)``, keys the LP's columns, the enumerated pair weights and
failing constraints' names; the naive primal point is one coefficient 2/N^2 on every pair.

All certificate arithmetic is exact rational; floats appear only in the
independent numeric LP cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oracles import _hadamard

ENUM_CAP = 4  # full enumeration of 2^(2^n) sign tables
CERTIFY_CAP = 8  # the closed form's C(2^n, 2) pair constraints share one weight, checked once


class CertificateError(ValueError):
    """A dual constraint has a nonzero residual; the message names it."""


class CrossCheckError(ArithmeticError):
    """Two independent exact computations of the same value disagree."""


def _all_sign_tables(n):
    """int8 matrix of all 2^N sign tables, one row per function, entries +-1;
    n <= ENUM_CAP, so 1 MiB at the cap."""
    n_dim = 2**n
    # entry x is bit n_dim - 1 - x of the row index: the last n_dim of its 16
    # big-endian bits
    index = np.arange(2**n_dim, dtype=">u2").view(np.uint8).reshape(-1, 2)
    bits = np.unpackbits(index, axis=1)[:, 16 - n_dim:].view(np.int8)
    return 1 - 2 * bits


def naive_fourier_value(n: int) -> Fraction:
    """Exact score of sampling the transformed state, b = 3 - 2/2^n.

    Computed two independent ways and cross-checked: brute-force enumeration
    of sum_z f-hat(z)^4 over every sign table, and the closed form via the
    fourth central moment of a Binomial(N, 1/2) count of -1 entries.
    """
    n_dim = 2**n
    tables = _all_sign_tables(n)
    # float64 takes the BLAS products and is exact here: every entry of s is an
    # integer of size <= N <= 16, so s^2 <= 256, and every partial sum of s^4
    # is an integer below 2^36
    s = tables.astype(np.float64) @ _hadamard(n)
    s *= s
    s = s.ravel()
    total = int(s @ s)
    by_enum = Fraction(total, 2**n_dim * n_dim**3)
    # E[(N - 2B)^4] = 16 * fourth central moment = 16 N p(1-p)(1 + (3N-6)p(1-p))
    fourth = 16 * Fraction(n_dim, 4) * (1 + Fraction(3 * n_dim - 6, 4))
    # b = N * sum_z E[f-hat(z)^4] = N * N * E[S^4] / N^4 with S the signed sum
    by_moment = n_dim * n_dim * Fraction(fourth, n_dim**4)
    if by_enum != by_moment:
        raise CrossCheckError(f"naive value: enumeration {by_enum} != moment form {by_moment}")
    return by_enum


def _pairs(n_dim):
    """Index arrays (xs, ys) of the pairs x < y of range(N), in itertools.combinations order."""
    return np.triu_indices(n_dim, 1)


@dataclass
class LpInstance:
    n: int
    variables: list  # the pairs (x, y) in _pairs order: column j of constraint_matrix is pair j
    # int8, one row per sign table with f(0) = +1, entries prod_(x in S) f(x);
    # -f gives the same row
    constraint_matrix: np.ndarray
    objective: list  # Fraction per variable


def build_primal(n: int) -> LpInstance:
    """The symmetrized 1-query primal LP: nonnegativity of p on every sign table.

    The degree-2 variable set is the 2-element subsets (their XOR is
    automatically nonzero); c_empty is fixed at 1/N.  Only the tables with
    f(0) = +1 are kept, the first half of the enumeration: f and -f have the
    same pair products f(x)f(y), so the other half would repeat every row.
    """
    n_dim = 2**n
    xs, ys = _pairs(n_dim)
    tables = _all_sign_tables(n)[: 2 ** (n_dim - 1)]
    # in place, so the peak holds one int8 product beside its operand, not two
    a = tables[:, xs]
    a *= tables[:, ys]
    objective = [Fraction(2, n_dim)] * len(xs)
    return LpInstance(n, list(zip(xs.tolist(), ys.tolist())), a, objective)


def naive_primal_point(n: int) -> Fraction:
    """The naive strategy's feasible point: one coefficient c_S = 2/N^2, on every pair."""
    return Fraction(2, 4**n)


def primal_objective(n: int, c: Fraction) -> Fraction:
    """1/N + (2/N) sum_S c_S at a point with the same coefficient c on all C(N, 2) pairs."""
    n_dim = 2**n
    return Fraction(1, n_dim) + Fraction(2, n_dim) * math.comb(n_dim, 2) * c


def halfN_fourier_coefficient(n_dim: int, j: int) -> Fraction:
    """Fourier weight of the balanced-table indicator at subsets of size 2j, for even N
    and 0 <= 2j <= N."""
    sign = -1 if j % 2 else 1
    return Fraction(
        sign * math.comb(n_dim // 2, j) * math.comb(n_dim, n_dim // 2),
        math.comb(n_dim, 2 * j) * 2**n_dim,
    )


def halfN_fourier_enumeration(n: int) -> tuple:
    """The weights at the empty set and at every pair, in _pairs order, by summing
    (-1)^|A cap S| over all balanced tables A (the sign tables with N/2 entries -1)."""
    n_dim = 2**n
    # a row index's popcount is its table's count of -1 entries
    is_balanced = 2 * np.bitwise_count(np.arange(2**n_dim)) == n_dim
    balanced = _all_sign_tables(n)[is_balanced].astype(np.float32)
    # the pair sums are the Gram matrix of the columns; float32 is exact, as no sum
    # exceeds the C(16, 8) = 12870 < 2^24 balanced tables of n = ENUM_CAP in size
    gram = balanced.T @ balanced
    pair_sums = gram[_pairs(n_dim)].tolist()
    return Fraction(len(balanced), 2**n_dim), [Fraction(int(v), 2**n_dim) for v in pair_sums]


@dataclass(frozen=True)
class DualCertificate:
    n: int
    kappa: Fraction
    b: Fraction


def dual_certificate(n: int) -> DualCertificate:
    """The closed-form dual solution: kappa times the balanced-table indicator."""
    n_dim = 2**n
    kappa = Fraction(2 * (n_dim - 1), n_dim * math.comb(n_dim, n_dim // 2))
    return DualCertificate(n, kappa, Fraction(3 * n_dim - 2, n_dim))


def verify_dual_feasibility(cert: DualCertificate) -> str:
    """Exact check of every dual constraint; returns the proof transcript.

    Verifies nonnegativity of the dual weights, the equality constraint fixing
    b, and the pair constraints 2^N psi-hat(S) = -2/N for every |S| = 2; any
    nonzero rational residual raises CertificateError naming the constraint,
    every failing pair in _pairs order.  The Fourier weights come from the
    Gram product of the balanced tables (halfN_fourier_enumeration) for
    n <= ENUM_CAP and from the closed form above it, up to n = CERTIFY_CAP.  A
    pair's residual depends only on kappa and the pair's weight, so each
    distinct weight is checked once: one check covers every pair on the closed
    form, and one per enumerated value below it.
    """
    n = cert.n
    n_dim = 2**n
    n_pairs = math.comb(n_dim, 2)
    if n <= ENUM_CAP:
        empty_hat, vals = halfN_fourier_enumeration(n)
        weights = set(vals)
    else:
        # every pair carries the one closed-form weight: no per-pair list unless one fails
        empty_hat, vals = halfN_fourier_coefficient(n_dim, 0), None
        weights = {halfN_fourier_coefficient(n_dim, 1)}

    violations = []
    lines = [f"dual certificate n={n} N={n_dim}"]
    lines.append(f"kappa = {cert.kappa}")
    if cert.kappa < 0:
        violations.append("nonnegativity: kappa < 0")
    lines.append("nonnegativity: psi_f = kappa * Half_N(f) >= 0 OK")

    scaled = 2**n_dim * cert.kappa
    res_empty = cert.b - scaled * empty_hat - 1
    lines.append(f"constraint empty: b - 2^N*psihat(empty) - 1 residual = {res_empty}")
    if res_empty != 0:
        violations.append(f"empty constraint residual {res_empty}")

    # with 2^N kappa = a/b and v = p/q, the residual a p/(b q) + 2/N is zero
    # iff a p N + 2 b q = 0; a Fraction is built only for a nonzero residual
    a, b = scaled.numerator, scaled.denominator
    residuals = {
        v: scaled * v + Fraction(2, n_dim)
        for v in weights
        if a * v.numerator * n_dim + 2 * b * v.denominator != 0
    }
    if residuals:
        xs, ys = _pairs(n_dim)
        for x, y, v in zip(xs.tolist(), ys.tolist(), vals or [*weights] * n_pairs):
            if v in residuals:
                violations.append(f"pair constraint S={{{x},{y}}} residual {residuals[v]}")
    if violations:
        raise CertificateError("; ".join(violations))
    # any nonzero residual has raised above, so the transcript records 0
    lines.append(f"constraint pairs |S|=2 count={n_pairs}: max residual = 0")

    primal = primal_objective(n, naive_primal_point(n))
    lines.append(f"primal feasible objective = {primal}")
    lines.append(f"dual objective = {Fraction(cert.b, n_dim)}")
    gap = Fraction(cert.b, n_dim) - primal
    lines.append(f"weak duality gap = {gap}")
    if gap != 0:
        raise CertificateError(f"duality gap {gap} is nonzero")
    lines.append(f"OPTIMAL b = {cert.b.numerator}/{cert.b.denominator}")
    return "\n".join(lines) + "\n"


def solve_primal_numeric(lp: LpInstance):
    """Independent floating-point solution of the primal LP (HiGHS).

    Returns (optimal value, coefficient vector); the value must match the
    certificate's b/N to solver precision.
    """
    from scipy.optimize import linprog

    n_dim = 2**lp.n
    nvars = len(lp.variables)
    c = -np.array(lp.objective, dtype=float)
    a_ub = -lp.constraint_matrix.astype(float)
    b_ub = np.full(lp.constraint_matrix.shape[0], 1.0 / n_dim)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * nvars, method="highs")
    if not res.success:
        raise CrossCheckError(f"LP solver failed: {res.message}")
    return 1.0 / n_dim - res.fun, res.x
