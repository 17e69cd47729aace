"""Exact optimality analysis of 1-query strategies for the Fourier family.

The acceptance probability of any 1-query algorithm, as a function of the
hidden sign table f, is a degree-2 multilinear polynomial in the 2^n values
f(x).  Maximizing the expected score over such polynomial families is a linear
program; after shift-symmetrization it collapses to a single polynomial with
fixed constant term 1/N, free coefficients only on even-size subsets with
nonzero XOR, and objective weight 2/N on each pair.  A dual solution supported
on balanced sign tables certifies the optimum b = 3 - 2/N exactly, matching
the naive strategy's value 3 - 2/2^n.

All certificate arithmetic is exact rational; floats appear only in the
independent numeric LP cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oracles import _hadamard

ENUM_CAP = 4  # full enumeration of 2^(2^n) sign tables
CERTIFY_CAP = 8  # the exact check covers all C(2^n, 2) pair constraints, one per distinct weight


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


@dataclass
class LpInstance:
    n: int
    variables: list  # the pairs (x, y), x < y: column j of constraint_matrix is pair j
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
    pairs = list(itertools.combinations(range(n_dim), 2))
    tables = _all_sign_tables(n)[: 2 ** (n_dim - 1)]
    cols = [tables[:, x] * tables[:, y] for x, y in pairs]
    a = np.column_stack(cols) if cols else np.zeros((len(tables), 0), dtype=np.int8)
    objective = [Fraction(2, n_dim)] * len(pairs)
    return LpInstance(n, pairs, a, objective)


def naive_primal_point(n: int) -> list:
    """The feasible point from the naive strategy: c_S = 2/N^2 on every pair, one entry
    per ``LpInstance.variables`` pair, in that order."""
    n_dim = 2**n
    return [Fraction(2, n_dim**2)] * math.comb(n_dim, 2)


def primal_objective(n: int, cs) -> Fraction:
    """1/N + (2/N) sum_S c_S over a sequence of pair coefficients, summed exactly over
    their common denominator."""
    n_dim = 2**n
    # each run of equal coefficients is read once, times its length; a run of
    # one repeated object, like naive_primal_point's, compares by identity
    runs = [(c, len(list(run))) for c, run in itertools.groupby(cs)]
    den = math.lcm(*{c.denominator for c, _ in runs})
    num = sum(c.numerator * (den // c.denominator) * k for c, k in runs)
    return Fraction(1, n_dim) + Fraction(2 * num, n_dim * den)


def halfN_fourier_coefficient(n_dim: int, j: int) -> Fraction:
    """Fourier weight of the balanced-table indicator at subsets of size 2j, for even N
    and 0 <= 2j <= N."""
    sign = -1 if j % 2 else 1
    return Fraction(
        sign * math.comb(n_dim // 2, j) * math.comb(n_dim, n_dim // 2),
        math.comb(n_dim, 2 * j) * 2**n_dim,
    )


def halfN_fourier_enumeration(n: int, subsets) -> list:
    """The same weights, one per subset S, by summing (-1)^|A cap S| over all
    balanced tables A (the sign tables with N/2 entries -1)."""
    n_dim = 2**n
    tables = _all_sign_tables(n)
    cols = np.ascontiguousarray(tables[tables.sum(axis=1) == 0].T)
    out = []
    for s in subsets:
        prod = np.ones(cols.shape[1], dtype=np.int64)
        for x in s:
            prod *= cols[x]
        out.append(Fraction(int(prod.sum()), 2**n_dim))
    return out


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
    every failing pair in pair order.  The Fourier weights come from
    enumerating the balanced tables for n <= ENUM_CAP and from the closed form
    above it, up to n = CERTIFY_CAP.  A pair's residual depends only on kappa
    and the pair's weight, so each distinct weight is checked once: one check
    covers every pair on the closed form, and one per enumerated value below it.
    """
    n = cert.n
    n_dim = 2**n
    n_pairs = math.comb(n_dim, 2)  # pair j is the j-th of itertools.combinations(range(N), 2)
    if n <= ENUM_CAP:
        subsets = [(), *itertools.combinations(range(n_dim), 2)]
        empty_hat, *vals = halfN_fourier_enumeration(n, subsets)
        weights = set(vals)
    else:
        empty_hat = halfN_fourier_coefficient(n_dim, 0)
        vals = [halfN_fourier_coefficient(n_dim, 1)] * n_pairs
        weights = {vals[0]}

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
        for (x, y), v in zip(itertools.combinations(range(n_dim), 2), vals):
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
