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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .oracles import SignFunction

ENUM_CAP = 4  # full enumeration of 2^(2^n) sign tables


class CertificateError(ValueError):
    """A dual constraint has a nonzero residual; the message names it."""


class CrossCheckError(ArithmeticError):
    """Two independent exact computations of the same value disagree."""


def _all_sign_tables(n):
    """Matrix of all 2^N sign tables, one row per function, entries +-1."""
    n_dim = 2**n
    if n > ENUM_CAP:
        raise ValueError(f"enumeration capped at n = {ENUM_CAP}")
    masks = np.arange(2**n_dim, dtype=np.int64)
    cols = [(1 - 2 * ((masks >> (n_dim - 1 - x)) & 1)) for x in range(n_dim)]
    return np.column_stack(cols).astype(np.int64)


def _character(a, b):
    """The Walsh character (-1)^(a.b) of two bit strings."""
    return (-1) ** bin(a & b).count("1")


def _xor_of(s):
    out = 0
    for x in s:
        out ^= x
    return out


def fourier_coefficient(f: SignFunction, z: int) -> Fraction:
    """Exact f-hat(z) = 2^(-n) sum_x f(x) (-1)^(x.z)."""
    n_dim = 2**f.n
    signs = np.array([_character(x, z) for x in range(n_dim)])
    return Fraction(int(np.dot(f.table, signs)), n_dim)


def naive_fourier_value(n: int) -> Fraction:
    """Exact score of sampling the transformed state, b = 3 - 2/2^n.

    Computed two independent ways and cross-checked: brute-force enumeration
    of sum_z f-hat(z)^4 over every sign table, and the closed form via the
    fourth central moment of a Binomial(N, 1/2) count of -1 entries.
    """
    # lazy: `xhoglab xhog` imports this module only for CrossCheckError, and
    # scipy.linalg takes ~0.3 s to load
    from scipy.linalg import hadamard

    n_dim = 2**n
    tables = _all_sign_tables(n)
    s = tables @ hadamard(n_dim, dtype=np.int64)
    total = int(np.sum(s.astype(np.int64) ** 4))
    by_enum = Fraction(total, 2**n_dim * n_dim**3)
    # E[(N - 2B)^4] = 16 * fourth central moment = 16 N p(1-p)(1 + (3N-6)p(1-p))
    fourth = 16 * Fraction(n_dim, 4) * (1 + Fraction(3 * n_dim - 6, 4))
    # b = N * sum_z E[f-hat(z)^4] = N * N * E[S^4] / N^4 with S the signed sum
    by_moment = n_dim * n_dim * Fraction(fourth, n_dim**4)
    if by_enum != by_moment:
        raise CrossCheckError(f"naive value: enumeration {by_enum} != moment form {by_moment}")
    return by_enum


@dataclass(frozen=True)
class MonomialPoly:
    """Multilinear polynomial over sign tables: sum_S c_S prod_(x in S) f(x)."""

    n: int
    deg_cap: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for s, c in self.coeffs.items():
            s = frozenset(s)
            if len(s) > self.deg_cap:
                raise ValueError(f"|S| = {len(s)} exceeds degree cap {self.deg_cap}")
            c = Fraction(c)
            if c != 0:
                clean[s] = c
        object.__setattr__(self, "coeffs", clean)

    def evaluate(self, f: SignFunction) -> Fraction:
        total = Fraction(0)
        for s, c in self.coeffs.items():
            prod = 1
            for x in s:
                prod *= int(f.table[x])
            total += c * prod
        return total


def naive_family(n: int) -> dict:
    """The polynomial family of the naive strategy: p_z(f) = f-hat(z)^2."""
    n_dim = 2**n
    family = {}
    for z in range(n_dim):
        coeffs = {frozenset(): Fraction(1, n_dim)}
        for x, y in itertools.combinations(range(n_dim), 2):
            coeffs[frozenset((x, y))] = Fraction(2 * _character(x ^ y, z), n_dim**2)
        family[z] = MonomialPoly(n, 2, coeffs)
    return family


def symmetrize_family(family: dict) -> MonomialPoly:
    """Collapse a family (p_z)_z to the shift-symmetrized p'_(0^n).

    p'_0(f) = (1/N) sum_y p_y(f . chi_y); on monomials this multiplies c_(y,S)
    by (-1)^((xor S) . y) before averaging over y.
    """
    n = next(iter(family.values())).n
    n_dim = 2**n
    if set(family) != set(range(n_dim)):
        raise ValueError("family must have one polynomial per z")
    deg_cap = max(p.deg_cap for p in family.values())
    out = {}
    for y, p in family.items():
        for s, c in p.coeffs.items():
            sign = _character(_xor_of(s), y)
            out[s] = out.get(s, Fraction(0)) + Fraction(sign, n_dim) * c
    return MonomialPoly(n, deg_cap, out)


def family_objective_exact(family: dict) -> Fraction:
    """E_f[sum_z p_z(f) f-hat(z)^2] by full enumeration (the LP objective, = b/N)."""
    n = next(iter(family.values())).n
    n_dim = 2**n
    total = Fraction(0)
    for mask in range(2 ** n_dim):
        f = SignFunction.from_index(n, mask)
        fhat2 = [fourier_coefficient(f, z) ** 2 for z in range(n_dim)]
        for z, p in family.items():
            total += p.evaluate(f) * fhat2[z]
    return total / 2**n_dim


def reduce_equality_constraints(p: MonomialPoly) -> dict:
    """Check the forced coefficients of a symmetrized polynomial.

    Requires c_empty = 1/N, c_S = 0 for odd |S|, and c_S = 0 when the XOR of S
    vanishes; returns the free-variable index set and any violations.
    """
    n_dim = 2**p.n
    violations = []
    if p.coeffs.get(frozenset(), Fraction(0)) != Fraction(1, n_dim):
        violations.append(("empty", frozenset()))
    for s, c in p.coeffs.items():
        if not s:
            continue
        if len(s) % 2 == 1 and c != 0:
            violations.append(("odd_size", s))
        elif _xor_of(s) == 0 and c != 0:
            violations.append(("zero_xor", s))
    free = [
        frozenset(s)
        for size in range(2, p.deg_cap + 1, 2)
        for s in itertools.combinations(range(n_dim), size)
        if _xor_of(s) != 0
    ]
    return {"feasible": not violations, "violations": violations, "free_set": free}


def objective_coefficients(n: int) -> dict:
    """The objective weights k_S: 1 at S = empty, 2/N at |S| = 2, else 0.

    Cross-checked against the defining enumeration
    k_S = (N/2^N) sum_f f-hat(0)^2 prod_(x in S) f(x) for n within the cap.
    """
    n_dim = 2**n
    out = {frozenset(): Fraction(1)}
    for s in itertools.combinations(range(n_dim), 2):
        out[frozenset(s)] = Fraction(2, n_dim)
    if n <= 3:
        for size in range(3):
            for s in itertools.combinations(range(n_dim), size):
                val = enumerate_objective_coefficient(n, s)
                if val != out.get(frozenset(s), Fraction(0)):
                    raise CrossCheckError(f"objective weight k_{sorted(s)}: enumeration gives {val}")
    return out


def enumerate_objective_coefficient(n: int, s) -> Fraction:
    """k_S by direct enumeration over all sign tables (independent of closed form)."""
    n_dim = 2**n
    tables = _all_sign_tables(n)
    sq = tables.sum(axis=1).astype(np.int64) ** 2
    prod = np.ones(len(tables), dtype=np.int64)
    for x in s:
        prod *= tables[:, x]
    return Fraction(n_dim * int(np.dot(sq, prod)), 2**n_dim * n_dim**2)


def lp_objective(p: MonomialPoly) -> Fraction:
    """Objective value sum_S k_S c_S of a symmetrized polynomial (equals b/N)."""
    ks = objective_coefficients(p.n)
    return sum((ks.get(s, Fraction(0)) * c for s, c in p.coeffs.items()), Fraction(0))


@dataclass
class LpInstance:
    n: int
    variables: list  # frozensets S, |S| = 2
    constraint_matrix: np.ndarray  # one row per sign table, entries prod_(x in S) f(x)
    objective: list  # Fraction per variable


def build_primal(n: int) -> LpInstance:
    """The symmetrized 1-query primal LP: nonnegativity of p on every sign table.

    The degree-2 variable set is the 2-element subsets (their XOR is
    automatically nonzero); c_empty is fixed at 1/N.
    """
    n_dim = 2**n
    pairs = list(itertools.combinations(range(n_dim), 2))
    tables = _all_sign_tables(n)
    cols = [tables[:, x] * tables[:, y] for x, y in pairs]
    a = np.column_stack(cols) if cols else np.zeros((len(tables), 0), dtype=np.int64)
    objective = [Fraction(2, n_dim)] * len(pairs)
    return LpInstance(n, [frozenset(s) for s in pairs], a, objective)


def naive_primal_point(n: int) -> dict:
    """The feasible point from the naive strategy: c_S = 2/N^2 on every pair."""
    n_dim = 2**n
    return dict.fromkeys(
        map(frozenset, itertools.combinations(range(n_dim), 2)), Fraction(2, n_dim**2)
    )


def primal_objective(n: int, point: dict) -> Fraction:
    """1/N + (2/N) sum_S c_S, summed exactly over the coefficients' common denominator."""
    n_dim = 2**n
    cs = point.values()
    den = math.lcm(*{c.denominator for c in cs})
    num = sum(c.numerator * (den // c.denominator) for c in cs)
    return Fraction(1, n_dim) + Fraction(2 * num, n_dim * den)


def halfN_fourier_coefficient(n_dim: int, j: int) -> Fraction:
    """Fourier weight of the balanced-table indicator at subsets of size 2j."""
    if n_dim % 2 != 0:
        raise ValueError("N must be even")
    if not 0 <= 2 * j <= n_dim:
        raise ValueError("need 0 <= 2j <= N")
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
    support: str = "Half_N"


def dual_certificate(n: int) -> DualCertificate:
    """The closed-form dual solution: kappa times the balanced-table indicator."""
    n_dim = 2**n
    kappa = Fraction(2 * (n_dim - 1), n_dim * math.comb(n_dim, n_dim // 2))
    return DualCertificate(n, kappa, Fraction(3 * n_dim - 2, n_dim))


def verify_dual_feasibility(cert: DualCertificate, mode=None) -> str:
    """Exact check of every dual constraint; returns the proof transcript.

    Verifies nonnegativity of the dual weights, the equality constraint fixing
    b, and the pair constraints 2^N psi-hat(S) = -2/N for every |S| = 2; any
    nonzero rational residual raises CertificateError naming the constraint.
    The transcript is deterministic and identical across computation modes.
    """
    n = cert.n
    n_dim = 2**n
    if mode is None:
        mode = "enumeration" if n <= ENUM_CAP else "formula"
    if n > 8:
        raise ValueError("certificate verification capped at n = 8")
    pairs = list(itertools.combinations(range(n_dim), 2))
    if mode == "enumeration":
        empty_hat, *vals = halfN_fourier_enumeration(n, [(), *pairs])
    elif mode == "formula":
        empty_hat = halfN_fourier_coefficient(n_dim, 0)
        vals = [halfN_fourier_coefficient(n_dim, 1)] * len(pairs)
    else:
        raise ValueError(f"unknown mode {mode!r}")

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
    max_res = Fraction(0)
    for (x, y), v in zip(pairs, vals):
        p, q = v.numerator, v.denominator
        if a * p * n_dim + 2 * b * q != 0:
            res = scaled * v + Fraction(2, n_dim)
            violations.append(f"pair constraint S={{{x},{y}}} residual {res}")
            max_res = max(max_res, abs(res))
    lines.append(f"constraint pairs |S|=2 count={len(pairs)}: max residual = {max_res}")

    if violations:
        raise CertificateError("; ".join(violations))

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
    c = -np.full(nvars, 2.0 / n_dim)
    a_ub = -lp.constraint_matrix.astype(float)
    b_ub = np.full(lp.constraint_matrix.shape[0], 1.0 / n_dim)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * nvars, method="highs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return 1.0 / n_dim - res.fun, res.x
