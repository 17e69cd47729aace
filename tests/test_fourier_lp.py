import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from xhoglab import fourier_lp
from xhoglab.fourier_lp import (
    CertificateError,
    CrossCheckError,
    DualCertificate,
    build_primal,
    dual_certificate,
    halfN_fourier_coefficient,
    halfN_fourier_enumeration,
    naive_fourier_value,
    naive_primal_point,
    primal_objective,
    solve_primal_numeric,
    verify_dual_feasibility,
)
from xhoglab.linalg import trial_rng
from xhoglab.oracles import _hadamard, fwht

GOLDEN = Path(__file__).parent / "golden"


def _pair_products(tables, pairs):
    """f(x) f(y) for every sign table (row) and pair (column)."""
    return np.column_stack([tables[:, x] * tables[:, y] for x, y in pairs])


def test_fourier_coefficient_characters():
    # f(x) = (-1)^(x.y) has a single coefficient N at z = y in the unnormalized transform,
    # whose sums of +-1 entries are exact
    for n in (1, 2, 3):
        for y in range(2**n):
            table = np.array([(-1) ** bin(x & y).count("1") for x in range(2**n)])
            want = np.zeros(2**n, dtype=np.int64)
            want[y] = 2**n
            assert np.array_equal(fwht(table), want)


def test_fourier_coefficient_hand_example():
    # f-hat(0) = 1/2 and f-hat(3) = -1/2, times N = 4
    assert np.array_equal(fwht(np.array([1, 1, 1, -1])), [2, 2, 2, -2])


def test_parseval_exact():
    rng = trial_rng(1, 0)
    for n in (1, 2, 3):
        table = 1 - 2 * rng.integers(0, 2, size=2**n)
        assert int(np.sum(fwht(table) ** 2)) == 4**n


def test_naive_fourier_values():
    assert naive_fourier_value(1) == Fraction(2)
    assert naive_fourier_value(2) == Fraction(5, 2)
    assert naive_fourier_value(3) == Fraction(11, 4)
    assert naive_fourier_value(4) == Fraction(23, 8)


def test_naive_family_is_a_distribution():
    # the naive point c_S = 2/N^2 gives p_0(f) = 1/N + sum_S c_S prod_(x in S) f(x) = f-hat(0)^2,
    # and p_z(f) = p_0(f chi_z) = f-hat(z)^2 by shift covariance: N^2 p_z is an integer
    for n in (1, 2):
        n_dim = 2**n
        tables = fourier_lp._all_sign_tables(n)
        lp = build_primal(n)
        scaled = np.full(len(lp.variables), int(naive_primal_point(n) * n_dim**2))
        vals = np.column_stack([
            n_dim + _pair_products(tables * _hadamard(n)[z].astype(np.int64), lp.variables) @ scaled
            for z in range(n_dim)
        ])
        assert np.array_equal(vals, (tables @ _hadamard(n).astype(np.int64)) ** 2)
        assert vals.min() >= 0 and np.all(vals.sum(axis=1) == n_dim**2)


def test_symmetrize_naive_family_fixed_point():
    # the naive family is shift-covariant, so its symmetrization is p_0 = f-hat(0)^2:
    # on every row of the LP, N^2 (1/N + A c) is the integer transform's f-hat(0)^2 N^2
    for n in (1, 2, 3):
        n_dim = 2**n
        lp = build_primal(n)
        c = naive_primal_point(n)
        tables = fourier_lp._all_sign_tables(n)[: len(lp.constraint_matrix)]
        lhs = [n_dim**2 * (Fraction(1, n_dim) + sum(int(a) * c for a in row))
               for row in lp.constraint_matrix]
        assert lhs == [int(fwht(t)[0]) ** 2 for t in tables]


def test_symmetrize_preserves_objective():
    rng = trial_rng(3, 0)
    n, n_dim = 2, 4
    pairs = list(itertools.combinations(range(n_dim), 2))
    tables = fourier_lp._all_sign_tables(n)
    prods = _pair_products(tables, pairs)
    h = _hadamard(n).astype(np.int64)
    fhat2 = (tables @ h) ** 2  # N^2 f-hat(z)^2
    signs = h[:, [x ^ y for x, y in pairs]]  # (-1)^((xor S).y), one row per y
    # random degree-2 families (not necessarily distributions): p_z(f) = c0[z]/4 + sum_S cs[z, S]/8 f_S
    for _ in range(3):
        rows = np.array([[rng.integers(0, 5)] + [rng.integers(-3, 4) for _ in pairs] for _ in range(n_dim)])
        c0, cs = rows[:, 0], rows[:, 1:]
        p8 = 2 * c0 + prods @ cs.T  # 8 p_z(f), one column per z
        before = Fraction(int(np.sum(p8 * fhat2)), 8 * 2**n_dim * n_dim**2)
        # p'_0(f) = (1/N) sum_y p_y(f chi_y) multiplies c_(y,S) by (-1)^((xor S).y)
        sym8n = 2 * c0.sum() + prods @ np.sum(signs * cs, axis=0)  # 8 N p'_0(f)
        # the symmetrized objective is N * E_f[p'_0(f) f-hat(0)^2]
        after = Fraction(n_dim * int(sym8n @ fhat2[:, 0]), 8 * n_dim * 2**n_dim * n_dim**2)
        assert before == after


def test_symmetrized_objective_via_weights():
    for n in (1, 2, 3, 4):
        assert primal_objective(n, naive_primal_point(n)) == Fraction(naive_fourier_value(n), 2**n)


def test_reduce_equality_constraints_naive():
    # after symmetrization the free variables are the pairs (the XOR of a pair is nonzero),
    # in itertools.combinations order, and column j of the constraint matrix is pair j's
    # products over the tables with f(0) = +1; the naive point is one coefficient 2/N^2
    for n in (1, 2, 3, 4):
        want_free = list(itertools.combinations(range(2**n), 2))
        lp = build_primal(n)
        tables = fourier_lp._all_sign_tables(n)[: 2 ** (2**n - 1)]
        assert lp.variables == want_free
        assert lp.constraint_matrix.dtype == np.int8
        assert np.array_equal(lp.constraint_matrix, _pair_products(tables, want_free))
        assert naive_primal_point(n) == Fraction(2, 4**n)


def test_objective_coefficients_closed_form_and_enum():
    # k_S = (N/2^N) sum_f f-hat(0)^2 prod_(x in S) f(x), by enumeration: the LP's weight 2/N
    # on each pair, 1 at S = empty and 0 on single points and 4-subsets
    for n in (1, 2, 3):
        n_dim = 2**n
        tables = fourier_lp._all_sign_tables(n)
        sq = tables.sum(axis=1) ** 2  # N^2 f-hat(0)^2

        def k(s):
            prod = np.prod(tables[:, list(s)], axis=1)
            return Fraction(n_dim * int(sq @ prod), 2**n_dim * n_dim**2)

        lp = build_primal(n)
        assert [k(sorted(s)) for s in lp.variables] == lp.objective
        assert k(()) == 1 and k((0,)) == 0
        if n_dim >= 4:
            assert k((0, 1, 2, 3)) == 0


def test_all_sign_tables_match_column_stack():
    # reference: one column per x, bit N - 1 - x of the row index, stacked; the tables
    # are int8, one byte per entry
    for n in range(5):
        n_dim = 2**n
        masks = np.arange(2**n_dim, dtype=np.int64)
        cols = [(1 - 2 * ((masks >> (n_dim - 1 - x)) & 1)) for x in range(n_dim)]
        want = np.column_stack(cols)
        got = fourier_lp._all_sign_tables(n)
        assert got.dtype == np.int8 and np.array_equal(got, want)


def test_enumeration_memory_at_the_cap():
    # the int8 tables take 1 MiB at n = ENUM_CAP; the int64 shift-and-mask build held
    # 24.5, 24.5 and 68 MiB at the peak of these three calls
    bounds = [
        (lambda: naive_fourier_value(4), 20),
        (lambda: verify_dual_feasibility(dual_certificate(4)), 6),
        (lambda: build_primal(4), 12),
    ]
    for call, mib in bounds:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


def test_cross_checks_raise_on_mismatch(monkeypatch):
    # the independent computations must raise, not assert (asserts vanish under -O)
    real = fourier_lp._all_sign_tables
    monkeypatch.setattr(fourier_lp, "_all_sign_tables", lambda n: np.ones_like(real(n)))
    with pytest.raises(CrossCheckError):
        naive_fourier_value(2)


def test_build_primal_shapes():
    lp = build_primal(2)
    assert len(lp.variables) == 6
    assert lp.constraint_matrix.shape == (8, 6)
    lp1 = build_primal(1)
    assert len(lp1.variables) == 1
    assert lp1.constraint_matrix.shape == (2, 1)


def test_naive_primal_point_feasible_and_value():
    for n in (1, 2, 3):
        lp = build_primal(n)
        c = naive_primal_point(n)
        x = np.full(len(lp.variables), float(c))
        slack = 1.0 / 2**n + lp.constraint_matrix.astype(float) @ x
        assert slack.min() >= -1e-12
        assert primal_objective(n, c) == Fraction(3 * 2**n - 2, 4**n)
    assert primal_objective(8, naive_primal_point(8)) == Fraction(3 * 256 - 2, 256**2)


def test_halfN_formula_matches_enumeration():
    # the certificate reads the weights of the empty set and of the pairs: enumerated up to
    # ENUM_CAP, from the closed form above it
    for n in (1, 2, 3, 4):
        n_dim = 2**n
        want_pairs = [halfN_fourier_coefficient(n_dim, 1)] * (n_dim * (n_dim - 1) // 2)
        assert halfN_fourier_enumeration(n) == (halfN_fourier_coefficient(n_dim, 0), want_pairs)
    # every even size 2j, on the subset {0, ..., 2j - 1}: sum (-1)^|A cap S| over the
    # balanced tables A, one product per table
    for n in (1, 2, 3):
        n_dim = 2**n
        tables = fourier_lp._all_sign_tables(n).astype(np.int64)
        balanced = tables[tables.sum(axis=1) == 0]
        for j in range(n_dim // 2 + 1):
            total = int(np.prod(balanced[:, : 2 * j], axis=1).sum())
            assert Fraction(total, 2**n_dim) == halfN_fourier_coefficient(n_dim, j)
    assert halfN_fourier_coefficient(4, 0) == Fraction(3, 8)
    assert halfN_fourier_coefficient(2, 1) == Fraction(-1, 2)


def test_dual_certificate_values():
    c1 = dual_certificate(1)
    assert c1.kappa == Fraction(1, 2) and c1.b == 2
    c2 = dual_certificate(2)
    assert c2.kappa == Fraction(1, 4) and c2.b == Fraction(5, 2)
    for n in (1, 2, 3, 4):
        assert dual_certificate(n).b == naive_fourier_value(n)


def test_verify_dual_golden_transcripts():
    # n = 0 (N = 1) has no balanced table and no pair; n = 8 takes the closed-form weights
    # over all 32640 pair constraints
    for n in (0, 1, 2, 3, 4, 8):
        want = (GOLDEN / f"lp_certify_n{n}.txt").read_text()
        assert verify_dual_feasibility(dual_certificate(n)) == want


def test_verify_dual_rejects_perturbed_kappa():
    # n = 6 checks the pairs on the closed-form weight, once for all 2016 of them; a bad
    # kappa fails every pair, and the error names each, in pair order
    for n in (2, 6):
        good = dual_certificate(n)
        bad = DualCertificate(n, good.kappa + Fraction(1, 1000), good.b)
        with pytest.raises(CertificateError) as err:
            verify_dual_feasibility(bad)
        empty, *pairs = str(err.value).split("; ")
        assert empty.startswith("empty constraint residual ")
        named = [part.split(" residual ")[0] for part in pairs]
        assert named == [f"pair constraint S={{{x},{y}}}" for x, y in itertools.combinations(range(2**n), 2)]


def test_verify_dual_names_exactly_the_pair_whose_weight_fails(monkeypatch):
    # each distinct weight is checked once, but a failing weight names every pair
    # that carries it; at n = 3 one enumerated weight is moved off the closed form
    real = fourier_lp.halfN_fourier_enumeration

    def perturbed(n):
        empty_hat, vals = real(n)
        vals[list(itertools.combinations(range(2**n), 2)).index((2, 5))] += Fraction(1, 256)
        return empty_hat, vals

    monkeypatch.setattr(fourier_lp, "halfN_fourier_enumeration", perturbed)
    with pytest.raises(CertificateError) as err:
        verify_dual_feasibility(dual_certificate(3))
    # the residual moves by 2^N kappa / 256 = kappa = 1/40
    assert str(err.value) == "pair constraint S={2,5} residual 1/40"


def test_verify_dual_rejects_wrong_b():
    for n in (2, 6):
        good = dual_certificate(n)
        bad = DualCertificate(n, good.kappa, good.b + 1)
        with pytest.raises(CertificateError) as err:
            verify_dual_feasibility(bad)
        assert str(err.value) == "empty constraint residual 1"


def test_numeric_lp_matches_certificate():
    for n in (1, 2, 3):
        val, _ = solve_primal_numeric(build_primal(n))
        want = float(Fraction(3 * 2**n - 2, 4**n))
        assert abs(val - want) < 1e-9


def test_weak_duality_on_feasible_mixtures():
    # convex combinations of the naive point and the constant point stay below b/N
    for n in (1, 2):
        naive = naive_primal_point(n)
        cap = Fraction(naive_fourier_value(n), 2**n)
        for lam in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            assert primal_objective(n, lam * naive) <= cap
