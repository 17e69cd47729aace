import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from xhoglab import fourier_lp
from xhoglab.fourier_lp import (
    CertificateError,
    CrossCheckError,
    DualCertificate,
    MonomialPoly,
    build_primal,
    dual_certificate,
    enumerate_objective_coefficient,
    family_objective_exact,
    fourier_coefficient,
    halfN_fourier_coefficient,
    halfN_fourier_enumeration,
    lp_objective,
    naive_family,
    naive_fourier_value,
    naive_primal_point,
    objective_coefficients,
    primal_objective,
    reduce_equality_constraints,
    solve_primal_numeric,
    symmetrize_family,
    verify_dual_feasibility,
)
from xhoglab.linalg import trial_rng
from xhoglab.oracles import SignFunction

GOLDEN = Path(__file__).parent / "golden"


def test_fourier_coefficient_characters():
    # f(x) = (-1)^(x.y) has a single unit coefficient at z = y
    for n in (1, 2, 3):
        for y in range(2**n):
            table = np.array([(-1) ** bin(x & y).count("1") for x in range(2**n)])
            f = SignFunction(n, table)
            for z in range(2**n):
                want = Fraction(1) if z == y else Fraction(0)
                assert fourier_coefficient(f, z) == want


def test_fourier_coefficient_hand_example():
    f = SignFunction(2, np.array([1, 1, 1, -1]))
    assert fourier_coefficient(f, 0) == Fraction(1, 2)
    assert fourier_coefficient(f, 3) == Fraction(-1, 2)


def test_parseval_exact():
    rng = trial_rng(1, 0)
    for n in (1, 2, 3):
        f = SignFunction.random(n, rng)
        total = sum(fourier_coefficient(f, z) ** 2 for z in range(2**n))
        assert total == 1


def test_naive_fourier_values():
    assert naive_fourier_value(1) == Fraction(2)
    assert naive_fourier_value(2) == Fraction(5, 2)
    assert naive_fourier_value(3) == Fraction(11, 4)
    assert naive_fourier_value(4) == Fraction(23, 8)


def test_monomial_poly_validation_and_eval():
    with pytest.raises(ValueError):
        MonomialPoly(2, 1, {frozenset((0, 1)): 1})
    p = MonomialPoly(1, 2, {frozenset(): Fraction(1, 2), frozenset((0, 1)): Fraction(1, 4)})
    f = SignFunction(1, np.array([1, -1]))
    assert p.evaluate(f) == Fraction(1, 4)


def test_naive_family_is_a_distribution():
    for n in (1, 2):
        fam = naive_family(n)
        rng = trial_rng(2, n)
        for _ in range(5):
            f = SignFunction.random(n, rng)
            vals = [fam[z].evaluate(f) for z in range(2**n)]
            assert all(v >= 0 for v in vals)
            assert sum(vals) == 1
            # p_z(f) = f-hat(z)^2 by construction
            for z in range(2**n):
                assert vals[z] == fourier_coefficient(f, z) ** 2


def test_symmetrize_naive_family_fixed_point():
    # the naive family is shift-covariant, so symmetrizing returns p_0
    for n in (1, 2):
        fam = naive_family(n)
        p = symmetrize_family(fam)
        assert p.coeffs == fam[0].coeffs


def test_symmetrize_preserves_objective():
    rng = trial_rng(3, 0)
    n, n_dim = 2, 4
    # random degree-2 families (not necessarily distributions)
    for _ in range(3):
        fam = {}
        for z in range(n_dim):
            coeffs = {frozenset(): Fraction(int(rng.integers(0, 5)), 4)}
            for s in itertools.combinations(range(n_dim), 2):
                coeffs[frozenset(s)] = Fraction(int(rng.integers(-3, 4)), 8)
            fam[z] = MonomialPoly(n, 2, coeffs)
        before = family_objective_exact(fam)
        p = symmetrize_family(fam)
        # the symmetrized objective is N * E_f[p(f) f-hat(0)^2]
        after = Fraction(0)
        for mask in range(2**n_dim):
            f = SignFunction.from_index(n, mask)
            after += p.evaluate(f) * fourier_coefficient(f, 0) ** 2
        after = n_dim * after / 2**n_dim
        assert before == after


def test_symmetrized_objective_via_weights():
    for n in (1, 2):
        p = symmetrize_family(naive_family(n))
        assert lp_objective(p) == Fraction(naive_fourier_value(n), 2**n)


def test_reduce_equality_constraints_naive():
    for n in (1, 2):
        p = symmetrize_family(naive_family(n))
        out = reduce_equality_constraints(p)
        assert out["feasible"]
        want_free = {
            frozenset(s) for s in itertools.combinations(range(2**n), 2)
        }
        assert set(out["free_set"]) == want_free


def test_reduce_equality_constraints_violations():
    bad = MonomialPoly(1, 2, {frozenset(): Fraction(1, 2), frozenset((0,)): Fraction(1, 4)})
    out = reduce_equality_constraints(bad)
    assert not out["feasible"]
    kinds = {k for k, _ in out["violations"]}
    assert kinds == {"odd_size"}
    const = MonomialPoly(2, 2, {frozenset(): Fraction(1, 4)})
    assert reduce_equality_constraints(const)["feasible"]


def test_objective_coefficients_closed_form_and_enum():
    for n in (1, 2, 3):
        ks = objective_coefficients(n)
        assert ks[frozenset()] == 1
        for s in itertools.combinations(range(2**n), 2):
            assert ks[frozenset(s)] == Fraction(2, 2**n)
    # size-4 coefficients vanish at n = 2
    assert enumerate_objective_coefficient(2, (0, 1, 2, 3)) == 0
    assert enumerate_objective_coefficient(2, (0,)) == 0


def test_all_sign_tables_match_column_stack():
    # reference: one column per x, bit N - 1 - x of the row index, stacked
    for n in range(5):
        n_dim = 2**n
        masks = np.arange(2**n_dim, dtype=np.int64)
        cols = [(1 - 2 * ((masks >> (n_dim - 1 - x)) & 1)) for x in range(n_dim)]
        want = np.column_stack(cols).astype(np.int64)
        got = fourier_lp._all_sign_tables(n)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_cross_checks_raise_on_mismatch(monkeypatch):
    # the independent computations must raise, not assert (asserts vanish under -O)
    real = fourier_lp._all_sign_tables
    monkeypatch.setattr(fourier_lp, "_all_sign_tables", lambda n: np.ones_like(real(n)))
    with pytest.raises(CrossCheckError):
        naive_fourier_value(2)
    with pytest.raises(CrossCheckError):
        objective_coefficients(2)


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
        point = naive_primal_point(n)
        x = np.array([float(point[s]) for s in lp.variables])
        slack = 1.0 / 2**n + lp.constraint_matrix.astype(float) @ x
        assert slack.min() >= -1e-12
        assert primal_objective(n, point) == Fraction(3 * 2**n - 2, 4**n)
    assert primal_objective(8, naive_primal_point(8)) == Fraction(3 * 256 - 2, 256**2)


def test_primal_objective_mixed_denominators():
    # the common-denominator sum against the plain Fraction sum
    n = 2
    pairs = list(itertools.combinations(range(4), 2))
    values = [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 12), Fraction(0), Fraction(7), Fraction(-3, 8)]
    point = {frozenset(s): c for s, c in zip(pairs, values)}
    want = Fraction(1, 4) + sum(Fraction(2, 4) * c for c in values)
    assert primal_objective(n, point) == want


def test_halfN_formula_matches_enumeration():
    for n in (1, 2, 3):
        n_dim = 2**n
        js = range(n_dim // 2 + 1)
        want = [halfN_fourier_coefficient(n_dim, j) for j in js]
        assert halfN_fourier_enumeration(n, [tuple(range(2 * j)) for j in js]) == want
    assert halfN_fourier_coefficient(4, 0) == Fraction(3, 8)
    assert halfN_fourier_coefficient(2, 1) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        halfN_fourier_coefficient(3, 0)


def test_dual_certificate_values():
    c1 = dual_certificate(1)
    assert c1.kappa == Fraction(1, 2) and c1.b == 2
    c2 = dual_certificate(2)
    assert c2.kappa == Fraction(1, 4) and c2.b == Fraction(5, 2)
    for n in (1, 2, 3, 4):
        assert dual_certificate(n).b == naive_fourier_value(n)


def test_verify_dual_transcript_and_modes():
    for n in (1, 2, 3, 4):
        t = verify_dual_feasibility(dual_certificate(n))
        b = dual_certificate(n).b
        assert t.rstrip().endswith(f"OPTIMAL b = {b.numerator}/{b.denominator}")
        assert "weak duality gap = 0" in t
    for n in (1, 2, 3, 4):
        t_enum = verify_dual_feasibility(dual_certificate(n), mode="enumeration")
        t_form = verify_dual_feasibility(dual_certificate(n), mode="formula")
        assert t_enum == t_form


def test_verify_dual_golden_transcripts():
    # n = 8 runs the formula mode over all 32640 pair constraints
    for n in (1, 2, 3, 4, 8):
        want = (GOLDEN / f"lp_certify_n{n}.txt").read_text()
        assert verify_dual_feasibility(dual_certificate(n)) == want


def test_verify_dual_rejects_perturbed_kappa():
    # n = 6 checks the pairs in formula mode
    for n in (2, 6):
        good = dual_certificate(n)
        bad = DualCertificate(n, good.kappa + Fraction(1, 1000), good.b)
        with pytest.raises(CertificateError) as err:
            verify_dual_feasibility(bad)
        assert "pair constraint S={0,1} residual" in str(err.value)


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
            point = {s: lam * c for s, c in naive.items()}
            assert primal_objective(n, point) <= cap
