"""Orthogonal polynomials for rational complex modifications r d(mu)."""
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _mp_oracles import compare_monomial, legendre_pole_moment, oracle_modified_monic
from _quadrature import inner_rho, values_on_rule

from relasym import (BaseMeasureSpec, ModifiedError, RationalModifier,
                     StieltjesFn, f_value, limit_modified, recurrence_extract,
                     recurrence_for, solve_Q, weak_limit_probe)
from relasym.measures import minimal_solution, rule_for
from relasym.modified import _alpha_chain, _pole_moments
from relasym.polybasis import MONIC, ORTHONORMAL, PolyInBasis, basis_jets, xmul

LEG = BaseMeasureSpec("legendre")
TAB = recurrence_for(LEG, 70)

R_LIN = RationalModifier(zeros=((3.0 + 0j, 1),))
R_CPX = RationalModifier(zeros=((2j, 1),))
R_RAT = RationalModifier(zeros=((2j, 1),), poles=((3j, 1),))
R_DBL = RationalModifier(zeros=((2j, 1),), poles=((1.1, 2),))


def test_modifier_counts_and_values():
    assert R_RAT.A == 1 and R_RAT.B == 1
    assert not R_RAT.is_trivial
    assert RationalModifier().is_trivial
    x = np.array([0.0, 1.5])
    got = R_RAT.values(x)
    assert np.allclose(got, (x - 2j) / (x - 3j), rtol=1e-15)


@pytest.mark.parametrize("bad", [
    dict(zeros=((0.5, 1),)),
    dict(zeros=((2j, 0),)),
    dict(zeros=((2j, 1),), poles=((2j, 1),)),
])
def test_modifier_validation(bad):
    with pytest.raises(ModifiedError):
        RationalModifier(**bad)


def test_trivial_modifier_returns_base():
    op = solve_Q(7, RationalModifier(), TAB)
    base = PolyInBasis.basis_poly(TAB, 7)
    assert np.allclose(op.q.coeffs, base.coeffs, atol=0.0)
    assert op.alpha_sq == pytest.approx(TAB.a[7] ** 2)


def test_degree_floor():
    with pytest.raises(ModifiedError):
        solve_Q(2, R_RAT, TAB)  # needs n >= A + B + 1 = 3


def _orthogonality_residual(op, r, tab):
    n = op.n
    rule = rule_for(tab.spec, n + 60)
    pts, w = rule.all_points(), rule.all_weights()
    V = basis_jets(tab, n - 1, pts, 0, ORTHONORMAL)[0]
    terms = V * (w * r.values(pts) * op.q.values(pts))
    return float(np.max(np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)))


@pytest.mark.parametrize("r", [R_LIN, R_CPX, R_RAT], ids=["x-3", "x-2i", "rational"])
def test_bilinear_orthogonality(r):
    assert _orthogonality_residual(solve_Q(24, r, TAB), r, TAB) < 1e-10


@pytest.mark.parametrize("n", [320, 500])
@pytest.mark.parametrize("r", [R_RAT, R_DBL], ids=["pole_3i", "double_pole_1.1"])
def test_deep_degrees_solve_cleanly(r, n):
    # no degree ceiling from scaling: the pole rows stay in ratio form
    tab = recurrence_for(LEG, n + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        op = solve_Q(n, r, tab)
    assert _orthogonality_residual(op, r, tab) < 1e-9


@pytest.mark.parametrize("n, label", [(600, r"tau_599\^2 overflows"),
                                      (1000, "lambda system overflows")],
                         ids=["600", "1000"])
def test_refusal_past_double_range_names_the_overflow(n, label):
    # past the double range the refusal is a typed ModifiedError that says
    # what overflowed, not "vanishing norm" or a LinAlgError from the solve
    tab = recurrence_for(LEG, n + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ModifiedError, match=label):
            solve_Q(n, R_RAT, tab)


@pytest.mark.parametrize("n, kind", [(2, "pre_asymptotic"), (600, "overflow"),
                                     (1000, "overflow")], ids=["2", "600", "1000"])
def test_refusals_carry_their_kind(n, kind):
    # the ladder labels a refused row by this kind, not by its message
    with pytest.raises(ModifiedError) as info:
        solve_Q(n, R_RAT, recurrence_for(LEG, n + 5))
    assert info.value.kind == kind


@pytest.mark.parametrize("j", [10, 20])
@pytest.mark.parametrize("d", [3j, 1.1], ids=["3i", "1.1"])
def test_pole_moments_against_oracle(d, j):
    # the rows carry 1/q_j(d); restore it from q_0(d) = f(d) of the plain
    # Markov function and the minimal solution's ratio q_j/q_0
    q_j = f_value(StieltjesFn(LEG), d, TAB) * minimal_solution(TAB, d, 0, j)[0, j]
    got = _pole_moments(TAB, d, basis_jets(TAB, j, d, order=1)[:, j], j, j + 3) * q_j
    for nu in (1, 2):
        want = np.array([complex(legendre_pole_moment(m, j, d, nu))
                         for m in range(j, j + 4)])
        assert np.max(np.abs(got[nu - 1] - want) / np.abs(want)) < 1e-11


@pytest.mark.parametrize("r", [R_DBL, RationalModifier(poles=((-1.5 + 0.5j, 2),))],
                         ids=["zero_double_pole", "double_pole"])
def test_beta_matches_quadrature(r):
    n = 20
    op = solve_Q(n, r, TAB)
    rule = rule_for(LEG, 400)
    want = inner_rho(xmul(op.q), op.q, r, rule) / inner_rho(op.q, op.q, r, rule)
    assert abs(op.beta - want) < 1e-12


def test_monic_and_exact_degree():
    op = solve_Q(15, R_RAT, TAB)
    qm = op.q.to_basis(MONIC)
    assert qm.degree == 15
    assert qm.coeffs[15] == pytest.approx(1.0, rel=1e-12)


def test_against_dense_oracle():
    got = solve_Q(10, R_RAT, TAB).q
    assert compare_monomial(got, oracle_modified_monic(LEG, R_RAT, 10), 0) < 1e-10


def test_kappa_matches_quadrature():
    n = 12
    op = solve_Q(n, R_CPX, TAB)
    rule = rule_for(LEG, 80)
    direct = inner_rho(op.q, op.q, R_CPX, rule)
    assert op.kappa_sq_inv == pytest.approx(direct, rel=1e-11)


def test_recurrence_extraction_consistency():
    ops = [solve_Q(n, R_CPX, TAB) for n in (19, 20, 21)]
    alpha_sq, beta, resid = recurrence_extract(*ops)
    assert resid < 1e-11
    # complex modification: coefficients approach the free pair (1/4, 0)
    assert abs(alpha_sq - 0.25) < 5e-3
    assert abs(beta) < 5e-3


def test_ratio_approaches_limit():
    n, z = 60, 3.0 + 0.0j
    q = solve_Q(n, R_RAT, TAB).q
    base = PolyInBasis.basis_poly(TAB, n)
    ratio = q.values(z) / base.values(z)
    lim = limit_modified(z, R_RAT)
    assert abs(ratio - lim) / abs(lim) < 1e-3


def test_weak_limit_probe_trivial_f():
    one = PolyInBasis(MONIC, np.ones(1, dtype=complex), 0, TAB)
    lhs, rhs = weak_limit_probe(one, 0, 40, R_CPX, TAB)
    assert rhs == pytest.approx(1.0, rel=1e-13)      # (1/pi) integral of 1
    assert abs(lhs - rhs) < 1e-3


ATOMS2 = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5), (-1.5, 0.3)))
R_ATOMS2 = RationalModifier(zeros=((3.0 + 0j, 1),), poles=((-1.5 + 0.5j, 2),))


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("fdeg", [0, 1, 2, 6])
def test_weak_limit_probe_on_atoms_with_double_pole(fdeg, nu):
    # the exact lhs against Gauss quadrature with stable atom columns, on a
    # double complex pole half a unit from the support and an atom below it
    n = 60
    tab = recurrence_for(ATOMS2, 70)
    coeffs = np.array([0.3, -0.2j, 1.0, 0.5, 0.1, -0.7, 1.0])[-fdeg - 1:]
    f = PolyInBasis(MONIC, coeffs, fdeg, tab)
    lhs, _ = weak_limit_probe(f, nu, n, R_ATOMS2, tab)
    ops = [solve_Q(k, R_ATOMS2, tab) for k in range(n, n + nu + 1)]
    rule = rule_for(ATOMS2, n + nu + R_ATOMS2.A + R_ATOMS2.B + 60 + fdeg)
    pts = rule.all_points()
    s = np.sum(rule.all_weights() * values_on_rule(f, rule) * values_on_rule(ops[0].q, rule)
               * values_on_rule(ops[-1].q, rule) * R_ATOMS2.values(pts))
    want = s / ops[0].kappa_sq_inv / _alpha_chain(ops)
    assert abs(lhs - want) < 1e-12


def test_modifier_json_round_trip():
    back = RationalModifier.from_json_dict(R_RAT.to_json_dict())
    assert back == R_RAT
