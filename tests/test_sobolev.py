"""Discrete Sobolev inner products: regularity, both construction paths,
collapse-aware residuals, and normalization sequences."""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _mp_oracles import compare_monomial, oracle_sobolev_monic

from relasym import (BaseMeasureSpec, PolyInBasis, SobolevError, SobolevSpec,
                     StieltjesFn, digit_loss, gamma_sequence,
                     orthogonality_residuals_extended, phi, recurrence_for,
                     regularity, rule_for, sn_kernel, sn_lambda, sobolev_inner,
                     to_sobolev_spec)
from relasym.sobolev import SobolevTerm
from relasym.polybasis import MONIC

LEG = BaseMeasureSpec("legendre")
TAB = recurrence_for(LEG, 90)

DERIV = SobolevSpec.diagonal([(2.0, [0.0, 1.0])])   # M_1 only
PAIR = SobolevSpec.diagonal([(2.0, [1.0, 1.0])])    # value + derivative


def test_regularity_counts():
    rep = regularity(DERIV)
    assert rep.overall_regular
    assert [t.I for t in rep.terms] == [1]
    rep = regularity(PAIR)
    assert rep.overall_regular
    assert [t.I for t in rep.terms] == [2]
    assert rep.A == 2


def test_spec_validation():
    with pytest.raises(SobolevError):
        SobolevSpec.diagonal([(0.5, [1.0])])           # on the cut
    with pytest.raises(SobolevError):
        SobolevSpec.diagonal([(2.0, [1.0, 0.0])])      # zero top row
    with pytest.raises(SobolevError):
        SobolevSpec.diagonal([(2.0, [1.0]), (2.0, [1.0])])
    with pytest.raises(SobolevError):
        SobolevTerm(c=2.0, gamma=np.ones(3))           # not a matrix


def test_diagonal_detection():
    assert PAIR.is_diagonal_real_positive()
    skew = SobolevSpec((SobolevTerm(c=2j, gamma=np.diag([1.0 + 0j, 2.0])),))
    assert not skew.is_diagonal_real_positive()


def test_inner_product_is_bilinear_symmetric():
    rule = rule_for(LEG, 30)
    h = PolyInBasis.basis_poly(TAB, 3)
    g = PolyInBasis.basis_poly(TAB, 5)
    lhs = sobolev_inner(h, g, PAIR, TAB, rule)
    rhs = sobolev_inner(g, h, PAIR, TAB, rule)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_kernel_path_orthogonality_small_n():
    rule = rule_for(LEG, 40)
    op = sn_kernel(9, PAIR, TAB)
    for k in range(9):
        basis_k = PolyInBasis.basis_poly(TAB, k)
        ip = sobolev_inner(basis_k, op.rep, PAIR, TAB, rule)
        scale = abs(sobolev_inner(basis_k, basis_k, PAIR, TAB, rule))
        assert abs(ip) < 1e-11 * max(1.0, scale)


def test_kernel_vs_lambda_paths():
    for n in (9, 21, 33):
        k = sn_kernel(n, PAIR, TAB).rep.to_basis(MONIC)
        l = sn_lambda(n, PAIR, TAB).rep.to_basis(MONIC)
        assert np.max(np.abs(k.coeffs - l.coeffs)) < 1e-9


COUPLED = SobolevSpec((SobolevTerm(c=2j, gamma=np.array([[1.0, 0.5], [0.5, 1.0]])),))
TWO_POLE = to_sobolev_spec(StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0 + 0j, (2.0,)))))


def test_against_dense_oracle():
    got = sn_kernel(9, PAIR, TAB).rep
    assert compare_monomial(got, oracle_sobolev_monic(LEG, PAIR, 9), 0) < 1e-10
    # the smallest degrees the expansion admits, n = 2A+1 and 2A+3
    for spec in (PAIR, COUPLED, TWO_POLE):
        for n in (2 * spec.A + 1, 2 * spec.A + 3):
            got = sn_lambda(n, spec, TAB).rep
            gap = compare_monomial(got, oracle_sobolev_monic(LEG, spec, n), 0)
            assert gap < 1e-10, f"sn_lambda vs oracle {gap:.2e} at n={n}"


def test_digit_loss_scaling():
    # n * log10 |phi(2)| per coupling point
    assert digit_loss(10, PAIR) == pytest.approx(10 * np.log10(phi(2.0).real), rel=1e-12)
    assert digit_loss(40, PAIR) == pytest.approx(4 * digit_loss(10, PAIR), rel=1e-12)


def test_extended_lane_engages_and_matches():
    # by n=60 the expansion conditions cancel ~34 digits: the lambda path
    # works at enough digits to absorb that and still matches the kernel path
    n = 60
    k = sn_kernel(n, PAIR, TAB).rep.to_basis(MONIC)
    l = sn_lambda(n, PAIR, TAB).rep.to_basis(MONIC)
    assert np.max(np.abs(k.coeffs - l.coeffs)) < 1e-9


def test_extended_residuals_at_collapsed_scale():
    res = orthogonality_residuals_extended(60, DERIV, TAB)
    assert np.max(res) < 1e-20


def test_degenerate_degree_floor():
    with pytest.raises(SobolevError):
        sn_lambda(3, PAIR, TAB)   # needs n >= 2A+1 = 5


def test_gamma_sequence_doubling():
    gs = gamma_sequence(PAIR, TAB, (30, 31, 32), method=sn_lambda)
    assert abs(gs[31] / gs[30] - 2.0) < 1e-3
    assert abs(gs[32] / gs[31] - 2.0) < 1e-3


def test_norm_sq_positive_for_positive_spec():
    op = sn_kernel(12, PAIR, TAB)
    assert op.norm_sq.imag == pytest.approx(0.0, abs=1e-18)
    assert op.norm_sq.real > 0.0


def test_spec_json_round_trip():
    spec = SobolevSpec((SobolevTerm(c=2j, gamma=np.array([[0.1, 0.2], [0.0, 1.0 + 0.5j]])),))
    back = SobolevSpec.from_json_dict(spec.to_json_dict())
    assert back.terms[0].c == spec.terms[0].c
    assert np.allclose(back.terms[0].gamma, spec.terms[0].gamma, atol=0.0)
