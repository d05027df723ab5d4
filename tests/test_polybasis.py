"""Polynomial values and jets over recurrence tables."""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _basis import inner_mu
from _quadrature import values_on_rule

from relasym import BaseMeasureSpec, PolyInBasis, basis_jets, recurrence_for
from relasym.measures import rule_for

CHEB = recurrence_for(BaseMeasureSpec("chebyshev_first_kind"), 20)
LEG = recurrence_for(BaseMeasureSpec("legendre"), 20)


def test_monic_chebyshev_values():
    # L_2 = x^2 - 1/2
    p = PolyInBasis.basis_poly(CHEB, 2)
    assert p.values(0.3) == pytest.approx(-0.41, rel=1e-14)
    assert p.values(2.0) == pytest.approx(3.5, rel=1e-14)


def test_jets_are_derivatives():
    p = PolyInBasis.basis_poly(CHEB, 2)
    jet = p.jet(0.3 + 0.0j, 2)
    assert jet[0] == pytest.approx(-0.41, rel=1e-13)
    assert jet[1] == pytest.approx(0.6, rel=1e-13)   # 2x
    assert jet[2] == pytest.approx(2.0, rel=1e-13)


def test_norm_via_recurrence_matches_quadrature():
    p = PolyInBasis.basis_poly(LEG, 6)
    rule = rule_for(LEG.spec, 20)
    w = rule.all_weights()
    v = p.values(rule.all_points())
    quad_norm = np.sqrt(np.sum(w * v * v).real)
    norm = np.linalg.norm(p.coeffs / LEG.tau[:7])   # Hermitian L2(mu) norm
    assert norm == pytest.approx(quad_norm, rel=1e-12)


def test_inner_mu_exact_with_atoms():
    # sum of orthonormal coefficient products against a Gauss rule whose
    # atom columns come from the stable evaluation
    spec = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5), (-1.5, 0.3)))
    tab = recurrence_for(spec, 60)
    rng = np.random.default_rng(3)
    pc = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    qc = rng.standard_normal(31)
    p = PolyInBasis(pc * tab.tau[:41], tab)
    q = PolyInBasis(qc * tab.tau[:31], tab)
    rule = rule_for(spec, 40)
    want = np.sum(rule.all_weights() * values_on_rule(p, rule) * values_on_rule(q, rule))
    assert abs(inner_mu(p, q) - want) < 1e-12 * np.linalg.norm(pc) * np.linalg.norm(qc)


def test_monomial_conversion_against_known_form():
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from _mp_oracles import monomial_coeffs
    # monic Legendre P_4 = x^4 - 6/7 x^2 + 3/35
    mono = monomial_coeffs(PolyInBasis.basis_poly(LEG, 4))
    want = np.array([3.0 / 35.0, 0.0, -6.0 / 7.0, 0.0, 1.0])
    assert np.allclose(mono, want, atol=1e-14)


def test_trimmed_drops_zero_tail():
    c = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)
    p = PolyInBasis(c, LEG).trimmed()
    assert p.degree == 1


def _jets_by_order(table, deg, z, order):
    """Reference: one numpy statement per derivative order at every degree."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    a, b = table.a, table.b
    vals = np.zeros((order + 1, deg + 1, zz.size), dtype=complex)
    vals[0, 0] = 1.0
    for k in range(deg):
        asq = a[k] * a[k]
        lower = vals[:, k - 1] if k >= 1 else 0.0
        vals[0, k + 1] = (zz - b[k]) * vals[0, k] - asq * (lower[0] if k >= 1 else 0.0)
        for j in range(1, order + 1):
            vals[j, k + 1] = (zz - b[k]) * vals[j, k] + j * vals[j - 1, k]
            if k >= 1:
                vals[j, k + 1] -= asq * lower[j]
    return vals


def _same_bits(x, y):
    return x.shape == y.shape and np.ascontiguousarray(x).tobytes() == \
        np.ascontiguousarray(y).tobytes()


@pytest.mark.parametrize("spec", [BaseMeasureSpec("legendre"),
                                  BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),))],
                         ids=["legendre", "legendre_atom"])
def test_jets_all_orders_match_per_order_recurrence_bitwise(spec):
    # one array step per degree for every order must round exactly as the
    # per-order loop does, batched and per point (complex multiply rounds
    # differently on 2-d operands, so a reshaped derivative block would not)
    tab = recurrence_for(spec, 120)
    rng = np.random.default_rng(11)
    cases = [(81, np.array([3.0, -2.5, 2j, 1.5 + 1.5j]), 3),
             (40, np.array([1.3 - 0.4j]), 1), (0, np.array([0.0j]), 2),
             (120, np.array([0.0, -1.7, 0.5 + 2j]), 0)]
    for _ in range(16):
        npts = int(rng.integers(1, 6))
        kind = rng.integers(0, 3, npts)
        z = np.where(kind == 0, rng.normal(0.0, 1.5, npts),
                     np.where(kind == 1, rng.normal(0.0, 1.5, npts)
                              + 1j * rng.normal(0.0, 1.5, npts), 0.0)).astype(complex)
        cases.append((int(rng.integers(0, 121)), z, int(rng.integers(0, 4))))
    for deg, z, order in cases:
        want = _jets_by_order(tab, deg, z, order)
        got = basis_jets(tab, deg, z, order)
        assert got.flags.c_contiguous
        assert _same_bits(got, want), (deg, z, order)
        for p in range(z.size):
            one = basis_jets(tab, deg, z[p], order)
            assert _same_bits(one, want[:, :, p]), (deg, z[p], order)
