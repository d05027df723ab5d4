"""Pade approximants to Markov functions with polar parts."""
import warnings

import numpy as np
import pytest

from relasym import (BaseMeasureSpec, PadeError, StieltjesFn, error_ratio,
                     f_value, laurent_moments, pade_approximant,
                     pade_denominator, pade_numerator,
                     pade_order_residuals, phi, recurrence_for,
                     to_sobolev_spec)
from relasym.measures import rule_for
from relasym.pade import mu_moments
from relasym.polybasis import MONIC, PolyInBasis

CHEB = BaseMeasureSpec("chebyshev_first_kind")
LEG = BaseMeasureSpec("legendre")
TCHEB = recurrence_for(CHEB, 130)
TLEG = recurrence_for(LEG, 130)

F_PLAIN = StieltjesFn(CHEB)                      # pure Markov function
F_POLE = StieltjesFn(CHEB, ((2j, (0.0, 1.0)),))  # one double-order pole term
F_LEG = StieltjesFn(LEG, ((2j, (0.0, 1.0)),))


def test_pole_validation():
    with pytest.raises(PadeError):
        StieltjesFn(CHEB, ((0.5, (1.0,)),))        # on the cut
    with pytest.raises(PadeError):
        StieltjesFn(CHEB, ((2j, ()),))             # empty coefficients
    with pytest.raises(PadeError):
        StieltjesFn(CHEB, ((2j, (1.0, 0.0)),))     # zero leading coefficient
    with pytest.raises(PadeError):
        StieltjesFn(CHEB, ((2j, (1.0,)), (2j, (1.0,))))


def test_plain_markov_denominator_is_base_poly():
    q = pade_denominator(8, F_PLAIN, TCHEB)
    base = PolyInBasis.basis_poly(TCHEB, 8)
    assert np.allclose(q.coeffs, base.coeffs, atol=0.0)


def test_numerator_first_degree_is_mass():
    # second-kind recursion starts at E_1 = total mass
    q1 = pade_denominator(1, F_PLAIN, TCHEB)
    p1 = pade_numerator(1, F_PLAIN, q1, TCHEB)
    assert p1.values(0.0 + 0.0j) == pytest.approx(np.pi, rel=1e-13)


def test_mu_moments_closed_form():
    m = mu_moments(TCHEB, 6)
    want = np.array([np.pi, 0.0, np.pi / 2, 0.0, 3 * np.pi / 8, 0.0])
    assert np.allclose(m, want, rtol=1e-13)


def test_laurent_moments_add_pole_expansion():
    fs = laurent_moments(F_POLE, TCHEB, 5)
    base = mu_moments(TCHEB, 5)
    c = 2j
    # A_1 = 1 contributes 1! * C(s,1) * c^(s-1) from s = 1 on
    want = base + np.array([0, 1, 2 * c, 3 * c ** 2, 4 * c ** 3])
    assert np.allclose(fs, want, rtol=1e-13)


def test_f_value_matches_closed_form():
    # pure first-kind weight: f(z) = pi / sqrt(z^2 - 1), poles added exactly
    z = 3.0 + 0.0j
    got = f_value(F_POLE, z, TCHEB)
    want = np.pi / np.sqrt(8.0) + 1.0 / (z - 2j) ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_f_value_on_atom_measure_matches_quadrature():
    spec = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5), (-1.5, 0.3)))
    tab = recurrence_for(spec, 40)
    rule = rule_for(spec, 200)
    pts, w = rule.all_points(), rule.all_weights()
    for z in (3j, 1.5 + 1.5j, -2.5 + 0j, 2.2 + 0j):
        want = complex(np.sum(w / (z - pts)))
        assert f_value(StieltjesFn(spec), z, tab) == pytest.approx(want, rel=1e-13)


def test_order_conditions():
    for n in (10, 25):
        appr = pade_approximant(n, F_LEG, TLEG)
        res = pade_order_residuals(appr, F_LEG, TLEG)
        assert np.max(res) < 1e-12


def test_order_conditions_with_third_order_pole_on_atoms():
    # Leibniz weights binom(i, r) other than 1 need a pole of order 3
    spec = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),))
    f = StieltjesFn(spec, ((2j, (0.5, 0.3, 1.0)), (-3.0 + 0j, (2.0,))))
    tab = recurrence_for(spec, 40)
    for n in (10, 25):
        res = pade_order_residuals(pade_approximant(n, f, tab), f, tab)
        assert np.max(res) < 1e-12


def test_order_residuals_read_the_table_through_degree_n():
    # the residuals need Q_n's degree of the table, not 2n + 1 moments
    tab = recurrence_for(LEG, 125)
    appr = pade_approximant(100, F_LEG, tab)
    res = pade_order_residuals(appr, F_LEG, tab)
    assert res.shape == (100,)
    assert np.max(res) < 1e-12


def test_interpolation_error_decays_geometrically():
    z = 3.0 + 0.0j
    fz = f_value(F_LEG, z, TLEG)
    errs = []
    for n in (5, 10, 15):
        a = pade_approximant(n, F_LEG, TLEG)
        errs.append(abs(fz - a.P_n.values(z) / a.Q_n.values(z)))
    assert errs[1] < errs[0] * 1e-2
    assert errs[2] < errs[1] * 1e-2


@pytest.mark.parametrize("n, z, want, tol", [
    # past the double rounding floor of the remainders
    (30, 3.0, 0.029437251522859413, 1e-17),
    (40, 3.0, 0.029437251522859413, 1e-17),
    (50, 3.0, 0.029437251522859413, 1e-17),
    (55, 3.0, 0.029437251522859413, 1e-17),
    # close to the cut, where P/Q cancels the most
    (30, -1.05, 1.0 / phi(-1.05) ** 2, 1e-8),
    (40, -1.05, 1.0 / phi(-1.05) ** 2, 1e-8),
    (60, 0.3 + 0.2j, -0.5462165519217 - 0.3705429781221j, 1e-9),
    (80, 0.3 + 0.2j, -0.5462165519217 - 0.3705429781221j, 1e-9),
    (10, 1.5 + 1.5j, -0.006043224891979847 - 0.05471977528928362j, 1e-9),
])
def test_ratio_resolved_at_every_probe(n, z, want, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = error_ratio(n, z, F_POLE, TCHEB)
    assert abs(got - want) < tol


def test_extended_lane_hits_geometric_rate():
    lim = 1.0 / phi(3.0) ** 2
    got = error_ratio(10, 3.0, F_POLE, TCHEB)
    assert abs(got - lim) < 1e-8


def test_extended_lane_frozen_value():
    # the value of the former Gauss-Chebyshev remainder, to all its digits
    got = error_ratio(30, 3.0, F_POLE, TCHEB)
    assert got == pytest.approx(0.029437251522859413, rel=1e-15)


def _decreasing_gaps(f, tab):
    lim = 1.0 / phi(3.0) ** 2
    gaps = [abs(error_ratio(n, 3.0, f, tab) - lim) for n in (10, 20, 40, 80)]
    return all(hi > lo for hi, lo in zip(gaps, gaps[1:]))


# frozen values at n = 5 of the former double-precision evaluation of P/Q
@pytest.mark.parametrize("spec, dbl", [
    (LEG, 0.029496269638749434 + 0.00014457713938376777j),
    (BaseMeasureSpec("jacobi", alpha=0.3, beta=-0.4),
     0.029369053452539012 - 3.905812953541551e-05j),
], ids=["legendre", "jacobi"])
def test_extended_lane_on_other_weights(spec, dbl):
    f = StieltjesFn(spec, ((2j, (0.0, 1.0)),))
    tab = recurrence_for(spec, 130)
    assert error_ratio(5, 3.0, f, tab) == pytest.approx(dbl, rel=1e-7)
    assert _decreasing_gaps(f, tab)


def test_extended_lane_guards():
    with pytest.raises(PadeError):
        error_ratio(10, 2j, F_POLE, TCHEB)                        # probe on pole
    with pytest.raises(PadeError):
        error_ratio(10, 0.2, F_POLE, TCHEB)                       # probe on cut
    # atom tables run on their double a and b
    atom = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),))
    f = StieltjesFn(atom, ((2j, (0.0, 1.0)),))
    tab = recurrence_for(atom, 20)
    want = 0.03117832880519057 + 0.0016004534757202067j
    assert error_ratio(5, 3.0, f, tab) == pytest.approx(want, rel=1e-7)
    assert _decreasing_gaps(f, tab)


def test_coupling_map_mirrors_denominator():
    spec = to_sobolev_spec(F_POLE)
    assert spec.A == 2
    g = spec.terms[0].gamma
    assert g[0, 1] == 1.0 and g[1, 0] == 1.0 and g[1, 1] == 0.0
    with pytest.raises(PadeError):
        to_sobolev_spec(F_PLAIN)


def test_fn_json_round_trip():
    f2 = StieltjesFn(LEG, ((2j, (0.5 + 0.5j, 1.0)), (-3.0 + 0j, (2.0,))))
    back = StieltjesFn.from_json_dict(f2.to_json_dict())
    assert back.poles == f2.poles
    assert back.base == f2.base
