"""Pade approximants to Markov functions with polar parts."""
import numpy as np
import pytest

from relasym import (BaseMeasureSpec, PadeError, SaturatedRatioError,
                     StieltjesFn, error_ratio, f_value, laurent_moments,
                     pade_approximant, pade_denominator, pade_numerator,
                     pade_order_residuals, phi, recurrence_for, rule_for,
                     to_sobolev_spec)
from relasym.pade import mu_moments, value_at
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
    assert value_at(p1, 0.0 + 0.0j) == pytest.approx(np.pi, rel=1e-13)


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


def test_interpolation_error_decays_geometrically():
    z = 3.0 + 0.0j
    fz = f_value(F_LEG, z, TLEG)
    errs = []
    for n in (5, 10, 15):
        a = pade_approximant(n, F_LEG, TLEG)
        errs.append(abs(fz - value_at(a.P_n, z) / value_at(a.Q_n, z)))
    assert errs[1] < errs[0] * 1e-2
    assert errs[2] < errs[1] * 1e-2


def test_double_lane_saturates():
    # by n=40 the true remainder sits below the double rounding floor
    with pytest.raises(SaturatedRatioError):
        error_ratio(40, 3.0, F_POLE, TCHEB, precision="double")


def test_double_lane_flags_what_it_used_to_return():
    # numerators divided through a Gauss rule were off enough here to give
    # unflagged O(1) ratios; with exact division the state is saturation
    for n in (30, 50, 55):
        with pytest.raises(SaturatedRatioError):
            error_ratio(n, 3.0, F_POLE, TCHEB, precision="double")


def test_double_lane_rejects_cancelled_evaluation():
    # close to the cut at n=60, P and Q individually overflow the
    # cancellation budget and P/Q is garbage, which is a different failure
    # than saturation
    with pytest.raises(PadeError) as exc:
        error_ratio(60, 0.3 + 0.2j, F_POLE, TCHEB, precision="double")
    assert not isinstance(exc.value, SaturatedRatioError)


def test_extended_lane_hits_geometric_rate():
    lim = 1.0 / phi(3.0) ** 2
    got = error_ratio(10, 3.0, F_POLE, TCHEB, precision="extended")
    assert abs(got - lim) < 1e-8


def test_extended_lane_frozen_value():
    # the value of the former Gauss-Chebyshev remainder, to all its digits
    got = error_ratio(30, 3.0, F_POLE, TCHEB, precision="extended")
    assert got == pytest.approx(0.029437251522859413, rel=1e-15)


@pytest.mark.parametrize("spec", [LEG, BaseMeasureSpec("jacobi", alpha=0.3, beta=-0.4)],
                         ids=["legendre", "jacobi"])
def test_extended_lane_on_other_weights(spec):
    f = StieltjesFn(spec, ((2j, (0.0, 1.0)),))
    tab = recurrence_for(spec, 130)
    dbl = error_ratio(5, 3.0, f, tab, precision="double")
    assert error_ratio(5, 3.0, f, tab, precision="extended") == pytest.approx(dbl, rel=1e-7)
    lim = 1.0 / phi(3.0) ** 2
    gaps = [abs(error_ratio(n, 3.0, f, tab, precision="extended") - lim)
            for n in (10, 20, 40, 80)]
    assert all(hi > lo for hi, lo in zip(gaps, gaps[1:]))


def test_extended_lane_guards():
    atom = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),))
    with pytest.raises(PadeError):
        error_ratio(10, 3.0, StieltjesFn(atom, ((2j, (0.0, 1.0)),)),
                    recurrence_for(atom, 20), precision="extended")
    with pytest.raises(PadeError):
        error_ratio(10, 2j, F_POLE, TCHEB, precision="extended")  # probe on pole
    with pytest.raises(PadeError):
        error_ratio(10, 0.2, F_POLE, TCHEB)                       # probe on cut


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
