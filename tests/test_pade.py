"""Pade approximants to Markov functions with polar parts."""
import warnings

import numpy as np
import pytest

from relasym import (BaseMeasureSpec, PadeError, SobolevError, StieltjesFn, error_ratio,
                     f_value, pade_denominator, pade_numerator, phi, recurrence_for,
                     scenario, to_sobolev_spec)
import mpmath
from _mp_oracles import (_mp_basis_jets, _mp_poly_jet, _mp_recurrence, _mp_remainder,
                         _residuals, mp_error_ratio, residual_dps)
from relasym.extended import _mp_kernel
from relasym.measures import rule_for
from relasym.polybasis import PolyInBasis
from relasym.sobolev import _lane_dps, sn_kernel_many, sn_lambda

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


@pytest.mark.parametrize("entry", ["1", True, None])
def test_pole_coefficients_must_be_numbers(entry):
    # complex() read "1" and True as 1
    with pytest.raises(PadeError, match="must be a number"):
        StieltjesFn(LEG, ((3.0, (entry, 1.0)),))


def test_pole_coefficients_take_numpy_numbers():
    f = StieltjesFn(LEG, ((3.0, (np.complex128(1 + 2j),)),))
    assert f.poles == ((3.0, (1 + 2j,)),)
    assert type(f.poles[0][1][0]) is complex


def test_plain_markov_denominator_is_base_poly():
    q = pade_denominator(8, F_PLAIN, TCHEB)
    base = PolyInBasis.basis_poly(TCHEB, 8)
    assert np.allclose(q.coeffs, base.coeffs, atol=0.0)


def test_numerator_first_degree_is_mass():
    # second-kind recursion starts at E_1 = total mass
    q1 = pade_denominator(1, F_PLAIN, TCHEB)
    p1 = pade_numerator(1, F_PLAIN, q1, TCHEB)
    assert p1.values(0.0 + 0.0j) == pytest.approx(np.pi, rel=1e-13)


def _numerator_gap(f, tab, n, zs):
    """Largest |P_n/Q_n - (f - R_n/Q_n)| over zs, the remainder R_n/Q_n
    from the Cauchy transforms of the basis in mpmath: no numerator."""
    q = pade_denominator(n, f, tab)
    p = pade_numerator(n, f, q, tab)
    return max(abs(p.values(z) / q.values(z)
                   - (f_value(f, z, tab) - complex(_mp_remainder(n, f, tab, z, 60))))
               for z in zs)


@pytest.mark.parametrize("atom, c, n", [
    ((3.0, 10.0), 2.999376261633814, 3),      # the outside zero of L_3
    ((2.2, 0.5), 2.1999999786751063, 8),      # the outside zero of L_8
], ids=["atom_3", "atom_2.2"])
def test_numerator_with_a_pole_on_an_outside_zero(atom, c, n):
    # the shifted Jacobi matrix J_n - c I of the atom measure is singular there
    spec = BaseMeasureSpec("legendre", mass_points=(atom,))
    f = StieltjesFn(spec, ((c, (1.0,)),))
    tab = recurrence_for(spec, 40)
    for m in (n - 1, n, n + 1):
        assert _numerator_gap(f, tab, m, (3.5, -2.5, 2j)) < 1e-13, m


ATOM = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),))


@pytest.mark.parametrize("f", [
    scenario("pade_gonchar").target,
    StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0, (2.0,)))),
    StieltjesFn(ATOM, ((2j, (0.5, 0.3, 1.0)), (-3.0 + 0j, (2.0,)))),
    StieltjesFn(LEG, ((1.5 + 0.5j, (1.0, 0.5, 0.25)),)),
], ids=["pade_gonchar", "two_pole", "triple_pole_on_atom", "complex_triple_pole"])
def test_numerator_matches_the_extended_remainder(f):
    tab = recurrence_for(f.base, 130)
    for n in (10, 20, 40, 60):
        assert _numerator_gap(f, tab, n, (3.0, -3j)) < 1e-12, n


def test_numerator_solves_no_linear_system(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pade_numerator called np.linalg.solve")

    f = StieltjesFn(ATOM, ((2j, (0.5, 0.3, 1.0)), (-3.0 + 0j, (2.0,))))
    tab = recurrence_for(ATOM, 40)
    q = pade_denominator(25, f, tab)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    pade_numerator(25, f, q, tab)


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


@pytest.mark.parametrize("z", [1.0005, -1.0002, 0.0005j])
def test_f_value_next_to_the_cut(z):
    # the minimal solution starts at degree 1141, 1804 and 72089 here, where
    # the deepened table's tau overflows; f_value reads only its a and b
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = f_value(F_LEG, z, TLEG)
    want = np.log((z + 1) / (z - 1)) + 1.0 / (z - 2j) ** 2
    assert got == pytest.approx(want, rel=1e-14)


def test_interpolation_error_decays_geometrically():
    z = 3.0 + 0.0j
    fz = f_value(F_LEG, z, TLEG)
    errs = []
    for n in (5, 10, 15):
        q = pade_denominator(n, F_LEG, TLEG)
        errs.append(abs(fz - pade_numerator(n, F_LEG, q, TLEG).values(z) / q.values(z)))
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


TWO_POLE = StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0, (2.0,))))


@pytest.mark.parametrize("f, n, z", [
    (F_POLE, 30, 3.0),
    (F_POLE, 80, -1.05),
    (F_POLE, 60, 0.3 + 0.2j),
    (F_POLE, 10, 1.5 + 1.5j),
    (F_LEG, 5, 3.0),
    (StieltjesFn(BaseMeasureSpec("jacobi", alpha=0.3, beta=-0.4), ((2j, (0.0, 1.0)),)), 5, 3.0),
    (StieltjesFn(ATOM, ((2j, (0.0, 1.0)),)), 5, 3.0),
    (TWO_POLE, 10, 3.0),
    (TWO_POLE, 40, 3.0),
    (F_LEG, 340, 3.0),          # Q_340(2i) = 9.3e-314: only the ratio form stays finite
], ids=["cheb_30", "cheb_80_near_cut", "cheb_60_inside", "cheb_10_complex", "legendre_5",
        "jacobi_5", "atom_5", "two_pole_10", "two_pole_40", "legendre_340"])
def test_error_ratio_matches_the_remainder_oracle(f, n, z):
    # the Q_n^2 identity in double against both remainders summed in mpmath
    tab = recurrence_for(f.base, 130)
    assert error_ratio(n, z, f, tab) == pytest.approx(mp_error_ratio(n, z, f, tab), rel=1e-13)


@pytest.mark.parametrize("z", [3.0, -1.05])
def test_pole_free_error_ratio_closed_form(z):
    # e_n = q_n / L_n for Chebyshev-1, whose ratio is (1 + p^-2n) / (p^2 + p^-2n)
    n, p = 1000, phi(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = error_ratio(n, z, F_PLAIN, TCHEB)
    want = (1 + p ** (-2 * n)) / (p ** 2 + p ** (-2 * n))
    assert got == pytest.approx(want, rel=1e-13)


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


@pytest.mark.parametrize("f", [F_LEG, TWO_POLE], ids=["gonchar", "two_pole"])
def test_pole_jets_are_the_kernel_unknowns(f):
    # the unknowns u of the kernel solve, from which _mp_square_jets squares
    # S_n^(s)(c_j), are S_n's pole jets: the coefficients re-swept by the oracle
    spec = to_sobolev_spec(f)
    for n in (10, 20, 40, 80, 160, 320):
        dps = _lane_dps(n, spec)
        core = _mp_kernel(n, spec, TLEG, dps)
        with mpmath.workdps(dps):
            a2, b = _mp_recurrence(core["table"])[:2]
            i = 0
            for t in spec.terms:
                jets = _mp_basis_jets(n, t.N, mpmath.mpc(t.c), a2, b)
                want = _mp_poly_jet(core["coeffs_mp"], jets, t.N)
                for s, w in enumerate(want):
                    assert abs(core["u"][i + s] - w) <= 1e-30 * abs(w), (n, t.c, s)
                i += t.N + 1


@pytest.mark.parametrize("A", [(1.0, 1e-11), (1.0, 0.0, 1e-7), (1.0, 1e-13)])
def test_every_pole_term_has_full_rank(A):
    # _mp_square_jets reads the kernel unknowns u = V^T (S_n's jets at c) as
    # the pole jets, so a Pade term must keep rank N + 1 with V the identity
    # however small its lower coefficients; (1, 1e-13) built at no degree
    # while the construction was gated on regularity
    f = StieltjesFn(LEG, ((2.0, A),))
    (t,) = to_sobolev_spec(f).terms
    assert t.rank == t.N + 1 == len(A)
    assert np.array_equal(t.V, np.eye(len(A)))
    assert pade_denominator(20, f, TLEG).degree == 20


def test_a_nearly_singular_pole_term_meets_the_cond_gate():
    # full rank, but its kernel system is past COND_LIMIT (cond ~ 1.77e20):
    # a numerical limit, refused as one
    f = StieltjesFn(LEG, ((2.0, (1.0, 1e-20)),))
    assert to_sobolev_spec(f).terms[0].rank == 2
    with pytest.raises(SobolevError, match="ill-conditioned") as info:
        pade_denominator(20, f, TLEG)
    assert info.value.kind == "pre_asymptotic"


@pytest.mark.parametrize("A", [(1.0, 1e-11), (1.0, 0.0, 1e-7), (1.0, 1e-20)])
def test_a_near_singular_pole_term_keeps_the_double_lane_on_the_mp_lane(A):
    # the pole term's columns are nearly parallel: read through an orthonormal
    # basis, the double kernel stays on the mp lane, where W = U^T E formed in
    # double read 2.4e-6, 4.9e-10 and 0.10 off it at n = 160
    spec = to_sobolev_spec(StieltjesFn(LEG, ((2.0, A),)))
    table = recurrence_for(LEG, 160)
    built = sn_kernel_many((20, 60, 160), spec, table)
    for n in (60, 160):
        want = sn_lambda(n, spec, table).coeffs
        gap = np.max(np.abs(built[n].coeffs - want)) / np.max(np.abs(want))
        assert gap < 1e-11, (n, gap)
    if A == (1.0, 1e-20):
        assert isinstance(built[20], SobolevError) and "ill-conditioned" in str(built[20])


@pytest.mark.parametrize("n", [40, 60])
def test_extended_checker_sees_a_moved_denominator(n):
    # the orthogonality residuals that check the Pade denominators, on the mp
    # Q_n with its middle coefficient moved: its collapsed pole jets jump
    spec = to_sobolev_spec(F_LEG)
    wp = residual_dps(n, spec)
    core = _mp_kernel(n, spec, TLEG, wp)
    assert np.max(_residuals(spec, core, wp)) < 1e-40
    for move in (1e-6, 1e-12):
        with mpmath.workdps(wp):
            coeffs = core["coeffs_mp"].copy()
            coeffs[n // 2] += move * mpmath.norm(list(coeffs))
        res = _residuals(spec, {**core, "coeffs_mp": coeffs}, wp)
        assert np.max(res) > 1e-9, (n, move)


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
    assert [t.N for t in spec.terms] == [1]
    g = spec.terms[0].gamma
    assert g[0, 1] == 1.0 and g[1, 0] == 1.0 and g[1, 1] == 0.0
    with pytest.raises(PadeError):
        to_sobolev_spec(F_PLAIN)


def test_fn_json_round_trip():
    f2 = StieltjesFn(LEG, ((2j, (0.5 + 0.5j, 1.0)), (-3.0 + 0j, (2.0,))))
    back = StieltjesFn.from_json_dict(f2.to_json_dict())
    assert back.poles == f2.poles
    assert back.base == f2.base
