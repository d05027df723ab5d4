"""Recurrence tables, quadrature rules, and measure validation."""
import itertools
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _basis import inner_mu
from _mp_oracles import measure_moment, oracle_base_monic
from _quadrature import atom_basis_values

from relasym import BaseMeasureSpec, MeasureError, recurrence_for
from relasym.extended import _mp_ab
from relasym.measures import MAX_DEPTH, gauss_rule, rule_for
from relasym.polybasis import PolyInBasis

CHEB = BaseMeasureSpec("chebyshev_first_kind")
CHEB2 = BaseMeasureSpec("chebyshev_second_kind")
LEG = BaseMeasureSpec("legendre")
ATOM = BaseMeasureSpec("chebyshev_first_kind", mass_points=((2.0, 0.5),))


def test_chebyshev_table_closed_form():
    t = recurrence_for(CHEB, 12)
    assert np.allclose(t.b, 0.0, atol=1e-15)
    assert t.a[1] == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert np.allclose(t.a[2:], 0.5, atol=1e-15)
    assert t.tau[0] == pytest.approx(0.56418958354775629, rel=1e-14)


def test_chebyshev_second_kind_table_closed_form():
    # U_n: every coefficient is exact, a_k = 1/2 from k = 1 and b_k = 0
    t = recurrence_for(CHEB2, 40)
    assert np.all(t.a[1:] == 0.5) and np.all(t.b == 0.0)


def test_legendre_table_closed_form():
    t = recurrence_for(LEG, 12)
    assert np.allclose(t.b, 0.0, atol=1e-15)
    assert t.a[1] == pytest.approx(0.57735026918962576, rel=1e-14)
    assert t.a[2] == pytest.approx(0.51639777949432225, rel=1e-14)
    k = np.arange(1, 13)
    assert np.allclose(t.a[1:], k / np.sqrt(4.0 * k * k - 1.0), rtol=1e-14)


def test_total_mass():
    assert recurrence_for(CHEB, 4).total_mass == pytest.approx(np.pi, rel=1e-14)
    assert recurrence_for(LEG, 4).total_mass == pytest.approx(2.0, rel=1e-14)
    assert recurrence_for(CHEB2, 4).total_mass == pytest.approx(np.pi / 2, rel=1e-14)
    assert recurrence_for(ATOM, 4).total_mass == pytest.approx(np.pi + 0.5, rel=1e-12)


def test_small_jacobi_exponents_keep_their_mass_bit_for_bit():
    # every bundled weight has exponents in {0, +-1/2}, where the direct
    # product of the two factors stays in range
    for a, b in itertools.product((-0.5, 0.0, 0.5), repeat=2):
        direct = 2.0 ** (a + b + 1.0) * math.exp(
            math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
        assert BaseMeasureSpec("jacobi", alpha=a, beta=b).continuous_mass() == direct


def test_jacobi_mass_past_the_range_of_its_power_of_two():
    # 2^(a+b+1) alone overflows from a + b = 1023; the mass
    # 2^2201 B(1101, 1101) = 0.053423284309749227... does not
    spec = BaseMeasureSpec("jacobi", alpha=1100.0, beta=1100.0)
    assert spec.continuous_mass() == pytest.approx(0.053423284309749227, rel=1e-12)
    table = recurrence_for(spec, 40)
    assert np.all(np.isfinite(table.tau)) and table.a[1] > 0
    # a mass out of the double range is refused when the spec is made
    with pytest.raises(MeasureError, match="leaves the double range"):
        BaseMeasureSpec("jacobi", alpha=1e6)


@pytest.mark.parametrize("a, b", [(1100.0, 1100.0), (1e4, 1e4), (1e6, 1e6), (1e8, 1e8),
                                  (1e6, 1.001e6)])
def test_large_jacobi_exponents_keep_a_full_precision_mass(a, b):
    # lgamma(a + 1) + lgamma(b + 1) - lgamma(a + b + 2) cancelled digits that
    # grow with a + b: 2.6e-11 relative at a = b = 1e4, 7.4e-7 at 1e8.  The
    # asymmetric pair also needs the log1p terms of Stirling's form combined:
    # apart, they cancel to 8.2e-14 there
    with mpmath.workdps(50):
        want = mpmath.power(2, a + b + 1) * mpmath.beta(a + 1, b + 1)
        got = BaseMeasureSpec("jacobi", alpha=a, beta=b).continuous_mass()
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("a, b", [(1000.0, 0.0), (1000.0, 0.5), (14.0, 1000.0)])
def test_one_large_jacobi_exponent_keeps_a_full_precision_mass(a, b):
    # lgamma(p) - lgamma(p + q) of the large argument alone cancelled
    # 8.2e-13, 6.9e-13 and 8.2e-13 relative here
    with mpmath.workdps(50):
        want = mpmath.power(2, a + b + 1) * mpmath.beta(a + 1, b + 1)
        got = BaseMeasureSpec("jacobi", alpha=a, beta=b).continuous_mass()
        assert abs(got - want) <= 1e-14 * want


def test_fractional_jacobi_exponents_keep_a_full_precision_mass():
    # 2^(a+b+1) split off floor(a + b + 1) carried the rounding of a + b: the
    # low bits of 12.17 fall off next to 1077.71, 4.7e-14 relative off here.
    # The oracle sums the exponents in mpmath, for the same reason
    a, b = 12.17, 1077.71
    with mpmath.workdps(50):
        want = mpmath.power(2, mpmath.mpf(a) + b + 1) * mpmath.beta(mpmath.mpf(a) + 1, b + 1)
        got = BaseMeasureSpec("jacobi", alpha=a, beta=b).continuous_mass()
        assert abs(got - want) <= 1e-14 * want


def test_tau_ladder():
    t = recurrence_for(LEG, 10)
    for k in range(1, 10):
        assert t.tau[k] == pytest.approx(t.tau[k - 1] / t.a[k], rel=1e-14)


def test_atom_table_asymptotics():
    # one mass point off the interval perturbs finitely many coefficients:
    # far out the entries return to the pure-weight limits 0 and 1/2
    t = recurrence_for(ATOM, 60)
    assert abs(t.b[59]) < 1e-10
    assert t.a[59] == pytest.approx(0.5, abs=1e-10)
    assert abs(t.b[2]) > 1e-3  # but the head is genuinely modified


@pytest.mark.parametrize("spec", [
    ATOM,
    BaseMeasureSpec("legendre", mass_points=((2.0, 0.5), (-1.5, 3.0))),
    BaseMeasureSpec("chebyshev_first_kind", mass_points=((1.05, 1e-3),)),
    BaseMeasureSpec("jacobi", alpha=0.3, beta=-0.4, mass_points=((2.3, 0.7),)),
], ids=["cheb_atom", "leg_two_atoms", "cheb_near_atom", "jacobi_atom"])
def test_atom_table_orthonormal_on_rule(spec):
    # Gram matrix of l_0..l_80 on a rule built without the package:
    # scipy's Gauss-Jacobi nodes for the weight plus the exact atoms.
    # Values at an atom are the minimal solution of the recurrence, so
    # they come from the backward-stable evaluation, not forward jets
    from scipy.special import roots_jacobi
    from relasym.polybasis import basis_jets
    n = 80
    t = recurrence_for(spec, n)
    alpha, beta = spec.jacobi_exponents()
    nodes, weights = roots_jacobi(n + 10, alpha, beta)
    V = basis_jets(t, n, nodes)[0] * t.tau[:, None]     # l_m = tau_m L_m
    G = (V * weights) @ V.T
    for loc, mass in spec.mass_points:
        v = atom_basis_values(t, n, loc)
        G += mass * np.outer(v, v)
    assert np.max(np.abs(G - np.eye(n + 1))) < 1e-8


def test_atom_table_independent_of_call_history():
    # a table is the leading part of any longer one, and asking for a
    # longer table first must not change the bits of a shorter one
    spec = BaseMeasureSpec("jacobi", alpha=0.5, beta=0.5,
                           mass_points=((-2.0, 0.25), (1.5, 2.0)))
    first = recurrence_for(spec, 40)
    longer = recurrence_for(spec, 80)
    again = recurrence_for(spec, 40)
    for name in ("a", "b", "tau"):
        assert np.array_equal(getattr(first, name), getattr(again, name))
        assert np.array_equal(getattr(first, name), getattr(longer, name)[:41])


@pytest.mark.parametrize("split, whole", [
    (((2.0, 0.5), (2.0, 0.5)), ((2.0, 1.0),)),
    (((2.0, 0.25), (-3.0, 1.0), (2.0, 0.25)), ((2.0, 0.5), (-3.0, 1.0))),
])
def test_atoms_at_one_location_are_one_atom(split, whole):
    # a second sweep at a node the discrete measure already has absorbed the
    # delta wrongly: b_k was off by 2.3e-8 through degree 25 for the first pair
    got = recurrence_for(BaseMeasureSpec("legendre", mass_points=split), 60)
    want = recurrence_for(BaseMeasureSpec("legendre", mass_points=whole), 60)
    for name in ("a", "b", "tau"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    # the spec and its JSON keep the atoms as given
    assert got.spec.mass_points == split
    assert got.spec.to_json_dict()["mass_points"] == [list(p) for p in split]


def test_extended_lane_absorbs_atoms_in_mp():
    # the mp table of an atom measure is built in mp, atoms included: from
    # the double table it was right to 2.7e-12 in b_k and 2.9e-16 in a_k^2.
    # The oracle: monic L_k from the moments' Gram matrix, b_k from their
    # coefficients of x^(k-1) and x^k, and a_k^2 = ||L_k||^2 / ||L_{k-1}||^2
    spec, n = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),)), 12
    monic = [[c.real for c in oracle_base_monic(spec, k)] for k in range(n + 2)]
    with mpmath.workdps(120):
        want_b = [(monic[k][k - 1] if k else 0) - monic[k + 1][k] for k in range(n + 1)]
        norm = [mpmath.fsum(c * measure_moment(spec, i + k) for i, c in enumerate(monic[k]))
                for k in range(n + 1)]
        want_a2 = [norm[k] / norm[k - 1] for k in range(1, n + 1)]
    with mpmath.workdps(40):
        table = _mp_ab(recurrence_for(spec, n), n)
        b, a2, normsq = table.b, table.a[1:] ** 2, 1 / table.tau[0] ** 2
    for got, want in ((b, want_b), (a2, want_a2)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-35 * abs(w)
    assert abs(normsq - norm[0]) <= 1e-35 * norm[0]


@pytest.mark.parametrize("spec", [
    BaseMeasureSpec("legendre", mass_points=((2.0, 0.5), (-1.8, 0.3))),
    BaseMeasureSpec("jacobi", alpha=0.5, beta=-0.5, mass_points=((1.5, 1.0),)),
], ids=["legendre_two_atoms", "jacobi_atom"])
def test_both_lanes_read_one_builder(spec):
    # at 53 bits the mp lane runs the double lane's operations, so only the
    # continuous mass (mpmath's beta against lgamma) sets them apart: a tau
    # of its own, from a cumulative product, was 7 ulp off on Legendre
    table = recurrence_for(spec, 300)
    with mpmath.workprec(53):
        mp_table = _mp_ab(table, 300)
    for name in ("a", "b", "tau"):
        want, got = getattr(table, name), getattr(mp_table, name).astype(float)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), name


def test_a_depth_numpy_cannot_allocate_is_refused():
    # numpy itself refuses the arrays of one degree more, before allocating
    with pytest.raises(ValueError):
        np.empty(MAX_DEPTH + 3)
    for nmax in (MAX_DEPTH + 1, 2 ** 62, int(1e300)):
        with pytest.raises(MeasureError, match="more than numpy can allocate"):
            recurrence_for(LEG, nmax)
        with pytest.raises(MeasureError, match="more than numpy can allocate"):
            _mp_ab(recurrence_for(LEG, 2), nmax)


def test_gauss_rule_exactness():
    t = recurrence_for(LEG, 20)
    rule = gauss_rule(t, 10)
    assert rule.nodes.min() > -1.0 and rule.nodes.max() < 1.0
    assert np.all(rule.weights > 0.0)
    x = rule.nodes
    for k, want in ((0, 2.0), (2, 2.0 / 3.0), (4, 0.4), (6, 2.0 / 7.0)):
        assert np.sum(rule.weights * x ** k) == pytest.approx(want, rel=1e-13)
        assert np.sum(rule.weights * x ** (k + 1)) == pytest.approx(0.0, abs=1e-14)


def test_rule_for_includes_atoms():
    rule = rule_for(ATOM, 12)
    assert rule.atoms == ((2.0, 0.5),)
    assert 2.0 in rule.all_points()
    assert np.sum(rule.all_weights()) == pytest.approx(np.pi + 0.5, rel=1e-12)
    t = recurrence_for(ATOM, 4)
    one = PolyInBasis.basis_poly(t, 0)
    assert inner_mu(one, one) == pytest.approx(np.pi + 0.5, rel=1e-12)


def test_spec_json_round_trip():
    spec = BaseMeasureSpec("jacobi", alpha=0.5, beta=-0.25,
                           mass_points=((3.0, 0.1), (-2.0, 0.2)))
    assert BaseMeasureSpec.from_json_dict(spec.to_json_dict()) == spec


@pytest.mark.parametrize("bad", [
    dict(weight_kind="laguerre"),
    dict(weight_kind="jacobi", alpha=-1.0),
    dict(weight_kind="legendre", mass_points=((0.5, 1.0),)),
    dict(weight_kind="legendre", mass_points=((2.0, -1.0),)),
    # a string or a bool where a number belongs: a TypeError, or True read as 1
    dict(weight_kind="jacobi", alpha="0.5"),
    dict(weight_kind="jacobi", beta=True),
    dict(weight_kind="legendre", mass_points=(("3", 1.0),)),
    dict(weight_kind="legendre", mass_points=((3.0, "1"),)),
    # exponents of a fixed kind: its own weight ran while the echo showed these
    dict(weight_kind="legendre", alpha=0.5),
    dict(weight_kind="chebyshev_second_kind", beta=-0.5),
])
def test_spec_validation(bad):
    with pytest.raises(MeasureError):
        BaseMeasureSpec(**bad)
