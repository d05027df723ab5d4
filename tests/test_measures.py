"""Recurrence tables, quadrature rules, and measure validation."""
import numpy as np
import pytest

from relasym import BaseMeasureSpec, MeasureError, RecurrenceTable, inner_mu, recurrence_for
from relasym.measures import gauss_rule, rule_for
from relasym.polybasis import PolyInBasis

CHEB = BaseMeasureSpec("chebyshev_first_kind")
LEG = BaseMeasureSpec("legendre")
ATOM = BaseMeasureSpec("chebyshev_first_kind", mass_points=((2.0, 0.5),))


def test_chebyshev_table_closed_form():
    t = recurrence_for(CHEB, 12)
    assert np.allclose(t.b, 0.0, atol=1e-15)
    assert t.a[1] == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert np.allclose(t.a[2:], 0.5, atol=1e-15)
    assert t.tau[0] == pytest.approx(0.56418958354775629, rel=1e-14)


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
    assert recurrence_for(ATOM, 4).total_mass == pytest.approx(np.pi + 0.5, rel=1e-12)


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
    from relasym.measures import atom_basis_values
    from relasym.polybasis import ORTHONORMAL, basis_jets
    n = 80
    t = recurrence_for(spec, n)
    alpha, beta = spec.jacobi_exponents()
    nodes, weights = roots_jacobi(n + 10, alpha, beta)
    V = basis_jets(t, n, nodes, 0, ORTHONORMAL)[0]
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


def test_recurrence_json_round_trip():
    t = recurrence_for(ATOM, 8)
    back = RecurrenceTable.from_json(t.to_json(), spec=ATOM)
    assert np.allclose(back.a, t.a, atol=0.0)
    assert np.allclose(back.b, t.b, atol=0.0)
    assert np.allclose(back.tau, t.tau, atol=0.0)


def test_spec_json_round_trip():
    spec = BaseMeasureSpec("jacobi", alpha=0.5, beta=-0.25,
                           mass_points=((3.0, 0.1), (-2.0, 0.2)))
    assert BaseMeasureSpec.from_json_dict(spec.to_json_dict()) == spec


@pytest.mark.parametrize("bad", [
    dict(weight_kind="laguerre"),
    dict(weight_kind="jacobi", alpha=-1.0),
    dict(weight_kind="legendre", mass_points=((0.5, 1.0),)),
    dict(weight_kind="legendre", mass_points=((2.0, -1.0),)),
])
def test_spec_validation(bad):
    with pytest.raises(MeasureError):
        BaseMeasureSpec(**bad)


def test_pure_drops_atoms():
    assert ATOM.pure() == CHEB
    assert CHEB.pure() is CHEB
