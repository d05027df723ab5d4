"""Branch choices, closed-form transforms, and limit functions."""
import numpy as np
import pytest

from relasym import (CutDomainError, RationalModifier, cheb_transform,
                     factor_identity_check, kappa_tau_limit, limit_modified,
                     limit_sobolev, phi, sqrt_z2m1)
from relasym.joukowski import dist_to_cut

GRID = [2.0, -3.0, 1.5, 2j, -1.5j, 1.5 + 1.5j, -2.0 - 0.3j, 1.0 + 1e-6j]


def test_phi_frozen_values():
    assert phi(3.0) == pytest.approx(5.8284271247461901, rel=1e-15)
    assert phi(2.0) == pytest.approx(3.7320508075688773, rel=1e-15)
    assert phi(2j) == pytest.approx(4.2360679774997897j, rel=1e-15)
    assert sqrt_z2m1(2.0) == pytest.approx(1.7320508075688773, rel=1e-15)


@pytest.mark.parametrize("z", GRID)
def test_phi_inverse_identity(z):
    assert abs(phi(z) + 1.0 / phi(z) - 2.0 * z) < 1e-13


@pytest.mark.parametrize("z", GRID)
def test_phi_outside_unit_disk(z):
    assert abs(phi(z)) > 1.0


def test_phi_conjugate_symmetry():
    for z in (2j, 1.5 + 1.5j, -2.0 - 0.3j):
        assert phi(np.conj(z)) == pytest.approx(np.conj(phi(z)), rel=1e-15)


def test_phi_positive_on_right_ray():
    xs = np.linspace(1.001, 10.0, 50)
    vals = phi(xs)
    assert np.all(vals.imag == 0.0)
    assert np.all(vals.real > 1.0)


@pytest.mark.parametrize("z", [0.0, 0.5, -1.0, 1.0, 0.3 + 1e-14j])
def test_cut_rejection(z):
    with pytest.raises(CutDomainError):
        phi(z)


@pytest.mark.parametrize("z,d", [
    (2.0, 1.0),
    (2j, 2.0),
    (-3.0, 2.0),
    (0.5, 0.0),
    (0.5 + 0.3j, 0.3),
    (-1.5 - 2.0j, abs(-0.5 - 2.0j)),
    (-1.0 - 1.0j, 1.0),
])
def test_dist_to_cut(z, d):
    # exactly zero on the segment, elsewhere exact to rounding
    assert dist_to_cut(z) == pytest.approx(d, abs=1e-15 if d else 0.0)


def test_cheb_transform_frozen_and_negative_order():
    # phi(1.5)^-3 / sqrt(1.5^2 - 1), checked against 30-digit arithmetic
    assert cheb_transform(3, 1.5) == pytest.approx(0.049844718999242907, rel=1e-14)
    with pytest.raises(ValueError):
        cheb_transform(-1, 2.0)


def test_cheb_transform_decay_in_order():
    vals = [abs(cheb_transform(nu, 2.0)) for nu in range(8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_limit_modified_removable_point():
    r = RationalModifier(zeros=((3.0 + 0j, 1),))
    # z = c: the difference quotient turns into phi'(c)
    assert limit_modified(3.0, r) == pytest.approx(1.0303300858899106, rel=1e-13)


def test_limit_modified_trivial_is_half_power():
    r = RationalModifier(zeros=((2.0 + 0j, 2),))
    lm = limit_modified(1e8, r)
    # far away the zero factors tend to 1: the limit approaches (1/2)^A * ...
    assert abs(lm) == pytest.approx(1.0, rel=1e-6)


def test_limit_sobolev_frozen_and_zero_at_center():
    val = limit_sobolev(3.0, [(2.0, 1)])
    assert val == pytest.approx(0.37701369247310378, rel=1e-13)
    assert limit_sobolev(2.0, [(2.0, 1)]) == 0.0


def test_limit_sobolev_multiplicity_is_power():
    one = limit_sobolev(3.0, [(2.0, 1)])
    two = limit_sobolev(3.0, [(2.0, 2)])
    assert two == pytest.approx(one ** 2, rel=1e-12)


def test_kappa_tau_limit_frozen():
    r = RationalModifier(zeros=((2j, 1),))
    assert kappa_tau_limit(r) == pytest.approx(0.47213595499957939j, rel=1e-14)
    rr = RationalModifier(zeros=((2j, 1),), poles=((3j, 1),))
    # (-2)^0 * phi(3i) / phi(2i), both purely imaginary
    assert kappa_tau_limit(rr) == pytest.approx(
        phi(3j) / phi(2j), rel=1e-14)


@pytest.mark.parametrize("z", [2.5, -2.5, 1.8j, 2.0 + 1.0j])
@pytest.mark.parametrize("c", [2.0, 2j, -3.0])
def test_factor_identity(z, c):
    assert factor_identity_check(z, c) < 1e-12
