"""Branch choices, closed-form transforms, and limit functions."""
import numpy as np
import pytest
from _closed_forms import cheb_transform, factor_identity_check

from relasym import (BaseMeasureSpec, CutDomainError, ExperimentConfig, ModifiedError,
                     PadeError, RationalModifier, SobolevError, SobolevSpec, StieltjesFn,
                     VerifyConfigError, error_ratio, f_value, kappa_tau_limit,
                     limit_modified, limit_sobolev, phi, recurrence_for, sn_kernel, solve_Q,
                     sqrt_z2m1)
from relasym.joukowski import NEAR_ATOM, apart, dist_to_cut, point
from relasym.reader import ConfigError
from relasym.sobolev import SobolevTerm

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


# ints, numpy scalars, reals below -1, the imaginary axis, subnormal and
# huge parts (where cmath's sqrt is not numpy's), 1e-11 off the cut
SCALAR_GRID = ([2, -3, 7, np.int64(5), np.float64(2.5), np.float32(-1.5), np.complex128(2j),
                np.array(3.0 - 1j)]
               + [-1.0 - 10.0 ** k for k in range(-6, 7)]
               + [1j * 10.0 ** k for k in range(-11, 7)] + [-0.5j, 1.0 + 1.0j, -1.0 - 3.0j]
               + [2.0 + 1e-310j, 1.5 - 3e-300j, 1e200 + 1e-200j]
               + [x + 1e-11j for x in (-1.0, -0.5, 0.0, 0.7, 1.0)]
               + [x - 1e-11j for x in (-0.9, 0.2)] + [1 + 1e-11, -1 - 1e-11])


def _bits(c: complex) -> tuple:
    return c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("z", SCALAR_GRID, ids=repr)
def test_scalar_phi_is_numpys_0d_value_bit_for_bit(z):
    # a scalar's cut check runs in plain Python; its value stays numpy's 0-d one
    zz = np.asarray(z, dtype=complex)
    root = np.sqrt(zz - 1.0) * np.sqrt(zz + 1.0)
    assert type(phi(z)) is complex and type(sqrt_z2m1(z)) is complex
    assert _bits(phi(z)) == _bits(complex(zz + root))
    assert _bits(sqrt_z2m1(z)) == _bits(complex(root))


@pytest.mark.parametrize("z", [0.3 + 9e-13j, 1.0 + 5e-13, -1.0 - 9e-13, 1 + 5e-13j,
                               np.float64(0.5), np.array(-0.2 + 1e-13j), [3.0, 0.5 - 1e-13j]])
def test_cut_check_holds_for_scalars_and_arrays(z):
    for f in (phi, sqrt_z2m1):
        with pytest.raises(CutDomainError):
            f(z)


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


def test_scalar_dist_to_cut_is_the_array_value_bit_for_bit():
    # one number takes plain Python; each must read what the array path reads
    rng = np.random.default_rng(5)
    zs = np.concatenate([(rng.normal(size=2000) + 1j * rng.normal(size=2000))
                         * 10.0 ** rng.uniform(-14, 14, 2000),
                         rng.uniform(-2, 2, 2000) + 1e-11j * rng.normal(size=2000)])
    for z, d in zip(zs, dist_to_cut(zs)):
        assert type(dist_to_cut(complex(z))) is float and dist_to_cut(complex(z)) == d
        assert dist_to_cut(z) == d and dist_to_cut(z.real) == dist_to_cut(np.array(z.real))


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


# every point a target or a probe names, placed at v on the measure m, with
# the error its module raises for a bad value and for a value on an atom (None:
# the point is not a target point)
LEG = BaseMeasureSpec("legendre")
LEG_ATOM = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),))
POINTS = {
    "modifier_zero": (lambda v, m: solve_Q(8, RationalModifier(zeros=((v, 1),)),
                                           recurrence_for(m, 12)),
                      ModifiedError, ConfigError),
    "modifier_pole": (lambda v, m: solve_Q(8, RationalModifier(poles=((v, 1),)),
                                           recurrence_for(m, 12)),
                      ModifiedError, ConfigError),
    "sobolev_term": (lambda v, m: sn_kernel(8, SobolevSpec((SobolevTerm(v, np.eye(1)),)),
                                            recurrence_for(m, 12)),
                     SobolevError, ConfigError),
    "sobolev_diagonal": (lambda v, m: sn_kernel(8, SobolevSpec.diagonal([(v, [1.0])]),
                                                recurrence_for(m, 12)),
                         SobolevError, ConfigError),
    "pade_pole": (lambda v, m: StieltjesFn(m, ((v, (1.0,)),)), PadeError, PadeError),
    "probe": (lambda v, m: ExperimentConfig(measure=m, probe_points=(v,)),
              VerifyConfigError, None),
    "f_value": (lambda v, m: f_value(StieltjesFn(m), v, recurrence_for(m, 4)),
                PadeError, None),
    "error_ratio": (lambda v, m: error_ratio(4, v, StieltjesFn(m), recurrence_for(m, 8)),
                    PadeError, None),
}
BAD_POINTS = {"string": "3", "bool": True, "nan": float("nan"), "inf": float("inf"),
              "on_cut": 0.5}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_every_point_takes_a_good_value(name):
    build, _, _ = POINTS[name]
    build(3.0, LEG)
    build(np.complex128(3.0), LEG)


@pytest.mark.parametrize("bad", sorted(BAD_POINTS))
@pytest.mark.parametrize("name", sorted(POINTS))
def test_every_point_refuses_a_bad_value_with_its_module_error(name, bad):
    # complex() reads "3" as 3 and True as 1: each is refused, as the
    # non-finite and on-cut values are, never accepted or a TypeError
    build, error, _ = POINTS[name]
    with pytest.raises(error):
        build(BAD_POINTS[bad], LEG)


@pytest.mark.parametrize("offset", [0.0, 1e-11], ids=["on", "near"])
@pytest.mark.parametrize("name", sorted(n for n, row in POINTS.items() if row[2]))
def test_every_target_point_keeps_one_distance_from_an_atom(name, offset):
    build, _, error = POINTS[name]
    with pytest.raises(error, match="with a mass point"):
        build(2.0 + offset, LEG_ATOM)
    build(2.0 + 2e-10, LEG_ATOM)


def test_point_and_apart():
    assert point(3, "p", ValueError) == 3.0 + 0.0j
    with pytest.raises(ValueError, match=r"^p \(0.5\+1e-09j\) lies on or near"):
        point(0.5 + 1e-9j, "p", ValueError, margin=1e-8)
    apart([1.5, 2.5], [3.5], "{} near {}", ValueError)
    apart([1.5, 2.5], None, "{} near {}", ValueError)
    with pytest.raises(ValueError, match=r"^2.5 near 2.5$"):
        apart([1.5, 2.5], [2.5], "{} near {}", ValueError)
    with pytest.raises(ValueError, match="^same$"):
        apart([1.5, 2.5, 1.5 + 1e-13], None, "same", ValueError)
    apart([1.5, 1.5 + 2e-12], None, "same", ValueError)
    with pytest.raises(ValueError):
        apart([1.5, 1.5 + 2e-12], None, "same", ValueError, tol=NEAR_ATOM)
