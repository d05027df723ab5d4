"""Discrete Sobolev inner products: regularity, both construction paths,
collapse-aware residuals, and normalization sequences."""
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _basis import sobolev_inner
from _mp_oracles import (_residuals, compare_monomial, lambda_dps, lambda_expansion,
                         lambda_monic, oracle_sobolev_monic, orthogonality_residuals_extended)

from relasym import (BaseMeasureSpec, PolyInBasis, SobolevError, SobolevSpec,
                     StieltjesFn, digit_loss, gamma_sequence, phi, recurrence_for,
                     regularity, sn_kernel, sn_lambda, to_sobolev_spec)
from relasym.sobolev import SobolevTerm

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


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_regularity_does_not_depend_on_the_scale_of_gamma(scale):
    # the raw row norms of a 1e300 gamma overflowed with a RuntimeWarning,
    # and a nonzero 1e-300 gamma read as not regular
    def regular(gamma):
        return regularity(SobolevSpec((SobolevTerm(2.0, scale * np.array(gamma)),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert regular([[1.0]]).overall_regular
        assert regular([[1.0, 0.5], [0.25, 1.0]]).overall_regular
        assert not regular([[1.0, 1.0], [1.0, 1.0]]).overall_regular


def test_spec_validation():
    with pytest.raises(SobolevError):
        SobolevSpec.diagonal([(0.5, [1.0])])           # on the cut
    with pytest.raises(SobolevError):
        SobolevSpec.diagonal([(2.0, [1.0, 0.0])])      # zero top row
    with pytest.raises(SobolevError):
        SobolevSpec.diagonal([(2.0, [1.0]), (2.0, [1.0])])
    with pytest.raises(SobolevError):
        SobolevTerm(c=2.0, gamma=np.ones(3))           # not a matrix


@pytest.mark.parametrize("entry", ["1", True, None])
def test_coupling_weights_must_be_numbers(entry):
    # np.asarray(dtype=complex) read "1" and True as 1, and None as nan
    with pytest.raises(SobolevError, match="must be a number"):
        SobolevTerm(3.0, [[1.0, 0.0], [0.0, entry]])
    with pytest.raises(SobolevError, match="must be a number"):
        SobolevSpec.diagonal([(2.0, [1.0, entry])])


def test_diagonal_masses_take_any_number():
    for entry in (1, 0.5, np.complex128(1)):
        gamma = SobolevSpec.diagonal([(2.0, [entry, 1.0])]).terms[0].gamma
        assert gamma.dtype == complex
        assert gamma.tolist() == [[complex(entry), 0j], [0j, 1 + 0j]]


@pytest.mark.parametrize("masses", [5.0, "11", [[1.0, 2.0]], []],
                         ids=["scalar", "string", "nested", "empty"])
def test_diagonal_masses_must_be_a_flat_sequence(masses):
    # np.diag read a scalar or a string as a bad shape (bare ValueError), a
    # nested list as a matrix, whose diagonal it took, and an empty list as a
    # 0 x 0 gamma, whose top row SobolevTerm indexed
    with pytest.raises(SobolevError, match="flat sequence"):
        SobolevSpec.diagonal([(2.0, masses)])


def test_coupling_weights_take_numpy_numbers():
    t = SobolevTerm(3.0, [[np.complex128(1 + 2j)]])
    assert t.gamma.dtype == complex and t.gamma.tolist() == [[1 + 2j]]


def test_inner_product_is_bilinear_symmetric():
    h = PolyInBasis.basis_poly(TAB, 3)
    g = PolyInBasis.basis_poly(TAB, 5)
    lhs = sobolev_inner(h, g, PAIR)
    rhs = sobolev_inner(g, h, PAIR)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_kernel_path_orthogonality_small_n():
    op = sn_kernel(9, PAIR, TAB)
    for k in range(9):
        basis_k = PolyInBasis.basis_poly(TAB, k)
        ip = sobolev_inner(basis_k, op.rep, PAIR)
        scale = abs(sobolev_inner(basis_k, basis_k, PAIR))
        assert abs(ip) < 1e-11 * max(1.0, scale)


COUPLED = SobolevSpec((SobolevTerm(c=2j, gamma=np.array([[1.0, 0.5], [0.5, 1.0]])),))
TWO_POLE = to_sobolev_spec(StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0 + 0j, (2.0,)))))
GONCHAR = to_sobolev_spec(StieltjesFn(LEG, ((2j, (0.0, 1.0)),)))
SECOND_ONLY = SobolevSpec.diagonal([(-2.5, [0.0, 0.0, 1.0])])
MIXED = SobolevSpec((SobolevTerm(c=2.0, gamma=np.diag([0.0, 1.0])),
                     SobolevTerm(c=-3.0, gamma=np.array([[1.0]]))))
KERNEL_SPECS = {"pair": PAIR, "coupled_2i": COUPLED, "pade_gonchar": GONCHAR,
                "two_pole": TWO_POLE, "second_only": SECOND_ONLY, "mixed": MIXED}


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_kernel_vs_lambda_paths(name):
    # the lambda expansion is the independent reference: both lanes of the
    # package run the kernel identity
    spec = KERNEL_SPECS[name]
    for n in (9, 21, 33, 40):
        k = sn_kernel(n, spec, TAB).rep
        assert np.max(np.abs(k.coeffs - lambda_monic(n, spec, TAB))) < 1e-9


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_both_lanes_report_the_same_cond(name):
    # the mpmath lane gates on the double lane's equilibrated system
    spec = KERNEL_SPECS[name]
    table = recurrence_for(LEG, 201)
    for n in (12, 40, 200):
        want = sn_kernel(n, spec, table).cond
        assert sn_lambda(n, spec, table).cond == pytest.approx(want, rel=1e-6)


def test_two_pole_kernel_reach():
    # the double lane keeps the two-pole Pade spec under the cond gate
    table = recurrence_for(LEG, 410)
    for n in (50, 100, 200, 300, 400):
        assert sn_kernel(n, TWO_POLE, table).cond < 1e10


# derivative at 320: the products of unscaled jets at c = 2 pass the
# double range; two_pole_mp runs the kernel identity in mpmath, also at
# 500, where sn_kernel refuses because the jets at 2i overflow
@pytest.mark.parametrize("name, n", [("two_pole", 80), ("two_pole", 240),
                                     ("derivative", 320), ("two_pole_mp", 240),
                                     ("two_pole_mp", 500)])
def test_kernel_deep_degrees_match_exact_lane(name, n):
    spec, build = {"two_pole": (TWO_POLE, sn_kernel), "derivative": (DERIV, sn_kernel),
                   "two_pole_mp": (TWO_POLE, sn_lambda)}[name]
    k = build(n, spec, TAB).rep
    assert np.max(np.abs(k.coeffs - lambda_monic(n, spec, TAB))) < 1e-8


def test_kernel_refusal_past_double_range_names_the_overflow():
    deep = recurrence_for(LEG, 605)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        huge = recurrence_for(LEG, 1031)              # tau overflows from ~1025
    near = SobolevSpec.diagonal([(1.2, [1.0, 1.0])])  # jets fit, 1/tau_n^2 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # norm_sq is subnormal at 520 and 540 and reads 0 at 600
        for n, spec, table in ((500, TWO_POLE, deep), (1030, DERIV, huge),
                               (520, near, deep), (540, near, deep),
                               (600, near, deep)):
            with pytest.raises(SobolevError, match="flows? the double range"):
                sn_kernel(n, spec, table)


def test_kernel_refusals_carry_their_kind():
    # overflow at the jet and tau sites, underflow where 1/tau_n^2 leaves
    # the range, pre_asymptotic for the degree floor
    deep = recurrence_for(LEG, 605)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        huge = recurrence_for(LEG, 1031)
    near = SobolevSpec.diagonal([(1.2, [1.0, 1.0])])
    for n, spec, table, kind in ((500, TWO_POLE, deep, "overflow"),
                                 (1030, DERIV, huge, "overflow"),
                                 (520, near, deep, "underflow"),
                                 (600, near, deep, "underflow"),
                                 (1, PAIR, TAB, "pre_asymptotic")):
        with pytest.raises(SobolevError) as info:
            sn_kernel(n, spec, table)
        assert info.value.kind == kind, (n, str(info.value))


@pytest.mark.parametrize("build", [sn_kernel, sn_lambda])
def test_both_lanes_refuse_an_ill_conditioned_kernel(build):
    # unit masses 1e-5 apart make nearly equal kernel rows: cond ~ 1.49e10
    # passes COND_LIMIT; 1e-3 apart they build at cond ~ 1.4e8
    near = SobolevSpec.diagonal([(2.0, [1.0]), (2.0 + 1e-5, [1.0])])
    with pytest.raises(SobolevError, match=r"ill-conditioned \(cond ~ 1.49e\+10\)") as exc:
        build(10, near, TAB)
    assert exc.value.kind == "pre_asymptotic"
    apart = SobolevSpec.diagonal([(2.0, [1.0]), (2.0 + 1e-3, [1.0])])
    assert 1e8 < build(10, apart, TAB).cond < 1e10


def test_lambda_refuses_results_past_double_range():
    # the mp solve runs past the double range, its cast results do not: at
    # 600 norm_sq ~ 1/tau_n^2 is below the smallest normal double, at 1030
    # gamma_n = norm_sq^(-1/2) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, spec, kind in ((600, PAIR, "underflow"), (1030, DERIV, "overflow")):
            with pytest.raises(SobolevError, match="flows the double range") as info:
                sn_lambda(n, spec, TAB)
            assert info.value.kind == kind, (n, str(info.value))


def test_lambda_precision_covers_zero_rows():
    # the digit rule covers a zero row of gamma: the expansion at three
    # times its own digits agrees
    got = sn_lambda(80, DERIV, TAB).rep.coeffs
    ref = lambda_expansion(80, DERIV, TAB, 3 * lambda_dps(80, DERIV))["coeffs"]
    assert np.max(np.abs(got - ref)) < 1e-12
    for n in (200, 240):
        got = sn_lambda(n, SECOND_ONLY, TAB).rep.coeffs
        assert np.max(np.abs(got - sn_kernel(n, SECOND_ONLY, TAB).rep.coeffs)) < 1e-12


def test_against_dense_oracle():
    got = sn_kernel(9, PAIR, TAB).rep
    assert compare_monomial(got, oracle_sobolev_monic(LEG, PAIR, 9), 0) < 1e-10
    # the smallest degrees: n = 3 is past the highest coupled derivative
    for spec in (PAIR, COUPLED, TWO_POLE):
        for n in (3, 2 * spec.A + 1, 2 * spec.A + 3):
            got = sn_lambda(n, spec, TAB).rep
            gap = compare_monomial(got, oracle_sobolev_monic(LEG, spec, n), 0)
            assert gap < 1e-10, f"sn_lambda vs oracle {gap:.2e} at n={n}"


def test_digit_loss_scaling():
    # n * log10 |phi(2)| per coupling point
    assert digit_loss(10, PAIR) == pytest.approx(10 * np.log10(phi(2.0).real), rel=1e-12)
    assert digit_loss(40, PAIR) == pytest.approx(4 * digit_loss(10, PAIR), rel=1e-12)


def test_extended_lane_engages_and_matches():
    # by n=60 the collapsed jets cancel ~34 digits: the mpmath lane works at
    # enough digits to absorb that and still matches the double lane
    n = 60
    k = sn_kernel(n, PAIR, TAB).rep
    l = sn_lambda(n, PAIR, TAB).rep
    assert np.max(np.abs(k.coeffs - l.coeffs)) < 1e-9


def test_extended_residuals_at_collapsed_scale():
    res = orthogonality_residuals_extended(60, DERIV, TAB)
    assert np.max(res) < 1e-20
    # k = 0 is a lone moment term whose exact value is 0
    res = orthogonality_residuals_extended(20, SECOND_ONLY, TAB)
    assert np.max(res) < 1e-20


@pytest.mark.parametrize("spec", [DERIV, PAIR], ids=["deriv", "pair"])
def test_extended_residuals_fail_an_underresolved_sn(spec):
    # 65 digits do not resolve the expansion's collapse at c = 2, so S_n is
    # wrong by O(1); the check, run at those digits, must see it
    res = _residuals(spec, lambda_expansion(60, spec, TAB, 65), 65)
    assert np.max(res) > 0.5


def test_degenerate_degree_floor():
    # both lanes need n past the highest coupled derivative
    for build in (sn_kernel, sn_lambda):
        with pytest.raises(SobolevError, match="need n > 1"):
            build(1, PAIR, TAB)


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
