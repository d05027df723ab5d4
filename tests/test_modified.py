"""Orthogonal polynomials for rational complex modifications r d(mu)."""
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _basis import xmul
from _mp_oracles import (_r_value, compare_monomial, legendre_pole_moment, modified_moments,
                         oracle_modified_monics)
from _quadrature import inner_rho, values_on_rule

from relasym import (BaseMeasureSpec, ModifiedError, RationalModifier, limit_modified,
                     modified_table, recurrence_for, solve_Q, weak_limit_probe)
from relasym.measures import rule_for
from relasym.modified import solve_Q_many
from relasym.polybasis import PolyInBasis, basis_jets

LEG = BaseMeasureSpec("legendre")
TAB = recurrence_for(LEG, 70)

R_LIN = RationalModifier(zeros=((3.0 + 0j, 1),))
R_CPX = RationalModifier(zeros=((2j, 1),))
R_RAT = RationalModifier(zeros=((2j, 1),), poles=((3j, 1),))
R_DBL = RationalModifier(zeros=((2j, 1),), poles=((1.1, 2),))
ATOMS2 = BaseMeasureSpec("legendre", mass_points=((2.0, 0.5), (-1.5, 0.3)))
R_ATOMS2 = RationalModifier(zeros=((3.0 + 0j, 1),), poles=((-1.5 + 0.5j, 2),))


def test_modifier_counts_and_values():
    assert R_RAT.A == 1 and R_RAT.B == 1
    assert RationalModifier().A == RationalModifier().B == 0
    x = np.array([0.0, 1.5])
    got = R_RAT.values(x)
    assert np.allclose(got, (x - 2j) / (x - 3j), rtol=1e-15)


@pytest.mark.parametrize("bad", [
    dict(zeros=((0.5, 1),)),
    dict(zeros=((2j, 0),)),
    dict(zeros=((2j, 1),), poles=((2j, 1),)),
    # int() would truncate these or read True as 1
    dict(zeros=((3.0, 1.9),)),
    dict(zeros=((3.0, True),)),
    # a table of r dmu through A + B degrees is more than numpy can allocate
    dict(zeros=((3.0, 10 ** 300),)),
    dict(poles=((3.0, 2 ** 61),), zeros=((-3.0, 2 ** 61),)),
])
def test_modifier_validation(bad):
    with pytest.raises(ModifiedError):
        RationalModifier(**bad)


def test_trivial_modifier_returns_base():
    table = modified_table(RationalModifier(), TAB, 7)
    base = PolyInBasis.basis_poly(TAB, 7)
    assert np.allclose(table.op(7).coeffs, base.coeffs, atol=0.0)
    assert table.asq[7] == pytest.approx(TAB.a[7] ** 2)


def _orthogonality_residual(q, r, tab):
    n = q.degree
    rule = rule_for(tab.spec, n + 60)
    pts, w = rule.all_points(), rule.all_weights()
    V = basis_jets(tab, n - 1, pts)[0] * tab.tau[:n, None]     # l_m = tau_m L_m
    terms = V * (w * r.values(pts) * q.values(pts))
    return float(np.max(np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)))


@pytest.mark.parametrize("r", [R_LIN, R_CPX, R_RAT], ids=["x-3", "x-2i", "rational"])
def test_bilinear_orthogonality(r):
    assert _orthogonality_residual(solve_Q(24, r, TAB), r, TAB) < 1e-10


@pytest.mark.parametrize("n", [320, 500])
@pytest.mark.parametrize("r", [R_RAT, R_DBL], ids=["pole_3i", "double_pole_1.1"])
def test_deep_degrees_solve_cleanly(r, n):
    # no degree ceiling from scaling: the pole rows stay in ratio form
    tab = recurrence_for(LEG, n + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q = solve_Q(n, r, tab)
    assert _orthogonality_residual(q, r, tab) < 1e-9


@pytest.mark.parametrize("n, label", [(600, r"kappa_600\^-2 underflows"),
                                      (1000, r"kappa_1000\^-2 underflows")],
                         ids=["600", "1000"])
def test_refusal_past_double_range_names_the_overflow(n, label):
    # Q_n reads no normalization, so it builds cleanly past the double
    # range; only kappa_n^-2 = mass' prod a'_k^2 leaves it, and reading it
    # refuses with a typed ModifiedError that says so
    tab = recurrence_for(LEG, n + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = modified_table(R_RAT, tab, n)
        assert _orthogonality_residual(table.op(n), R_RAT, tab) < 1e-9
        with pytest.raises(ModifiedError, match=label):
            table.kappa_sq_inv(n)


@pytest.mark.parametrize("n, kind", [(600, "underflow"), (1000, "underflow")],
                         ids=["600", "1000"])
def test_refusals_carry_their_kind(n, kind):
    # the ladder labels a refused row by this kind, not by its message
    with pytest.raises(ModifiedError) as info:
        modified_table(R_RAT, recurrence_for(LEG, n + 5), n).kappa_sq_inv(n)
    assert info.value.kind == kind


def _pair_integrals(table, j: int, hi: int) -> np.ndarray:
    """integral L_m L_j r dmu for m = j..hi, r = 1/(x - d)^nu, from the pole
    steps' factors: each L_k goes over to the last step's basis through
    P_k = Q_k - l_k P_{k-1}, and the Q_i are orthogonal with norms
    kappa_i^-2 read off the table."""
    def expand(k):
        e = np.zeros(k + 1, dtype=complex)
        e[k] = 1.0
        for _, l in table.poles:
            for m in range(k, 0, -1):
                e[m - 1] -= l[m] * e[m]
        return e

    norms = np.array([table.kappa_sq_inv(i) for i in range(j + 1)])
    ej = expand(j)
    return np.array([np.sum(expand(m)[: j + 1] * ej * norms) for m in range(j, hi + 1)])


@pytest.mark.parametrize("j", [10, 20])
@pytest.mark.parametrize("d", [3j, 1.1], ids=["3i", "1.1"])
def test_pole_moments_against_oracle(d, j):
    # the Geronimus steps' factors and the modified table reproduce the
    # pole moments integral L_m L_j (x - d)^-nu dx of independent quadrature
    for nu in (1, 2):
        table = modified_table(RationalModifier(poles=((d, nu),)), TAB, j + 3)
        got = _pair_integrals(table, j, j + 3)
        want = np.array([complex(legendre_pole_moment(m, j, d, nu))
                         for m in range(j, j + 4)])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-11


@pytest.mark.parametrize("r", [R_DBL, RationalModifier(poles=((-1.5 + 0.5j, 2),))],
                         ids=["zero_double_pole", "double_pole"])
def test_beta_matches_quadrature(r):
    n = 20
    table = modified_table(r, TAB, n)
    q = table.op(n)
    rule = rule_for(LEG, 400)
    want = inner_rho(xmul(q), q, r, rule) / inner_rho(q, q, r, rule)
    assert abs(table.b[n] - want) < 1e-12


@pytest.mark.parametrize("spec, r", [
    (LEG, R_LIN), (LEG, R_CPX), (LEG, R_RAT),
    (BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),)),
     RationalModifier(zeros=((2.5, 2),), poles=((-3 + 0.5j, 2), (1.2j, 1)))),
], ids=["x-3", "x-2i", "rational", "atom_mixed"])
def test_table_through_900_converges(spec, r):
    # no scaling ceiling in the table: its entries approach the free pair
    # (1/4, 0) like 1/n^2 all the way, below the base tau overflow at 1025
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = modified_table(r, recurrence_for(spec, 10), 900)
    assert table.nmax == 900
    assert np.all(np.isfinite(table.b)) and np.all(np.isfinite(table.asq))
    assert abs(table.asq[100] - 0.25) > 50 * abs(table.asq[900] - 0.25)
    assert abs(table.b[100]) > 50 * abs(table.b[900])


def test_monic_and_exact_degree():
    q = solve_Q(15, R_RAT, TAB)
    assert q.degree == 15
    assert q.coeffs[15] == pytest.approx(1.0, rel=1e-12)


def test_against_dense_oracle():
    # no degree floor: Q_1 and Q_2 exist for every modifier, and the table
    # reads them as it reads Q_10
    for spec, r in ((LEG, R_LIN), (LEG, R_CPX), (LEG, R_RAT), (LEG, R_DBL),
                    (ATOMS2, R_ATOMS2)):
        tab = recurrence_for(spec, 15)
        want = oracle_modified_monics(spec, r, (1, 2, 10))
        for n, oracle in want.items():
            gap = compare_monomial(solve_Q(n, r, tab), oracle, 0)
            assert gap < 1e-10, (r, n, gap)


def test_zero_on_a_base_zero_refuses_that_degree_only():
    # c = b_0 is the zero of L_1 outside [-1, 1] for a heavy atom: the pivot
    # u_0 = b_0 - c vanishes, so Q_1 of (x - c) dmu is not unique and degree
    # 1 refuses; the next pivot is exact again and later degrees hold
    spec = BaseMeasureSpec("legendre", mass_points=((3.0, 10.0),))
    tab = recurrence_for(spec, 15)
    r = RationalModifier(zeros=((float(tab.b[0]), 1),))
    assert abs(tab.b[0]) > 1.0
    with pytest.raises(ModifiedError, match="breaks down at n=1") as info:
        solve_Q(1, r, tab)
    assert info.value.kind == "degree_collapse"
    for n, oracle in oracle_modified_monics(spec, r, (2, 3, 10)).items():
        assert compare_monomial(solve_Q(n, r, tab), oracle, 0) < 1e-10, n
    # (x - c)^2 dmu is positive, so nothing breaks down: one factorization
    # for all of S never meets the degenerate (x - c) dmu on the way
    r2 = RationalModifier(zeros=((float(tab.b[0]), 2),))
    for n, oracle in oracle_modified_monics(spec, r2, (1, 2, 3, 10)).items():
        assert compare_monomial(solve_Q(n, r2, tab), oracle, 0) < 1e-10, n


def test_zero_pivot_reads_q_but_not_beta():
    # c = b_0 on a heavy atom: integral r dmu = 0, so Q_0 = 1 holds but
    # beta_0 divides by zero, and kappa_0^-2 refuses
    spec = BaseMeasureSpec("legendre", mass_points=((3.0, 10.0),))
    tab = recurrence_for(spec, 15)
    table = modified_table(RationalModifier(zeros=((float(tab.b[0]), 1),)), tab, 0)
    assert table.op(0).coeffs.tolist() == [1.0]
    assert not np.isfinite(table.b[0])
    with pytest.raises(ModifiedError) as info:
        table.kappa_sq_inv(0)
    assert info.value.kind == "degree_collapse"


def _outside_zero(tab, k: int) -> float:
    """The zero of L_k that an atom right of [-1, 1] pulls out: the top
    eigenvalue of the orthonormal Jacobi matrix J_k."""
    off = tab.a[1:k]
    return float(np.linalg.eigvalsh(np.diag(tab.b[:k]) + np.diag(off, 1) + np.diag(off, -1))[-1])


def test_zero_on_an_outside_zero_refuses_the_degrees_it_spoils():
    # c on L_8's outside zero, 2.1e-8 left of the atom: u_7 = -L_8(c)/L_7(c)
    # is zero to working precision, so Q_8 is not resolved (it came out 0.64
    # off the oracle when only an exact zero refused) and refuses; Q_7 reads
    # no pivot below it that is small, and the degrees past Q_8 read exact
    # pivots again
    spec = BaseMeasureSpec("legendre", mass_points=((2.2, 0.5),))
    tab = recurrence_for(spec, 40)
    r = RationalModifier(zeros=((_outside_zero(tab, 8), 1),))
    with pytest.raises(ModifiedError, match="n=8: the zero step's pivot at k=7") as info:
        solve_Q(8, r, tab)
    assert info.value.kind == "degree_collapse"
    qs = solve_Q_many((6, 7, 8, 10, 20), r, tab)
    assert isinstance(qs[8], ModifiedError)
    for n, oracle in oracle_modified_monics(spec, r, (6, 7, 10, 20)).items():
        assert compare_monomial(qs[n], oracle, 0) < 1e-9, n


def test_double_zero_on_an_outside_zero_resolves_every_degree():
    # S = (x - c)^2 with c on L_3's outside zero: S dmu is positive and its
    # pivots are exact, so every Q_n is resolved; a division of S Q_1 and
    # S Q_2 by S went through J_3 - cI and J_4 - cI, singular and nearly so
    spec = BaseMeasureSpec("legendre", mass_points=((3.0, 10.0),))
    tab = recurrence_for(spec, 30)
    r = RationalModifier(zeros=((_outside_zero(tab, 3), 2),))
    qs = solve_Q_many((1, 2, 10, 20), r, tab)
    for n, oracle in oracle_modified_monics(spec, r, (1, 2, 10, 20)).items():
        assert compare_monomial(qs[n], oracle, 0) < 1e-10, n


@pytest.mark.parametrize("spec", [LEG, BaseMeasureSpec("chebyshev_first_kind"),
                                  BaseMeasureSpec("jacobi", 0.3, -0.4)],
                         ids=["legendre", "chebyshev", "jacobi"])
def test_oracle_moments_match_quadrature(spec):
    # the oracle's closed-form moments (partial fractions, beta sums and
    # 2F1) against tanh-sinh quadrature on x = cos t, which removes the
    # endpoint singularities: simple and double poles, real and complex
    r = RationalModifier(zeros=((2j, 1),), poles=((1.1, 2), (-1.5 + 0.5j, 1)))
    with mp.workdps(40):
        a, b = (mp.mpf(v) for v in spec.jacobi_exponents())
        got = modified_moments(spec, r, 11)
        for k in (0, 3, 10):
            want = 2 ** (a + b + 1) * mp.quad(
                lambda t: (mp.cos(t) ** k * _r_value(r, mp.cos(t))
                           * mp.sin(t / 2) ** (2 * a + 1) * mp.cos(t / 2) ** (2 * b + 1)),
                [0, mp.pi])
            assert abs(got[k] - want) < 1e-35 * abs(want), k


def test_kappa_matches_quadrature():
    n = 12
    table = modified_table(R_CPX, TAB, n)
    q = table.op(n)
    rule = rule_for(LEG, 80)
    direct = inner_rho(q, q, R_CPX, rule)
    assert table.kappa_sq_inv(n) == pytest.approx(direct, rel=1e-11)


def test_recurrence_extraction_consistency():
    # the table's alpha_20^2 and beta_20 carry Q_19 and Q_20, each built on
    # its own, to Q_21
    q19, q20, q21 = (solve_Q(n, R_CPX, TAB) for n in (19, 20, 21))
    table = modified_table(R_CPX, TAB, 20)
    alpha_sq, beta = table.asq[20], table.b[20]
    xq = xmul(q20).coeffs
    resid = q21.coeffs - xq
    resid[:21] += beta * q20.coeffs
    resid[:20] += alpha_sq * q19.coeffs
    scale = max(np.max(np.abs(q21.coeffs)), np.max(np.abs(xq)))
    assert np.max(np.abs(resid)) / scale < 1e-11
    # complex modification: coefficients approach the free pair (1/4, 0)
    assert abs(alpha_sq - 0.25) < 5e-3
    assert abs(beta) < 5e-3


def test_ratio_approaches_limit():
    n, z = 60, 3.0 + 0.0j
    q = solve_Q(n, R_RAT, TAB)
    base = PolyInBasis.basis_poly(TAB, n)
    ratio = q.values(z) / base.values(z)
    lim = limit_modified(z, R_RAT)
    assert abs(ratio - lim) / abs(lim) < 1e-3


def test_weak_limit_probe_trivial_f():
    one = PolyInBasis(np.ones(1, dtype=complex), TAB)
    lhs, rhs = weak_limit_probe(one, 0, 40, R_CPX, TAB)
    assert rhs == pytest.approx(1.0, rel=1e-13)      # (1/pi) integral of 1
    assert abs(lhs - rhs) < 1e-3


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("fdeg", [0, 1, 2, 6])
def test_weak_limit_probe_on_atoms_with_double_pole(fdeg, nu):
    # the exact lhs against Gauss quadrature with stable atom columns, on a
    # double complex pole half a unit from the support and an atom below it
    n = 60
    tab = recurrence_for(ATOMS2, 70)
    coeffs = np.array([0.3, -0.2j, 1.0, 0.5, 0.1, -0.7, 1.0])[-fdeg - 1:]
    f = PolyInBasis(coeffs, tab)
    lhs, _ = weak_limit_probe(f, nu, n, R_ATOMS2, tab)
    tables = [modified_table(R_ATOMS2, tab, k) for k in range(n, n + nu + 1)]
    norms = [t.kappa_sq_inv(k) for k, t in enumerate(tables, n)]
    rule = rule_for(ATOMS2, n + nu + R_ATOMS2.A + R_ATOMS2.B + 60 + fdeg)
    pts = rule.all_points()
    s = np.sum(rule.all_weights() * values_on_rule(f, rule)
               * values_on_rule(tables[0].op(n), rule)
               * values_on_rule(tables[-1].op(n + nu), rule) * R_ATOMS2.values(pts))
    # kappa_n kappa_{n+nu} = kappa_n^2 / (alpha_{n+1}..alpha_{n+nu}), each
    # alpha the principal root of a kappa_sq_inv ratio
    chain = np.prod([np.sqrt(hi / lo) for lo, hi in zip(norms[:-1], norms[1:])])
    want = s / norms[0] / chain
    assert abs(lhs - want) < 1e-12


def test_modifier_json_round_trip():
    back = RationalModifier.from_json_dict(R_RAT.to_json_dict())
    assert back == R_RAT
