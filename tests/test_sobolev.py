"""Discrete Sobolev inner products: coupling ranks, both construction paths,
collapse-aware residuals, and normalization sequences."""
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relasym.measures

sys.path.insert(0, str(Path(__file__).parent))
from _basis import sobolev_inner
from _mp_oracles import (_residuals, compare_monomial, lambda_dps, lambda_expansion,
                         lambda_monic, oracle_sobolev_monic, orthogonality_residuals_extended)

from relasym import (BaseMeasureSpec, PolyInBasis, SobolevError, SobolevSpec,
                     StieltjesFn, digit_loss, gamma_sequence, limit_sobolev, monotone_violations,
                     phi, recurrence_for, run_ratio_ladder, run_zero_attraction, scenario,
                     sn_kernel, sn_lambda, to_sobolev_spec)
from relasym.extended import _mp_kernel
from relasym.sobolev import SobolevTerm, _kernel_system, _lane_dps, coupling_jets, sn_kernel_many

LEG = BaseMeasureSpec("legendre")
TAB = recurrence_for(LEG, 90)

DERIV = SobolevSpec.diagonal([(2.0, [0.0, 1.0])])   # M_1 only
PAIR = SobolevSpec.diagonal([(2.0, [1.0, 1.0])])    # value + derivative


def test_regularity_counts():
    # each term is its factorization gamma = U V^T at gamma's rank; a regular
    # term keeps its support matrix as U and V selects its columns
    for spec, U, V in ((DERIV, [[0], [1]], [[0], [1]]), (PAIR, np.eye(2), np.eye(2))):
        (t,) = spec.terms
        assert (t.rank, t.order) == (len(V[0]), 1)
        assert np.array_equal(t.U, U) and np.array_equal(t.V, V)
    # zero rows and columns are no coupling: a padded gamma reads as its trimmed twin
    padded = SobolevTerm(2.0, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert (padded.rank, padded.order) == (1, 1)
    assert padded.U.tolist() == [[0], [1]] and padded.V.tolist() == [[1], [0], [0]]
    # read once: gamma and its factors are read-only, so the fields cannot go stale
    for matrix in (padded.gamma, padded.U, padded.V):
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_regularity_does_not_depend_on_the_scale_of_gamma(scale):
    # the raw row norms of a 1e300 gamma overflow with a RuntimeWarning, and
    # a nonzero 1e-300 gamma must not read as rank 0
    def term(gamma):
        return SobolevTerm(2.0, scale * np.array(gamma))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert term([[1.0]]).rank == 1
        assert term([[1.0, 0.5], [0.25, 1.0]]).rank == 2
        singular = term([[1.0, 1.0], [1.0, 1.0]])
    assert singular.rank == 1
    assert singular.U.tolist() == [[scale], [scale]]
    # the Gram-Schmidt pass's coordinates
    np.testing.assert_allclose(singular.V, [[1], [1]], rtol=1e-15)


def test_a_column_is_dropped_only_at_rounding():
    # [[1, 1], [1, 1 + eps]] has rank 2 for every eps != 0, and past n ~ 12
    # at c = 2 its S_n is ruled by the eps direction (the jets grow like
    # |phi(c)|^(2n)), so a rank-one build would be another inner product.
    # Within an ulp it is rank one; between rounding and RANK_TOL its rank
    # cannot be read in double precision, and the term is refused.
    def term(eps):
        return SobolevTerm(2.0, [[1.0, 1.0], [1.0, 1.0 + eps]])
    for eps, rank in ((1e-2, 2), (1e-6, 2), (1e-11, 2), (2.0 ** -52, 1), (0.0, 1)):
        assert term(eps).rank == rank, eps
    for eps in (1e-12, 1e-13, 1e-14):
        with pytest.raises(SobolevError, match="rank of gamma at .* is ambiguous"):
            term(eps)
    # kept at rank 2, a near-singular term is the inner product it names:
    # both lanes meet the dense oracle at n = 20, far from the rank-one S_20
    spec = SobolevSpec((term(1e-2),))
    oracle = oracle_sobolev_monic(LEG, spec, 20)
    for build in (sn_kernel, sn_lambda):
        gap = compare_monomial(build(20, spec, TAB), oracle, 0)
        assert gap < 1e-12, (build.__name__, gap)
    ones = SobolevSpec((term(0.0),))
    assert compare_monomial(sn_kernel(20, ones, TAB), oracle, 0) > 1e-2


GAMMAS = {"near_parallel": [[1, 1], [1, 1 + 1e-11]],
          "wide": [[1, 1 + 1e-9, 0.3], [2, 2 - 1e-9, -1]],
          "complex": [[1, 0.5j, 0], [0.5, 1, 1e-6], [0, 2j, 1 + 1e-8]],
          "unit": [[0, 1], [1, 0]], "mixed": [[1, 0.3], [0, 1]]}


def _lane_gap(n, spec, table=TAB):
    """The largest coefficient gap between the lanes, over the largest coefficient."""
    want = sn_lambda(n, spec, table).coeffs
    return np.max(np.abs(sn_kernel(n, spec, table).coeffs - want)) / np.max(np.abs(want))


def test_the_rank_is_bounded_by_the_rows():
    # the first two columns are 1e-9 apart and the third leaves them: two rows
    # hold at most rank 2, and the pivoted pass keeps the third column, not
    # the near-parallel second (the sequential least-squares rule read rank 3,
    # and the lanes were 2.2 apart at n = 20)
    spec = SobolevSpec((SobolevTerm(2.0, GAMMAS["wide"]),))
    (t,) = spec.terms
    assert t.rank == 2 and t.U.tolist() == t.gamma[:, [0, 2]].tolist()
    for n in (12, 20, 40):
        assert _lane_gap(n, spec) < 1e-12, n


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("name", sorted(GAMMAS))
def test_u_is_read_through_an_orthonormal_basis(name, scale):
    # U = B T with B's columns orthonormal, for every scale of gamma: its
    # columns are scaled by exact powers of two, so no norm overflows or rounds
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t = SobolevTerm(2.0, scale * np.array(GAMMAS[name]))
    assert np.max(np.abs(t.B.conj().T @ t.B - np.eye(t.rank))) < 1e-15
    assert np.max(np.abs(t.B @ t.T - t.U)) < 1e-15 * np.max(np.abs(t.U))
    for matrix in (t.B, t.T):
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0


def test_a_unit_column_of_u_comes_back_exactly():
    # a unit column reads as itself, so a diagonal or anti-diagonal gamma of
    # ones (every bundled coupling) gives the blocks U gave
    for gamma in ([[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 0], [0, 1]]):
        t = SobolevTerm(2.0, gamma)
        assert np.array_equal(t.B, t.U) and np.array_equal(t.T, np.eye(t.rank))
    t = SobolevTerm(2.0, GAMMAS["mixed"])
    assert np.array_equal((t.B @ t.T)[:, 0], t.U[:, 0])


def test_near_parallel_columns_keep_the_ladder_falling():
    # columns 1e-11 apart at c = 2: W = U^T E formed in double cancelled them
    # and the ladder rose from n = 40 on (12 violations, 1.6e-2 at n = 320);
    # read through B it falls like diag(1, 1)'s, on the extended lane's rows
    spec = SobolevSpec((SobolevTerm(2.0, GAMMAS["near_parallel"]),))
    cfg = dataclasses.replace(scenario("sobolev_point_pair"), target=spec, jets=0,
                              n_ladder=(20, 40, 80, 160, 320))
    rows = run_ratio_ladder(cfg)
    assert monotone_violations(rows) == []
    assert max(r.abs_err for r in rows if r.n == 320) < 2e-6
    ext = run_ratio_ladder(dataclasses.replace(cfg, n_ladder=(20, 40, 80), precision="extended"))
    low = [r for r in rows if r.n <= 80]
    assert [(r.n, r.z) for r in low] == [(r.n, r.z) for r in ext]
    for r, e in zip(low, ext):
        assert abs(r.ratio - e.ratio) < 1e-12 * abs(e.ratio), (r.n, r.z)


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
        ip = sobolev_inner(basis_k, op, PAIR)
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
        k = sn_kernel(n, spec, TAB)
        assert np.max(np.abs(k.coeffs - lambda_monic(n, spec, TAB))) < 1e-9


def _cond(n, spec, table):
    """The double lane's gated condition number at degree n."""
    return _kernel_system(n, spec, coupling_jets(spec, table, n))[-1]


@pytest.mark.parametrize("order", [0, 1])
def test_coupling_jets_of_a_point_do_not_depend_on_the_points_beside_it(order):
    # at order 0 a lone point's rows are one entry wide, where numpy's
    # in-place complex multiply rounds unlike a longer row's: the sweep
    # keeps z - b apart there, so the point's jets alone and beside another
    # point are the same bits
    table = recurrence_for(LEG, 200)
    alone = SobolevTerm(1.2 + 0.6j, np.eye(order + 1))
    beside = SobolevTerm(3.0, np.eye(order + 1))
    (one,) = coupling_jets(SobolevSpec((alone,)), table, 200)
    two = coupling_jets(SobolevSpec((alone, beside)), table, 200)[0]
    assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_both_lanes_report_the_same_cond(name):
    # the mpmath lane gates on the double lane's equilibrated system
    spec = KERNEL_SPECS[name]
    table = recurrence_for(LEG, 201)
    for n in (12, 40, 200):
        got = _mp_kernel(n, spec, table, _lane_dps(n, spec))["cond"]
        assert got == pytest.approx(_cond(n, spec, table), rel=1e-6)


@pytest.mark.parametrize("name", ["pair", "two_pole"])
def test_a_table_through_the_solved_degree_is_enough(name, monkeypatch):
    # neither lane reads tau or jets past the degree it solves: a table
    # through n is used as it is, and the mp lane rebuilds it through n alone
    spec, n = KERNEL_SPECS[name], 12
    table = recurrence_for(LEG, n)
    calls = []
    build = relasym.measures.recurrence_for
    monkeypatch.setattr(relasym.measures, "recurrence_for",
                        lambda *args: calls.append(args) or build(*args))
    assert sn_kernel(n, spec, table).table is table
    assert _mp_kernel(n, spec, table, _lane_dps(n, spec))["table"].nmax == n
    assert calls == []


def test_two_pole_kernel_reach():
    # the double lane keeps the two-pole Pade spec under the cond gate
    table = recurrence_for(LEG, 410)
    for n in (50, 100, 200, 300, 400):
        sn_kernel(n, TWO_POLE, table)
        assert _cond(n, TWO_POLE, table) < 1e10


# derivative at 320: the products of unscaled jets at c = 2 pass the
# double range; two_pole_mp runs the kernel identity in mpmath, also at
# 500, where sn_kernel refuses because the jets at 2i overflow
@pytest.mark.parametrize("name, n", [("two_pole", 80), ("two_pole", 240),
                                     ("derivative", 320), ("two_pole_mp", 240),
                                     ("two_pole_mp", 500)])
def test_kernel_deep_degrees_match_exact_lane(name, n):
    spec, build = {"two_pole": (TWO_POLE, sn_kernel), "derivative": (DERIV, sn_kernel),
                   "two_pole_mp": (TWO_POLE, sn_lambda)}[name]
    k = build(n, spec, TAB)
    assert np.max(np.abs(k.coeffs - lambda_monic(n, spec, TAB))) < 1e-8


def test_kernel_refusal_past_double_range_names_the_overflow():
    deep = recurrence_for(LEG, 605)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        huge = recurrence_for(LEG, 1031)              # tau overflows from ~1025
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, spec, table in ((500, TWO_POLE, deep), (1030, DERIV, huge)):
            with pytest.raises(SobolevError, match="overflows? the double range"):
                sn_kernel(n, spec, table)


def test_kernel_refusals_carry_their_kind():
    # overflow at the jet and tau sites, pre_asymptotic for the degree floor
    deep = recurrence_for(LEG, 605)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        huge = recurrence_for(LEG, 1031)
    for n, spec, table, kind in ((500, TWO_POLE, deep, "overflow"),
                                 (1030, DERIV, huge, "overflow"),
                                 (1, PAIR, TAB, "pre_asymptotic")):
        with pytest.raises(SobolevError) as info:
            sn_kernel(n, spec, table)
        assert info.value.kind == kind, (n, str(info.value))


# (spec, degrees built, first refused degree on Legendre, on Chebyshev-1):
# at c = 2 the jets leave the double range at 536, at c = 1.2 tau_n does
DEEP = [(SobolevSpec.diagonal([(2.0, [1.0, 1.0])]), (520, 535), 536, 536),
        (SobolevSpec.diagonal([(2.0, [0.0, 1.0])]), (520,), 536, 536),
        (SobolevSpec.diagonal([(1.2, [1.0, 1.0])]), (600, 1000, 1024), 1025, 1026)]


@pytest.mark.parametrize("kind", ["legendre", "chebyshev_first_kind"])
def test_kernel_builds_until_what_s_n_is_built_from_overflows(kind):
    # 1/tau_n^2 underflows from n ~ 514, but <S_n, S_n> is no part of S_n:
    # each degree matches the mp lane until tau_n or the jets overflow
    measure = BaseMeasureSpec(kind)
    for spec, built, leg, cheb in DEEP:
        first = leg if kind == "legendre" else cheb
        degrees = sorted(set(built) | {first - 1, first})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)    # tau_1025 or tau_1026 is inf
            table = recurrence_for(measure, first)
        out = sn_kernel_many(degrees, spec, table)
        refused = out.pop(first)
        assert isinstance(refused, SobolevError) and refused.kind == "overflow", refused
        for n, s in out.items():
            assert not isinstance(s, Exception), (kind, n, s)
            want = np.array([complex(v) for v in
                             _mp_kernel(n, spec, table, _lane_dps(n, spec))["coeffs_mp"]])
            gap = np.linalg.norm(s.coeffs - want) / np.linalg.norm(want)
            assert gap < 1e-12, (kind, n, gap)


@pytest.mark.parametrize("build", [sn_kernel, sn_lambda])
def test_both_lanes_refuse_an_ill_conditioned_kernel(build):
    # unit masses 1e-5 apart make nearly equal kernel rows: cond ~ 1.49e10
    # passes COND_LIMIT; 1e-3 apart they build at cond ~ 1.4e8
    near = SobolevSpec.diagonal([(2.0, [1.0]), (2.0 + 1e-5, [1.0])])
    with pytest.raises(SobolevError, match=r"ill-conditioned \(cond ~ 1.49e\+10\)") as exc:
        build(10, near, TAB)
    assert exc.value.kind == "pre_asymptotic"
    apart = SobolevSpec.diagonal([(2.0, [1.0]), (2.0 + 1e-3, [1.0])])
    build(10, apart, TAB)
    assert 1e8 < _cond(10, apart, TAB) < 1e10


def test_lambda_builds_past_the_norm_range():
    # the mp solve runs past the double range and S_n's coefficients stay
    # O(1): at 600 norm_sq ~ 1/tau_n^2 is below the smallest normal double,
    # at 1030 gamma_n = norm_sq^(-1/2) overflows, and neither is part of S_n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, spec in ((600, PAIR), (1030, DERIV)):
            assert np.all(np.isfinite(sn_lambda(n, spec, TAB).coeffs)), n
        s = sn_lambda(600, PAIR, TAB)
        ratio = s.values(3.0) / PolyInBasis.basis_poly(s.table, 600).values(3.0)
    assert abs(ratio - limit_sobolev(3.0, [(2.0, 2)])) < 1e-7


def test_lambda_precision_covers_zero_rows():
    # the digit rule covers a zero row of gamma: the expansion at three
    # times its own digits agrees
    got = sn_lambda(80, DERIV, TAB).coeffs
    ref = lambda_expansion(80, DERIV, TAB, 3 * lambda_dps(80, DERIV))["coeffs"]
    assert np.max(np.abs(got - ref)) < 1e-12
    for n in (200, 240):
        got = sn_lambda(n, SECOND_ONLY, TAB).coeffs
        assert np.max(np.abs(got - sn_kernel(n, SECOND_ONLY, TAB).coeffs)) < 1e-12


def test_against_dense_oracle():
    got = sn_kernel(9, PAIR, TAB)
    assert compare_monomial(got, oracle_sobolev_monic(LEG, PAIR, 9), 0) < 1e-10
    # the smallest degrees: n = 3 is past the highest coupled derivative
    for spec in (PAIR, COUPLED, TWO_POLE):
        A = sum(t.N + 1 for t in spec.terms)     # the degree of prod (z - c_j)^(N_j + 1)
        for n in (3, 2 * A + 1, 2 * A + 3):
            got = sn_lambda(n, spec, TAB)
            gap = compare_monomial(got, oracle_sobolev_monic(LEG, spec, n), 0)
            assert gap < 1e-10, f"sn_lambda vs oracle {gap:.2e} at n={n}"


# couplings of less than full rank, which built at no degree while the
# construction was gated on regularity: gamma -> its rank
RANK_DEFICIENT = {"ones": ([[1, 1], [1, 1]], 1), "outer": ([[1, 2], [2, 4]], 1),
                  "row": ([[1, 1]], 1), "wide": ([[1, 0, 1], [0, 1, 0]], 2),
                  "repeated_row": ([[1, 0, 1], [0, 1, 0], [1, 0, 1]], 2)}


def _rank_deficient(name, c) -> SobolevSpec:
    return SobolevSpec((SobolevTerm(c, np.array(RANK_DEFICIENT[name][0], dtype=float)),))


@pytest.mark.parametrize("c", [2.0, 1.2 + 0.6j])
@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_coupling_matches_dense_oracle(name, c):
    spec = _rank_deficient(name, c)
    assert spec.terms[0].rank == RANK_DEFICIENT[name][1]
    for n in (6, 12):
        oracle = oracle_sobolev_monic(LEG, spec, n)
        for build in (sn_kernel, sn_lambda):
            gap = compare_monomial(build(n, spec, TAB), oracle, 0)
            assert gap < 1e-12, (build.__name__, n, gap)


@pytest.mark.parametrize("c", [2.0, 1.2 + 0.6j])
@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_limit_and_zeros_follow_the_rank(name, c):
    # the limit's exponent and the zeros c attracts are both the rank: the
    # ratio errors against limit_sobolev at e = rank fall like 1/n, and one
    # cluster of rank zeros sits at c at every degree
    cfg = dataclasses.replace(scenario("sobolev_point_pair"), target=_rank_deficient(name, c),
                              n_ladder=(80, 160, 320, 480), jets=0,
                              zero_degrees=(60, 180, 480))
    rows = run_ratio_ladder(cfg)
    assert len(rows) == 4 * 4 and monotone_violations(rows) == []
    for z in cfg.probe_points:
        errs = [r.abs_err for r in rows if r.z == z]
        assert errs[-1] < 1e-2 and 1.8 < errs[1] / errs[2] < 2.1, (z, errs)
    reports = run_zero_attraction(cfg)
    assert [reports[n].cluster_counts for n in cfg.zero_degrees] == [[RANK_DEFICIENT[name][1]]] * 3


def test_digit_loss_scaling():
    # n * log10 |phi(2)| per coupling point
    assert digit_loss(10, PAIR) == pytest.approx(10 * np.log10(phi(2.0).real), rel=1e-12)
    assert digit_loss(40, PAIR) == pytest.approx(4 * digit_loss(10, PAIR), rel=1e-12)


def test_extended_lane_engages_and_matches():
    # by n=60 the collapsed jets cancel ~34 digits: the mpmath lane works at
    # enough digits to absorb that and still matches the double lane
    n = 60
    k = sn_kernel(n, PAIR, TAB)
    l = sn_lambda(n, PAIR, TAB)
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
    gs = gamma_sequence(PAIR, TAB, (30, 31, 32))
    assert abs(gs[31] / gs[30] - 2.0) < 1e-3
    assert abs(gs[32] / gs[31] - 2.0) < 1e-3


def test_norm_sq_positive_for_positive_spec():
    norm_sq = complex(_mp_kernel(12, PAIR, TAB, _lane_dps(12, PAIR))["norm_sq_mp"])
    assert norm_sq.imag == pytest.approx(0.0, abs=1e-18)
    assert norm_sq.real > 0.0


def test_spec_json_round_trip():
    spec = SobolevSpec((SobolevTerm(c=2j, gamma=np.array([[0.1, 0.2], [0.0, 1.0 + 0.5j]])),))
    back = SobolevSpec.from_json_dict(spec.to_json_dict())
    assert back.terms[0].c == spec.terms[0].c
    assert np.allclose(back.terms[0].gamma, spec.terms[0].gamma, atol=0.0)
