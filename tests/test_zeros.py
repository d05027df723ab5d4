"""Comrade-matrix roots and attraction-disk sorting."""
import inspect
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_legendre

from _basis import lincomb, xmul

from relasym import (
    BaseMeasureSpec,
    ClusterConfigError,
    PolyInBasis,
    ZeroReport,
    ZerosError,
    cluster,
    recurrence_for,
    roots,
    scenario,
    sn_kernel,
)
from relasym import zeros as zeros_module
from relasym.joukowski import dist_to_cut
from relasym.polybasis import basis_jets
from relasym.sobolev import SobolevSpec, SobolevTerm
from relasym.verify import _targets
from relasym.zeros import (EPS, RESIDUAL_TOL, _comrade_norm, _jacobi, _last_row,
                           _pair_conjugates, _root_residuals, _secular_weights, _workspace,
                           default_radius)

CHEB = recurrence_for(BaseMeasureSpec("chebyshev_first_kind"), 20)
LEG = recurrence_for(BaseMeasureSpec("legendre"), 20)


def _orth(p: PolyInBasis) -> np.ndarray:
    """The orthonormal coefficients of p over l_m = tau_m L_m, as roots()
    forms them."""
    return p.coeffs / p.table.tau[: p.degree + 1]


def _comrade_matrix(c: np.ndarray, table) -> np.ndarray:
    """The dense oracle: A = J_n - e_{n-1} f^T for the orthonormal
    coefficients c of p, whose eigenvalues are the roots of p, real when f
    is."""
    f = _last_row(c, table)
    real = not np.any(f.imag)
    A = _jacobi(table, len(f)).astype(float if real else complex)
    A[-1] -= f.real if real else f
    return A


def test_monic_cheb_degree2_roots():
    r = roots(PolyInBasis.basis_poly(CHEB, 2))
    assert r[0] == pytest.approx(-0.70710678118654752, abs=1e-14)
    assert r[1] == pytest.approx(0.70710678118654752, abs=1e-14)


def test_legendre_roots_match_gauss_nodes():
    got = roots(PolyInBasis.basis_poly(LEG, 5))
    nodes = np.sort(roots_legendre(5)[0])
    assert np.max(np.abs(np.array(got) - nodes)) < 1e-13


def test_conjugate_pair_is_exact():
    # x^2 + 1 = L_2 + 3/2 over the cheb monic basis; on real data the
    # conjugate pairing makes the pair exact conjugates
    p = PolyInBasis(np.array([1.5, 0.0, 1.0], dtype=complex), CHEB)
    r = roots(p)
    assert r[0] == r[1].conjugate()
    assert r[0].imag < 0 < r[1].imag


def test_degree_zero_has_no_roots():
    assert roots(PolyInBasis.basis_poly(CHEB, 0)) == []


@pytest.mark.parametrize("tab", [LEG, CHEB], ids=["legendre", "chebyshev"])
def test_exact_root_with_zero_scale_passes_the_gate(tab):
    # on a symmetric measure l_1(0) = 0 and the running bound is 0 there too
    assert roots(PolyInBasis.basis_poly(tab, 1)) == [0j]


def test_zero_leading_coefficient_rejected():
    p = PolyInBasis(np.array([1.0, 0.0], dtype=complex), CHEB)
    with pytest.raises(ZerosError):
        roots(p)


def _pointwise_residual(p, z, norm_a):
    """One root at a time: the orthonormal jets plus the scalar running scale."""
    c, tau, a, b = _orth(p), p.table.tau[: p.degree + 1], p.table.a, p.table.b
    v_prev, v_cur = 0j, complex(tau[0])
    e_prev, e_cur = 0.0, abs(tau[0])
    total = abs(c[0]) * (e_cur + abs(v_cur))
    for k in range(p.degree):
        grow = abs(z) + abs(b[k])
        step = (grow * abs(v_cur) + a[k] * abs(v_prev)) / a[k + 1]
        v_prev, v_cur = v_cur, ((z - b[k]) * v_cur - a[k] * v_prev) / a[k + 1]
        e_prev, e_cur = e_cur, (grow * e_cur + a[k] * e_prev) / a[k + 1] + step
        total += abs(c[k + 1]) * (e_cur + abs(v_cur))
    jet = (basis_jets(p.table, p.degree, z, 1) * tau) @ c
    return abs(jet[0]) / (total + norm_a * abs(jet[1]))


def test_residual_gate_rejects_perturbed_roots():
    n = 60
    p = PolyInBasis.basis_poly(recurrence_for(BaseMeasureSpec("legendre"), n), n)
    c = _orth(p)
    norm_a = float(np.linalg.norm(_comrade_matrix(c, p.table), np.inf))
    nodes = roots_legendre(n)[0].astype(complex)
    assert np.max(_root_residuals(c, p.table, nodes, norm_a)) <= 1e-12
    moved = nodes * (1.0 + 1e-5)
    got = _root_residuals(c, p.table, moved, norm_a)
    assert np.max(got) > RESIDUAL_TOL
    want = [_pointwise_residual(p, z, norm_a) for z in moved]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name", ["base_legendre", "sobolev_point_pair", "pade_gonchar"])
def test_fused_gate_matches_pointwise_residual_at_180(name):
    # the three zeros_deep targets, one per kind of coefficient data: Gauss
    # nodes (f = 0), then the secular solve on real and on complex f, at
    # roots moved by 1e-5.  Both evaluations of p lie within u times the
    # running bound of p, so the residuals also agree to eps absolutely;
    # that is all one can ask at the roots attracted to 2 and 2i, where |p|
    # is ~1e-20 of the bound
    n = 180
    cfg = scenario(name)
    p = _targets(cfg, recurrence_for(cfg.measure, n + 2), (n,))[0][n]
    c = _orth(p)
    f = _last_row(c, p.table)
    route = "gauss" if not np.any(f) else "real" if not np.any(f.imag) else "secular"
    assert route == {"base_legendre": "gauss", "sobolev_point_pair": "real",
                     "pade_gonchar": "secular"}[name]
    norm_a = _comrade_norm(p.table, f)
    moved = np.array(roots(p)) * (1.0 + 1e-5)
    got = _root_residuals(c, p.table, moved, norm_a)
    want = [_pointwise_residual(p, z, norm_a) for z in moved]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=EPS)


def test_gate_overflow_boundary_on_legendre():
    # the running bound grows like (1 + sqrt 2)^k at the roots next to +-1
    # and leaves the double range between degrees 804 and 805
    table = recurrence_for(BaseMeasureSpec("legendre"), 806)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert len(roots(PolyInBasis.basis_poly(table, 804))) == 804
        with pytest.raises(ZerosError, match="recurrence sweep overflows the double "
                                             "range at degree 805"):
            roots(PolyInBasis.basis_poly(table, 805))


def test_default_radius():
    assert default_radius([2.0]) == pytest.approx(0.1)
    # pair separation below the segment distance wins
    assert default_radius([2.0, 2.5]) == pytest.approx(0.05)
    with pytest.raises(ClusterConfigError):
        default_radius([])
    with pytest.raises(ClusterConfigError):
        default_radius([2.0, 2.0])
    with pytest.raises(ClusterConfigError):
        default_radius([0.5])


def test_cluster_sorts_roots():
    rts = [2.02, 0.3, 0.5 + 0.03j, 5.0]
    rep = cluster(rts, [2.0])
    assert rep.cluster_counts == [1]
    assert rep.support_count == 2
    assert rep.unassigned == [5.0]
    assert rep.radius == 0.1
    d = rep.to_json_dict()
    assert d["cluster_counts"] == [1] and d["unassigned"] == [[5.0, 0.0]]


def test_report_counts_must_add_up():
    with pytest.raises(ZerosError):
        ZeroReport(roots=[1.0, 2.0], centers=[], cluster_counts=[],
                   support_count=1, unassigned=[], radius=0.0,
                   support_band=0.05)


def radius_halving_stable(root_list, centers) -> bool:
    """True when per-center counts survive halving of the disk radius.

    The attraction statements hold for every sufficiently small
    neighborhood, so once n is past the transient the counts must not
    depend on the disk size; this is the cheap way to detect that.
    """
    full = cluster(root_list, centers)
    zs = np.array(root_list, dtype=complex)
    half = [int(np.count_nonzero(np.abs(zs - c) <= 0.5 * full.radius)) for c in full.centers]
    return full.cluster_counts == half


def test_radius_halving_stability():
    tight = [2.005, 0.1, -0.4]
    assert radius_halving_stable(tight, [2.0])
    # a root at distance 0.07 survives r=0.1 but not r=0.05
    assert not radius_halving_stable([2.07, 0.1], [2.0])


def test_sobolev_zero_attraction_end_to_end():
    cfg = scenario("sobolev_point_derivative")
    table = recurrence_for(cfg.measure, 65)
    s = sn_kernel(60, cfg.target, table)
    rep = cluster(roots(s.rep), [t.c for t in cfg.target.terms])
    assert rep.radius == 0.1
    assert rep.cluster_counts == [1]
    assert rep.support_count == 59
    assert not rep.unassigned


ATOM_LEG = BaseMeasureSpec("legendre", mass_points=((2.2, 0.5),))
SECULAR_MEASURES = [BaseMeasureSpec("legendre"), BaseMeasureSpec("chebyshev_first_kind"),
                    BaseMeasureSpec("jacobi", 0.3, -0.4), ATOM_LEG]


def _sobolev_spec(rng, real: bool) -> SobolevSpec:
    """One or two coupling points off [-1, 1] (clear of the atom at 2.2),
    each with a diagonal gamma of one or two masses: complex points and
    masses, or real ones, which give real coefficient data."""
    terms = []
    for _ in range(rng.integers(1, 3)):
        while True:
            c = complex(rng.uniform(-2.5, 2.5), 0.0 if real else rng.uniform(-2.0, 2.0))
            if (dist_to_cut(c) > 0.3 and abs(c - 2.2) > 0.2
                    and all(abs(c - t.c) > 0.3 for t in terms)):
                break
        masses = rng.uniform(0.2, 2.0, rng.integers(1, 3))
        if not real:
            masses = masses * np.exp(1j * rng.uniform(0, 2 * np.pi))
        terms.append(SobolevTerm(c, np.diag(masses)))
    return SobolevSpec(tuple(terms))


def _mp_lagrange_ratio(coeffs, table, z, dps=40):
    """p(z) / (lc_p omega(z)) at dps digits: p = sum c_k l_k from the
    orthonormal recurrence, lc_p = c_n tau_0 / prod a_k, omega the monic
    polynomial with the zeros cos((2i+1) pi / 2n) of T_n."""
    n = len(coeffs) - 1
    with mp.workdps(dps):
        c = [mp.mpc(complex(v)) for v in coeffs]
        a = [mp.mpf(float(v)) for v in table.a]
        b = [mp.mpf(float(v)) for v in table.b]
        tau0 = mp.mpf(float(table.tau[0]))
        z = mp.mpc(z)
        v_prev, v = 0, tau0
        val = c[0] * v
        for k in range(n):
            v_prev, v = v, ((z - b[k]) * v - a[k] * v_prev) / a[k + 1]
            val += c[k + 1] * v
        den = c[n] * tau0
        for k in range(n):
            den *= (z - mp.cos((2 * k + 1) * mp.pi / (2 * n))) / a[k + 1]
        return complex(val / den)


@pytest.mark.parametrize("measure", SECULAR_MEASURES,
                         ids=["legendre", "chebyshev", "jacobi", "legendre_atom"])
def test_secular_weights_match_the_lagrange_form(measure):
    # 1 + sum beta_i / (z - t_i) is p / (lc_p omega) at points off the
    # Chebyshev poles, on real and complex orthonormal coefficients, within
    # 1e-12 of its 40-digit value
    rng = np.random.default_rng(24)
    for n in (1, 2, 25, 180):
        table = recurrence_for(measure, n + 2)
        real = rng.standard_normal(n + 1) + 0j
        for coeffs in (real, real + 1j * rng.standard_normal(n + 1)):
            t, beta = _secular_weights(table, _last_row(coeffs, table), _workspace(n))
            np.testing.assert_array_equal(np.sort(t), t)
            for z in (0.5 + 0.3j, -0.9 - 0.2j, 1.5, 2j, -3.0 + 1j):
                want = _mp_lagrange_ratio(coeffs, table, z)
                assert abs(1.0 + np.sum(beta / (z - t)) - want) <= 1e-12 * abs(want)


def _kernel_poly(measure, n, rng, real):
    return sn_kernel(n, _sobolev_spec(rng, real), recurrence_for(measure, n + 2)).rep


def _odd_poly(measure, n, rng, real):
    """L_n + 0.3 L_{n-2} (0.3i on complex data): at odd n its root at 0 is
    the middle Chebyshev point, whose pole the secular solve deflates."""
    table = recurrence_for(measure, n + 2)
    return lincomb([PolyInBasis.basis_poly(table, n), PolyInBasis.basis_poly(table, n - 2)],
                   [1.0, 0.3 if real else 0.3j])


def _block_layouts(sizes) -> set:
    """The row-block layouts met by Aberth solves of m live poles at degree
    n: one block of rows, a partial last block, whole blocks only, and a
    deflated pole (m < n)."""
    out = set()
    for n, m in sizes:
        rows = _workspace(n).size // m
        out.add("one block" if m <= rows else "partial block" if m % rows else "whole blocks")
        if m < n:
            out.add("deflated")
    return out


@pytest.mark.parametrize("measure, degrees, build, layouts", [
    (BaseMeasureSpec("legendre"), (25, 60, 120, 180, 400), _kernel_poly,
     {"one block", "partial block", "whole blocks"}),
    *((m, (25, 60, 120, 180), _kernel_poly, set()) for m in SECULAR_MEASURES[1:]),
    (BaseMeasureSpec("legendre", mass_points=((1.05, 0.5),)), (25, 60, 120, 180), _kernel_poly,
     set()),
    (BaseMeasureSpec("legendre", mass_points=((10.0, 0.5),)), (25, 60, 120, 180), _kernel_poly,
     set()),
    (BaseMeasureSpec("legendre"), (61, 181), _odd_poly, {"one block", "deflated"}),
], ids=["legendre", "chebyshev", "jacobi", "legendre_atom", "legendre_atom_near",
        "legendre_atom_far", "legendre_deflated"])
def test_secular_roots_match_the_eigensolver(monkeypatch, measure, degrees, build, layouts):
    # complex and real coefficient data take the secular solve; its interval
    # roots agree with the dense eigensolver to 1e-12 on the interval's
    # scale (relative to max(1, |z|): roots near 0 have no relative digits
    # to spare).  Only roots within 0.1 of [-1, 1] are compared: on a
    # near-double attracted pair the dense eigensolver is itself ~1e-8 off,
    # and the root an atom at 1.05 attracts sits at distance 0.05 to the
    # last bit, so a band of 0.05 would split it by rounding.  On real data
    # the root set is closed under conjugation.  The Aberth solves meet the
    # row-block layouts the case names: m^2 within BLOCK (n = 25, 60), a
    # partial last block (m = 120 in rows of 68), whole blocks (m = 180 in
    # rows of 45, m = 400 in rows of 20), and a deflated pole
    aberth, sizes = zeros_module._aberth, []

    def spy(x, beta, n, work):
        sizes.append((n, x.size))
        return aberth(x, beta, n, work)

    monkeypatch.setattr(zeros_module, "_aberth", spy)
    for real in (False, True):
        rng = np.random.default_rng(20)
        for n in degrees:
            q = build(measure, n, rng, real)
            assert np.any(_last_row(_orth(q), q.table).imag) != real
            got = np.array(roots(q))
            want = np.linalg.eigvals(_comrade_matrix(_orth(q), q.table))
            band = dist_to_cut(want) <= 0.1
            near = got[dist_to_cut(got) <= 0.1]
            assert near.size == np.count_nonzero(band)
            for z in want[band]:
                assert np.min(np.abs(near - z)) <= 1e-12 * max(1.0, abs(z))
            if real:
                np.testing.assert_array_equal(np.sort_complex(got.conj()), np.sort_complex(got))
    assert layouts <= _block_layouts(sizes)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_every_pole_deflated_gives_the_chebyshev_points(n):
    # T_n on Legendre vanishes at every Chebyshev pole to rounding level:
    # the secular solve deflates them all, runs no Aberth sweep, and its
    # roots are the poles
    T = [PolyInBasis.basis_poly(LEG, 0), xmul(PolyInBasis.basis_poly(LEG, 0))]
    for k in range(1, n):
        T.append(lincomb([xmul(T[k]), T[k - 1]], [2.0, -1.0]))
    want = np.sort(np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n)))
    np.testing.assert_allclose(np.array(roots(T[n])), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [60, 180])
def test_real_data_resolves_near_band_pairs(n):
    # L_{n-2} ((x - x0)^2 + y0^2) on Legendre: a conjugate pair close to or
    # inside the band, which real Aberth starts never reach from the axis.
    # The roots match the dense eigensolver, the pair is exactly {w, conj w}
    # and every other root is exactly real
    table = recurrence_for(BaseMeasureSpec("legendre"), n + 2)
    L = PolyInBasis.basis_poly(table, n - 2)
    xL = xmul(L)
    for w in (0.3 + 0.01j, 0.3 + 0.2j, 0.9 + 0.03j, 1.2 + 0.3j):
        p = lincomb([xmul(xL), xL, L], [1.0, -2.0 * w.real, abs(w) ** 2])
        assert not np.any(_last_row(_orth(p), table).imag)
        got = np.array(roots(p))
        for z in np.linalg.eigvals(_comrade_matrix(_orth(p), table)):
            assert np.min(np.abs(got - z)) <= 1e-12 * max(1.0, abs(z))
        pair = got[got.imag != 0.0]
        assert pair.size == 2 and pair[0] == pair[1].conjugate()
        assert abs(pair[1] - w) < 1e-12


def test_pair_conjugates_on_crafted_roots():
    # self-partners become real, mutual partners exact conjugates w and
    # conj(w), w the mean of the one and the conjugate of the other.  A
    # workspace of 2 rows and one of a single row split the argmin into row
    # blocks, one of them partial, with the same partners
    crafted = np.array([0.5 + 1e-17j, 2.0 + 1j + 1e-15, 0.5 - 0.2j, 2.0 - 1j, -0.3 - 2e-16j,
                        0.5 + 0.2j + 1e-15j, 0.7 + 0.0j])
    z = crafted.copy()
    _pair_conjugates(z, _workspace(z.size))
    for height in (2, 1):
        blocked = crafted.copy()
        _pair_conjugates(blocked, np.empty(height * z.size, dtype=complex))
        np.testing.assert_array_equal(blocked, z)
    assert z[0] == 0.5 and z[0].imag == 0.0 and z[4] == -0.3 and z[4].imag == 0.0 and z[6] == 0.7
    assert z[1] == 0.5 * ((2.0 + 1j + 1e-15) + 2.0 + 1j) and z[3] == z[1].conjugate()
    assert z[2] == 0.5 * (0.5 - 0.2j + 0.5 - 0.2j - 1e-15j) and z[5] == z[2].conjugate()
    # 1 + 1j's nearest to its conjugate is 1.1 - 1j, whose nearest is 1.05 + 1j
    with pytest.raises(ZerosError, match="do not pair") as info:
        _pair_conjugates(np.array([1.0 + 1j, 1.1 - 1j, 1.05 + 1j]), _workspace(3))
    assert info.value.kind == "unconverged"


def test_roots_on_a_vertical_line_keep_their_order(monkeypatch):
    # a pair 2i +- 1.7e-8i whose real parts are noise, +-1e-17 either way
    # round: roots sorts real parts equal to 12 decimals by imaginary part,
    # so the pair comes out lower root first both times
    p = lincomb([PolyInBasis.basis_poly(LEG, 2), PolyInBasis.basis_poly(LEG, 1)], [1.0, 1j])
    low, high = 2j - 1.7e-8j, 2j + 1.7e-8j
    # the crafted roots are not the polynomial's: no residual gate
    monkeypatch.setattr(zeros_module, "_root_residuals",
                        lambda c, table, z, norm: np.zeros(z.size))
    for sign in (1.0, -1.0):
        crafted = np.array([high + sign * 1e-17, low - sign * 1e-17])
        monkeypatch.setattr(zeros_module, "_secular_roots", lambda c, table, f: crafted)
        got = roots(p)
        assert [z.imag for z in got] == [low.imag, high.imag]


def _mp_refined(p, starts, dps=50):
    """Newton steps with deflation at dps digits on the double orthonormal
    coefficients of p (_orth), one root per start."""
    with mp.workdps(dps):
        c = [mp.mpc(complex(v)) for v in _orth(p)]
        a = [mp.mpf(float(v)) for v in p.table.a]
        b = [mp.mpf(float(v)) for v in p.table.b]
        tau0 = mp.mpf(float(p.table.tau[0]))
        found = []
        for start in starts:
            z = mp.mpc(start)
            for _ in range(60):
                v_prev, v, d_prev, d = 0, tau0, 0, 0
                val, der = c[0] * v, 0
                for k in range(p.degree):
                    v_prev, v = v, ((z - b[k]) * v - a[k] * v_prev) / a[k + 1]
                    d_prev, d = d, ((z - b[k]) * d + v_prev - a[k] * d_prev) / a[k + 1]
                    val += c[k + 1] * v
                    der += c[k + 1] * d
                if val == 0:
                    break
                step = 1 / (der / val - sum(1 / (z - r) for r in found))
                z -= step
                if abs(step) < mp.mpf(10) ** (5 - dps):
                    break
            found.append(z)
        return [complex(r) for r in found]


def test_attracted_pair_matches_extended_precision_refinement():
    # the two zeros pade_gonchar attracts to 2i form a near-double pair; the
    # polish puts them within 1e-8 of their 50-digit values for the same
    # double coefficients
    n = 180
    cfg = scenario("pade_gonchar")
    q = _targets(cfg, recurrence_for(cfg.measure, n + 2), (n,))[0][n]
    got = np.array(roots(q))
    pair = got[dist_to_cut(got) > 0.05]
    assert pair.size == 2 and np.all(np.abs(pair - 2j) < 1e-3)
    for t in _mp_refined(q, pair):
        assert np.min(np.abs(pair - t)) <= 1e-8


@pytest.mark.parametrize("n", [60, 180])
def test_real_route_polishes_the_attracted_pair(n):
    # sobolev_point_pair has real coefficient data; the near-double pair at
    # c = 2, which rounding alone in a dense eigensolve leaves ~3e-8 off,
    # lands within 1e-8 of its 50-digit values after the extended precision
    # finish, as on complex data
    cfg = scenario("sobolev_point_pair")
    q = _targets(cfg, recurrence_for(cfg.measure, n + 2), (n,))[0][n]
    assert not np.any(_last_row(_orth(q), q.table).imag)
    got = np.array(roots(q))
    pair = got[dist_to_cut(got) > 0.05]
    assert pair.size == 2 and np.all(np.abs(pair - 2.0) < 1e-3)
    for t in _mp_refined(q, _ring(2.0, 2)):
        assert np.min(np.abs(pair - t)) <= 1e-8


def _ring(center, k, radius=1e-4):
    """k complex starts around center, off the real axis."""
    return [center + radius * np.exp(2j * np.pi * (t + 0.1) / k) for t in range(k)]


@pytest.mark.parametrize("n", [60, 120, 180])
def test_attracted_pair_finishes_within_sweep_budget(monkeypatch, n):
    # the pair pade_gonchar attracts to 2i is a k = 2 cluster.  It leaves
    # the secular sweeps once its steps shrink linearly, within 18 sweeps
    # (their rounding stall comes at 21 or 22); then one Taylor sweep at its
    # centroid and at most two Aberth rounds finish it, 2k + 1 extended
    # sweeps in all, within 1e-8 of its 50-digit values
    monkeypatch.setattr(zeros_module, "MAX_SWEEPS", 18)
    cfg = scenario("pade_gonchar")
    q = _targets(cfg, recurrence_for(cfg.measure, n + 2), (n,))[0][n]
    sweeps = []
    real_sweep = zeros_module._sweep

    def counting(*args):
        sweeps.append(args)
        return real_sweep(*args)

    monkeypatch.setattr(zeros_module, "_sweep", counting)
    got = np.array(roots(q))
    pair = got[dist_to_cut(got) > 0.05]
    assert pair.size == 2 and np.all(np.abs(pair - 2j) < 1e-3)
    assert len(sweeps) <= 2 * pair.size + 1
    for t in _mp_refined(q, _ring(2j, 2)):
        assert np.min(np.abs(pair - t)) <= 1e-8


def test_cluster_started_on_the_real_axis_converges_or_refuses():
    # a triple cluster at 2 + 1e-30j: complex data, but the secular sweeps
    # start on the real axis and stay there, while two of the three roots
    # are a conjugate pair 1.553e-5 off it.  The solve must find them or
    # refuse, not return real roots that pass the residual gate
    table = recurrence_for(BaseMeasureSpec("legendre"), 62)
    spec = SobolevSpec((SobolevTerm(2.0 + 1e-30j, np.eye(3)),))
    q = sn_kernel(60, spec, table).rep
    try:
        got = np.array(roots(q))
    except ZerosError as exc:
        assert exc.kind == "unconverged"
        return
    near = got[dist_to_cut(got) > 0.05]
    assert near.size == 3
    for t in _mp_refined(q, _ring(2.0, 3)):
        assert np.min(np.abs(near - t)) <= 1e-8


@pytest.mark.parametrize("c", [1.5j, 2.0 + 0.5j])
def test_triple_cluster_converges_at_its_rounding_level(c):
    # three roots ~2e-5 apart: longdouble steps stall near 1e-9, above
    # POLISH_TOL, where |p| is at its rounding level; the finish stops there
    table = recurrence_for(BaseMeasureSpec("legendre"), 62)
    q = sn_kernel(60, SobolevSpec((SobolevTerm(c, np.eye(3)),)), table).rep
    got = np.array(roots(q))
    near = got[dist_to_cut(got) > 0.05]
    assert near.size == 3
    for t in _mp_refined(q, _ring(c, 3)):
        assert np.min(np.abs(near - t)) <= 1e-8


def test_unconverged_polish_refuses(monkeypatch):
    cfg = scenario("pade_gonchar")
    q = _targets(cfg, recurrence_for(cfg.measure, 62), (60,))[0][60]
    monkeypatch.setattr(zeros_module, "POLISH_STEPS", 0)
    with pytest.raises(ZerosError, match="did not converge") as info:
        roots(q)
    assert info.value.kind == "unconverged"


def test_secular_solve_memory_stays_linear():
    # the secular route forms its Cauchy matrices a block of rows at a time:
    # the traced peak of one roots call at n = 800 stays below 2 MB, where
    # the 800 x 800 matrices alone take 10 MB each
    cfg = scenario("modified_rational")
    p = _targets(cfg, recurrence_for(cfg.measure, 802), (800,))[0][800]
    tracemalloc.start()
    try:
        assert len(roots(p)) == 800
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("n", [60, 180])
@pytest.mark.parametrize("name", ["sobolev_point_pair", "pade_gonchar", "base_legendre"])
def test_eigensolver_runs_only_on_the_gauss_route(monkeypatch, name, n):
    # real (sobolev_point_pair) and complex (pade_gonchar) data take the
    # secular route, which runs no n x n eigensolve of any kind: the only
    # ones are np.roots' companion matrices in the Taylor restart, k x k for
    # a cluster of k roots (the attracted pair).  f = 0 (base_legendre)
    # takes the Gauss route: one eigvalsh of J_n and nothing else.  np.roots
    # holds its own reference to eigvals, so the spy replaces both
    cfg = scenario(name)
    q = _targets(cfg, recurrence_for(cfg.measure, n + 2), (n,))[0][n]
    seen = {"eigvals": [], "eigh": [], "eigvalsh": []}

    def spy(kind):
        real = getattr(np.linalg, kind)

        def call(m, *args, **kwargs):
            seen[kind].append(np.shape(m))
            return real(m, *args, **kwargs)
        return call

    for kind in seen:
        monkeypatch.setattr(np.linalg, kind, spy(kind))
    monkeypatch.setitem(inspect.unwrap(np.roots).__globals__, "eigvals", np.linalg.eigvals)
    got = np.array(roots(q))
    assert got.size == n
    assert not seen["eigh"]
    if name == "base_legendre":
        assert seen["eigvalsh"] == [(n, n)] and not seen["eigvals"]
        return
    cluster_size = np.count_nonzero(dist_to_cut(got) > 0.05)
    assert cluster_size == 2 and not seen["eigvalsh"]
    assert seen["eigvals"] and all(shape[0] <= cluster_size for shape in seen["eigvals"])


@pytest.mark.parametrize("measure", [BaseMeasureSpec("legendre"), ATOM_LEG],
                         ids=["legendre", "legendre_atom"])
def test_linear_norm_matches_dense(measure):
    table = recurrence_for(measure, 62)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 60):
        real = rng.standard_normal(n + 1) + 0j
        for coeffs in (real, real + 1j * rng.standard_normal(n + 1)):
            dense = float(np.linalg.norm(_comrade_matrix(coeffs, table), np.inf))
            assert _comrade_norm(table, _last_row(coeffs, table)) == pytest.approx(dense,
                                                                                  rel=1e-15)


def _scalar_cluster(rts, centers, r, band):
    """Reference: one root at a time, first disk wins."""
    counts, support, leftovers = [0] * len(centers), 0, []
    for z in rts:
        hit = next((i for i, c in enumerate(centers) if abs(z - c) <= r), None)
        if hit is not None:
            counts[hit] += 1
        elif float(dist_to_cut(z)) <= band:
            support += 1
        else:
            leftovers.append(z)
    return counts, support, leftovers


def test_cluster_matches_scalar_reference():
    centers = [2.0 + 0.0j, -1.5 + 1.5j, 3.0j]
    r, band = 0.1, 0.05     # default_radius(centers) and SUPPORT_BAND
    # exactly on a disk rim, exactly on the band edge, just outside both
    edges = [2.0 + 0.1j, 2.0 - 0.1j, 0.1 + 3.0j, 1.0 + 0.05j, -1.0 - 0.05j,
             0.3 + 0.05j, 1.05, 2.0 + 0.10000000000000002j, 0.3 + 0.05000000000000001j]
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
        near = np.array(centers)[rng.integers(0, 3, 10)] + 0.3 * rng.standard_normal(10)
        rts = [complex(z) for z in np.concatenate([pts, near, edges])]
        rng.shuffle(rts)
        rep = cluster(rts, centers)
        assert (rep.radius, rep.support_band) == (r, band)
        counts, support, leftovers = _scalar_cluster(rts, centers, r, band)
        assert rep.cluster_counts == counts
        assert rep.support_count == support
        assert rep.unassigned == leftovers
    assert cluster([], centers).cluster_counts == [0, 0, 0]
    assert cluster([0.5, 4.0], []).unassigned == [4.0]
