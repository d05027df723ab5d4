"""Comrade-matrix roots and attraction-disk sorting."""
import numpy as np
import pytest
from scipy.special import roots_legendre

from relasym import (
    BaseMeasureSpec,
    ClusterConfigError,
    PolyInBasis,
    ZeroReport,
    ZerosError,
    cluster,
    radius_halving_stable,
    recurrence_for,
    roots,
    scenario,
    sn_kernel,
)
from relasym.polybasis import MONIC, ORTHONORMAL
from relasym.zeros import RESIDUAL_TOL, _comrade_matrix, _root_residuals, default_radius

CHEB = recurrence_for(BaseMeasureSpec("chebyshev_first_kind"), 20)
LEG = recurrence_for(BaseMeasureSpec("legendre"), 20)


def test_monic_cheb_degree2_roots():
    r = roots(PolyInBasis.basis_poly(CHEB, 2))
    assert r[0] == pytest.approx(-0.70710678118654752, abs=1e-14)
    assert r[1] == pytest.approx(0.70710678118654752, abs=1e-14)


def test_legendre_roots_match_gauss_nodes():
    got = roots(PolyInBasis.basis_poly(LEG, 5))
    nodes = np.sort(roots_legendre(5)[0])
    assert np.max(np.abs(np.array(got) - nodes)) < 1e-13


def test_conjugate_pair_is_exact():
    # x^2 + 1 = L_2 + 3/2 over the cheb monic basis; real data must go
    # through the real eigensolver so the pair conjugates exactly
    p = PolyInBasis(MONIC, np.array([1.5, 0.0, 1.0], dtype=complex), 2, CHEB)
    r = roots(p)
    assert r[0] == r[1].conjugate()
    assert r[0].imag < 0 < r[1].imag


def test_degree_zero_has_no_roots():
    assert roots(PolyInBasis.basis_poly(CHEB, 0)) == []


def test_zero_leading_coefficient_rejected():
    p = PolyInBasis(MONIC, np.array([1.0, 0.0], dtype=complex), 1, CHEB)
    with pytest.raises(ZerosError):
        roots(p)


def test_residual_check_optional():
    p = PolyInBasis.basis_poly(LEG, 7)
    assert roots(p, check_residual=False) == roots(p)


def _pointwise_residual(q, z, norm_a):
    """One root at a time: PolyInBasis.jet plus the scalar running scale."""
    c, a, b = q.coeffs, q.table.a, q.table.b
    v_prev, v_cur = 0j, complex(q.table.tau[0])
    e_prev, e_cur = 0.0, abs(q.table.tau[0])
    total = abs(c[0]) * (e_cur + abs(v_cur))
    for k in range(q.degree):
        grow = abs(z) + abs(b[k])
        step = (grow * abs(v_cur) + a[k] * abs(v_prev)) / a[k + 1]
        v_prev, v_cur = v_cur, ((z - b[k]) * v_cur - a[k] * v_prev) / a[k + 1]
        e_prev, e_cur = e_cur, (grow * e_cur + a[k] * e_prev) / a[k + 1] + step
        total += abs(c[k + 1]) * (e_cur + abs(v_cur))
    jet = q.jet(z, 1)
    return abs(jet[0]) / (total + norm_a * abs(jet[1]))


def test_residual_gate_rejects_perturbed_roots():
    n = 60
    p = PolyInBasis.basis_poly(recurrence_for(BaseMeasureSpec("legendre"), n), n)
    q = p.to_basis(ORTHONORMAL)
    norm_a = float(np.linalg.norm(_comrade_matrix(p), np.inf))
    nodes = roots_legendre(n)[0].astype(complex)
    assert np.max(_root_residuals(q, nodes, norm_a)) <= 1e-12
    moved = nodes * (1.0 + 1e-5)
    got = _root_residuals(q, moved, norm_a)
    assert np.max(got) > RESIDUAL_TOL
    want = [_pointwise_residual(q, z, norm_a) for z in moved]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


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
    rep = cluster(rts, [2.0], radius=0.1, support_band=0.05)
    assert rep.cluster_counts == [1]
    assert rep.support_count == 2
    assert rep.unassigned == [5.0]
    assert rep.radius == 0.1
    d = rep.to_json_dict()
    assert d["cluster_counts"] == [1] and d["unassigned"] == [[5.0, 0.0]]


def test_cluster_rejects_ambiguous_disks():
    with pytest.raises(ClusterConfigError):
        cluster([], [2.0, 2.15], radius=0.1)
    with pytest.raises(ClusterConfigError):
        cluster([], [1.5], radius=0.3)
    with pytest.raises(ClusterConfigError):
        cluster([], [2.0], radius=-0.1)
    with pytest.raises(ClusterConfigError):
        cluster([], [2.0], radius=0.1, support_band=-1.0)


def test_report_counts_must_add_up():
    with pytest.raises(ZerosError):
        ZeroReport(roots=[1.0, 2.0], centers=[], cluster_counts=[],
                   support_count=1, unassigned=[], radius=0.0,
                   support_band=0.05)


def test_radius_halving_stability():
    tight = [2.005, 0.1, -0.4]
    assert radius_halving_stable(tight, [2.0], radius=0.1)
    # a root at distance 0.07 survives r=0.1 but not r=0.05
    assert not radius_halving_stable([2.07, 0.1], [2.0], radius=0.1)


def test_sobolev_zero_attraction_end_to_end():
    cfg = scenario("sobolev_point_derivative")
    table = recurrence_for(cfg.measure, 65)
    s = sn_kernel(60, cfg.sobolev, table)
    rep = cluster(roots(s.rep), [t.c for t in cfg.sobolev.terms],
                  radius=0.1, support_band=0.05)
    assert rep.cluster_counts == [1]
    assert rep.support_count == 59
    assert not rep.unassigned
