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
from relasym.polybasis import MONIC
from relasym.zeros import default_radius

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
