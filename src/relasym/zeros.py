"""Polynomial roots in the mu-basis and zero-attraction bookkeeping.

Roots are computed as eigenvalues of the comrade matrix: the symmetric
tridiagonal recurrence matrix of the orthonormal basis with a rank-one
last-row correction from the coefficient vector.  For a degree-n
polynomial p = sum c_k l_k (c_n != 0) the matrix

    A = J_n - (a_n / c_n) e_{n-1} c[0:n]^T

has characteristic polynomial p / (c_n tau_n x^0-lead), so its
eigenvalues are exactly the roots of p, with multiplicity.

cluster() sorts a root set into disjoint attraction disks around given
centers, a band around the support [-1, 1], and leftovers.  Counts per
disk against the band population is the standard diagnostic for point
masses and poles off the interval: each center is expected to capture a
fixed finite number of roots while the rest crowd the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .joukowski import dist_to_cut
from .polybasis import ORTHONORMAL, PolyInBasis

__all__ = [
    "ZeroReport",
    "ZerosError",
    "ClusterConfigError",
    "RESIDUAL_TOL",
    "roots",
    "cluster",
    "default_radius",
    "radius_halving_stable",
]

RESIDUAL_TOL = 1e-7


class ZerosError(ValueError):
    pass


class ClusterConfigError(ZerosError):
    """Attraction disks overlap each other or are not separated from [-1, 1]."""


@dataclass
class ZeroReport:
    """Root set sorted into attraction disks / support band / leftovers."""

    roots: list[complex]
    centers: list[complex]
    cluster_counts: list[int]
    support_count: int
    unassigned: list[complex]
    radius: float
    support_band: float

    def __post_init__(self):
        total = sum(self.cluster_counts) + self.support_count + len(self.unassigned)
        if total != len(self.roots):
            raise ZerosError("cluster counts do not add up to the root count")

    def to_json_dict(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "centers": [[c.real, c.imag] for c in self.centers],
            "cluster_counts": list(self.cluster_counts),
            "support_count": self.support_count,
            "unassigned": [[z.real, z.imag] for z in self.unassigned],
            "radius": self.radius,
            "support_band": self.support_band,
        }


def _comrade_matrix(p: PolyInBasis) -> np.ndarray:
    table = p.table
    q = p.to_basis(ORTHONORMAL)
    n = q.degree
    c = q.coeffs
    if c[n] == 0:
        raise ZerosError("degree mismatch: leading coefficient is zero")
    if table.nmax < n:
        raise ZerosError(f"table nmax {table.nmax} < degree {n}")
    A = np.diag(table.b[:n].astype(complex))
    if n > 1:
        off = table.a[1:n].astype(complex)
        A += np.diag(off, 1) + np.diag(off, -1)
    A[n - 1, :] -= (table.a[n] / c[n]) * c[:n]
    return A


def _running_scale(coeffs: np.ndarray, table, z: complex) -> float:
    """Error-bound scale of evaluating sum c_k l_k at z (orthonormal c).

    Runs the orthonormal recurrence alongside an accumulated bound: at
    each step the bound is propagated like the values and topped up by
    the term magnitude of that step, which is the standard running
    error estimate up to the unit roundoff factor.  |p(z)| below eps
    times this scale means z is a root to working precision, no matter
    how sparse the coefficient vector or where z sits.
    """
    n = len(coeffs) - 1
    az, a, b = abs(z), table.a, table.b
    v_prev, v_cur = 0.0 + 0.0j, complex(table.tau[0])
    e_prev, e_cur = 0.0, abs(table.tau[0])
    total = abs(coeffs[0]) * (e_cur + abs(v_cur))
    for k in range(n):
        grow = az + abs(b[k])
        step = (grow * abs(v_cur) + a[k] * abs(v_prev)) / a[k + 1]
        v_next = ((z - b[k]) * v_cur - a[k] * v_prev) / a[k + 1]
        e_next = (grow * e_cur + a[k] * e_prev) / a[k + 1] + step
        v_prev, v_cur = v_cur, v_next
        e_prev, e_cur = e_cur, e_next
        total += abs(coeffs[k + 1]) * (e_cur + abs(v_cur))
    return total


def roots(p: PolyInBasis, check_residual: bool = True) -> list[complex]:
    """All deg(p) roots, sorted by (re, im).

    Eigenvalues of the comrade matrix.  Each root is validated against
    the running-error scale of the evaluation; a relative residual
    above RESIDUAL_TOL raises, since it means the root set cannot be
    trusted at the advertised accuracy.
    """
    if p.degree == 0:
        return []
    A = _comrade_matrix(p)
    # real coefficient data keeps the eigensolve in real arithmetic so
    # conjugate pairs come out exact
    if np.max(np.abs(A.imag)) == 0.0:
        vals = np.linalg.eigvals(A.real).astype(complex)
    else:
        vals = np.linalg.eigvals(A)
    out = sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))
    if check_residual:
        q = p.to_basis(ORTHONORMAL)
        # two noise channels: evaluating p at z, and z itself sitting an
        # O(eps ||A||) eigenvalue perturbation away from the true root
        norm_a = float(np.linalg.norm(A, np.inf))
        worst = 0.0
        for z in out:
            jet = q.jet(z, 1)
            scale = _running_scale(q.coeffs, q.table, z) + norm_a * abs(jet[1])
            if scale == 0.0:
                raise ZerosError("zero evaluation scale at computed root")
            worst = max(worst, abs(jet[0]) / scale)
        if worst > RESIDUAL_TOL:
            raise ZerosError(f"root residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return out


def default_radius(centers) -> float:
    """0.1 of the smallest distance from any center to [-1,1] or another center."""
    cs = [complex(c) for c in centers]
    if not cs:
        raise ClusterConfigError("no attraction centers")
    d = min(float(dist_to_cut(c)) for c in cs)
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            d = min(d, abs(cs[i] - cs[j]))
    if d <= 0:
        raise ClusterConfigError("coincident centers or center on [-1, 1]")
    return 0.1 * d


def cluster(root_list, centers, radius: float | None = None,
            support_band: float = 0.05) -> ZeroReport:
    """Sort roots into center disks, the support band, and leftovers.

    Disks of the given radius around each center must be pairwise
    disjoint and disjoint from [-1, 1] with room to spare (radius below
    half the relevant distances), else the counts would be ambiguous
    and a ClusterConfigError is raised.
    """
    rts = [complex(z) for z in root_list]
    cs = [complex(c) for c in centers]
    band = float(support_band)
    if band < 0:
        raise ClusterConfigError("support_band must be nonnegative")
    if cs:
        r = default_radius(cs) if radius is None else float(radius)
        if r <= 0:
            raise ClusterConfigError("radius must be positive")
        sep = min(float(dist_to_cut(c)) for c in cs)
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                sep = min(sep, abs(cs[i] - cs[j]))
        if r >= 0.5 * sep:
            raise ClusterConfigError(
                f"radius {r:g} >= half the minimum center separation {sep:g}")
    else:
        r = 0.0 if radius is None else float(radius)
    counts = [0] * len(cs)
    support = 0
    leftovers: list[complex] = []
    for z in rts:
        hit = None
        for i, c in enumerate(cs):
            if abs(z - c) <= r:
                hit = i
                break
        if hit is not None:
            counts[hit] += 1
        elif float(dist_to_cut(z)) <= band:
            support += 1
        else:
            leftovers.append(z)
    return ZeroReport(roots=rts, centers=cs, cluster_counts=counts,
                      support_count=support, unassigned=leftovers,
                      radius=r, support_band=band)


def radius_halving_stable(root_list, centers, radius: float | None = None,
                          support_band: float = 0.05) -> bool:
    """True when per-center counts survive halving of the disk radius.

    The attraction statements hold for every sufficiently small
    neighborhood, so once n is past the transient the counts must not
    depend on the disk size; this is the cheap way to detect that.
    """
    cs = [complex(c) for c in centers]
    r = default_radius(cs) if radius is None else float(radius)
    full = cluster(root_list, cs, r, support_band)
    half = cluster(root_list, cs, 0.5 * r, support_band)
    return full.cluster_counts == half.cluster_counts
