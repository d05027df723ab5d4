"""Polynomial roots in the mu-basis and zero-attraction bookkeeping.

For a degree-n polynomial p = sum c_k l_k (orthonormal basis, c_n != 0)
the comrade matrix

    A = J_n - e_{n-1} f^T,    f = (a_n / c_n) c[0:n],

the symmetric tridiagonal recurrence matrix with a rank-one last-row
correction, has the roots of p as its eigenvalues, with multiplicity.
roots() takes one of two routes:

- f = 0 (p is a multiple of l_n): A = J_n, and the roots are the Gauss
  nodes from the symmetric eigensolver.
- f != 0: the roots are the zeros of the secular function
  g(z) = p(z) / (lc_p omega(z)) = 1 + sum_i beta_i / (z - t_i), p in
  Lagrange form over the zeros t_i of omega = 2^{1-n} T_n, the Chebyshev
  points, which are in closed form: no eigensolver runs.  The weights
  beta_i = p(t_i) / (lc_p omega'(t_i)) take one forward recurrence sweep
  over the t_i (secular equations: Golub, SIAM Rev. 15, 1973).
  Vectorized Aberth sweeps on g find its zeros in O(n^2) per sweep
  (Bini & Robol, J. Comput. Appl. Math. 272, 2014) and O(n) memory: the
  n x n Cauchy matrices are formed a block of rows at a time in one
  workspace per solve, of BLOCK complex entries (128 KB) or one row when
  n is larger, which the weights sweep and the conjugate pairing use
  too.  On real data the starts leave the real axis, so that the sweeps
  can reach conjugate pairs.  Roots off the support band, where the sum
  cancels, are finished on p itself in extended precision: a cluster of
  k roots, where Aberth steps converge only linearly, restarts from the
  zeros of the degree-k Taylor polynomial of p at its centroid (the
  cluster analysis of Bini & Fiorentino, Numer. Algorithms 23, 2000),
  and every off-band root then takes Aberth steps on p until they are
  below POLISH_TOL or |p| is at its rounding level.  On real data the
  roots are then paired under conjugation, so that real roots are
  exactly real and the others come in exact conjugate pairs.  A solve
  that does not converge, or real-data roots that do not pair, refuse
  with the kind "unconverged"; no route falls back to another.

The residual gate checks every root set in one forward sweep of the
orthonormal recurrence over the root array.  l_k and l_k' at all m roots
form one flat complex row of length 2m, advanced by a fixed handful of
in-place ufunc calls per degree, and the running error bound carries
s_k = e_k + |l_k| alongside it.  A sweep that leaves the double range
refuses instead of passing a nan residual.

cluster() sorts a root set into disjoint attraction disks around given
centers, a band around the support [-1, 1], and leftovers.  Counts per
disk against the band population is the standard diagnostic for point
masses and poles off the interval: each center is expected to capture a
fixed finite number of roots while the rest crowd the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .joukowski import dist_to_cut
from .measures import RecurrenceTable
from .polybasis import PolyInBasis
from .reader import ConfigError, Refusal

__all__ = [
    "ZeroReport",
    "ZerosError",
    "ClusterConfigError",
    "RESIDUAL_TOL",
    "roots",
    "cluster",
    "default_radius",
]

RESIDUAL_TOL = 1e-7
# cluster() counts the roots within SUPPORT_BAND of [-1, 1] as the band's
SUPPORT_BAND = 0.05
EPS = float(np.finfo(float).eps)
LD_EPS = np.finfo(np.longdouble).eps
# Aberth sweeps on the secular function before the solve refuses
MAX_SWEEPS = 60
# entries of the complex workspace (128 KB) in which the secular solve forms
# its Cauchy matrices a block of rows at a time
BLOCK = 2**13
# roots farther than POLISH_BAND from [-1, 1] take Aberth steps on p itself
# (at most POLISH_STEPS, until a step is at most POLISH_TOL |z| or |p| is at
# its rounding level): there the secular sum cancels and leaves them ~1e-6 off
POLISH_BAND = 0.05
POLISH_TOL = 1e-10
POLISH_STEPS = 10
# an off-band root leaves the secular sweeps once its step is at most
# CLUSTER_STEP times its distance to [-1, 1] but above CLUSTER_RATE times its
# previous step: the linear rate of Aberth steps on a cluster.  Off-band
# roots within CLUSTER_SPREAD times that distance of each other form one
# cluster for the polish.
CLUSTER_STEP = 1e-4
CLUSTER_RATE = 0.25
CLUSTER_SPREAD = 1e-2
# turn between the kicks of consecutive real Aberth starts: the golden
# angle, so that no two kicks of nearby roots are alike or mirrored
KICK_ANGLE = 2.39996


class ZerosError(Refusal):
    """A refused root solve; kind names the cause ("unconverged" for an
    iteration that does not converge, else "pre_asymptotic")."""


class ClusterConfigError(ConfigError):
    """Attraction centers that give no disks: none, two that coincide, or
    one on [-1, 1]."""


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


def _last_row(c: np.ndarray, table: RecurrenceTable) -> np.ndarray:
    """f = (a_n / c_n) c[0:n] of the comrade matrix, c the orthonormal
    coefficients of p."""
    n = len(c) - 1
    if c[n] == 0:
        raise ZerosError("degree mismatch: leading coefficient is zero")
    if table.nmax < n:
        raise ZerosError(f"table nmax {table.nmax} < degree {n}")
    return (table.a[n] / c[n]) * c[:n]


def _jacobi(table, n: int) -> np.ndarray:
    """Dense J_n: diagonal b_0..b_{n-1}, off-diagonal a_1..a_{n-1}."""
    J = np.zeros((n, n))
    i = np.arange(n)
    J[i, i] = table.b[:n]
    J[i[1:], i[:-1]] = J[i[:-1], i[1:]] = table.a[1:n]
    return J


def _comrade_norm(table: RecurrenceTable, f: np.ndarray) -> float:
    """||A||_inf in O(n): the tridiagonal rows, then the last row."""
    n, a, b = len(f), table.a, table.b
    last = np.abs(f)
    last[-1] = abs(b[n - 1] - f[-1])
    if n == 1:
        return float(last[0])
    last[-2] = abs(a[n - 1] - f[-2])
    rows = np.abs(b[: n - 1]) + a[1:n]
    rows[1:] += a[1 : n - 1]
    return max(float(rows.max()), float(last.sum()))


def _sweep(c: np.ndarray, table: RecurrenceTable, z, order: int = 1):
    """Taylor coefficients p^(j)(z) / j!, j = 0..order, at one point z of
    type np.clongdouble, from one forward sweep of the orthonormal recurrence
    over the orthonormal coefficients c of p in extended precision, and the
    rounding level u sum_k |c_k l_k(z)| of p(z).  Differentiating the recurrence j times and
    dividing by j! gives t_{k+1,j} = ((z - b_k) t_{k,j} + t_{k,j-1}
    - a_k t_{k-1,j}) / a_{k+1} for t_{k,j} = l_k^(j)(z) / j!.  A sweep that
    overflows refuses."""
    n = len(c) - 1
    c = list(c.astype(np.clongdouble))
    a = list(table.a[: n + 1].astype(np.longdouble))
    shifted = list(z - table.b[:n].astype(np.longdouble))
    orders = range(1, order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        prev = [0.0] * (order + 1)
        row = [np.longdouble(table.tau[0])] + [0.0] * order
        acc = [c[0] * row[0]] + [0.0] * order
        level = abs(acc[0])
        for g, ak, a_next, ck in zip(shifted, a, a[1:], c[1:]):
            v = (g * row[0] - ak * prev[0]) / a_next
            nxt = [v]
            term = ck * v
            acc[0] += term
            level += abs(term)
            for j in orders:
                v = (g * row[j] + row[j - 1] - ak * prev[j]) / a_next
                nxt.append(v)
                acc[j] += ck * v
            prev, row = row, nxt
    if not all(np.isfinite(t) for t in acc + [level]):
        raise ZerosError(f"recurrence sweep overflows the double range at degree {n}")
    return acc, LD_EPS * level


def _root_residuals(c: np.ndarray, table: RecurrenceTable, z: np.ndarray,
                    norm_a: float) -> np.ndarray:
    """|p(z)| / scale at every z, c the orthonormal coefficients of p.  The
    scale is the running error bound of the recurrence (Higham, Accuracy and
    Stability, sec. 3.3) plus ||A|| |p'(z)|, since z sits an O(eps ||A||)
    eigenvalue perturbation away from the true root.

    One forward sweep over all m roots at once.  l_k and l_k' share one
    flat complex row, l_k at [:m] and l_k' at [m:], so a degree is one step
    l_{k+1} = ((z - b_k) l_k + [0, l_k] - a_k l_{k-1}) / a_{k+1}, and p, p'
    accumulate as c_{k+1} l_{k+1}.  The bound carries s_k = e_k + |l_k| in
    place of the error e_k: e_{k+1} = (g_k s_k + a_k s_{k-1}) / a_{k+1}, with
    g_k = |z| + |b_k|, and it sums |c_k| s_k.  A sweep that leaves the
    double range refuses instead of passing a nan residual."""
    z = np.asarray(z, dtype=complex)
    m, n = z.size, len(c) - 1
    a, b = table.a, table.b
    # column k: b_k, a_k, 1/a_{k+1}, c_{k+1}; complex for the row, absolute
    # for the bound (a_k > 0)
    coef = np.stack([b[:n], a[:n], 1.0 / a[1 : n + 1], c[1:]]).astype(complex)
    zz, az = np.concatenate([z, z]), np.abs(z)
    tmp = np.zeros(2 * m, dtype=complex)
    # each row with its value and derivative blocks as views
    prev, row, nxt = ((w, w[:m], w[m:]) for w in np.zeros((3, 2 * m), dtype=complex))
    row[1][:] = table.tau[0]
    acc = c[0] * row[0]
    s_prev, s, s_next = np.zeros((3, m))
    g, u = np.zeros((2, m))
    s[:] = 2.0 * abs(table.tau[0])   # e_0 = |l_0|
    total = abs(c[0]) * s
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (zk, rk) in enumerate(zip(coef.T, np.abs(coef).T)):
            # 0-d views: numpy converts a Python scalar on every call, which
            # costs as much as the call itself on rows this short
            bk, ak, inv_a, ck = zk[0, ...], zk[1, ...], zk[2, ...], zk[3, ...]
            abs_bk, abs_ak, abs_inv_a, abs_ck = rk[0, ...], rk[1, ...], rk[2, ...], rk[3, ...]
            w, w_val, w_der = nxt
            np.subtract(zz, bk, out=tmp)
            np.multiply(tmp, row[0], out=w)
            np.add(w_der, row[1], out=w_der)
            np.add(az, abs_bk, out=g)
            np.multiply(g, s, out=g)
            if k:   # l_{-1} = 0 and s_{-1} = 0
                np.multiply(prev[0], ak, out=tmp)
                np.subtract(w, tmp, out=w)
                np.multiply(s_prev, abs_ak, out=u)
                np.add(g, u, out=g)
            np.multiply(w, inv_a, out=w)
            np.multiply(w, ck, out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(g, abs_inv_a, out=s_next)
            np.abs(w_val, out=u)
            np.add(s_next, u, out=s_next)
            np.multiply(s_next, abs_ck, out=u)
            np.add(total, u, out=total)
            prev, row, nxt = row, nxt, prev
            s_prev, s, s_next = s, s_next, s_prev
    if not (np.all(np.isfinite(acc)) and np.all(np.isfinite(total))):
        raise ZerosError(f"recurrence sweep overflows the double range at degree {n}")
    # a root where p is exactly 0 has residual 0, whatever its scale
    val, scale = np.abs(acc[:m]), total + norm_a * np.abs(acc[m:])
    if np.any((scale == 0.0) & (val > 0.0)):
        raise ZerosError("zero evaluation scale at computed root")
    return np.divide(val, scale, out=np.zeros(m), where=val > 0.0)


def _secular_weights(table: RecurrenceTable, f: np.ndarray, work: np.ndarray):
    """Poles t and weights beta of the secular function of p (f != 0):
    p(z) / (lc_p omega(z)) = 1 + sum_i beta_i / (z - t_i), omega the monic
    2^{1-n} T_n, whose zeros t_i = cos(theta_i), theta_i = (2i+1) pi / 2n,
    are in closed form.  beta_i = p(t_i) / (lc_p omega'(t_i)), and
    omega'(t_i) = 2^{1-n} n (-1)^i / sin(theta_i).  p(t_i) comes from one
    forward sweep of the orthonormal recurrence over all n points, stable
    on [-1, 1], streamed through the workspace: the rows l_k of a block of
    degrees k fill its floats, and one product per block adds their part
    of f . l to a complex accumulator, so the memory is O(n).  Through
    n = 128 every degree fits one block, and f . l is a single product.
    lc_p = c_n tau_0 / prod a_k and the 2^{1-n} of omega enter together as
    tau_0 prod (2 a_k)^{-1}, whose terms tend to 1 (a_k -> 1/2 on
    [-1, 1]), so the constant does not overflow where 2^n or tau_n would.
    The poles are returned ascending."""
    n, a, b = len(f), table.a, table.b
    # t_j = sin(phi_j) = cos(theta_{n-1-j}): ascending, exactly symmetric about 0
    phi = (0.5 * np.pi / n) * np.arange(1 - n, n, 2)
    t = np.sin(phi)
    # l_{k-1}, l_k at every t_j; p / c_n = l_n + (f . l) / a_n
    prev, row = np.zeros(n), np.full(n, table.tau[0])
    acc = np.zeros(n, dtype=complex)
    for degrees, ell in _row_blocks(work.view(float), n, n):
        for k, out in zip(range(degrees.start, degrees.stop), ell):
            out[:] = row
            prev, row = row, ((t - b[k]) * row - a[k] * prev) / a[k + 1]
        acc += f.real[degrees] @ ell + 1j * (f.imag[degrees] @ ell)
    val = row + acc / a[n]
    # sin(theta_i) (-1)^i / (2n tau_0 prod (2 a_k)^{-1}), i = n - 1 - j
    scale = np.cos(phi) / (2 * n * table.tau[0] * np.prod(0.5 / a[1 : n + 1]))
    scale[n % 2 :: 2] *= -1.0   # i = n - 1 - j odd
    return t, val * scale


def _secular_roots(c: np.ndarray, table: RecurrenceTable, f: np.ndarray) -> np.ndarray:
    """Roots of p for f != 0: the zeros of the secular function, whose
    poles are the Chebyshev points, then Aberth steps on p itself for the
    roots off the band, then, for real f, the conjugate pairing.  A pole
    with |beta_i| below the rounding level of the points is deflated: its
    root is the point t_i."""
    work = _workspace(len(f))
    t, beta = _secular_weights(table, f, work)
    z = t.astype(complex)
    live = np.abs(beta) > EPS * np.max(np.abs(t))
    z[live] = _aberth(t[live], beta[live], len(f), work)
    _polish(c, table, z)
    if not np.any(f.imag):
        _pair_conjugates(z, work)
    return z


def _workspace(n: int) -> np.ndarray:
    """Flat complex workspace for the row blocks of the n x n Cauchy
    matrices of one solve: BLOCK entries, or n x n when that is smaller, or
    one row of n when a row alone is longer."""
    return np.empty(max(n, min(n * n, BLOCK)), dtype=complex)


def _row_blocks(work: np.ndarray, count: int, m: int):
    """(rows, block) per run of max(1, work.size // m) consecutive rows out
    of count: rows the slice of the row range, block a (rows, m) view of
    the workspace."""
    height = max(1, work.size // max(1, m))
    for start in range(0, count, height):
        stop = min(start + height, count)
        yield slice(start, stop), work[: (stop - start) * m].reshape(stop - start, m)


def _aberth(x: np.ndarray, beta: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """Zeros of g(z) = 1 + sum_i beta_i / (z - x_i) by simultaneous Aberth
    sweeps over the roots still active.  p'/p = g'/g + sum_i 1/(z - x_i)
    for p ~ g prod (z - x_i).  Root i starts at x_i - beta_i / g_i(x_i),
    the zero of its own pole term against the sum g_i of the others, and
    retires once its step is at most eps |z|, once |g| is at its rounding
    level m eps (1 + sum_i |beta_i / (z - x_i)|), or once it is off the
    band and shrinks only linearly (CLUSTER_STEP, CLUSTER_RATE): _polish
    resolves such a cluster from its centroid.  The Cauchy matrices
    1/(z - x_i) and 1/(z - z_j) are formed a block of rows at a time in the
    workspace (_workspace), so temporaries are (rows, m), rows = BLOCK // m
    once m^2 passes BLOCK: the memory is O(m), and retired roots cost
    nothing.  A row's arithmetic does not depend on its block, and the
    retire decisions run once per sweep on the whole active set.

    On real data every start is real, and real steps would never leave
    the axis to reach a conjugate pair.  So a start with imaginary part
    exactly 0 moves by 0.1 times the gap to its nearest pole, in the
    direction e^{i KICK_ANGLE k}, k its index: unlike a common kick along
    i, the golden-angle turns keep no mirror symmetry z -> -conj(z) that
    could hold a pair on the axis (x^2 + 1 on Chebyshev cycles for
    MAX_SWEEPS under +i).  Complex data has no exactly real start and is
    not moved."""
    m = x.size
    abs_beta = np.abs(beta)
    last = np.full(m, np.inf)
    z = np.empty(m, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the real Cauchy rows 1/(x_i - x_j), i != j, in the workspace's floats
        for rows, blk in _row_blocks(work.view(float), m, m):
            np.subtract.outer(x[rows], x, out=blk)
            blk[np.arange(len(blk)), np.arange(rows.start, rows.stop)] = np.inf
            np.reciprocal(blk, out=blk)
            z[rows] = x[rows] - beta[rows] / (1.0 + blk @ beta.real + 1j * (blk @ beta.imag))
        if m > 1:
            real = np.flatnonzero(z.imag == 0.0)
            gap = np.diff(x)
            spacing = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf))
            z[real] += 0.1 * spacing[real] * np.exp(KICK_ANGLE * 1j * real)
        active = np.arange(m)
        for _ in range(MAX_SWEEPS):
            if not active.size:
                return z
            za = z[active]
            step = np.empty(active.size, dtype=complex)
            done = np.empty(active.size, dtype=bool)
            for rows, blk in _row_blocks(work, active.size, m):
                np.subtract.outer(za[rows], x, out=blk)
                np.reciprocal(blk, out=blk)
                g = 1.0 + blk @ beta
                done[rows] = np.abs(g) <= m * EPS * (1.0 + np.abs(blk) @ abs_beta)
                poles = blk.sum(axis=1)
                np.multiply(blk, blk, out=blk)
                newton = g / (poles * g - blk @ beta)
                np.subtract(za[rows, None], z, out=blk)
                blk[np.arange(len(blk)), active[rows]] = np.inf
                np.reciprocal(blk, out=blk)
                step[rows] = newton / (1.0 - newton * blk.sum(axis=1))
            step[done] = 0.0
            za = z[active] = za - step
            size, dist = np.abs(step), dist_to_cut(za)
            linear = ((dist > POLISH_BAND) & (size <= CLUSTER_STEP * dist)
                      & (size > CLUSTER_RATE * last[active]))
            last[active] = size
            active = active[~done & ~linear & (size > EPS * np.abs(za))]
    if active.size:
        raise ZerosError(f"root iteration did not converge at degree {n}",
                         kind="unconverged")
    return z


def _pair_conjugates(z: np.ndarray, work: np.ndarray) -> None:
    """Make the roots of a real polynomial exactly closed under conjugation,
    in place.  Each root's partner is the root nearest to its conjugate: a
    root that is its own partner is real, and two roots that are each
    other's partner become w and conj(w), w the mean of the one and the
    conjugate of the other.  A partner that is not mutual refuses.  The
    distances |conj(z_j) - z_i| are formed a block of rows j at a time in
    the workspace."""
    idx = np.arange(z.size)
    partner = np.empty(z.size, dtype=np.intp)
    for rows, blk in _row_blocks(work, z.size, z.size):
        np.subtract(z[rows, None].conj(), z, out=blk)
        partner[rows] = np.argmin(np.abs(blk), axis=1)
    if np.any(partner[partner] != idx):
        raise ZerosError(f"roots do not pair under conjugation at degree {z.size}",
                         kind="unconverged")
    own = partner == idx
    z[own] = z[own].real
    first = np.flatnonzero(partner > idx)
    w = 0.5 * (z[first] + z[partner[first]].conj())
    z[first], z[partner[first]] = w, w.conj()


def _clusters(z: np.ndarray, idx, dist: np.ndarray) -> list:
    """Index lists of the connected components of z[idx], two roots being
    linked when they lie within CLUSTER_SPREAD times the larger of their
    distances dist to [-1, 1] of each other."""
    groups = []
    for i in idx:
        linked = [g for g in groups if any(
            abs(z[i] - z[j]) <= CLUSTER_SPREAD * max(dist[i], dist[j]) for j in g)]
        groups = [g for g in groups if g not in linked]
        groups.append([i] + [j for g in linked for j in g])
    return groups


def _polish(c: np.ndarray, table: RecurrenceTable, z: np.ndarray) -> None:
    """Finish the roots off the band in place, in extended precision: in
    double, the recurrence's rounding error alone moves a near-double
    attracted pair by ~1e-8.  A cluster of k > 1 roots first moves to the k
    zeros of the degree-k Taylor polynomial of p at its centroid, from one
    sweep that carries orders 0..k.  Then each off-band root takes Aberth
    steps on p until a step is at most POLISH_TOL |z| or |p| is at its
    rounding level, where a step is noise; a root still moving after
    POLISH_STEPS refuses."""
    dist = dist_to_cut(z)
    off = np.flatnonzero(dist > POLISH_BAND).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        for group in _clusters(z, off, dist):
            if len(group) > 1:
                center = np.clongdouble(z[group].mean())
                taylor = _sweep(c, table, center, len(group))[0]
                if taylor[-1] != 0:   # monic in extended precision: no double overflow
                    monic = np.array([t / taylor[-1] for t in taylor[::-1]], dtype=complex)
                    z[group] = complex(center) + np.roots(monic)
        for _ in range(POLISH_STEPS):
            moving = []
            for j in off:
                zj = np.clongdouble(z[j])
                (val, der), level = _sweep(c, table, zj)
                if der == 0 or abs(val) <= level:
                    continue
                newton = val / der
                gaps = z[j] - z
                gaps[j] = np.inf
                step = newton / (1 - newton * np.sum(1.0 / gaps))
                z[j] = complex(zj - step)
                if abs(step) > POLISH_TOL * abs(z[j]):
                    moving.append(j)
            if not moving:
                return
            off = moving
    raise ZerosError(f"root polish did not converge at degree {z.size}",
                     kind="unconverged")


def roots(p: PolyInBasis) -> list[complex]:
    """All deg(p) roots, sorted by (re rounded to 12 decimals, im).

    Eigenvalues of the comrade matrix A = J_n - e_{n-1} f^T: the Gauss
    nodes when f = 0, else the secular Aberth solve over the Chebyshev
    points with the extended precision finish and, when f is real, the
    conjugate pairing (module docstring).
    Each root is validated against the running-error scale of the
    evaluation; a relative residual above RESIDUAL_TOL raises, since it
    means the root set cannot be trusted at the advertised accuracy.
    """
    n, table = p.degree, p.table
    if n == 0:
        return []
    c = p.coeffs / table.tau[: n + 1]      # c_m L_m = (c_m / tau_m) l_m
    f = _last_row(c, table)
    if not np.any(f):
        vals = np.linalg.eigvalsh(_jacobi(table, n))
    else:
        vals = _secular_roots(c, table, f)
    # real parts equal to 12 decimals order by imaginary part, so that noise
    # in the real parts of roots on a vertical line does not reorder them
    out = sorted((complex(v) for v in vals), key=lambda z: (round(z.real, 12), z.imag))
    worst = float(np.max(_root_residuals(c, table, np.array(out), _comrade_norm(table, f))))
    if worst > RESIDUAL_TOL:
        raise ZerosError(f"root residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return out


def _separation(cs: list) -> float:
    """The smallest distance from any center to [-1, 1] or another center."""
    d = min(float(dist_to_cut(c)) for c in cs)
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            d = min(d, abs(cs[i] - cs[j]))
    return d


def default_radius(centers) -> float:
    """0.1 of the smallest distance from any center to [-1,1] or another center."""
    cs = [complex(c) for c in centers]
    if not cs:
        raise ClusterConfigError("no attraction centers")
    d = _separation(cs)
    if d <= 0:
        raise ClusterConfigError("coincident centers or center on [-1, 1]")
    return 0.1 * d


def cluster(root_list, centers) -> ZeroReport:
    """Sort roots into center disks, the support band, and leftovers.

    The disks have radius `default_radius(centers)`, a tenth of the
    smallest distance from a center to [-1, 1] or another center, so they
    are disjoint from each other and from [-1, 1].  The band holds the
    other roots within SUPPORT_BAND of [-1, 1].
    """
    rts = [complex(z) for z in root_list]
    cs = [complex(c) for c in centers]
    r = default_radius(cs) if cs else 0.0
    zs = np.array(rts, dtype=complex)
    counts = [0] * len(cs)
    in_disk = np.zeros(zs.size, dtype=bool)
    if cs:
        # argmax: the first disk that holds the root, as in a scan over centers
        hits = np.abs(zs[:, None] - np.array(cs)) <= r
        in_disk = hits.any(axis=1)
        counts = np.bincount(hits.argmax(axis=1)[in_disk], minlength=len(cs)).tolist()
    in_band = ~in_disk & (dist_to_cut(zs) <= SUPPORT_BAND)
    support = int(np.count_nonzero(in_band))
    leftovers = [z for z, kept in zip(rts, in_disk | in_band) if not kept]
    return ZeroReport(roots=rts, centers=cs, cluster_counts=counts,
                      support_count=support, unassigned=leftovers,
                      radius=r, support_band=SUPPORT_BAND)
