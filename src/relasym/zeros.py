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
  workspace per solve, of BLOCK complex entries (128 KB) or two rows when
  n is larger, which the weights sweep and the conjugate pairing use
  too.  On real data the starts leave the real axis, so that the sweeps
  can reach conjugate pairs.  Roots off the support band, where the sum
  cancels, are finished on p itself in extended precision: a cluster of
  k roots, where Aberth steps converge only linearly, restarts from the
  zeros of the degree-k Taylor polynomial of p at its centroid (the
  cluster analysis of Bini & Fiorentino, Numer. Algorithms 23, 2000),
  and the off-band roots then take Aberth steps on p, all of them in
  each round, until the steps are below POLISH_TOL or |p| is at its
  rounding level.  On real data the roots are then paired under
  conjugation, so that real roots are exactly real and the others come
  in exact conjugate pairs.  A solve that does not converge, or
  real-data roots that do not pair, refuse with the kind "unconverged";
  no route falls back to another.

The weights, the residual gate and the extended precision finish read
one forward sweep of the orthonormal recurrence (_orthonormal_rows), in
double or in clongdouble: the Taylor coefficients l_k^(j) / j! through
the order each needs (0 for the weights, 1 for the gate and the Aberth
rounds, k for a cluster's restart) at every point form one flat row,
four in-place ufunc calls per degree (five with derivatives) and one per
block, contracted a block of degrees at a time (_taylor).  The gate
scales |p| by its rounding level sum_k |c_k l_k|, which grows no faster
than the values it sums, plus ||A|| |p'|.  A sweep out of the double
range refuses, and a degree whose tau_n is out of it refuses first.

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
from .measures import RecurrenceTable, table_through
from .polybasis import PolyInBasis, _orthonormal_rows, _row_blocks
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
# cluster() counts the roots within SUPPORT_BAND of [-1, 1] as the band's; the
# roots farther out take Aberth steps on p itself (at most POLISH_STEPS, until
# a step is at most POLISH_TOL |z| or |p| is at its rounding level): there the
# secular sum cancels and leaves them ~1e-6 off
SUPPORT_BAND = 0.05
EPS = float(np.finfo(float).eps)
LD_EPS = np.finfo(np.longdouble).eps
# Aberth sweeps on the secular function before the solve refuses
MAX_SWEEPS = 60
# entries of the complex workspace (128 KB) in which the secular solve forms
# its Cauchy matrices a block of rows at a time
BLOCK = 2**13
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
    iteration that does not converge, "overflow" for a tau_n or a
    recurrence sweep out of the double range, else "pre_asymptotic")."""


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


def _taylor(c: np.ndarray, table: RecurrenceTable, z: np.ndarray, order: int,
            work: np.ndarray):
    """Taylor coefficients p^(j)(z) / j!, j = 0..order, at the m points z as
    an (order + 1, m) array, and sum_k |c_k l_k(z)|, p(z)'s rounding level
    over the unit roundoff; c the orthonormal coefficients of p.  One sweep
    in z's number type (_orthonormal_rows), contracted with c and |c| a
    block of degrees at a time.  A sweep that overflows refuses."""
    m, n = z.size, len(c) - 1
    c = c.astype(z.dtype)
    acc, total = np.zeros((order + 1) * m, dtype=z.dtype), np.zeros(m, dtype=z.real.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for degrees, rows in _orthonormal_rows(table, z, n + 1, order, work):
            acc += c[degrees] @ rows
            total += np.abs(c[degrees]) @ np.abs(rows[:, :m])
    if not (np.all(np.isfinite(acc)) and np.all(np.isfinite(total))):
        raise ZerosError(f"recurrence sweep overflows the double range at degree {n}",
                         kind="overflow")
    return acc.reshape(order + 1, m), total


def _root_residuals(c: np.ndarray, table: RecurrenceTable, z: np.ndarray,
                    norm_a: float) -> np.ndarray:
    """|p(z)| / scale at every z, c the orthonormal coefficients of p.  The
    scale is the first-order rounding level sum_k |c_k l_k(z)| of the sum
    p = sum c_k l_k, the level the polish stops at, plus ||A|| |p'(z)|,
    since z sits an O(eps ||A||) eigenvalue perturbation away from the true
    root.  p, p' and the level come from one order-1 sweep over all m roots
    in double (_taylor, in a workspace of its own)."""
    z = np.asarray(z, dtype=complex)
    (val, der), total = _taylor(c, table, z, 1, _workspace(z.size))
    # a root where p is exactly 0 has residual 0, whatever its scale
    val, scale = np.abs(val), total + norm_a * np.abs(der)
    if np.any((scale == 0.0) & (val > 0.0)):
        raise ZerosError("zero evaluation scale at computed root")
    return np.divide(val, scale, out=np.zeros(z.size), where=val > 0.0)


def _secular_weights(table: RecurrenceTable, f: np.ndarray, work: np.ndarray):
    """Poles t and weights beta of the secular function of p (f != 0):
    p(z) / (lc_p omega(z)) = 1 + sum_i beta_i / (z - t_i), omega the monic
    2^{1-n} T_n, whose zeros t_i = cos(theta_i), theta_i = (2i+1) pi / 2n,
    are in closed form.  beta_i = p(t_i) / (lc_p omega'(t_i)), and
    omega'(t_i) = 2^{1-n} n (-1)^i / sin(theta_i).  p(t_i) comes from one
    forward sweep over all n points, stable on [-1, 1] (_orthonormal_rows,
    order 0, in the workspace's floats): one product per block adds its
    part of f . l, so the memory is O(n), and l_n is the last row.  Past
    n = 128 the blocks, and so the last bits of beta and of the roots,
    depend on BLOCK.  lc_p = c_n tau_0 / prod a_k and the 2^{1-n} of omega
    enter together as tau_0 prod (2 a_k)^{-1}, whose terms tend to 1
    (a_k -> 1/2 on [-1, 1]), so the constant does not overflow where 2^n
    or tau_n would.  The poles are returned ascending."""
    n, a = len(f), table.a
    # t_j = sin(phi_j) = cos(theta_{n-1-j}): ascending, exactly symmetric about 0
    phi = (0.5 * np.pi / n) * np.arange(1 - n, n, 2)
    # p / c_n = l_n + (f . l) / a_n
    t, acc = np.sin(phi), np.zeros(n, dtype=complex)
    for degrees, ell in _orthonormal_rows(table, t, n + 1, 0, work):
        below = ell[: n - degrees.start]    # the degrees below n: f . l
        acc += f.real[degrees] @ below + 1j * (f.imag[degrees] @ below)
    val = ell[-1] + acc / a[n]
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
    _polish(c, table, z, work)
    if not np.any(f.imag):
        _pair_conjugates(z, work)
    return z


def _workspace(n: int) -> np.ndarray:
    """Flat complex workspace of a degree-n solve or of the gate over n
    roots: BLOCK entries, n x n if fewer, or a gate row of 2n if more; its
    blocks tie the root bits past n = 128 to BLOCK (_secular_weights)."""
    return np.empty(max(2 * n, min(n * n, BLOCK)), dtype=complex)


def _aberth(x: np.ndarray, beta: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """Zeros of g(z) = 1 + sum_i beta_i / (z - x_i) by simultaneous Aberth
    sweeps over the roots still active.  p'/p = g'/g + sum_i 1/(z - x_i)
    for p ~ g prod (z - x_i).  Root i starts at x_i - beta_i / g_i(x_i),
    the zero of its own pole term against the sum g_i of the others, and
    retires once its step is at most eps |z|, once |g| is at its rounding
    level m eps (1 + sum_i |beta_i / (z - x_i)|), or once it is off the
    band and shrinks only linearly (CLUSTER_STEP, CLUSTER_RATE): _polish
    resolves such a cluster from its centroid.  The Cauchy matrices
    1/(z - x_i) and 1/(z - z_j) (_aberth_steps) are formed a block of rows
    at a time in the workspace (_workspace), so temporaries are (rows, m),
    rows = BLOCK // m once m^2 passes BLOCK: the memory is O(m), and
    retired roots cost nothing.  A row's arithmetic does not depend on its block, and the
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
            newton = np.empty(active.size, dtype=complex)
            done = np.empty(active.size, dtype=bool)
            for rows, blk in _row_blocks(work, active.size, m):
                np.subtract.outer(za[rows], x, out=blk)
                np.reciprocal(blk, out=blk)
                g = 1.0 + blk @ beta
                done[rows] = np.abs(g) <= m * EPS * (1.0 + np.abs(blk) @ abs_beta)
                poles = blk.sum(axis=1)
                np.multiply(blk, blk, out=blk)
                newton[rows] = g / (poles * g - blk @ beta)
            step = _aberth_steps(z, active, newton, work)
            step[done] = 0.0
            za = z[active] = za - step
            size, dist = np.abs(step), dist_to_cut(za)
            linear = ((dist > SUPPORT_BAND) & (size <= CLUSTER_STEP * dist)
                      & (size > CLUSTER_RATE * last[active]))
            last[active] = size
            active = active[~done & ~linear & (size > EPS * np.abs(za))]
    if active.size:
        raise ZerosError(f"root iteration did not converge at degree {n}",
                         kind="unconverged")
    return z


def _aberth_steps(z: np.ndarray, idx: np.ndarray, newton: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """Aberth steps newton_i / (1 - newton_i sum_{j != i} 1/(z_i - z_j)) of the
    roots z[idx], whose Newton steps are newton, in newton's number type.  The
    sums are formed a block of rows at a time in the workspace; a row's sum
    does not depend on its block."""
    near = np.empty(idx.size, dtype=complex)
    for rows, blk in _row_blocks(work, idx.size, z.size):
        np.subtract.outer(z[idx[rows]], z, out=blk)
        blk[np.arange(len(blk)), idx[rows]] = np.inf
        np.reciprocal(blk, out=blk)
        near[rows] = blk.sum(axis=1)
    return newton / (1 - newton * near)


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


def _polish(c: np.ndarray, table: RecurrenceTable, z: np.ndarray, work: np.ndarray) -> None:
    """Finish the roots off the band in place, in extended precision: in
    double, the recurrence's rounding error alone moves a near-double
    attracted pair by ~1e-8.  A cluster of k > 1 roots first moves to the k
    zeros of the degree-k Taylor polynomial of p at its centroid, from one
    sweep that carries orders 0..k.  Then the off-band roots take Aberth
    steps on p, one order-1 sweep over all of them per round, until a step
    is at most POLISH_TOL |z| or |p| is at its rounding level, where a step
    is noise; a root still moving after POLISH_STEPS rounds refuses.  The
    sweeps run in a clongdouble workspace of BLOCK entries (or one row),
    the steps (_aberth_steps) in the solve's."""
    dist = dist_to_cut(z)
    off = np.flatnonzero(dist > SUPPORT_BAND)
    ext = np.empty(max(BLOCK, 2 * off.size), dtype=np.clongdouble)
    with np.errstate(divide="ignore", invalid="ignore"):
        for group in _clusters(z, off, dist):
            if len(group) > 1:
                center = z[group].mean()
                taylor = _taylor(c, table, np.full(1, center, np.clongdouble), len(group), ext)
                taylor = taylor[0][:, 0]
                if taylor[-1] != 0:   # monic in extended precision: no double overflow
                    z[group] = center + np.roots((taylor[::-1] / taylor[-1]).astype(complex))
        for _ in range(POLISH_STEPS):
            if not off.size:
                return
            zl = z[off].astype(np.clongdouble)
            (val, der), total = _taylor(c, table, zl, 1, ext)
            live = (der != 0) & (np.abs(val) > LD_EPS * total)
            off = off[live]
            step = _aberth_steps(z, off, val[live] / der[live], work)
            z[off] = (zl[live] - step).astype(complex)
            off = off[np.abs(step) > POLISH_TOL * np.abs(z[off])]
    if off.size:
        raise ZerosError(f"root polish did not converge at degree {z.size}",
                         kind="unconverged")


def roots(p: PolyInBasis) -> list[complex]:
    """All deg(p) roots, sorted by (re rounded to 12 decimals, im).

    Eigenvalues of the comrade matrix A = J_n - e_{n-1} f^T: the Gauss
    nodes when f = 0, else the secular Aberth solve over the Chebyshev
    points with the extended precision finish and, when f is real, the
    conjugate pairing (module docstring).
    Each root is validated against the rounding level of the evaluation
    plus ||A|| |p'|; a relative residual above RESIDUAL_TOL raises, since
    it means the root set cannot be trusted at the advertised accuracy.
    A degree whose tau_n leaves the double range refuses (kind "overflow").
    """
    n = p.degree
    if n == 0:
        return []
    table = table_through(p.table, n)       # a deeper table has the same leading entries
    if not np.isfinite(table.tau[n]):
        raise ZerosError(f"tau_{n} overflows the double range", kind="overflow")
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
