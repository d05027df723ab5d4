"""The residual gate's earlier scale, a running error bound built with
absolute values, kept as an oracle: the gate's rounding level must never
read a smaller residual than this bound, so the gate rejects every root set
the bound rejected.  The value and derivative row is the gate's, operation
for operation, so the two residuals compare without a tolerance."""
from __future__ import annotations

import numpy as np

from relasym.measures import RecurrenceTable
from relasym.zeros import ZerosError


def running_bound_residuals(c: np.ndarray, table: RecurrenceTable, z: np.ndarray,
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
