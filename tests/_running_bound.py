"""The residual gate's earlier scale, a running error bound built with
absolute values, kept as an oracle: the gate's rounding level must never
read a smaller residual than this bound, so the gate rejects every root set
the bound rejected.  The rows of l_k and l_k' come from the gate's own sweep
(polybasis._orthonormal_rows), and p, p' and the bound are contracted per block
as the gate contracts p, p' and its level, so the two residuals compare
without a tolerance."""
from __future__ import annotations

import numpy as np

from relasym.measures import RecurrenceTable
from relasym.polybasis import _orthonormal_rows
from relasym.zeros import ZerosError, _workspace


def running_bound_residuals(c: np.ndarray, table: RecurrenceTable, z: np.ndarray,
                            norm_a: float) -> np.ndarray:
    """|p(z)| / scale at every z, c the orthonormal coefficients of p.  The
    scale is the running error bound of the recurrence (Higham, Accuracy and
    Stability, sec. 3.3) plus ||A|| |p'(z)|, since z sits an O(eps ||A||)
    eigenvalue perturbation away from the true root.

    The bound carries s_k = e_k + |l_k| in place of the error e_k, with
    e_0 = |l_0| and e_{k+1} = (g_k s_k + a_k s_{k-1}) / a_{k+1},
    g_k = |z| + |b_k|, and it sums |c_k| s_k.  A sweep that leaves the
    double range refuses instead of passing a nan residual."""
    z = np.asarray(z, dtype=complex)
    m, n = z.size, len(c) - 1
    a, b = table.a, table.b
    acc, total = np.zeros(2 * m, dtype=complex), np.zeros(m)
    s_prev, s = np.zeros(m), np.full(m, 2.0 * abs(table.tau[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for degrees, rows in _orthonormal_rows(table, z, n + 1, 1, _workspace(m)):
            acc += c[degrees] @ rows
            bound = np.abs(rows[:, :m])
            for k, out in zip(range(degrees.start, degrees.stop), bound):
                if k:
                    g = (np.abs(z) + abs(b[k - 1])) * s
                    s_prev, s = s, (g + a[k - 1] * s_prev) / a[k] + out
                out[:] = s
            total += np.abs(c[degrees]) @ bound
    if not (np.all(np.isfinite(acc)) and np.all(np.isfinite(total))):
        raise ZerosError(f"recurrence sweep overflows the double range at degree {n}")
    # a root where p is exactly 0 has residual 0, whatever its scale
    val, scale = np.abs(acc[:m]), total + norm_a * np.abs(acc[m:])
    if np.any((scale == 0.0) & (val > 0.0)):
        raise ZerosError("zero evaluation scale at computed root")
    return np.divide(val, scale, out=np.zeros(m), where=val > 0.0)
