"""Polynomials over the monic basis of a base measure.

A polynomial is its coefficient vector over {L_0, ..., L_n}, the monic
orthogonal polynomials of the measure its recurrence table knows; the
monomial basis is never used as a working representation.  A reader that
needs the orthonormal coefficients over l_k = tau_k L_k divides by
tau_k.  Derivatives come from differentiating the three-term recurrence,
never from finite differences, in one of two forward sweeps: the monic
jets (`basis_jets`, on a double table) or the orthonormal Taylor rows
(`_orthonormal_rows`, in the points' number type, mpmath's mpc too).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MeasureError, RecurrenceTable

__all__ = [
    "PolyInBasis",
    "basis_jets",
    "xmul_coeffs",
]


def basis_jets(table: RecurrenceTable, deg: int, z, order: int = 0) -> np.ndarray:
    """Jets of every basis polynomial through degree deg at z.

    Returns an array of shape (order+1, deg+1) for scalar z, or
    (order+1, deg+1, npts) for a 1-d array of points.  Entry [j, k]
    holds the j-th derivative of L_k at z.

    Differentiating L_{k+1} = (x - b_k) L_k - a_k^2 L_{k-1} j times gives
    L_{k+1}^(j) = (x - b_k) L_k^(j) + j L_k^(j-1) - a_k^2 L_{k-1}^(j), so
    one array step per degree advances every order and point at once.
    The table is a double one.
    """
    if deg > table.nmax:
        raise MeasureError(f"degree {deg} exceeds table nmax {table.nmax}")
    a, b = table.a, table.b
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    npts = zz.size
    # row k holds L_k^(j)(z_p) at [j * npts + p]; flat 1-d rows keep numpy's
    # complex multiply on the same loop (and rounding) for any order or npts
    rows = np.zeros((deg + 1, (order + 1) * npts), dtype=complex)
    rows[0, :npts] = 1.0
    shifted = list(np.tile(zz - b[:deg, None], order + 1))
    asq = (a[:deg] * a[:deg]).tolist()
    jrow = np.arange(1, order + 1).repeat(npts).astype(complex)
    row = list(rows)
    for k in range(deg):
        nxt = row[k + 1]
        np.multiply(shifted[k], row[k], out=nxt)
        if order:
            nxt[npts:] += jrow * row[k][:-npts]
        if k >= 1:
            nxt -= row[k - 1] * asq[k]
    vals = np.ascontiguousarray(rows.reshape(deg + 1, order + 1, npts).transpose(1, 0, 2))
    if np.ndim(z) == 0:
        return vals[:, :, 0]
    return vals


def _row_blocks(work: np.ndarray, count: int, m: int):
    """(rows, block) per run of max(1, work.size // m) consecutive rows out
    of count: rows the slice of the row range, block a (rows, m) view of
    the workspace."""
    height = max(1, work.size // max(1, m))
    for start in range(0, count, height):
        stop = min(start + height, count)
        yield slice(start, stop), work[: (stop - start) * m].reshape(stop - start, m)


def _orthonormal_rows(table: RecurrenceTable, z: np.ndarray, count: int, order: int,
                      work: np.ndarray):
    """Taylor rows t_{k,j} = l_k^(j)(z) / j!, j = 0..order, at the m points z,
    for the degrees k < count, by one forward sweep, a block of degrees at a
    time in the workspace viewed in z's number type: yields (degrees, block),
    block[i] the flat row [t_{k,0}, ..., t_{k,order}] of degree
    k = degrees.start + i.  Differentiating the recurrence j times and
    dividing by j! makes a degree one step of the whole row,
    t_{k+1} = ((z - b_k) t_k + [0, t_{k,0..order-1}] - a_k t_{k-1}) / a_{k+1},
    with a_k applied to the row viewed as reals: on objects (mpmath's mpc over
    a table of mpf) the row itself, so the step runs in mp.  The caller owns
    np.errstate."""
    m, zz = z.size, np.tile(z, order + 1)
    # the rows of degrees k - 2 and k - 1, and a_k t_{k-1} viewed as reals
    real = zz.real.dtype
    edge, tmp = np.zeros((2, zz.size), dtype=z.dtype), np.empty(zz.nbytes // real.itemsize, real)
    # b_{k-1} at degree k; a_{k-1} and a_k as 0-d views, not scalars, which
    # numpy converts on every call at the call's cost; the ufuncs as locals,
    # since rows of a few points make a degree's cost the calls' own
    add, mul, sub, div = np.add, np.multiply, np.subtract, np.divide
    b = np.append(0.0, table.b[: count - 1]).astype(z.dtype)
    a = table.a[:count].astype(real)
    a = [a[k, ...] for k in range(count)]
    a_prev = [None, *a[:-1]]
    for degrees, block in _row_blocks(work.view(z.dtype), count, zz.size):
        rows, flat = [*edge, *block], [*edge.view(real), *block.view(real)]
        low, high = [*edge[:, :-m], *block[:, :-m]], [*edge[:, m:], *block[:, m:]]
        # z - b_{k-1} in every row of the block, which each step multiplies in place
        np.subtract(zz, b[degrees, None], out=block)
        # per degree k: rows k - 1 and k, the real views of rows k - 2 and k,
        # the orders of row k - 1 below its top and of row k above 0, a_{k-1}, a_k
        steps = zip(rows[1:], rows[2:], flat, flat[2:], low[1:], high[2:],
                    a_prev[degrees], a[degrees])
        if degrees.start == 0:
            next(steps)
            block[0], block[0, :m] = 0.0, table.tau[0]
        for prev, out, back, out_r, lo, hi, a_back, a_k in steps:
            mul(out, prev, out)
            if order:
                add(hi, lo, hi)
            mul(back, a_back, tmp)
            sub(out_r, tmp, out_r)
            div(out_r, a_k, out_r)
        edge[:] = rows[-2:]
        yield degrees, block


@dataclass
class PolyInBasis:
    """A polynomial as its coefficient vector over the monic mu-basis
    L_0..L_degree of its table's measure."""

    coeffs: np.ndarray
    table: RecurrenceTable

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def basis_poly(cls, table: RecurrenceTable, n: int) -> "PolyInBasis":
        """The monic basis polynomial L_n."""
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        return cls(c, table)

    def values(self, z) -> np.ndarray:
        vals = basis_jets(self.table, self.degree, z)
        if np.ndim(z) == 0:
            return complex(np.dot(self.coeffs, vals[0]))
        return np.tensordot(self.coeffs, vals[0], axes=(0, 0))

    def jet(self, z: complex, order: int) -> np.ndarray:
        return basis_jets(self.table, self.degree, z, order) @ self.coeffs

    def trimmed(self) -> "PolyInBasis":
        """Drop trailing zero coefficients."""
        deg = self.degree
        while deg > 0 and self.coeffs[deg] == 0:
            deg -= 1
        return PolyInBasis(self.coeffs[: deg + 1].copy(), self.table)


def xmul_coeffs(coeffs: np.ndarray, table: RecurrenceTable) -> np.ndarray:
    """Monic mu-basis coefficients of x * p: x L_m = L_{m+1} + b_m L_m + a_m^2 L_{m-1}."""
    d = len(coeffs)
    a, b = table.a, table.b
    out = np.zeros(d + 1, dtype=complex)
    out[1:] += coeffs
    out[:-1] += b[:d] * coeffs
    out[:d - 1] += a[1:d] * a[1:d] * coeffs[1:]
    return out
