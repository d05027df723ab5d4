"""Polynomials over the monic basis of a base measure.

A polynomial is its coefficient vector over {L_0, ..., L_n}, the monic
orthogonal polynomials of the measure its recurrence table knows; the
monomial basis is never used as a working representation.  A reader that
needs the orthonormal coefficients over l_k = tau_k L_k divides by
tau_k.  Derivatives come from differentiating the three-term recurrence,
never from finite differences, in one forward sweep (`_taylor_rows`) on
the monic coefficients for `basis_jets` (on a double table) or on the
orthonormal ones for `_orthonormal_rows` (in the points' number type).
"""
from __future__ import annotations

import math
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

    One block of the package's forward sweep (`_jets`) on the monic
    recurrence L_{k+1} = (x - b_k) L_k - a_k^2 L_{k-1}, L_0 = 1, advances
    every order and point at once.  Monic jets grow like |phi(z)/2|^k,
    orthonormal ones like |phi(z)|^k, so they reach further before the
    double range ends: on Legendre at z = 3 through degree 653, against
    397.  The table is a double one.
    """
    if deg > table.nmax:
        raise MeasureError(f"degree {deg} exceeds table nmax {table.nmax}")
    asq = table.a[:deg] * table.a[:deg]
    vals = _jets(np.atleast_1d(np.asarray(z, dtype=complex)), deg, order, _taylor_rows, table.b,
                 [asq[k, ...] for k in range(deg)], [np.ones(())] * (deg + 1), 1.0)
    return vals[:, :, 0] if np.ndim(z) == 0 else vals


def _row_blocks(work: np.ndarray, count: int, m: int):
    """(rows, block) per run of max(1, work.size // m) consecutive rows out
    of count (all of them if m is 0): rows the slice of the row range, block
    a (rows, m) view of the workspace."""
    height = max(1, work.size // m if m else count)
    for start in range(0, count, height):
        stop = min(start + height, count)
        yield slice(start, stop), work[: (stop - start) * m].reshape(stop - start, m)


def _taylor_rows(b: np.ndarray, back: list, div: list, p0, z: np.ndarray, count: int,
                 order: int, work: np.ndarray):
    """Taylor rows t_{k,j} = p_k^(j)(z) / j!, j = 0..order, at the m points z
    for the degrees k < count of div_{k+1} p_{k+1} = (x - b_k) p_k -
    back_k p_{k-1}, p_0 = p0: one forward sweep, a block of degrees at a time
    in the workspace viewed in z's number type, yields (degrees, block),
    block[i] the flat row [t_{k,0}, ..., t_{k,order}] of degree
    k = degrees.start + i.  Differentiated j times and divided by j!, the
    recurrence steps the whole row, t_{k+1} = ((z - b_k) t_k +
    [0, t_{k,0..order-1}] - back_k t_{k-1}) / div_{k+1}, with back_k and
    div_{k+1} applied to the row viewed as reals (on mpmath's mpc over a
    table of mpf, the row itself, so the step runs in mp) as 0-d arrays, not
    scalars, which numpy converts on every call.  The caller owns np.errstate."""
    m, zz = z.size, np.tile(z, order + 1)
    # the rows of degrees k - 2 and k - 1, and back_{k-1} t_{k-2} viewed as reals
    real = zz.real.dtype
    edge, tmp = np.zeros((2, zz.size), dtype=z.dtype), np.empty(zz.nbytes // real.itemsize, real)
    # b_{k-1} and back_{k-1} at degree k; the ufuncs as locals, since rows of
    # a few points make a degree's cost the calls' own
    add, mul, sub, divide = np.add, np.multiply, np.subtract, np.divide
    b = np.append(0.0, b[: count - 1]).astype(z.dtype)
    back = [None, *back[: count - 1]]
    for degrees, block in _row_blocks(work.view(z.dtype), count, zz.size):
        rows, flat = [*edge, *block], [*edge.view(real), *block.view(real)]
        low, high = [*edge[:, :-m], *block[:, :-m]], [*edge[:, m:], *block[:, m:]]
        # z - b_{k-1} in every row, which each step multiplies in place, apart in
        # rows one entry wide: numpy rounds that multiply unlike a longer row's
        shift = np.subtract(zz, b[degrees, None], out=None if zz.size == 1 else block)
        # per degree k: rows k - 1 and k, z - b_{k-1}, the real views of rows
        # k - 2 and k, the orders of row k - 1 below its top and of row k
        # above 0, back_{k-1}, div_k
        steps = zip(rows[1:], rows[2:], shift, flat, flat[2:], low[1:], high[2:],
                    back[degrees], div[degrees])
        if degrees.start == 0:
            next(steps)
            block[0], block[0, :m] = 0.0, p0
        for prev, out, zb, back_r, out_r, lo, hi, f_back, f_div in steps:
            mul(zb, prev, out)
            if order:
                add(hi, lo, hi)
            mul(back_r, f_back, tmp)
            sub(out_r, tmp, out_r)
            divide(out_r, f_div, out_r)
        edge[:] = rows[-2:]
        yield degrees, block


def _orthonormal_rows(table: RecurrenceTable, z: np.ndarray, count: int, order: int,
                      work: np.ndarray):
    """`_taylor_rows` of l_k = tau_k L_k (back_k = div_k = a_k, p0 = tau_0):
    one list of a_k views serves both, since a view costs about 0.25 us."""
    a = table.a[:count].astype(z.real.dtype)
    a = [a[k, ...] for k in range(count)]
    return _taylor_rows(table.b, a, a, table.tau[0], z, count, order, work)


def _jets(z: np.ndarray, top: int, order: int, sweep, *recurrence) -> np.ndarray:
    """[j, k, p] = p_k^(j)(z_p), j <= order, k <= top, from the one block of
    sweep(*recurrence, z, top + 1, order, work) with its rows of order j >= 2
    multiplied by j!: a value at degree k depends neither on top nor on the
    other points and orders swept with it."""
    work = np.empty((top + 1) * (order + 1) * z.size, z.dtype)
    (_, rows), = sweep(*recurrence, z, top + 1, order, work)
    jets = np.ascontiguousarray(rows.reshape(top + 1, order + 1, z.size).transpose(1, 0, 2))
    for j in range(2, order + 1):
        jets[j] *= math.factorial(j)
    return jets


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
