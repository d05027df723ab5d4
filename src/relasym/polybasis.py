"""Polynomials over the monic basis of a base measure.

A polynomial is its coefficient vector over {L_0, ..., L_n}, the monic
orthogonal polynomials of the measure its recurrence table knows; the
monomial basis is never used as a working representation.  A reader that
needs the orthonormal coefficients over l_k = tau_k L_k divides by
tau_k.  Derivatives come from differentiating the three-term recurrence,
never from finite differences.
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

    The values take the table's number type: complex128 on a double table,
    and objects (mpmath's mpc) on the extended lane's table of mpf.
    """
    if deg > table.nmax:
        raise MeasureError(f"degree {deg} exceeds table nmax {table.nmax}")
    a, b = table.a, table.b
    dtype = np.result_type(b, complex)
    zz = np.atleast_1d(np.asarray(z, dtype=dtype))
    npts = zz.size
    # row k holds L_k^(j)(z_p) at [j * npts + p]; flat 1-d rows keep numpy's
    # complex multiply on the same loop (and rounding) for any order or npts
    rows = np.zeros((deg + 1, (order + 1) * npts), dtype=dtype)
    rows[0, :npts] = 1.0
    shifted = list(np.tile(zz - b[:deg, None], order + 1))
    asq = (a[:deg] * a[:deg]).tolist()
    jrow = np.arange(1, order + 1).repeat(npts).astype(dtype)
    row = list(rows)
    for k in range(deg):
        nxt = row[k + 1]
        np.multiply(shifted[k], row[k], out=nxt)
        if order:
            nxt[npts:] += jrow * row[k][:-npts]
        if k >= 1:
            # array first: an mpf on the left would format the whole array
            nxt -= row[k - 1] * asq[k]
    vals = np.ascontiguousarray(rows.reshape(deg + 1, order + 1, npts).transpose(1, 0, 2))
    if np.ndim(z) == 0:
        return vals[:, :, 0]
    return vals


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
