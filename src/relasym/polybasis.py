"""Polynomials over the monic/orthonormal basis of a base measure.

Coefficient vectors are always taken over {L_0, ..., L_n} (monic) or
{l_0, ..., l_n} (orthonormal); the monomial basis is never used as a
working representation.  Derivatives come from differentiating the
three-term recurrence, never from finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (MeasureError, QuadratureRule, RecurrenceTable,
                       atom_basis_values, gauss_rule)

__all__ = [
    "PolyInBasis",
    "basis_jets",
    "eval_jet",
    "monomial_in_basis",
    "xmul",
    "xmul_coeffs",
    "lincomb",
    "project_values",
    "divide_out_zeros",
    "rule_basis_values",
]

MONIC = "monic_mu"
ORTHONORMAL = "orthonormal_mu"


def basis_jets(table: RecurrenceTable, deg: int, z, order: int = 0,
               basis: str = MONIC) -> np.ndarray:
    """Jets of every basis polynomial through degree deg at z.

    Returns an array of shape (order+1, deg+1) for scalar z, or
    (order+1, deg+1, npts) for a 1-d array of points.  Entry [j, k]
    holds the j-th derivative of L_k (or l_k) at z.
    """
    if deg > table.nmax:
        raise MeasureError(f"degree {deg} exceeds table nmax {table.nmax}")
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    a, b = table.a, table.b
    vals = np.zeros((order + 1, deg + 1, zz.size), dtype=complex)
    vals[0, 0] = 1.0
    for k in range(deg):
        asq = a[k] * a[k]
        lower = vals[:, k - 1] if k >= 1 else 0.0
        vals[0, k + 1] = (zz - b[k]) * vals[0, k] - asq * (lower[0] if k >= 1 else 0.0)
        for j in range(1, order + 1):
            vals[j, k + 1] = (zz - b[k]) * vals[j, k] + j * vals[j - 1, k]
            if k >= 1:
                vals[j, k + 1] -= asq * lower[j]
    if basis == ORTHONORMAL:
        vals = vals * table.tau[: deg + 1][None, :, None]
    elif basis != MONIC:
        raise ValueError(f"unknown basis {basis!r}")
    if np.ndim(z) == 0:
        return vals[:, :, 0]
    return vals


def eval_jet(table: RecurrenceTable, n: int, z: complex, order: int = 0,
             basis: str = MONIC) -> np.ndarray:
    """(p_n(z), p_n'(z), ..., p_n^{(order)}(z)) for the basis polynomial."""
    return basis_jets(table, n, z, order, basis)[:, n]


@dataclass
class PolyInBasis:
    """A polynomial as a coefficient vector over the mu-basis."""

    basis: str
    coeffs: np.ndarray
    degree: int
    table: RecurrenceTable

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient vector length must be degree+1")

    @classmethod
    def zero(cls, table: RecurrenceTable, basis: str = MONIC) -> "PolyInBasis":
        return cls(basis, np.zeros(1, dtype=complex), 0, table)

    @classmethod
    def basis_poly(cls, table: RecurrenceTable, n: int, basis: str = MONIC) -> "PolyInBasis":
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        return cls(basis, c, n, table)

    def to_basis(self, basis: str) -> "PolyInBasis":
        if basis == self.basis:
            return self
        tau = self.table.tau[: self.degree + 1]
        if basis == ORTHONORMAL:       # c_m L_m = (c_m / tau_m) l_m
            coeffs = self.coeffs / tau
        elif basis == MONIC:
            coeffs = self.coeffs * tau
        else:
            raise ValueError(f"unknown basis {basis!r}")
        return PolyInBasis(basis, coeffs, self.degree, self.table)

    def values(self, z) -> np.ndarray:
        vals = basis_jets(self.table, self.degree, z, 0, self.basis)
        if np.ndim(z) == 0:
            return complex(np.dot(self.coeffs, vals[0]))
        return np.tensordot(self.coeffs, vals[0], axes=(0, 0))

    def values_on_rule(self, rule: QuadratureRule) -> np.ndarray:
        """Values at every rule point (nodes, then atoms; stable at atoms)."""
        vals = rule_basis_values(self.table, self.degree, rule, self.basis)
        return self.coeffs @ vals

    def jet(self, z: complex, order: int) -> np.ndarray:
        vals = basis_jets(self.table, self.degree, z, order, self.basis)
        return vals @ self.coeffs

    def term_magnitude(self, z: complex) -> float:
        """Sum of |c_k p_k(z)|: the natural scale of an evaluation at z."""
        vals = basis_jets(self.table, self.degree, z, 0, self.basis)
        return float(np.sum(np.abs(self.coeffs * vals[0])))

    def norm_mu(self) -> float:
        """Hermitian L2(mu) norm, from the orthonormal coefficients."""
        return float(np.linalg.norm(self.to_basis(ORTHONORMAL).coeffs))

    def trimmed(self, tol: float = 0.0) -> "PolyInBasis":
        """Drop trailing coefficients of modulus <= tol."""
        deg = self.degree
        while deg > 0 and abs(self.coeffs[deg]) <= tol:
            deg -= 1
        return PolyInBasis(self.basis, self.coeffs[: deg + 1].copy(), deg, self.table)


def lincomb(polys: list[PolyInBasis], weights) -> PolyInBasis:
    """Weighted sum of polynomials over a common table and basis."""
    if not polys:
        raise ValueError("empty combination")
    basis, table = polys[0].basis, polys[0].table
    deg = max(p.degree for p in polys)
    out = np.zeros(deg + 1, dtype=complex)
    for p, w in zip(polys, weights):
        if p.basis != basis or p.table is not table:
            raise ValueError("mixed bases or tables in lincomb")
        out[: p.degree + 1] += w * p.coeffs
    return PolyInBasis(basis, out, deg, table)


def xmul_coeffs(coeffs: np.ndarray, table: RecurrenceTable) -> np.ndarray:
    """Monic mu-basis coefficients of x * p: x L_m = L_{m+1} + b_m L_m + a_m^2 L_{m-1}."""
    d = len(coeffs)
    a, b = table.a, table.b
    out = np.zeros(d + 1, dtype=complex)
    out[1:] += coeffs
    out[:-1] += b[:d] * coeffs
    out[:d - 1] += a[1:d] * a[1:d] * coeffs[1:]
    return out


def xmul(p: PolyInBasis) -> PolyInBasis:
    """Multiplication by x, exact in the monic mu-basis."""
    q = p.to_basis(MONIC)
    res = PolyInBasis(MONIC, xmul_coeffs(q.coeffs, p.table), q.degree + 1, p.table)
    return res.to_basis(p.basis)


def monomial_in_basis(table: RecurrenceTable, k: int) -> PolyInBasis:
    """x^k over the monic mu-basis (small k only; exact sparse recursion)."""
    p = PolyInBasis(MONIC, np.ones(1, dtype=complex), 0, table)
    for _ in range(k):
        p = xmul(p)
    return p


def rule_basis_values(table: RecurrenceTable, deg: int, rule: QuadratureRule,
                      basis: str = MONIC) -> np.ndarray:
    """Basis values through degree deg at every rule point (nodes, then atoms).

    Atom columns for mass points of the table's own measure come from the
    backward-stable point evaluation; forward recurrence at those points is
    noise beyond moderate degrees.
    """
    node_vals = basis_jets(table, deg, rule.nodes, 0, basis)[0]
    if not rule.atoms:
        return node_vals
    spec = table.spec
    spec_locs = tuple(loc for loc, _ in spec.mass_points) if spec is not None else ()
    cols = [node_vals]
    for loc, _ in rule.atoms:
        if loc in spec_locs:
            col = atom_basis_values(table, deg, loc).astype(complex)
            if basis == MONIC:
                col = col / table.tau[: deg + 1]
        else:
            col = basis_jets(table, deg, complex(loc), 0, basis)[0]
        cols.append(col[:, None])
    return np.concatenate(cols, axis=1)


def project_values(fvals: np.ndarray, rule: QuadratureRule, table: RecurrenceTable,
                   degree: int, basis: str = MONIC) -> PolyInBasis:
    """Expand a polynomial given by its values at the rule points.

    Exact when the sampled function is a polynomial of the stated degree and
    the rule integrates degree 2*degree against the measure.
    """
    if 2 * rule.size - 1 < 2 * degree:
        raise MeasureError("projection rule too small for requested degree")
    w = rule.all_weights()
    lvals = rule_basis_values(table, degree, rule, ORTHONORMAL)
    coeffs = lvals @ (w * np.asarray(fvals, dtype=complex))
    p = PolyInBasis(ORTHONORMAL, coeffs, degree, table)
    return p.to_basis(basis)


def divide_out_zeros(p: PolyInBasis, zeros: list[tuple[complex, int]]) -> PolyInBasis:
    """p / prod (x - c)^mult for zeros off [-1, 1], assuming divisibility.

    Done by pointwise division at the nodes of a Gauss rule followed by
    re-projection; deflation in coefficient space amplifies roundoff
    geometrically and is avoided.  The rule has deg(p) - deg(divisor) + 1
    nodes, the fewest for which the projection is exact.
    """
    total = sum(mult for _, mult in zeros)
    if total == 0:
        return p
    if total > p.degree:
        raise ValueError("divisor degree exceeds polynomial degree")
    rule = gauss_rule(p.table, p.degree - total + 1)
    x = rule.all_points()
    svals = np.ones(len(x), dtype=complex)
    for c, mult in zeros:
        svals *= (x - c) ** mult
    qvals = p.values_on_rule(rule) / svals
    return project_values(qvals, rule, p.table, p.degree - total, p.basis)
