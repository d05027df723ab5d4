"""Polynomial algebra over the mu-basis for the tests: sums, products by
x and the inner products, all exact in the basis coefficients.  The
package itself needs none of them."""
from __future__ import annotations

import numpy as np

from relasym.polybasis import MONIC, ORTHONORMAL, PolyInBasis, xmul_coeffs
from relasym.sobolev import SobolevSpec


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


def xmul(p: PolyInBasis) -> PolyInBasis:
    """Multiplication by x, exact in the monic mu-basis."""
    q = p.to_basis(MONIC)
    res = PolyInBasis(MONIC, xmul_coeffs(q.coeffs, p.table), q.degree + 1, p.table)
    return res.to_basis(p.basis)


def inner_mu(p: PolyInBasis, q: PolyInBasis) -> complex:
    """Bilinear integral of p*q against the measure (no conjugation).

    The orthonormal basis is orthonormal for the whole measure, atoms
    included, so the integral is sum p_k q_k over the orthonormal
    coefficients, exactly.
    """
    pc = p.to_basis(ORTHONORMAL).coeffs
    qc = q.to_basis(ORTHONORMAL).coeffs
    d = min(len(pc), len(qc))
    return complex(np.dot(pc[:d], qc[:d]))


def sobolev_inner(h: PolyInBasis, g: PolyInBasis, spec: SobolevSpec) -> complex:
    """<h, g>: mu integral plus the derivative coupling terms (bilinear,
    no conjugation; h sits in the left slot of the couplings)."""
    total = inner_mu(h, g)
    for t in spec.terms:
        hj = h.jet(t.c, t.N)
        gj = g.jet(t.c, t.J)
        total += complex(hj @ t.gamma @ gj)
    return complex(total)
