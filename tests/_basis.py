"""Polynomial algebra over the mu-basis for the tests: sums, products by
x and the inner products, all exact in the basis coefficients.  The
package itself needs none of them."""
from __future__ import annotations

import numpy as np

from relasym.polybasis import PolyInBasis, xmul_coeffs
from relasym.sobolev import SobolevSpec


def lincomb(polys: list[PolyInBasis], weights) -> PolyInBasis:
    """Weighted sum of polynomials over a common table."""
    if not polys:
        raise ValueError("empty combination")
    table = polys[0].table
    out = np.zeros(max(p.degree for p in polys) + 1, dtype=complex)
    for p, w in zip(polys, weights):
        if p.table is not table:
            raise ValueError("mixed tables in lincomb")
        out[: p.degree + 1] += w * p.coeffs
    return PolyInBasis(out, table)


def xmul(p: PolyInBasis) -> PolyInBasis:
    """Multiplication by x, exact in the monic mu-basis."""
    return PolyInBasis(xmul_coeffs(p.coeffs, p.table), p.table)


def inner_mu(p: PolyInBasis, q: PolyInBasis) -> complex:
    """Bilinear integral of p*q against the measure (no conjugation).

    The orthonormal basis is orthonormal for the whole measure, atoms
    included, so the integral is sum p_k q_k over the orthonormal
    coefficients c_k / tau_k, exactly.
    """
    pc = p.coeffs / p.table.tau[: p.degree + 1]
    qc = q.coeffs / q.table.tau[: q.degree + 1]
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
