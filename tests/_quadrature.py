"""Gauss-rule oracle for the tests: the package integrates by recurrence
algebra, and these sums check it by independent quadrature."""
from __future__ import annotations

import numpy as np

from relasym.measures import QuadratureRule, atom_basis_values
from relasym.polybasis import MONIC, PolyInBasis, basis_jets


def rule_basis_values(table, deg: int, rule: QuadratureRule, basis: str = MONIC) -> np.ndarray:
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


def values_on_rule(p: PolyInBasis, rule: QuadratureRule) -> np.ndarray:
    """Values of p at every rule point (nodes, then atoms; stable at atoms)."""
    return p.coeffs @ rule_basis_values(p.table, p.degree, rule, p.basis)


def inner_rho(p: PolyInBasis, q: PolyInBasis, r, rule: QuadratureRule) -> complex:
    """Bilinear integral of p*q*r against mu (no conjugation)."""
    return complex(np.sum(rule.all_weights() * values_on_rule(p, rule)
                          * values_on_rule(q, rule) * r.values(rule.all_points())))
