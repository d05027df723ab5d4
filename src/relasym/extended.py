"""The extended-precision lane: every mpmath computation of the package.

Double precision is the default everywhere; mpmath is kept for the
quantities double cannot resolve.  This module is the only one that
imports mpmath, and no double-precision path imports it: the lane's
entry points `sobolev.sn_lambda` and `pade.error_ratio` with poles load it
on their first call.  The latter takes only the Pade denominator Q_n and
its pole jets from it (`_mp_square_jets`); its error sum runs in double.

Jets and norms are exact recurrences on the recurrence data, with no
quadrature anywhere; `_mp_ab` builds that data in mp with the double
table's own builder, so the lane derives no measure itself.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

from .measures import RecurrenceTable, _measure_ab
from .sobolev import SobolevSpec, _kernel_cond, _kernel_system, _refusals, _support, digit_loss


def _mp_ab(base: RecurrenceTable, deg: int):
    """(a2, b, normsq) as mp numbers for k <= deg: a_k^2, b_k and
    ||L_k||^2 = m_0 a_1^2 ... a_k^2.

    The table's measure is rebuilt in mp by the double table's own builder
    (`measures._measure_ab`), atoms included, on the mp beta integral as
    continuous mass: the double table carries ~1e-16 dirt that is invisible
    to the bordered solve but fatal to collapsed-scale quantities downstream
    (a perturbed a_k leaks an O(eps) L_0 component into polynomials whose
    true low-order coefficients are exponentially small).
    """
    spec = base.spec
    al, be = (mpmath.mpf(v) for v in spec.jacobi_exponents())
    b, a2, m0 = _measure_ab(spec, deg, al, be, 2 ** (al + be + 1) * mpmath.beta(al + 1, be + 1))
    b, a2 = b.tolist(), a2.tolist()
    normsq = [m0]
    for k in range(1, deg + 1):
        normsq.append(normsq[-1] * a2[k])
    return a2, b, normsq


def _mp_basis_jets(deg: int, order: int, c, a2: list, b: list) -> list:
    """jets[i][m] = (d/dx)^i L_m at c for the monic basis polynomials."""
    jets = [[mpmath.mpc(0)] * (deg + 1) for _ in range(order + 1)]
    jets[0][0] = mpmath.mpc(1)
    if deg == 0:
        return jets
    jets[0][1] = c - b[0]
    for i in range(1, order + 1):
        jets[i][1] = mpmath.mpc(1) if i == 1 else mpmath.mpc(0)
    for m in range(1, deg):
        for i in range(order, -1, -1):
            v = (c - b[m]) * jets[i][m] - a2[m] * jets[i][m - 1]
            if i > 0:
                v += i * jets[i - 1][m]
            jets[i][m + 1] = v
    return jets


def _mp_poly_jet(coeffs: list, jets: list, order: int) -> list:
    out = []
    for i in range(order + 1):
        row = jets[i]
        out.append(mpmath.fsum(cm * row[m] for m, cm in enumerate(coeffs)))
    return out


def _mp_kernel(n: int, spec: SobolevSpec, base: RecurrenceTable, dps: int) -> dict:
    """sn_kernel's identity in mpmath at dps digits, over the monic basis.

    With D = diag(1/||L_m||^2), m < n, J the monic jet rows L_m^(k)(c_j) at
    the nonzero columns of each gamma_j and W = Gamma*^T (jet rows at its
    nonzero rows), u = S_n^(k)(c_j) solves (I + J D W^T) u = (L_n^(k)(c_j)).
    S_n has monic coefficients -D W^T u below L_n, and
    <S_n, S_n> = ||L_n||^2 + W[:, n] . u.  The gate is sn_kernel's
    equilibrated system, built from the orthonormal jets divided by their
    row peaks: those entries fit in double even where the jets do not.
    """
    base, refused = _refusals((n,), spec, base)
    if refused:
        raise refused[n]
    with mpmath.workdps(dps):
        a2, b, normsq = _mp_ab(base, n)
        tau = [1 / mpmath.sqrt(v) for v in normsq]
        Js, Ws, blocks = [], [], []
        for t in spec.terms:
            rows, cols = _support(t.gamma)
            jets = _mp_basis_jets(n, max(rows + cols), mpmath.mpc(t.c), a2, b)
            g = [[mpmath.mpc(v) for v in row] for row in t.gamma]
            Js += [jets[k] for k in cols]
            Ws += [[mpmath.fdot([g[i][k] for i in rows], [jets[i][m] for i in rows])
                    for m in range(n + 1)] for k in cols]
            orth = {i: [v * s for v, s in zip(jets[i], tau)] for i in set(rows + cols)}
            peak = {i: max(abs(v) for v in row) for i, row in orth.items()}
            pj, pw = max(peak[k] for k in cols), max(peak[i] for i in rows)
            J = np.array([[complex(v / pj) for v in orth[k]] for k in cols])
            W = t.gamma[np.ix_(rows, cols)].T @ np.array(
                [[complex(v / pw) for v in orth[i]] for i in rows])
            blocks.append((J, W, float(1 / (pj * pw))))
        cond = _kernel_cond(_kernel_system(blocks, n)[0])
        WD = [[w[m] / normsq[m] for m in range(n)] for w in Ws]
        M = mpmath.eye(len(Js))
        for p, J in enumerate(Js):
            for q, w in enumerate(WD):
                M[p, q] += mpmath.fdot(J[:n], w)
        u = list(mpmath.lu_solve(M, mpmath.matrix([J[n] for J in Js])))
        coeffs = [-mpmath.fdot([w[m] for w in WD], u) for m in range(n)] + [mpmath.mpc(1)]
        ns = normsq[n] + mpmath.fdot([w[n] for w in Ws], u)
        return {"base": base, "coeffs_mp": coeffs, "norm_sq_mp": ns,
                "gamma_n": complex(1 / mpmath.sqrt(ns)), "cond": cond,
                "a2": a2, "b": b, "normsq": normsq}


def _mp_square_jets(n: int, spec: SobolevSpec, base: RecurrenceTable) -> tuple:
    """S_n at sn_lambda's digits: its monic coefficients in double and, per
    term, (S_n^2)^(s)(c_j) / ||L_n||^2 for s <= N_j, summed before the cast,
    as S_n^(s)(c_j) collapses by ~|phi(c_j)|^n against L_n^(s)(c_j)."""
    dps = int(2 * digit_loss(n, spec)) + 35
    core = _mp_kernel(n, spec, base, dps)
    coeffs, out = core["coeffs_mp"], []
    with mpmath.workdps(dps):
        for t in spec.terms:
            jets = _mp_basis_jets(n, t.N, mpmath.mpc(t.c), core["a2"], core["b"])
            sj = _mp_poly_jet(coeffs, jets, t.N)
            out.append([complex(mpmath.fsum(math.comb(s, u) * sj[u] * sj[s - u]
                                            for u in range(s + 1)) / core["normsq"][n])
                        for s in range(t.N + 1)])
    return [complex(v) for v in coeffs], out
