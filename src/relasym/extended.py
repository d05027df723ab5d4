"""The extended-precision lane: every mpmath computation of the package.

Double precision is the default everywhere; mpmath is kept for the
quantities double cannot resolve.  This module is the only one that
imports mpmath, and no double-precision path imports it: the lane's
entry points `sobolev.sn_lambda` and `pade.error_ratio` with poles load it
on their first call.  The latter takes only the Pade denominator Q_n and
its pole jets from it (`_mp_square_jets`); its error sum runs in double.

The lane is the double lane's code on another table: `_mp_ab` rebuilds
the recurrence table in mp with the double table's own builder
(`measures._table`, a, b and tau alike), and `coupling_jets` (one
`_orthonormal_rows` sweep) and `_kernel_system` run on it in its number
type.  So the lane derives no measure, sweeps no jets and assembles no
gate of its own, and uses no quadrature anywhere.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

from .measures import RecurrenceTable, _table
from .sobolev import SobolevSpec, _kernel_system, _lane_dps, _refusals, coupling_jets


def _mp_ab(base: RecurrenceTable, deg: int) -> RecurrenceTable:
    """The table of base's measure through degree deg in mp: a, b and tau
    as object arrays of mpf.

    The table is rebuilt in mp by the double table's own builder
    (`measures._table`), atoms, a_k and tau_k included, on the mp beta
    integral as continuous mass: the double table carries ~1e-16 dirt that
    is invisible to the bordered solve but fatal to collapsed-scale
    quantities downstream (a perturbed a_k leaks an O(eps) L_0 component
    into polynomials whose true low-order coefficients are exponentially
    small).
    """
    spec = base.spec
    al, be = (mpmath.mpf(v) for v in spec.jacobi_exponents())
    return _table(spec, deg, al, be, 2 ** (al + be + 1) * mpmath.beta(al + 1, be + 1))


def _mp_kernel(n: int, spec: SobolevSpec, base: RecurrenceTable, dps: int) -> dict:
    """sn_kernel's identity in mpmath at dps digits, on sn_kernel's code.

    The orthonormal jets E come from `coupling_jets` on the mp table
    through degree n, and the gate is sn_kernel's equilibrated system from
    `_kernel_system`, whose entries fit in double even where the jets do
    not; only its cond is read.  The solve is the identity as it stands.
    With gamma_j = U_j V_j^T and J = V_j^T, W = U_j^T of the jet rows
    l_m^(k)(c_j), m < n, u = V_j^T (S_n's jets at c_j) solves
    (I + J W^T) u = V^T (L_n's jets) = J[:, n] / tau_n.  S_n has monic
    coefficients -tau_m W[:, m] . u below L_n, and
    <S_n, S_n> = (1/tau_n + W[:, n] . u) / tau_n, which
    `gamma_sequence` reads.  Returns them with u, cond, the double table
    and the mp table.
    """
    base, refused = _refusals((n,), spec, base)
    if refused:
        raise refused[n]
    with mpmath.workdps(dps):
        table = _mp_ab(base, n)
        jets = coupling_jets(spec, table, n)
        cond = _kernel_system(n, spec, jets)[-1]
        # converted once, not per product; factor rows past E's are zero
        mpc = np.frompyfunc(mpmath.mpc, 1, 1)
        J = np.vstack([mpc(t.V[: len(E)].T) @ E[: len(t.V)] for t, E in zip(spec.terms, jets)])
        W = np.vstack([mpc(t.U[: len(E)].T) @ E[: len(t.U)] for t, E in zip(spec.terms, jets)])
        tau = table.tau[n]
        M = mpmath.eye(len(J)) + mpmath.matrix([[mpmath.fdot(j, w) for w in W[:, :n]]
                                                 for j in J[:, :n]])
        u = np.array(list(mpmath.lu_solve(M, mpmath.matrix(list(J[:, n] / tau)))), dtype=object)
        coeffs = np.empty(n + 1, dtype=object)
        coeffs[:n] = -(W[:, :n].T @ u) * table.tau[:n]
        coeffs[n] = mpmath.mpc(1)
        ns = (1 / tau + W[:, n] @ u) / tau
        return {"base": base, "table": table, "coeffs_mp": coeffs, "norm_sq_mp": ns,
                "u": u, "cond": cond}


def _mp_square_jets(n: int, spec: SobolevSpec, base: RecurrenceTable) -> tuple:
    """S_n at sn_lambda's digits: its monic coefficients in double and, per
    term, (S_n^2)^(s)(c_j) / ||L_n||^2 for s <= N_j, summed before the cast,
    as S_n^(s)(c_j) collapses by ~|phi(c_j)|^n against L_n^(s)(c_j).

    The S_n^(s)(c_j) are the kernel unknowns u = V_j^T (S_n's jets), as a Pade
    gamma_j has rank N_j + 1 and V_j = I: u holds them all, term after term.
    """
    dps = _lane_dps(n, spec)
    core = _mp_kernel(n, spec, base, dps)
    u, out, i = core["u"], [], 0
    with mpmath.workdps(dps):
        tau2 = core["table"].tau[n] ** 2
        for t in spec.terms:
            sj, i = u[i:i + t.N + 1], i + t.N + 1
            out.append([complex(mpmath.fsum(math.comb(s, r) * sj[r] * sj[s - r]
                                            for r in range(s + 1)) * tau2)
                        for s in range(t.N + 1)])
    return [complex(v) for v in core["coeffs_mp"]], out
