"""[n-1, n] Pade approximants for Markov functions with rational additions.

The target functions are

    f(z) = integral dmu(x)/(z - x) + sum_j sum_{i<=N_j} A_{j,i} i! / (z-c_j)^{i+1},

with A_{j,N_j} != 0.  The denominators satisfy the non-Hermitian
orthogonality

    0 = integral p Q_n dmu + sum_j sum_i A_{j,i} (p Q_n)^{(i)}(c_j),  deg p < n,

which is a derivative-coupled inner product in disguise: expanding
(p q)^{(i)} by Leibniz turns the pole data into the coupling matrices
gamma^j_{i,k} = A_{j,k+i} * binom(k+i, i).  The denominator is therefore
built by the Sobolev kernel lane (`sn_kernel`).  The same functional
L[p] = integral p dmu + sum_{j,i} A_{j,i} p^(i)(c_j) gives f(z) = L_x[1/(z-x)],
so the numerator is its second-kind function L_x[(Q_n(z) - Q_n(x))/(z-x)]
(Baker & Graves-Morris, Pade Approximants, 1996), built by one forward
recurrence over the basis.
The error ratio (f - pi_{n+1})/(f - pi_n) -> 1/phi(z)^2 comes in double from
e_n Q_n(z)^2 = L_x[Q_n(x)^2/(z - x)]; with poles, mpmath (`relasym.extended`,
loaded on the first call) builds only Q_n and its jets at them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reader
from .joukowski import NEAR_ATOM, apart, point
from .measures import BaseMeasureSpec, RecurrenceTable, minimal_ratios_for, table_through
from .polybasis import PolyInBasis, basis_jets, xmul_coeffs
from .sobolev import SobolevSpec, SobolevTerm, sn_kernel

__all__ = [
    "PadeError",
    "StieltjesFn",
    "to_sobolev_spec",
    "pade_denominator",
    "pade_numerator",
    "f_value",
    "error_ratio",
]


NEAR_POLE = 1e-8       # a probe this close to a pole is refused by error_ratio


class PadeError(reader.Refusal):
    """A refused Pade construction or evaluation."""


@dataclass(frozen=True)
class StieltjesFn:
    """Markov function of `base` plus finitely many polar parts.

    poles: tuple of (c_j, (A_{j,0}, ..., A_{j,N_j})) with A_{j,N_j} != 0.
    """

    base: BaseMeasureSpec
    poles: tuple[tuple[complex, tuple[complex, ...]], ...] = ()

    def __post_init__(self):
        canon = []
        for c, A in self.poles:
            c = point(c, "pole", PadeError)
            A = tuple(reader.number(v, f"pole coefficient at {c}", PadeError) for v in A)
            if not A:
                raise PadeError("pole needs at least one coefficient")
            if not np.all(np.isfinite(A)):
                raise PadeError(f"pole coefficients at {c} are not finite")
            if A[-1] == 0:
                raise PadeError(f"leading pole coefficient at {c} must be nonzero")
            canon.append((c, A))
        poles = [c for c, _ in canon]
        apart(poles, [loc for loc, _ in self.base.mass_points],
              "pole {} collides with a mass point of the measure", PadeError, NEAR_ATOM)
        apart(poles, None, "pole locations must be distinct", PadeError)
        object.__setattr__(self, "poles", tuple(canon))

    def pole_value(self, z: complex) -> complex:
        val = 0.0 + 0.0j
        for c, A in self.poles:
            for i, a in enumerate(A):
                val += a * math.factorial(i) / (z - c) ** (i + 1)
        return val

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "poles": [
                {"c": [c.real, c.imag], "A": [[v.real, v.imag] for v in A]}
                for c, A in self.poles
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, path: str = "") -> "StieltjesFn":
        return reader.build(cls, path, **reader.obj(data, path, {
            "base": BaseMeasureSpec.from_json_dict,
            "poles": reader.seq_of(reader.record(c=reader.cpx, A=reader.seq_of(reader.cpx)))},
            ("base",)))


def to_sobolev_spec(f: StieltjesFn) -> SobolevSpec:
    """Leibniz expansion of the pole pairing into coupling matrices.

    gamma^j_{i,k} = A_{j,k+i} * binom(k+i, i) for i+k <= N_j (anti-triangular,
    nonzero anti-diagonal since A_{j,N_j} != 0: rank N_j + 1, V_j = I).
    """
    if not f.poles:
        raise PadeError("function has no poles; the denominator is just L_n")
    terms = []
    for c, A in f.poles:
        N = len(A) - 1
        g = np.zeros((N + 1, N + 1), dtype=complex)
        for i in range(N + 1):
            for k in range(N + 1 - i):
                g[i, k] = A[k + i] * math.comb(k + i, i)
        terms.append(SobolevTerm(c=c, gamma=g))
    return SobolevSpec(terms=tuple(terms))


def pade_denominator(n: int, f: StieltjesFn, base: RecurrenceTable) -> PolyInBasis:
    """Monic denominator of the [n-1, n] approximant (kernel lane)."""
    if not f.poles:
        return PolyInBasis.basis_poly(base, n)
    return sn_kernel(n, to_sobolev_spec(f), base)


def pade_numerator(n: int, f: StieltjesFn, Q_n: PolyInBasis,
                   base: RecurrenceTable) -> PolyInBasis:
    """Polynomial part of f * Q_n at infinity (degree <= n-1).

    f(z) = L_x[1/(z - x)] for L[p] = integral p dmu + sum_{j,i} A_{j,i} p^(i)(c_j),
    so P = L_x[(Q_n(z) - Q_n(x))/(z - x)] = sum_m q_m E_m over the monic
    coefficients q_m of Q_n, with E_m = L_x[(L_m(z) - L_m(x))/(z - x)].
    The basis recurrence gives E_0 = 0 and

        E_{m+1} = (x - b_m) E_m - a_m^2 E_{m-1} + L[L_m],

    L[L_m] = mu_0 delta_{m0} + sum_{j,i} A_{j,i} L_m^(i)(c_j) from one
    `basis_jets` sweep per pole.  Two E vectors are kept: O(n) memory,
    O(n^2) time, and nothing is divided.
    """
    q = Q_n.coeffs
    deg = len(q) - 1
    ell = np.zeros(max(deg, 1), dtype=complex)     # ell[m] = L[L_m]
    ell[0] = base.total_mass
    for c, A in f.poles:
        ell += np.asarray(A) @ basis_jets(base, deg - 1, c, order=len(A) - 1)
    acc = np.zeros(max(deg, 1), dtype=complex)
    prev, cur = np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    for m in range(deg):
        nxt = xmul_coeffs(cur, base)
        nxt[:m] -= base.b[m] * cur
        nxt[:m - 1] -= base.a[m] ** 2 * prev
        nxt[0] += ell[m]
        prev, cur = cur, nxt
        acc[: m + 1] += q[m + 1] * cur
    return PolyInBasis(acc, base).trimmed()


def f_value(f: StieltjesFn, z: complex, base: RecurrenceTable) -> complex:
    """f(z): the Cauchy transform q_0(z) = integral dmu/(z - x) plus the
    exact pole terms.

    q_0 follows from the ratio q_1/q_0 of the recurrence's minimal solution
    through the first step q_1 = (z - b_0) q_0 - mu_0; no quadrature.
    """
    z = point(z, "evaluation point", PadeError)
    h1 = minimal_ratios_for(base, z, 1)[1]
    return complex(base.total_mass / (z - base.b[0] - h1)) + f.pole_value(z)


def _identity(m: int, z: complex, f: StieltjesFn, base: RecurrenceTable,
              h: list, r: list) -> tuple[complex, complex]:
    """I_m = L_x[Q_m(x)^2/(z - x)] / (q_m(z) L_m(z)) and sigma_m = Q_m(z)/L_m(z).

    Over Q_m's monic coefficients c_k the integral part is
    sum_k c_k q_k (2 S_k - c_k L_k(z)) with S_k = sum_{j<=k} c_j L_j(z), since
    integral L_j L_k/(z - x) dmu = L_j(z) q_k(z) for j <= k.  Over q_m L_m it
    is a Horner sum in h_k r_k, and s_k = S_k/L_k(z) another in r_k, so no
    partial sum leaves the double range.  The pole part is Leibniz on the
    jets of Q_m^2, which come over ||L_m||^2 = q_m L_m (r_{m+1} - h_{m+1}).
    """
    if not f.poles:
        return 1, 1                              # Q_m = L_m
    from .extended import _mp_square_jets        # mpmath loads on the first call
    c, sq = _mp_square_jets(m, to_sobolev_spec(f), base)
    s, t = c[0], c[0] ** 2
    for k in range(1, m + 1):
        s = c[k] + s / r[k]
        t = t / (h[k] * r[k]) + c[k] * (2 * s - c[k])
    for (cj, A), sqj in zip(f.poles, sq):
        t += (r[m + 1] - h[m + 1]) * sum(
            a * math.comb(i, u) * math.factorial(i - u) * sqj[u] / (z - cj) ** (i - u + 1)
            for i, a in enumerate(A) for u in range(i + 1))
    return t, s


def error_ratio(n: int, z: complex, f: StieltjesFn, base: RecurrenceTable) -> complex:
    """(f(z) - pi_{n+1}(z)) / (f(z) - pi_n(z)); the geometric-rate probe.

    e_m = f - pi_m obeys e_m Q_m(z)^2 = L_x[Q_m(x)^2/(z - x)], as L[Q_m p] = 0 for
    deg p < m, and no term of that sum cancels (`_identity`).  So it runs in
    double, in ratio form with every factor O(1) at any degree:
    e_{n+1}/e_n = (h_{n+1}/r_{n+1}) (I_{n+1}/I_n) (sigma_n/sigma_{n+1})^2.
    mpmath builds only Q_m and its jets at the poles, at sn_lambda's digits,
    which do not depend on z; a pole-free f, whose Q_m is L_m, loads none.
    """
    z = point(z, "probe", PadeError)
    apart([z], [c for c, _ in f.poles], "probe {} collides with pole {}", PadeError, NEAR_POLE)
    base = table_through(base, n + 2)
    h = minimal_ratios_for(base, z, n + 2)      # h[m] = q_m(z) / q_{m-1}(z)
    b, a = base.b.tolist(), base.a.tolist()
    r = [0j, z - b[0]]                          # r[m] = L_m(z) / L_{m-1}(z)
    for m in range(1, n + 2):
        r.append(z - b[m] - a[m] ** 2 / r[m])
    (i0, s0), (i1, s1) = (_identity(m, z, f, base, h, r) for m in (n, n + 1))
    if i0 == 0:
        raise PadeError(f"zero remainder at n={n}")
    return complex(h[n + 1] / r[n + 1] * (i1 / i0) * (s0 / s1) ** 2)
