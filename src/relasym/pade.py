"""[n-1, n] Pade approximants for Markov functions with rational additions.

The target functions are

    f(z) = integral dmu(x)/(z - x) + sum_j sum_{i<=N_j} A_{j,i} i! / (z-c_j)^{i+1},

with A_{j,N_j} != 0.  The denominators satisfy the non-Hermitian
orthogonality

    0 = integral p Q_n dmu + sum_j sum_i A_{j,i} (p Q_n)^{(i)}(c_j),  deg p < n,

which is a derivative-coupled inner product in disguise: expanding
(p q)^{(i)} by Leibniz turns the pole data into the coupling matrices
gamma^j_{i,k} = A_{j,k+i} * binom(k+i, i).  The denominator is therefore
built by the Sobolev kernel lane (`sn_kernel`), and the numerator is the
classical second-kind companion plus Taylor-remainder terms for the poles.
The error ratio (f - pi_{n+1})/(f - pi_n) -> 1/phi(z)^2 is evaluated from
the Cauchy transforms of the basis in mpmath, where the geometrically
small remainders stay resolved; that computation lives in
`relasym.extended`, which `error_ratio` loads on its first call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .joukowski import NEAR_CUT, dist_to_cut, phi
from .measures import BaseMeasureSpec, RecurrenceTable, minimal_solution
from .modified import _ensure_table
from .polybasis import (MONIC, PolyInBasis, basis_jets, divide_out_zeros, lincomb, xmul,
                        xmul_coeffs)
from .sobolev import SobolevSpec, SobolevTerm, digit_loss, sn_kernel

__all__ = [
    "PadeError",
    "StieltjesFn",
    "PadeApproximant",
    "to_sobolev_spec",
    "pade_denominator",
    "pade_numerator",
    "pade_approximant",
    "f_value",
    "mu_moments",
    "laurent_moments",
    "pade_order_residuals",
    "error_ratio",
]


class PadeError(ValueError):
    pass


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
            c = complex(c)
            A = tuple(complex(v) for v in A)
            if not A:
                raise PadeError("pole needs at least one coefficient")
            if not np.all(np.isfinite(A)):
                raise PadeError(f"pole coefficients at {c} are not finite")
            if A[-1] == 0:
                raise PadeError(f"leading pole coefficient at {c} must be nonzero")
            if not np.isfinite(c):
                raise PadeError(f"pole {c} is not finite")
            if dist_to_cut(c) <= NEAR_CUT:
                raise PadeError(f"pole {c} lies on or near [-1, 1]")
            for loc, _ in self.base.mass_points:
                if abs(c - loc) < 1e-10:
                    raise PadeError(f"pole {c} collides with a mass point of the measure")
            canon.append((c, A))
        for i in range(len(canon)):
            for k in range(i + 1, len(canon)):
                if abs(canon[i][0] - canon[k][0]) < 1e-12:
                    raise PadeError("pole locations must be distinct")
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
    def from_json_dict(cls, data: dict) -> "StieltjesFn":
        base = BaseMeasureSpec.from_json_dict(data["base"])
        poles = []
        for pd in data.get("poles", []):
            c = complex(pd["c"][0], pd["c"][1])
            A = tuple(complex(v[0], v[1]) for v in pd["A"])
            poles.append((c, A))
        return cls(base=base, poles=tuple(poles))


@dataclass
class PadeApproximant:
    n: int
    Q_n: PolyInBasis
    P_n: PolyInBasis


def to_sobolev_spec(f: StieltjesFn) -> SobolevSpec:
    """Leibniz expansion of the pole pairing into coupling matrices.

    gamma^j_{i,k} = A_{j,k+i} * binom(k+i, i) for i+k <= N_j (anti-triangular,
    nonsingular anti-diagonal since A_{j,N_j} != 0, hence always regular).
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
    return sn_kernel(n, to_sobolev_spec(f), base).rep


def _second_kind(base: RecurrenceTable, nmax: int) -> list[np.ndarray]:
    """Coefficient vectors of E_m(z) = integral (L_m(z)-L_m(x))/(z-x) dmu(x).

    Same three-term recurrence as the basis, seeded with E_0 = 0,
    E_1 = m_0 (total mass); deg E_m = m - 1.
    """
    a, b = base.a, base.b
    m0 = 1.0 / base.tau[0] ** 2
    out = [np.zeros(1, dtype=complex), np.array([m0], dtype=complex)]
    for m in range(1, nmax):
        cur, prev = out[m], out[m - 1]
        nxt = xmul_coeffs(cur, base)
        nxt[: m] -= b[m] * cur
        nxt[: m - 1 if m >= 2 else 0] -= (a[m] * a[m]) * prev[: max(m - 1, 0)]
        out.append(nxt)
    return out


def _taylor_at(p: PolyInBasis, c: complex, order: int) -> PolyInBasis:
    """Taylor polynomial of p at c through the given order, in the mu-basis."""
    jets = p.jet(c, order)
    table = p.table
    acc = np.zeros(order + 1, dtype=complex)
    pw = PolyInBasis(MONIC, np.ones(1, dtype=complex), 0, table)  # (x-c)^t
    for t in range(order + 1):
        term = pw.coeffs * (jets[t] / math.factorial(t))
        acc[: len(term)] += term
        if t < order:
            pw = lincomb([xmul(pw), pw], [1.0, -c])
    return PolyInBasis(MONIC, acc, order, table)


def pade_numerator(n: int, f: StieltjesFn, Q_n: PolyInBasis,
                   base: RecurrenceTable) -> PolyInBasis:
    """Polynomial part of f * Q_n at infinity (degree <= n-1).

    P = sum_m q_m E_m  +  sum_{j,i} A_{j,i} i! (Q_n - T_{j,i}) / (x-c_j)^{i+1},
    with T_{j,i} the Taylor polynomial of Q_n at c_j through order i, so the
    division is exact; it is done by `divide_out_zeros`.
    """
    q = Q_n.to_basis(MONIC)
    E = _second_kind(base, n)
    acc = np.zeros(max(n, 1), dtype=complex)
    for m in range(1, q.degree + 1):
        acc[: m] += q.coeffs[m] * E[m]
    parts = [PolyInBasis(MONIC, acc[: max(q.degree, 1)], max(q.degree - 1, 0), base)]
    weights = [1.0 + 0.0j]
    for c, A in f.poles:
        for i, a in enumerate(A):
            if a == 0:
                continue
            tay = _taylor_at(q, c, i)
            diff = lincomb([q, tay], [1.0, -1.0])
            piece = divide_out_zeros(diff, [(c, i + 1)])
            parts.append(piece)
            weights.append(a * math.factorial(i))
    return lincomb(parts, weights).trimmed()


def pade_approximant(n: int, f: StieltjesFn, base: RecurrenceTable) -> PadeApproximant:
    qn = pade_denominator(n, f, base)
    pn = pade_numerator(n, f, qn, base)
    return PadeApproximant(n=n, Q_n=qn, P_n=pn)


def f_value(f: StieltjesFn, z: complex, base: RecurrenceTable) -> complex:
    """f(z): the Cauchy transform q_0(z) = integral dmu/(z - x) plus the
    exact pole terms.

    q_0 follows from the ratio q_1/q_0 of the recurrence's minimal solution
    through the first step q_1 = (z - b_0) q_0 - mu_0; no quadrature.
    """
    z = complex(z)
    if dist_to_cut(z) <= NEAR_CUT:
        raise PadeError(f"evaluation point {z} lies on or near [-1, 1]")
    h1 = minimal_solution(base, z, 0, 1)[0, 1]
    return complex(base.total_mass / (z - base.b[0] - h1)) + f.pole_value(z)


def _power_coeffs(base: RecurrenceTable, count: int) -> list[np.ndarray]:
    """Monic mu-basis coefficients of x^s for s < count, x^{s+1} = J x^s."""
    out = [np.ones(1, dtype=complex)][:count]
    while len(out) < count:
        out.append(xmul_coeffs(out[-1], base))
    return out


def mu_moments(base: RecurrenceTable, count: int) -> np.ndarray:
    """m_s = integral x^s dmu for s < count, from the recurrence (exact
    sparse expansion of x^s over the basis; no quadrature)."""
    m0 = 1.0 / base.tau[0] ** 2
    return np.array([e[0] * m0 for e in _power_coeffs(base, count)], dtype=complex)


def laurent_moments(f: StieltjesFn, base: RecurrenceTable, count: int) -> np.ndarray:
    """f_s with f(z) = sum_s f_s z^{-s-1}: measure moments plus the exact
    Laurent expansion of the polar parts."""
    out = mu_moments(base, count)
    for c, A in f.poles:
        for i, a in enumerate(A):
            fac = math.factorial(i)
            for s in range(i, count):
                out[s] += a * fac * math.comb(s, i) * c ** (s - i)
    return out


def pade_order_residuals(appr: PadeApproximant, f: StieltjesFn,
                         base: RecurrenceTable,
                         count: int | None = None) -> np.ndarray:
    """Relative sizes of the first Laurent coefficients of f*Q_n - P_n.

    Exactly zero through order n for a true [n-1, n] pair.  The coefficient
    of z^(-t-1) is integral x^t Q_n dmu + sum_{j,i} A_{j,i} (x^t Q_n)^(i)(c_j).
    The integral pairs the monic coefficients of x^t with those of Q_n,
    weighted by ||L_k||^2 = 1/tau_k^2; the pole terms follow by Leibniz from
    one `basis_jets` sweep per pole.  Each residual is relative to the sum
    of the magnitudes of every product it adds up, Q_n^(s)(c_j) taken term
    by term as sum_k q_k L_k^(s)(c_j), whose sum double does not resolve.
    """
    n = appr.n
    count = n if count is None else count
    base = _ensure_table(base, max(n, count))
    q = appr.Q_n.to_basis(MONIC).coeffs
    w = q / base.tau[: len(q)] ** 2
    vals = np.zeros(count, dtype=complex)
    mags = np.zeros(count)
    for t, e in enumerate(_power_coeffs(base, count)):
        terms = e[: len(w)] * w[: len(e)]
        vals[t] = np.sum(terms)
        mags[t] = np.sum(np.abs(terms))
    t = np.arange(count)
    for c, A in f.poles:
        jets = basis_jets(base, len(q) - 1, c, order=len(A) - 1) * q
        qd, qm = jets.sum(axis=1), np.abs(jets).sum(axis=1)   # Q_n^(s)(c), term sizes
        for r in range(len(A)):
            # (x^t)^(r)(c) = t!/(t-r)! c^(t-r), zero for t < r
            dpow = np.array([math.perm(k, r) for k in range(count)]) * c ** (t - r)
            for i in range(r, len(A)):
                binom = math.comb(i, r) * A[i]
                vals += binom * dpow * qd[i - r]
                mags += abs(binom) * np.abs(dpow) * qm[i - r]
    out = np.zeros(count)
    np.divide(np.abs(vals), mags, out=out, where=mags > 0)
    return out


def error_ratio(n: int, z: complex, f: StieltjesFn, base: RecurrenceTable) -> complex:
    """(f(z) - pi_{n+1}(z)) / (f(z) - pi_n(z)); the geometric-rate probe.

    The errors shrink like |phi(z)|^{-2n}, so both remainders come from the
    Cauchy transforms of the basis in mpmath (`extended._mp_remainder`),
    with enough digits to resolve them at any n.  Atom tables enter through
    their double a and b, as in the mpmath Sobolev lane `sn_lambda`.
    """
    from .extended import _mp_remainder    # mpmath loads on the first call
    z = complex(z)
    if dist_to_cut(z) <= NEAR_CUT:
        raise PadeError(f"probe {z} lies on or near [-1, 1]")
    for c, _ in f.poles:
        if abs(z - c) < 1e-8:
            raise PadeError(f"probe {z} collides with pole {c}")
    need = 2.0 * (n + 1) * math.log10(abs(phi(z)))
    if f.poles:
        need += digit_loss(n + 1, to_sobolev_spec(f))
    dps = int(need) + 50
    base = _ensure_table(base, n + 2)
    e0 = _mp_remainder(n, f, base, z, dps)
    e1 = _mp_remainder(n + 1, f, base, z, dps)
    if e0 == 0:
        raise PadeError(f"zero remainder at n={n}")
    return complex(e1 / e0)
