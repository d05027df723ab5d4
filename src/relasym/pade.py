"""[n-1, n] Pade approximants for Markov functions with rational additions.

The target functions are

    f(z) = integral dmu(x)/(z - x) + sum_j sum_{i<=N_j} A_{j,i} i! / (z-c_j)^{i+1},

with A_{j,N_j} != 0.  The denominators satisfy the non-Hermitian
orthogonality

    0 = integral p Q_n dmu + sum_j sum_i A_{j,i} (p Q_n)^{(i)}(c_j),  deg p < n,

which is a derivative-coupled inner product in disguise: expanding
(p q)^{(i)} by Leibniz turns the pole data into the coupling matrices
gamma^j_{i,k} = A_{j,k+i} * binom(k+i, i).  The denominator is therefore
built by the same expansion machinery as the Sobolev polynomials, and the
numerator is the classical second-kind companion plus Taylor-remainder
terms for the poles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .joukowski import NEAR_CUT, dist_to_cut, phi
from .measures import BaseMeasureSpec, RecurrenceTable, minimal_solution
from .modified import _ensure_table, monomial_to_coeffs
from .polybasis import MONIC, PolyInBasis, divide_out_zeros, lincomb, xmul, xmul_coeffs
from .sobolev import (SobolevSpec, SobolevTerm, digit_loss, sn_lambda,
                      _extended_core, _mp_ab, _mp_basis_jets, _mp_poly_jet)

__all__ = [
    "PadeError",
    "SaturatedRatioError",
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
    "value_at",
]

SATURATION_FLOOR = 1e-15


class PadeError(ValueError):
    pass


class SaturatedRatioError(PadeError):
    """The approximation error has converged past double precision."""

    def __init__(self, msg: str, floor: float):
        super().__init__(msg)
        self.floor = floor


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
            if A[-1] == 0:
                raise PadeError(f"leading pole coefficient at {c} must be nonzero")
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

    @property
    def total_pole_order(self) -> int:
        """sum (N_j + 1), the degree excess the poles force on Q_n."""
        return sum(len(A) for _, A in self.poles)

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
    """Monic denominator of the [n-1, n] approximant."""
    if not f.poles:
        return PolyInBasis.basis_poly(base, n)
    return sn_lambda(n, to_sobolev_spec(f), base).rep


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
    division is exact; it is done at Gauss nodes and re-projected.
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


def mu_moments(base: RecurrenceTable, count: int) -> np.ndarray:
    """m_s = integral x^s dmu for s < count, from the recurrence (exact
    sparse expansion of x^s over the basis; no quadrature)."""
    m0 = 1.0 / base.tau[0] ** 2
    e = np.array([1.0 + 0.0j])
    out = np.zeros(count, dtype=complex)
    for s in range(count):
        out[s] = e[0] * m0
        e = xmul_coeffs(e, base)
    return out


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

    Exactly zero through order n for a true [n-1, n] pair; evaluated by
    moment matching in coefficient space (conditioning limits this check to
    moderate n, which is where it is used).
    """
    n = appr.n
    count = n if count is None else count
    qt = monomial_to_coeffs(appr.Q_n.to_basis(MONIC))
    fs = laurent_moments(f, base, count + n + 1)
    out = np.zeros(count)
    for t in range(count):
        terms = qt * fs[t: t + n + 1]
        scale = float(np.sum(np.abs(terms)))
        out[t] = abs(complex(np.sum(terms))) / scale if scale > 0 else 0.0
    return out


def _mp_cheb_rule(m: int):
    """Gauss rule for the pure first-kind weight, exact nodes in mp."""
    nodes = [mpmath.cos(mpmath.mpf(2 * t - 1) * mpmath.pi / (2 * m))
             for t in range(1, m + 1)]
    w = mpmath.pi / m
    return nodes, w


def _mp_remainder(n: int, f: StieltjesFn, base: RecurrenceTable, z, dps: int):
    """(f - P_n/Q_n)(z) = R_n(z)/Q_n(z) in extended precision, with

    R_n(z) = integral Q_n(x)/(z-x) dmu + sum_{j,i} A_{j,i} i! T_{j,i}(z)/(z-c_j)^{i+1}.

    Requires the pure first-kind weight so the quadrature nodes are exact.
    Q_n itself is rebuilt in mp through the expansion lane.
    """
    if f.poles:
        spec = to_sobolev_spec(f)
        core = _extended_core(n, spec, base, dps)
        coeffs = core["coeffs_mp"]
    else:
        coeffs = None
    with mpmath.workdps(dps):
        a2, b = _mp_ab(base, n + 1)
        if coeffs is None:
            coeffs = [mpmath.mpc(0)] * (n + 1)
            coeffs[n] = mpmath.mpc(1)
        zz = mpmath.mpc(z)

        def qval(x):
            lm1, l = mpmath.mpc(0), mpmath.mpc(1)
            tot = coeffs[0]
            for m in range(n):
                l, lm1 = (x - b[m]) * l - a2[m] * lm1, l
                tot += coeffs[m + 1] * l
            return tot

        mq = 2 * n + 120
        nodes, w = _mp_cheb_rule(mq)
        R = w * mpmath.fsum(qval(x) / (zz - x) for x in nodes)
        for c, A in f.poles:
            cc = mpmath.mpc(c)
            order = len(A) - 1
            jets = _mp_basis_jets(n, order, cc, a2, b)
            qjets = _mp_poly_jet(coeffs, jets, order)
            for i, av in enumerate(A):
                tay = mpmath.fsum(qjets[t] / mpmath.factorial(t) * (zz - cc) ** t
                                  for t in range(i + 1))
                R += mpmath.mpc(av) * mpmath.factorial(i) * tay / (zz - cc) ** (i + 1)
        return R / qval(zz)


def error_ratio(n: int, z: complex, f: StieltjesFn, base: RecurrenceTable,
                precision: str = "double") -> complex:
    """(f(z) - pi_{n+1}(z)) / (f(z) - pi_n(z)); the geometric-rate probe.

    In double precision the errors drown below ~1e-15 * |f| quickly (the
    rate is |phi(z)|^{-2}); that state raises SaturatedRatioError.  The
    extended lane recomputes both remainders in mpmath (pure first-kind
    weight only) and has no such ceiling.
    """
    z = complex(z)
    if dist_to_cut(z) <= NEAR_CUT:
        raise PadeError(f"probe {z} lies on or near [-1, 1]")
    for c, _ in f.poles:
        if abs(z - c) < 1e-8:
            raise PadeError(f"probe {z} collides with pole {c}")
    if precision == "extended":
        if f.base.weight_kind != "chebyshev_first_kind" or f.base.has_atoms:
            raise PadeError("extended ratio lane supports the pure first-kind weight only")
        need = 2.0 * (n + 1) * math.log10(abs(phi(z)))
        if f.poles:
            need += digit_loss(n + 1, to_sobolev_spec(f))
        dps = int(need) + 50
        base = _ensure_table(base, n + 2)
        e0 = _mp_remainder(n, f, base, z, dps)
        e1 = _mp_remainder(n + 1, f, base, z, dps)
        if e0 == 0:
            raise PadeError("zero remainder in extended lane")
        return complex(e1 / e0)
    if precision != "double":
        raise PadeError(f"unknown precision {precision!r}")
    base = _ensure_table(base, n + 2)
    fz = f_value(f, z, base)
    errs = []
    for appr in (pade_approximant(n, f, base),
                 pade_approximant(n + 1, f, base)):
        Pz = value_at(appr.P_n, z)
        Qz = value_at(appr.Q_n, z)
        # resolution of the computed difference: the cancellation inside
        # P(z)/Q(z) caps how small a remainder double can still represent
        scale = (abs(fz) + appr.P_n.term_magnitude(z) / abs(Qz)
                 + abs(Pz / Qz) * appr.Q_n.term_magnitude(z) / abs(Qz))
        if scale > 1e6 * max(1.0, abs(fz)):
            raise PadeError(
                f"evaluation cancellation beyond double range at n={appr.n}; "
                "use precision='extended'")
        e = fz - Pz / Qz
        if abs(e) < SATURATION_FLOOR * scale:
            raise SaturatedRatioError(
                f"approximation error below the double-precision floor at "
                f"n={appr.n}; use precision='extended'", SATURATION_FLOOR * scale)
        errs.append(e)
    return complex(errs[1] / errs[0])


def value_at(p: PolyInBasis, z: complex) -> complex:
    return complex(p.jet(complex(z), 0)[0])
