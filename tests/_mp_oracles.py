"""Independent extended-precision references for the test suite.

Everything here is built from raw monomial moments and dense linear
algebra in mpmath: monic orthogonal polynomials come out of normal
equations on Hankel/Gram matrices, never out of the package's own
recurrence, kernel, or expansion paths.  Slow and simple on purpose.
"""
from __future__ import annotations

import mpmath as mp
import numpy as np

DPS = 150        # Hankel systems burn ~2 digits per degree; huge margin
QUAD_DPS = 80    # rational-modifier moments via tanh-sinh quadrature
POLE_DPS = 30    # Legendre pole moments: smooth integrands, ~1e-31 accurate


def jacobi_moment(a, b, k: int) -> mp.mpf:
    """integral x^k (1-x)^a (1+x)^b dx over [-1, 1], exact beta-sum."""
    s = mp.mpf(0)
    for j in range(k + 1):
        s += mp.binomial(k, j) * mp.mpf(2) ** j * (-1) ** (k - j) \
            * mp.beta(b + j + 1, a + 1)
    return mp.mpf(2) ** (a + b + 1) * s


def measure_moment(spec, k: int) -> mp.mpf:
    """integral x^k dmu, weight part plus point masses."""
    a, b = spec.jacobi_exponents()
    out = jacobi_moment(mp.mpf(a), mp.mpf(b), k)
    for loc, mass in spec.mass_points:
        out += mp.mpf(mass) * mp.mpf(loc) ** k
    return out


def _r_value(r, x):
    out = mp.mpc(1)
    for c, mult in r.zeros:
        out *= (x - mp.mpc(c)) ** mult
    for d, mult in r.poles:
        out /= (x - mp.mpc(d)) ** mult
    return out


def modified_moment(spec, r, k: int) -> mp.mpc:
    """integral x^k r(x) dmu.  Polynomial r reduces to measure moments;
    rational r integrates the continuous part by tanh-sinh quadrature
    (smooth on [-1, 1]: poles sit off the segment).  A negative Jacobi
    exponent makes the weight singular at an endpoint; there x = cos t,
    (1-x)^a (1+x)^b dx = 2^(a+b+1) sin^(2a+1)(t/2) cos^(2b+1)(t/2) dt
    on [0, pi], which removes the singularity (smooth and periodic for
    Chebyshev)."""
    if not r.poles:
        coeffs = [mp.mpc(1)]
        for c, mult in r.zeros:
            for _ in range(mult):
                nxt = [mp.mpc(0)] * (len(coeffs) + 1)
                for i, v in enumerate(coeffs):
                    nxt[i + 1] += v
                    nxt[i] -= mp.mpc(c) * v
                coeffs = nxt
        return mp.fsum(
            (v * measure_moment(spec.pure(), k + i) for i, v in enumerate(coeffs)),
        ) + mp.fsum(
            mp.mpf(mass) * mp.mpc(loc) ** k * _r_value(r, mp.mpf(loc))
            for loc, mass in spec.mass_points
        )
    a, b = (mp.mpf(v) for v in spec.jacobi_exponents())
    with mp.workdps(QUAD_DPS):
        if a < 0 or b < 0:
            def integrand(t):
                x = mp.cos(t)
                return (x ** k * _r_value(r, x) * mp.sin(t / 2) ** (2 * a + 1)
                        * mp.cos(t / 2) ** (2 * b + 1))
            val = mp.mpf(2) ** (a + b + 1) * mp.quad(integrand, [0, mp.pi])
        else:
            integrand = lambda x: x ** k * _r_value(r, x) * (1 - x) ** a * (1 + x) ** b
            val = mp.quad(integrand, [-1, 1])
    out = mp.mpc(val)
    for loc, mass in spec.mass_points:
        out += mp.mpf(mass) * mp.mpf(loc) ** k * _r_value(r, mp.mpf(loc))
    return out


def _legendre_pair(m: int, j: int, x) -> mp.mpf:
    """P_m(x) P_j(x) by Bonnet's recursion (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    vals = [mp.mpf(1), x]
    for k in range(1, max(m, j)):
        vals.append(((2 * k + 1) * x * vals[k] - k * vals[k - 1]) / (k + 1))
    return vals[m] * vals[j]


def legendre_pole_moment(m: int, j: int, d, nu: int) -> mp.mpc:
    """integral L_m L_j (x - d)^-nu dx over [-1, 1] for the monic Legendre
    polynomials L_k = P_k / lead_k, lead_k = binom(2k, k) / 2^k, by
    tanh-sinh quadrature.  The break at 0.9 keeps nodes dense next to a
    pole just right of the interval."""
    with mp.workdps(POLE_DPS):
        dd = mp.mpc(d)
        lead = (mp.binomial(2 * m, m) / mp.mpf(2) ** m
                * mp.binomial(2 * j, j) / mp.mpf(2) ** j)
        val = mp.quad(lambda x: _legendre_pair(m, j, x) / (x - dd) ** nu,
                      [-1, 0.9, 1])
        return val / lead


def _mono_jet(nu: int, i: int, c) -> mp.mpc:
    """d^i/dx^i x^nu at c."""
    if i > nu:
        return mp.mpc(0)
    fall = 1
    for t in range(i):
        fall *= nu - t
    return mp.mpc(fall) * mp.mpc(c) ** (nu - i)


def sobolev_gram_entry(spec, sob, i: int, j: int) -> mp.mpc:
    """<x^i, x^j> for the measure plus derivative couplings (bilinear)."""
    out = mp.mpc(measure_moment(spec, i + j))
    for t in sob.terms:
        c = mp.mpc(t.c)
        left = [_mono_jet(i, mu, c) for mu in range(t.N + 1)]
        right = [_mono_jet(j, k, c) for k in range(t.J + 1)]
        for mu in range(t.N + 1):
            for k in range(t.J + 1):
                out += left[mu] * mp.mpc(t.gamma[mu, k]) * right[k]
    return out


def _monic_from_gram(entry, n: int) -> list:
    """Monic degree-n polynomial orthogonal to x^0..x^{n-1} under the
    bilinear form with Gram entries entry(i, j); ascending monomial
    coefficients, top pinned to 1."""
    if n == 0:
        return [mp.mpc(1)]
    G = mp.matrix(n, n)
    rhs = mp.matrix(n, 1)
    for k in range(n):
        for i in range(n):
            G[k, i] = entry(k, i)
        rhs[k] = -entry(k, n)
    sol = mp.lu_solve(G, rhs)
    return [sol[i] for i in range(n)] + [mp.mpc(1)]


def oracle_base_monic(spec, n: int) -> list:
    with mp.workdps(DPS):
        return _monic_from_gram(lambda i, j: mp.mpc(measure_moment(spec, i + j)), n)


def oracle_modified_monic(spec, r, n: int) -> list:
    with mp.workdps(DPS):
        mom = {}
        for k in range(2 * n + 1):
            mom[k] = modified_moment(spec, r, k)
        return _monic_from_gram(lambda i, j: mom[i + j], n)


def oracle_sobolev_monic(spec, sob, n: int) -> list:
    with mp.workdps(DPS):
        cache = {}

        def entry(i, j):
            if (i, j) not in cache:
                cache[(i, j)] = sobolev_gram_entry(spec, sob, i, j)
            return cache[(i, j)]

        return _monic_from_gram(entry, n)


def monomial_coeffs(p) -> np.ndarray:
    """Ascending monomial coefficients of a PolyInBasis (double precision).

    Monic basis polynomials over [-1, 1] keep O(1) coefficients, so the
    change of basis costs only a few ulps and stays far inside the 1e-8
    comparison tolerances."""
    from relasym.polybasis import MONIC

    q = p.to_basis(MONIC)
    table = q.table
    out = np.zeros(q.degree + 1, dtype=complex)
    prev = np.ones(1, dtype=complex)           # L_0 = 1
    cur = np.array([-table.b[0], 1.0], dtype=complex)
    out[0] = q.coeffs[0] * prev[0]
    if q.degree >= 1:
        out[: 2] += q.coeffs[1] * cur
    for k in range(1, q.degree):
        nxt = np.zeros(k + 2, dtype=complex)
        nxt[1:] = cur
        nxt[: k + 1] -= table.b[k] * cur
        nxt[: k] -= table.a[k] ** 2 * prev
        prev, cur = cur, nxt
        out[: k + 2] += q.coeffs[k + 1] * cur
    return out


def compare_monomial(p, oracle: list, tol: float) -> float:
    """Max abs coefficient gap against the oracle, asserted by callers."""
    got = monomial_coeffs(p)
    want = np.array([complex(v) for v in oracle])
    m = max(len(got), len(want))
    g = np.zeros(m, dtype=complex)
    w = np.zeros(m, dtype=complex)
    g[: len(got)] = got
    w[: len(want)] = want
    scale = max(1.0, float(np.max(np.abs(w))))
    return float(np.max(np.abs(g - w))) / scale
