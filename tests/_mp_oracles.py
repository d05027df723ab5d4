"""Independent extended-precision references for the test suite.

Most of what is here is built from raw monomial moments and dense linear
algebra in mpmath: monic orthogonal polynomials come out of normal
equations on Hankel/Gram matrices, never out of the package's own
recurrence or kernel paths.  Slow and simple on purpose.

The one exception is the lambda expansion of Sobolev polynomials at the
end, which reaches degrees no Gram matrix can.  It starts from the
package's mp recurrence table, but sweeps its jets with a scalar
recurrence of its own (`_mp_basis_jets`) and pins S_n by another
algebra than the kernel identity both package lanes use: an expansion
over the monic orthogonal polynomials of s dmu, built by exact division
by (x - c), with its coefficients fixed by moment conditions.

The orthogonality residuals after it measure the package's own mp S_n
(`extended._mp_kernel`) against the inner product it was built for: every
pairing <x^k, S_n> summed term by term, with the magnitudes of its terms.

The Pade remainders at the very end are the last exception: they sum
Q_n against the Cauchy transforms of the basis, with digits enough for
every cancellation, where the package uses the Q_n^2 identity in double.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from relasym.extended import _mp_ab, _mp_kernel
from relasym.joukowski import phi
from relasym.measures import RecurrenceTable, table_through
from relasym.pade import to_sobolev_spec
from relasym.sobolev import SobolevSpec, digit_loss

DPS = 150        # Hankel systems burn ~2 digits per degree; huge margin
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


def _poly_from_roots(roots) -> list:
    """Ascending monomial coefficients of prod (x - c) over roots."""
    coeffs = [mp.mpc(1)]
    for c in roots:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i + 1] += v
            nxt[i] -= mp.mpc(c) * v
        coeffs = nxt
    return coeffs


def _taylor(coeffs: list, d, order: int) -> list:
    """The first `order` Taylor coefficients at d of the polynomial with
    ascending monomial coefficients coeffs."""
    return [mp.fsum(mp.binomial(i, j) * coeffs[i] * d ** (i - j)
                    for i in range(j, len(coeffs))) for j in range(order)]


def _partial_fractions(num: list, r) -> tuple[list, list]:
    """num / T = quot + sum_{d, m} C / (x - d)^m for the denominator T of r:
    quot in ascending monomial coefficients, and the (d, m, C) triples.
    C is a Taylor coefficient of num / (T / (x - d)^mult) at d, and quot the
    quotient of the long division of num by the monic T."""
    terms = []
    for j, (d, mult) in enumerate(r.poles):
        rest = _poly_from_roots([e for i, (e, k) in enumerate(r.poles) if i != j
                                 for _ in range(k)])
        p, t = _taylor(num, mp.mpc(d), mult), _taylor(rest, mp.mpc(d), mult)
        g = []
        for s in range(mult):
            g.append((p[s] - mp.fsum(t[i] * g[s - i] for i in range(1, s + 1))) / t[0])
        terms += [(d, m, g[mult - m]) for m in range(1, mult + 1)]
    den = _poly_from_roots([d for d, k in r.poles for _ in range(k)])
    rem, quot = list(num), [mp.mpc(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(den) - 1]
        for j, v in enumerate(den):
            rem[i + j] -= quot[i] * v
    return quot, terms


def jacobi_pole_moment(a, b, d, m: int) -> mp.mpc:
    """integral (1-x)^a (1+x)^b (x - d)^-m dx over [-1, 1], d off [-1, 1]:
    x = 2t - 1 and Euler's integral for 2F1 give
    2^(a+b+1) B(a+1, b+1) (-(1+d))^-m 2F1(m, b+1; a+b+2; 2/(1+d))."""
    d = mp.mpc(d)
    return (mp.mpf(2) ** (a + b + 1) * mp.beta(a + 1, b + 1) * (-(1 + d)) ** (-m)
            * mp.hyp2f1(m, b + 1, a + b + 2, 2 / (1 + d)))


def modified_moments(spec, r, count: int) -> list:
    """integral x^k r(x) dmu for k < count, in closed form: x^k S(x) / T(x)
    in partial fractions, its polynomial part by `jacobi_moment` and each
    pole term by `jacobi_pole_moment`, plus r at the point masses."""
    a, b = (mp.mpf(v) for v in spec.jacobi_exponents())
    s = _poly_from_roots([c for c, m in r.zeros for _ in range(m)])
    plain = [jacobi_moment(a, b, i) for i in range(count + len(s) - 1)]
    poles = {(d, m): jacobi_pole_moment(a, b, d, m) for d, mult in r.poles
             for m in range(1, mult + 1)}
    out = []
    for k in range(count):
        quot, terms = _partial_fractions([mp.mpc(0)] * k + s, r)
        val = mp.fsum(v * plain[i] for i, v in enumerate(quot) if v)
        val += mp.fsum(C * poles[d, m] for d, m, C in terms)
        for loc, mass in spec.mass_points:
            val += mp.mpf(mass) * mp.mpf(loc) ** k * _r_value(r, mp.mpf(loc))
        out.append(val)
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
    return oracle_modified_monics(spec, r, (n,))[n]


def oracle_modified_monics(spec, r, degrees) -> dict:
    """Degree -> oracle_modified_monic, from one set of moments."""
    with mp.workdps(DPS):
        mom = modified_moments(spec, r, 2 * max(degrees) + 1)
        return {n: _monic_from_gram(lambda i, j: mom[i + j], n) for n in degrees}


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
    table, c = p.table, p.coeffs
    out = np.zeros(p.degree + 1, dtype=complex)
    prev = np.ones(1, dtype=complex)           # L_0 = 1
    cur = np.array([-table.b[0], 1.0], dtype=complex)
    out[0] = c[0] * prev[0]
    if p.degree >= 1:
        out[: 2] += c[1] * cur
    for k in range(1, p.degree):
        nxt = np.zeros(k + 2, dtype=complex)
        nxt[1:] = cur
        nxt[: k + 1] -= table.b[k] * cur
        nxt[: k] -= table.a[k] ** 2 * prev
        prev, cur = cur, nxt
        out[: k + 2] += c[k + 1] * cur
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


# ---- the lambda expansion of S_n over the Q_{n-k} of s dmu ----

def lambda_dps(n: int, sob) -> int:
    """Working digits of the expansion at degree n: a condition that meets
    a zero row of gamma is a bare mu-moment of the Q_{n-k}, collapsed by
    about digit_loss digits before the solve cancels as many again."""
    return int(2 * digit_loss(n, sob)) + 35


def _divide_linear(p: list, c, a2: list, b: list) -> list:
    """q with (x - c) q = p, top-down back-substitution; remainder dropped."""
    D = len(p) - 1
    q = [mp.mpc(0)] * D
    for k in range(D, 0, -1):
        v = p[k]
        if k < D:
            v = v - (b[k] - c) * q[k]
        if k + 1 < D:
            v = v - a2[k + 1] * q[k + 1]
        q[k - 1] = v
    return q


def _mp_recurrence(table) -> tuple[list, list, list]:
    """(a2, b, normsq) of an mp table as lists: a_k^2, b_k and
    ||L_k||^2 = 1/tau_k^2."""
    return [v * v for v in table.a], list(table.b), [1 / (t * t) for t in table.tau]


def _mp_basis_jets(deg: int, order: int, c, a2: list, b: list) -> list:
    """jets[i][m] = (d/dx)^i L_m at c for the monic basis polynomials."""
    jets = [[mp.mpc(0)] * (deg + 1) for _ in range(order + 1)]
    jets[0][0] = mp.mpc(1)
    if deg == 0:
        return jets
    jets[0][1] = c - b[0]
    for i in range(1, order + 1):
        jets[i][1] = mp.mpc(1) if i == 1 else mp.mpc(0)
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
        out.append(mp.fsum(cm * row[m] for m, cm in enumerate(coeffs)))
    return out


def _mp_xmul(p: list, a2: list, b: list) -> list:
    """Coefficients of x * p over the monic basis."""
    out = [mp.mpf(0)] * (len(p) + 1)
    for m, cm in enumerate(p):
        out[m + 1] += cm
        out[m] += b[m] * cm
        if m > 0:
            out[m - 1] += a2[m] * cm
    return out


def lambda_expansion(n: int, sob, base, dps: int) -> dict:
    """S_n = sum_{k=0}^{A} lambda_k Q_{n-k}, entirely in mpmath coefficient
    space.  s(z) = prod (z - c_j)^{N_j+1} has degree A; Q_m is the monic
    orthogonal polynomial of degree m of s dmu, from R_m = s Q_m, whose
    jets vanish at each c_j; lambda_0 = 1 and the rest are pinned by
    <x^nu, S_n> = 0 for nu < A.  Returns the monic coefficients in mp
    and in double, <S_n, S_n> in mp, and the mp recurrence table."""
    A = sum(t.N + 1 for t in sob.terms)
    deg_top = n + A
    base = table_through(base, deg_top + 1)
    with mp.workdps(dps):
        table = _mp_ab(base, deg_top)
        a2, b, normsq = _mp_recurrence(table)
        orders = {t.c: max(t.N, t.J) for t in sob.terms}
        cpts = {t.c: mp.mpc(t.c) for t in sob.terms}
        jets_all = {t.c: _mp_basis_jets(deg_top, orders[t.c], cpts[t.c], a2, b)
                    for t in sob.terms}
        gammas = {t.c: [[mp.mpc(v) for v in row] for row in t.gamma]
                  for t in sob.terms}

        def solve_q(m: int) -> list:
            # R_m = L_{m+A} + sum lamp_k L_{m+A-k} with R_m^(nu)(c_j) = 0
            rows = mp.matrix(A, A)
            rhs = mp.matrix(A, 1)
            ridx = 0
            for t in sob.terms:
                J = jets_all[t.c]
                for nu in range(t.N + 1):
                    for k in range(1, A + 1):
                        rows[ridx, k - 1] = J[nu][m + A - k]
                    rhs[ridx] = -J[nu][m + A]
                    ridx += 1
            lamp = mp.lu_solve(rows, rhs)
            coeffs = [mp.mpc(0)] * (m + A + 1)
            coeffs[m + A] = mp.mpc(1)
            for k in range(1, A + 1):
                coeffs[m + A - k] = lamp[k - 1]
            for t in sob.terms:
                for _ in range(t.N + 1):
                    coeffs = _divide_linear(coeffs, cpts[t.c], a2, b)
            return coeffs

        qs = {k: solve_q(n - k) for k in range(A + 1)}
        qjets = {k: {t.c: _mp_poly_jet(qs[k], jets_all[t.c], orders[t.c])
                     for t in sob.terms} for k in range(A + 1)}

        # eta[nu] = monic-basis expansion of x^nu; mu-moments come out exact
        eta = [[mp.mpf(1)]]
        for _ in range(A - 1):
            eta.append(_mp_xmul(eta[-1], a2, b))

        def pairing(nu: int, k: int):
            e = eta[nu]
            val = mp.fsum(e[i] * qs[k][i] * normsq[i]
                          for i in range(min(len(e), len(qs[k]))))
            for t in sob.terms:
                g = gammas[t.c]
                qj = qjets[k][t.c]
                for i in range(t.N + 1):
                    mj = _mono_jet(nu, i, cpts[t.c])
                    if mj != 0:
                        val += mj * mp.fsum(g[i][kk] * qj[kk]
                                            for kk in range(t.J + 1))
            return val

        rows = mp.matrix(A, A)
        rhs = mp.matrix(A, 1)
        for nu in range(A):
            for k in range(1, A + 1):
                rows[nu, k - 1] = pairing(nu, k)
            rhs[nu] = -pairing(nu, 0)
        lam_mp = [mp.mpc(1)] + list(mp.lu_solve(rows, rhs))

        coeffs = [mp.mpc(0)] * (n + 1)
        for k in range(A + 1):
            qk = qs[k]
            for m, cm in enumerate(qk):
                coeffs[m] += lam_mp[k] * cm
        sjets = {t.c: _mp_poly_jet(coeffs, jets_all[t.c], orders[t.c])
                 for t in sob.terms}
        ns = mp.fsum(coeffs[i] ** 2 * normsq[i] for i in range(n + 1))
        for t in sob.terms:
            g = gammas[t.c]
            sj = sjets[t.c]
            ns += mp.fsum(sj[i] * g[i][kk] * sj[kk]
                          for i in range(t.N + 1) for kk in range(t.J + 1))
        return {
            "coeffs_mp": coeffs,
            "coeffs": np.array([complex(v) for v in coeffs]),
            "norm_sq_mp": ns,
            "table": table,
        }


def lambda_monic(n: int, sob, base) -> np.ndarray:
    """Monic coefficients of S_n from the expansion at lambda_dps digits."""
    return lambda_expansion(n, sob, base, lambda_dps(n, sob))["coeffs"]


# ---- orthogonality residuals of the package's mp S_n ----

def _residuals(spec: SobolevSpec, core: dict, wp: int) -> np.ndarray:
    """The residuals of the monic mp coefficients core["coeffs_mp"], with
    the recurrence coefficients and norms of core's mp table and norm_sq_mp."""
    coeffs = core["coeffs_mp"]
    n = len(coeffs) - 1
    out = np.zeros(n)
    with mp.workdps(wp):
        a2, b, normsq = _mp_recurrence(core["table"])
        sn_norm = mp.sqrt(abs(core["norm_sq_mp"]))
        points = []
        for t in spec.terms:
            c, order = mp.mpc(t.c), max(t.N, t.J)
            sj = _mp_poly_jet(coeffs, _mp_basis_jets(n, order, c, a2, b), order)
            points.append((t, c, [[mp.mpc(v) for v in row] for row in t.gamma], sj))
        e = [mp.mpf(1)]
        for k in range(n):
            terms = [v * coeffs[i] * normsq[i] for i, v in enumerate(e)]
            xk2 = mp.fsum(v ** 2 * normsq[i] for i, v in enumerate(e))
            for t, c, g, sj in points:
                mj = [_mono_jet(k, i, c) for i in range(max(t.N, t.J) + 1)]
                xk2 += mp.fsum(mj[i] * g[i][kk] * mj[kk]
                               for i in range(t.N + 1)
                               for kk in range(t.J + 1))
                terms += [mj[i] * g[i][kk] * sj[kk]
                          for i in range(t.N + 1) for kk in range(t.J + 1)]
            terms = [v for v in terms if v != 0]
            val = mp.fsum(terms)
            sc = (mp.fsum(abs(v) for v in terms) if len(terms) > 1
                  else sn_norm * mp.sqrt(abs(xk2)))
            out[k] = float(abs(val) / sc) if sc > 0 else float(abs(val))
            if k < n - 1:
                e = _mp_xmul(e, a2, b)
    return out


def orthogonality_residuals_extended(n: int, spec: SobolevSpec,
                                     base: RecurrenceTable) -> np.ndarray:
    """Relative residuals |<x^k, S_n>| / scale_k for k < n, measured in
    extended precision so the collapsed jet values are actually resolved.

    scale_k sums the magnitudes of every contributing term (moment products
    and coupling products), so a residual sits at the working precision
    when S_n is right and near 1 when it is not.  A row with a single term
    (k = 0 with derivative-only couplings) has nothing to cancel against;
    its scale is the Cauchy-Schwarz product ||x^k|| ||S_n||.
    """
    wp = residual_dps(n, spec)
    return _residuals(spec, _mp_kernel(n, spec, base, wp), wp)


def residual_dps(n: int, spec: SobolevSpec) -> int:
    """The digits orthogonality_residuals_extended builds and checks S_n at."""
    return max(40, int(2 * digit_loss(n, spec)) + 40)


def _mp_remainder(n: int, f, base, z, dps: int):
    """(f - P_n/Q_n)(z) = R_n(z)/Q_n(z) in extended precision, with

    R_n(z) = integral Q_n(x)/(z-x) dmu + sum_{j,i} A_{j,i} i! T_{j,i}(z)/(z-c_j)^{i+1}.

    With Q_n = sum_m c_m L_m the integral is sum_m c_m q_m(z), q_m the
    Cauchy transforms: the minimal solution of the recurrence, from the
    backward ratio recurrence of `measures.minimal_ratios` run in mp.
    Its tail of dps / log10|phi(z)| steps leaves a share below 10^(-2 dps)
    from the start h = 0.  No quadrature; Q_n itself is rebuilt in mp
    by the kernel identity of `sn_lambda`, at the same dps.  Every sum
    here cancels, which the digit budget of `mp_error_ratio` covers.
    """
    if f.poles:
        coeffs = _mp_kernel(n, to_sobolev_spec(f), base, dps)["coeffs_mp"]
    else:
        coeffs = [mp.mpc(0)] * n + [mp.mpc(1)]
    with mp.workdps(dps):
        zz = mp.mpc(z)
        top = n + math.ceil(dps / math.log10(abs(phi(z))))
        deep = table_through(base, top)
        a2, b, normsq = _mp_recurrence(_mp_ab(deep, top))
        h, hs = mp.mpc(0), {}               # hs[m] = q_m / q_{m-1}
        for m in range(top, 0, -1):
            h = hs[m] = a2[m] / (zz - b[m] - h)
        q = normsq[0] / (zz - b[0] - hs[1])
        R = coeffs[0] * q
        for m in range(1, n + 1):
            q *= hs[m]
            R += coeffs[m] * q
        for c, A in f.poles:
            cc = mp.mpc(c)
            order = len(A) - 1
            jets = _mp_basis_jets(n, order, cc, a2, b)
            qjets = _mp_poly_jet(coeffs, jets, order)
            for i, av in enumerate(A):
                tay = mp.fsum(qjets[t] / mp.factorial(t) * (zz - cc) ** t
                              for t in range(i + 1))
                R += mp.mpc(av) * mp.factorial(i) * tay / (zz - cc) ** (i + 1)
        return R / _mp_poly_jet(coeffs, _mp_basis_jets(n, 0, zz, a2, b), 0)[0]


def mp_error_ratio(n: int, z, f, base) -> complex:
    """(f - pi_{n+1})/(f - pi_n) at z from the two remainders at enough
    digits to resolve them: 2 (n + 1) log10|phi(z)| for the geometric
    decay, digit_loss for the collapsed pole jets, and 50 to spare."""
    need = 2.0 * (n + 1) * math.log10(abs(phi(z)))
    if f.poles:
        need += digit_loss(n + 1, to_sobolev_spec(f))
    dps = int(need) + 50
    base = table_through(base, n + 2)
    return complex(_mp_remainder(n + 1, f, base, z, dps) / _mp_remainder(n, f, base, z, dps))
