"""Sobolev orthogonal polynomials for discrete derivative-coupled inner products.

The bilinear form is

    <h, g> = integral h g dmu + sum_j sum_{i<=N_j} h^(i)(c_j) * sum_k gamma^j_{i,k} g^(k)(c_j),

with finitely many points c_j off the support.  Regularity (the reduced
coefficient matrices Gamma_j* square and nonsingular) is what the
construction and the asymptotics need.  Two independent builders:

* sn_kernel: positive-definite diagonal case, solved through a bordered
  system on the Christoffel-Darboux kernel of mu, in double precision;
* sn_lambda: general regular case, expanding S_n over monic orthogonal
  polynomials Q_{n-k} of s dmu with s = prod (z-c_j)^{N_j+1}, by exact
  coefficient algebra over the recurrence table in mpmath.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .joukowski import NEAR_CUT, dist_to_cut, phi
from .measures import QuadratureRule, RecurrenceTable, inner_mu
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import _ensure_table, solve_Q  # noqa: F401
from .polybasis import MONIC, ORTHONORMAL, PolyInBasis, basis_jets

__all__ = [
    "SobolevTerm",
    "SobolevSpec",
    "SobolevError",
    "RegularityReport",
    "SobolevOP",
    "regularity",
    "sobolev_inner",
    "sn_kernel",
    "sn_lambda",
    "digit_loss",
    "orthogonality_residuals_extended",
    "gamma_sequence",
]

COND_LIMIT = 1e10
DET_TOL = 1e-12


class SobolevError(ValueError):
    pass


def _as_complex_matrix(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=complex)
    if g.ndim != 2:
        raise SobolevError("gamma must be a matrix")
    return g


@dataclass(frozen=True)
class SobolevTerm:
    """One point c with derivative couplings gamma[i, k], i <= N, k <= J."""

    c: complex
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "gamma", _as_complex_matrix(self.gamma))
        if dist_to_cut(self.c) <= NEAR_CUT:
            raise SobolevError(f"coupling point {self.c} lies on or near [-1, 1]")
        if not np.any(self.gamma[-1]):
            raise SobolevError("top derivative row of gamma is identically zero")

    @property
    def N(self) -> int:
        return self.gamma.shape[0] - 1

    @property
    def J(self) -> int:
        return self.gamma.shape[1] - 1


@dataclass(frozen=True)
class SobolevSpec:
    terms: tuple[SobolevTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise SobolevError("need at least one coupling term")
        pts = [t.c for t in self.terms]
        for i in range(len(pts)):
            for k in range(i + 1, len(pts)):
                if abs(pts[i] - pts[k]) < 1e-12:
                    raise SobolevError("coupling points must be distinct")

    @property
    def A(self) -> int:
        """Degree of s(z) = prod (z - c_j)^{N_j + 1}."""
        return sum(t.N + 1 for t in self.terms)

    def is_diagonal_real_positive(self) -> bool:
        for t in self.terms:
            if abs(t.c.imag) > 0.0:
                return False
            g = t.gamma
            if g.shape[0] != g.shape[1]:
                return False
            off = g - np.diag(np.diag(g))
            if np.any(off != 0.0):
                return False
            d = np.diag(g)
            if np.any(np.abs(d.imag) > 0.0) or np.any(d.real < 0.0):
                return False
        return True

    def diagonal_masses(self) -> list[tuple[float, np.ndarray]]:
        """[(c_j, M_j)] with M_j the diagonal of gamma; positive case only."""
        if not self.is_diagonal_real_positive():
            raise SobolevError("spec is not diagonal real nonnegative")
        return [(t.c.real, np.real(np.diag(t.gamma)).copy()) for t in self.terms]

    @classmethod
    def diagonal(cls, points) -> "SobolevSpec":
        """Build from [(c, [M_0, ..., M_N])]."""
        terms = []
        for c, masses in points:
            m = np.asarray(masses, dtype=complex)
            terms.append(SobolevTerm(c=complex(c), gamma=np.diag(m)))
        return cls(terms=tuple(terms))

    def to_json_dict(self) -> dict:
        out_terms = []
        for t in self.terms:
            out_terms.append({
                "c": [t.c.real, t.c.imag],
                "N": t.N,
                "gamma": [[[v.real, v.imag] for v in row] for row in t.gamma],
            })
        doc = {"terms": out_terms}
        if self.is_diagonal_real_positive():
            doc["diagonal"] = [list(np.real(np.diag(t.gamma))) for t in self.terms]
        return doc

    @classmethod
    def from_json_dict(cls, data: dict) -> "SobolevSpec":
        terms = []
        for td in data["terms"]:
            c = complex(td["c"][0], td["c"][1])
            rows = []
            for row in td["gamma"]:
                vals = []
                for v in row:
                    if isinstance(v, (list, tuple)):
                        vals.append(complex(v[0], v[1]))
                    else:
                        vals.append(complex(v))
                rows.append(vals)
            terms.append(SobolevTerm(c=c, gamma=np.asarray(rows, dtype=complex)))
        return cls(terms=tuple(terms))


@dataclass(frozen=True)
class TermRegularity:
    is_regular: bool
    I: int
    det_gamma_star: complex


@dataclass(frozen=True)
class RegularityReport:
    terms: tuple[TermRegularity, ...]
    overall_regular: bool
    A: int
    N_total: int


def regularity(spec: SobolevSpec) -> RegularityReport:
    """Reduce each gamma by deleting zero rows and zero columns; the inner
    product is regular when every reduced matrix is square with det != 0
    (relative to the Hadamard row bound)."""
    reports = []
    for t in spec.terms:
        g = t.gamma
        rows = [i for i in range(g.shape[0]) if np.any(g[i])]
        cols = [k for k in range(g.shape[1]) if np.any(g[:, k])]
        star = g[np.ix_(rows, cols)]
        if star.shape[0] != star.shape[1] or star.size == 0:
            reports.append(TermRegularity(False, 0, 0.0 + 0.0j))
            continue
        det = complex(np.linalg.det(star))
        hadamard = float(np.prod(np.linalg.norm(star, axis=1)))
        ok = hadamard > 0.0 and abs(det) > DET_TOL * hadamard
        reports.append(TermRegularity(ok, star.shape[0] if ok else 0, det))
    overall = all(r.is_regular for r in reports)
    return RegularityReport(
        terms=tuple(reports),
        overall_regular=overall,
        A=spec.A,
        N_total=sum(r.I for r in reports),
    )


def sobolev_inner(h: PolyInBasis, g: PolyInBasis, spec: SobolevSpec,
                  base: RecurrenceTable, rule: QuadratureRule) -> complex:
    """<h, g>: mu integral plus the derivative coupling terms (bilinear,
    no conjugation; h sits in the left slot of the couplings)."""
    total = inner_mu(h, g, rule)
    for t in spec.terms:
        hj = h.jet(t.c, t.N)
        gj = g.jet(t.c, t.J)
        total += complex(hj @ t.gamma @ gj)
    return complex(total)


@dataclass
class SobolevOP:
    n: int
    rep: PolyInBasis                  # monic mu-basis coefficients of S_n
    lam: np.ndarray | None            # expansion over Q_{n-k} (lambda path)
    norm_sq: complex                  # <S_n, S_n>
    gamma_n: complex                  # principal branch of norm_sq^{-1/2}
    cond: float


def sn_kernel(n: int, spec: SobolevSpec, base: RecurrenceTable) -> SobolevOP:
    """Positive-definite diagonal path.

    With masses M_{j,i} >= 0 at real points, S_n = L_n - sum M_{j,i}
    S_n^(i)(c_j) K_{n-1}^{(0,i)}(x, c_j); the unknown jets solve a bordered
    system on the Christoffel-Darboux kernel slices.  norm_sq is assembled
    from the solved jets and the Parseval sum, with no quadrature.
    """
    masses = spec.diagonal_masses()
    base = _ensure_table(base, n + 1)
    pairs = []                       # (c_j, i, M_ji)
    for c, M in masses:
        for i, m in enumerate(M):
            if m > 0.0:
                pairs.append((c, i, float(m)))
    ln_orth = np.zeros(n + 1)
    ln_orth[n] = 1.0 / base.tau[n]   # monic L_n over the orthonormal basis

    if not pairs:
        rep = PolyInBasis.basis_poly(base, n)
        ns = 1.0 / base.tau[n] ** 2
        return SobolevOP(n=n, rep=rep, lam=None, norm_sq=complex(ns),
                         gamma_n=complex(1.0 / math.sqrt(ns)), cond=1.0)

    max_order = max(i for _, i, _ in pairs)
    jets = {}                        # c -> (order+1, n+1) orthonormal jets
    for c, _, _ in pairs:
        if c not in jets:
            jets[c] = basis_jets(base, n, c, order=max_order, basis=ORTHONORMAL).real
    p = len(pairs)
    G = np.zeros((p, p))
    rhs = np.zeros(p)
    for a, (ca, ia, _) in enumerate(pairs):
        rhs[a] = float(jets[ca][ia, n] / base.tau[n])     # L_n^(ia)(ca)
        for b, (cb, ib, mb) in enumerate(pairs):
            # K_{n-1}^{(ia, ib)}(ca, cb), kernel truncated below degree n
            G[a, b] = mb * float(jets[ca][ia, :n] @ jets[cb][ib, :n])
    M_sys = np.eye(p) + G
    cond = float(np.linalg.cond(M_sys))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SobolevError(f"bordered kernel system ill-conditioned (cond ~ {cond:.2e})")
    s = np.linalg.solve(M_sys, rhs)

    coeffs = ln_orth.astype(complex)
    for (c, i, m), sv in zip(pairs, s):
        coeffs[:n] -= m * sv * jets[c][i, :n]
    rep = PolyInBasis(ORTHONORMAL, coeffs, n, base).to_basis(MONIC)
    # <S,S> from the solved jets: the S^(i)(c_j) collapse exponentially and
    # cannot be re-evaluated from the double coefficients at large n, but
    # they are solution variables here, accurate in the relative sense.
    ns = complex(np.sum(coeffs ** 2)) + complex(
        sum(m * sv ** 2 for (_, _, m), sv in zip(pairs, s)))
    if ns == 0:
        raise SobolevError("degenerate S_n: <S_n, S_n> = 0")
    gam = complex(1.0 / np.sqrt(ns))
    return SobolevOP(n=n, rep=rep, lam=None, norm_sq=ns, gamma_n=gam, cond=cond)


def _mono_jet(nu: int, i: int, c):
    """d^i/dx^i x^nu at the mpmath number c."""
    if i > nu:
        return 0
    fall = 1
    for t in range(i):
        fall *= nu - t
    return fall * c ** (nu - i)


def digit_loss(n: int, spec: SobolevSpec) -> float:
    """Estimated decimal digits cancelled when the expansion coefficients
    are pinned in fixed precision.

    The jets S_n^(k)(c_j) collapse against the generic size of the expansion
    terms by a factor ~ |phi(c_j)|^n, so the linear system for lambda loses
    about n * log10 max_j |phi(c_j)| digits.  sn_lambda sets its working
    precision from this; orthogonality_residuals_extended from twice it.
    """
    return n * max(math.log10(abs(phi(t.c))) for t in spec.terms)


# ---- extended-precision coefficient algebra over the recurrence table ----
#
# For polynomial s there are no quadrature steps anywhere in the lambda
# construction: jet conditions, division by (x - c) factors, and mu-moments
# are all exact recurrences on the (a, b, tau) data.  That makes a clean
# arbitrary-precision lane possible without re-deriving the measure.

def _mp_ab(base: RecurrenceTable, deg: int):
    """Recurrence coefficients as mp numbers.

    For atom-free bases the Jacobi formulas are re-evaluated in mp: the
    double table carries ~1e-16 dirt that is invisible to the lambda solve
    but fatal to collapsed-scale quantities downstream (a perturbed a_k
    leaks an O(eps) L_0 component into polynomials whose true low-order
    coefficients are exponentially small).  Atom tables have no closed form
    and keep their double values.
    """
    spec = base.spec
    if spec is not None and not spec.has_atoms:
        al = mpmath.mpf(spec.jacobi_exponents()[0])
        be = mpmath.mpf(spec.jacobi_exponents()[1])
        s = al + be
        b = [(be - al) / (s + 2)]
        a2 = [mpmath.mpf(0)]
        for k in range(1, deg + 1):
            b.append((be * be - al * al) / ((2 * k + s) * (2 * k + s + 2)))
        if deg >= 1:
            a2.append(4 * (1 + al) * (1 + be) / ((2 + s) ** 2 * (3 + s)))
        for k in range(2, deg + 1):
            nab = 2 * k + s
            a2.append(4 * k * (k + al) * (k + be) * (k + s)
                      / (nab * nab * (nab + 1) * (nab - 1)))
        return a2, b
    a2 = [mpmath.mpf(float(x)) ** 2 for x in base.a[: deg + 1]]
    b = [mpmath.mpf(float(x)) for x in base.b[: deg + 1]]
    return a2, b


def _mp_normsq(base: RecurrenceTable, a2: list, deg: int) -> list:
    """||L_m||^2 = m_0 * prod a2_k, with the total mass in mp for atom-free
    bases (beta integral) so no double tau dirt enters the moment rows."""
    spec = base.spec
    if spec is not None and not spec.has_atoms:
        al, be = (mpmath.mpf(v) for v in spec.jacobi_exponents())
        m0 = 2 ** (al + be + 1) * mpmath.beta(al + 1, be + 1)
    else:
        m0 = 1 / mpmath.mpf(float(base.tau[0])) ** 2
    out = [m0]
    for k in range(1, deg + 1):
        out.append(out[-1] * a2[k])
    return out


def _mp_xmul(p: list, a2: list, b: list) -> list:
    """Coefficients of x * p over the monic basis."""
    out = [mpmath.mpf(0)] * (len(p) + 1)
    for m, cm in enumerate(p):
        out[m + 1] += cm
        out[m] += b[m] * cm
        if m > 0:
            out[m - 1] += a2[m] * cm
    return out


def _mp_divide_linear(p: list, c, a2: list, b: list) -> list:
    """q with (x - c) q = p, top-down back-substitution; remainder dropped."""
    D = len(p) - 1
    q = [mpmath.mpc(0)] * D
    for k in range(D, 0, -1):
        v = p[k]
        if k < D:
            v = v - (b[k] - c) * q[k]
        if k + 1 < D:
            v = v - a2[k + 1] * q[k + 1]
        q[k - 1] = v
    return q


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


def _extended_core(n: int, spec: SobolevSpec, base: RecurrenceTable, dps: int) -> dict:
    """Solve the lambda expansion entirely in mpmath coefficient space."""
    A = spec.A
    deg_top = n + A
    base = _ensure_table(base, deg_top + 1)
    with mpmath.workdps(dps):
        a2, b = _mp_ab(base, deg_top)
        normsq = _mp_normsq(base, a2, n)
        orders = {t.c: max(t.N, t.J) for t in spec.terms}
        cpts = {t.c: mpmath.mpc(t.c) for t in spec.terms}
        jets_all = {t.c: _mp_basis_jets(deg_top, orders[t.c], cpts[t.c], a2, b)
                    for t in spec.terms}
        gammas = {t.c: [[mpmath.mpc(v) for v in row] for row in t.gamma]
                  for t in spec.terms}

        def solve_q(m: int) -> list:
            # R_m = L_{m+A} + sum lamp_k L_{m+A-k} with R_m^(nu)(c_j) = 0
            rows = mpmath.matrix(A, A)
            rhs = mpmath.matrix(A, 1)
            ridx = 0
            for t in spec.terms:
                J = jets_all[t.c]
                for nu in range(t.N + 1):
                    for k in range(1, A + 1):
                        rows[ridx, k - 1] = J[nu][m + A - k]
                    rhs[ridx] = -J[nu][m + A]
                    ridx += 1
            lamp = mpmath.lu_solve(rows, rhs)
            coeffs = [mpmath.mpc(0)] * (m + A + 1)
            coeffs[m + A] = mpmath.mpc(1)
            for k in range(1, A + 1):
                coeffs[m + A - k] = lamp[k - 1]
            for t in spec.terms:
                for _ in range(t.N + 1):
                    coeffs = _mp_divide_linear(coeffs, cpts[t.c], a2, b)
            return coeffs

        qs = {k: solve_q(n - k) for k in range(A + 1)}
        qjets = {k: {t.c: _mp_poly_jet(qs[k], jets_all[t.c], orders[t.c])
                     for t in spec.terms} for k in range(A + 1)}

        # eta[nu] = monic-basis expansion of x^nu; mu-moments come out exact
        eta = [[mpmath.mpf(1)]]
        for _ in range(A - 1):
            eta.append(_mp_xmul(eta[-1], a2, b))

        def pairing(nu: int, k: int):
            e = eta[nu]
            val = mpmath.fsum(e[i] * qs[k][i] * normsq[i]
                              for i in range(min(len(e), len(qs[k]))))
            for t in spec.terms:
                g = gammas[t.c]
                qj = qjets[k][t.c]
                for i in range(t.N + 1):
                    mj = _mono_jet(nu, i, cpts[t.c])
                    if mj != 0:
                        val += mj * mpmath.fsum(g[i][kk] * qj[kk]
                                                for kk in range(t.J + 1))
            return val

        rows = mpmath.matrix(A, A)
        rhs = mpmath.matrix(A, 1)
        for nu in range(A):
            for k in range(1, A + 1):
                rows[nu, k - 1] = pairing(nu, k)
            rhs[nu] = -pairing(nu, 0)
        scaled = np.zeros((A, A + 1), dtype=complex)
        for nu in range(A):
            sc = max([abs(rows[nu, k]) for k in range(A)] + [abs(rhs[nu])])
            sc = sc if sc > 0 else mpmath.mpf(1)
            for k in range(A):
                scaled[nu, k] = complex(rows[nu, k] / sc)
            scaled[nu, A] = complex(rhs[nu] / sc)
        cond = float(np.linalg.cond(scaled[:, :A]))
        lam_mp = [mpmath.mpc(1)] + list(mpmath.lu_solve(rows, rhs))

        coeffs = [mpmath.mpc(0)] * (n + 1)
        for k in range(A + 1):
            qk = qs[k]
            for m, cm in enumerate(qk):
                coeffs[m] += lam_mp[k] * cm
        sjets = {t.c: _mp_poly_jet(coeffs, jets_all[t.c], orders[t.c])
                 for t in spec.terms}
        ns = mpmath.fsum(coeffs[i] ** 2 * normsq[i] for i in range(n + 1))
        for t in spec.terms:
            g = gammas[t.c]
            sj = sjets[t.c]
            ns += mpmath.fsum(sj[i] * g[i][kk] * sj[kk]
                              for i in range(t.N + 1) for kk in range(t.J + 1))
        gam = 1 / mpmath.sqrt(ns)
        return {
            "base": base,
            "lam": np.array([complex(v) for v in lam_mp]),
            "coeffs_mp": coeffs,
            "coeffs": np.array([complex(v) for v in coeffs]),
            "norm_sq": complex(ns),
            "norm_sq_mp": ns,
            "gamma_n": complex(gam),
            "cond": cond,
            "a2": a2, "b": b, "normsq": normsq,
            "jets_all": jets_all, "sjets": sjets, "gammas": gammas,
            "cpts": cpts, "dps": dps,
        }


def sn_lambda(n: int, spec: SobolevSpec, base: RecurrenceTable) -> SobolevOP:
    """General regular path through the modified measure s dmu.

    s(z) = prod (z - c_j)^{N_j+1}; S_n = sum_{k=0}^{A} lambda_k Q_{n-k} with
    lambda_0 = 1, the remaining lambda pinned by <x^nu, S_n> = 0 for
    nu = 0..A-1.  Orthogonality against s * (lower degrees) is automatic.

    The expansion conditions cancel ~ n * log10 |phi(c)| digits, so the
    system is assembled and solved in mpmath with that many digits plus 35
    (30 at least).  Every step is exact coefficient algebra over the
    recurrence table, with no quadrature.
    """
    report = regularity(spec)
    if not report.overall_regular:
        raise SobolevError("inner product is not regular; construction undefined")
    A = spec.A
    if n < 2 * A + 1:
        raise SobolevError(f"need n >= 2A+1 = {2 * A + 1} for the expansion, got {n}")

    core = _extended_core(n, spec, base, max(30, int(digit_loss(n, spec)) + 35))
    if not np.isfinite(core["cond"]) or core["cond"] > COND_LIMIT:
        raise SobolevError(
            f"lambda system ill-conditioned (cond ~ {core['cond']:.2e}) at n={n}: "
            "index below the asymptotic regime")
    rep = PolyInBasis(MONIC, core["coeffs"], n, core["base"])
    return SobolevOP(n=n, rep=rep, lam=core["lam"], norm_sq=core["norm_sq"],
                     gamma_n=core["gamma_n"], cond=core["cond"])


def orthogonality_residuals_extended(n: int, spec: SobolevSpec,
                                     base: RecurrenceTable,
                                     dps: int | None = None,
                                     kmax: int | None = None) -> np.ndarray:
    """Relative residuals |<x^k, S_n>| / scale_k for k < n, measured in
    extended precision so the collapsed jet values are actually resolved.

    scale_k sums the magnitudes of every contributing term (moment products
    and coupling products) plus the Cauchy-Schwarz product ||x^k|| ||S_n||.
    The norm product keeps the scale meaningful when the termwise sum
    degenerates to a single term (k = 0 with derivative-only couplings).
    """
    loss = digit_loss(n, spec)
    # the residual check cancels roughly twice the construction loss
    wp = dps if dps is not None else max(40, int(2 * loss) + 40)
    core = _extended_core(n, spec, base, wp)
    kmax = n - 1 if kmax is None else min(kmax, n - 1)
    out = np.zeros(kmax + 1)
    with mpmath.workdps(wp):
        a2, b = core["a2"], core["b"]
        coeffs = core["coeffs_mp"]
        sn_norm = mpmath.sqrt(abs(core["norm_sq_mp"]))
        e = [mpmath.mpf(1)]
        for k in range(kmax + 1):
            val = mpmath.mpc(0)
            sc = mpmath.mpf(0)
            xk2 = mpmath.fsum(e[i] ** 2 * core["normsq"][i]
                              for i in range(min(len(e), len(coeffs))))
            for i in range(min(len(e), len(coeffs))):
                term = e[i] * coeffs[i] * core["normsq"][i]
                val += term
                sc += abs(term)
            for t in spec.terms:
                g = core["gammas"][t.c]
                sj = core["sjets"][t.c]
                mj = [_mono_jet(k, i, core["cpts"][t.c])
                      for i in range(max(t.N, t.J) + 1)]
                xk2 += mpmath.fsum(mj[i] * g[i][kk] * mj[kk]
                                   for i in range(t.N + 1)
                                   for kk in range(t.J + 1))
                for i in range(t.N + 1):
                    if mj[i] == 0:
                        continue
                    for kk in range(t.J + 1):
                        term = mj[i] * g[i][kk] * sj[kk]
                        val += term
                        sc += abs(term)
            sc += sn_norm * mpmath.sqrt(abs(xk2))
            out[k] = float(abs(val) / sc) if sc > 0 else float(abs(val))
            if k < kmax:
                e = _mp_xmul(e, a2, b)
    return out


def gamma_sequence(spec: SobolevSpec, base: RecurrenceTable, degrees,
                   method=sn_kernel) -> dict[int, complex]:
    """gamma_n = <S_n, S_n>^{-1/2} over the given degrees, branch-continuous.

    The principal branch is taken at the smallest degree; each later sign is
    chosen to minimize |gamma_{m}/gamma_{m'} - 2^{m-m'}| against the previous
    computed degree (consecutive degrees give the plain ratio-2 rule).
    """
    degrees = sorted(degrees)
    out: dict[int, complex] = {}
    prev_n = None
    for n in degrees:
        op = method(n, spec, base)
        g = op.gamma_n
        if prev_n is not None:
            target = 2.0 ** (n - prev_n)
            if abs(-g / out[prev_n] - target) < abs(g / out[prev_n] - target):
                g = -g
        out[n] = g
        prev_n = n
    return out
