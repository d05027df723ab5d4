"""Sobolev orthogonal polynomials for discrete derivative-coupled inner products.

The bilinear form is

    <h, g> = integral h g dmu + sum_j sum_{i<=N_j} h^(i)(c_j) * sum_k gamma^j_{i,k} g^(k)(c_j),

with finitely many points c_j off the support.  Regularity (the reduced
coefficient matrices Gamma_j* square and nonsingular) is what the
construction and the asymptotics need.  One construction, for every
regular spec (complex points, non-diagonal and indefinite gamma, the Pade
coupling matrices alike): a bordered system on the Christoffel-Darboux
kernel of mu, one unknown per nonzero column of each gamma_j.  It runs in
two arithmetics, which gate on the same equilibrated system and report the
same condition number:

* sn_kernel: in double precision, solving the equilibrated system;
* sn_lambda: in mpmath, by exact coefficient algebra over the recurrence
  table, at the digits the collapse of the jets at the c_j needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .joukowski import NEAR_CUT, dist_to_cut, phi
from .measures import QuadratureRule, RecurrenceTable
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import _ensure_table, solve_Q  # noqa: F401
from .polybasis import MONIC, ORTHONORMAL, PolyInBasis, basis_jets, inner_mu

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
        return {"terms": out_terms}

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


def _support(g: np.ndarray) -> tuple[list[int], list[int]]:
    """Indices of the nonzero rows and of the nonzero columns of gamma."""
    return ([i for i in range(g.shape[0]) if np.any(g[i])],
            [k for k in range(g.shape[1]) if np.any(g[:, k])])


def regularity(spec: SobolevSpec) -> RegularityReport:
    """Reduce each gamma by deleting zero rows and zero columns; the inner
    product is regular when every reduced matrix is square with det != 0
    (relative to the Hadamard row bound)."""
    reports = []
    for t in spec.terms:
        g = t.gamma
        rows, cols = _support(g)
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
    norm_sq: complex                  # <S_n, S_n>
    gamma_n: complex                  # principal branch of norm_sq^{-1/2}
    cond: float


def _buildable(n: int, spec: SobolevSpec, base: RecurrenceTable) -> RecurrenceTable:
    """Refusals both lanes share; returns a table through degree n + 1."""
    if not regularity(spec).overall_regular:
        raise SobolevError("inner product is not regular; construction undefined")
    order = max(max(t.gamma.shape) for t in spec.terms) - 1
    if n <= order:
        raise SobolevError(f"need n > {order}, the highest coupled derivative, got {n}")
    with np.errstate(over="ignore"):    # sn_kernel refuses an infinite tau_n
        base = _ensure_table(base, n + 1)
    atoms = base.spec.mass_points if base.spec is not None else ()
    if any(abs(t.c - loc) < 1e-10 for t in spec.terms for loc, _ in atoms):
        # forward jets at an atom follow a decaying solution into rounding noise
        raise SobolevError("a coupling point coincides with a mass point")
    return base


def _kernel_system(blocks: list, n: int) -> tuple:
    """The equilibrated bordered system from each point's (J, W, 1/(P P')).

    J and W are the point's orthonormal jet blocks divided by their largest
    entries P and P'.  Each is factored as P L Q; returns the matrix
    diag(L^-1 L'^-T / (P P')) + Q Q'^T, its condition number, the stacked
    Q', and L^-1 J[:, n] and L'^-1 W[:, n] stacked.  Refuses past COND_LIMIT.
    """
    Q, Qw, D, rhs, wn = [], [], [], [], []
    for J, W, scale in blocks:
        q, r = np.linalg.qr(J[:, :n].T)
        qw, rw = np.linalg.qr(W[:, :n].T)
        Li, Lwi = np.linalg.inv(r.T), np.linalg.inv(rw.T)
        Q.append(q.T)
        Qw.append(qw.T)
        # 1/(P P') underflows harmlessly once the kernel part dominates
        D.append(Li @ Lwi.T * scale)
        rhs.append(Li @ J[:, n])
        wn.append(Lwi @ W[:, n])
    Q, Qw = np.vstack(Q), np.vstack(Qw)
    M_sys = Q @ Qw.T
    i = 0
    for d in D:
        M_sys[i:i + len(d), i:i + len(d)] += d
        i += len(d)
    cond = float(np.linalg.cond(M_sys)) if np.all(np.isfinite(M_sys)) else math.inf
    if not cond <= COND_LIMIT:
        raise SobolevError(f"bordered kernel system ill-conditioned (cond ~ {cond:.2e})")
    return M_sys, cond, Qw, np.concatenate(rhs), np.concatenate(wn)


def sn_kernel(n: int, spec: SobolevSpec, base: RecurrenceTable) -> SobolevOP:
    """Double-precision path for every regular spec.

    S_n = L_n - sum_j sum_{i,k} gamma^j_{ik} S_n^(k)(c_j) K_{n-1}^{(0,i)}(x, c_j)
    with K the unconjugated kernel sum_{m<n} l_m(x) l_m(c).  The unknowns
    u = S_n^(k)(c_j), k over the nonzero columns of gamma_j, solve
    (I + J W^T) u = (L_n^(k)(c_j)): J holds the jet rows l_m^(k)(c_j), m < n,
    W = Gamma*^T (jet rows at the nonzero rows of gamma_j).  Then s = -W^T u
    and norm_sq = <L_n, S_n> = 1/tau_n^2 + W[:, n] . u / tau_n.  Jet rows are
    divided by their largest entry, and each point's J and W blocks are
    factored as P L Q (scalar, small lower triangle, orthonormal rows).  The
    solve runs on v = P' L'^T u with diag(L^-1 L'^-T / (P P')) + Q Q'^T, which
    equilibrates rows and columns and takes in the near-parallel derivative
    rows of each point; then s = -Q'^T v.
    """
    base = _buildable(n, spec, base)
    if not np.isfinite(base.tau[n]):
        raise SobolevError(f"tau_{n} overflows the double range")
    inv_tau = 1.0 / base.tau[n]
    blocks = []
    for t in spec.terms:
        rows, cols = _support(t.gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            E = basis_jets(base, n, t.c, order=max(rows + cols), basis=ORTHONORMAL)
        if not np.all(np.isfinite(E)):
            raise SobolevError(f"jets at c = {t.c} overflow the double range at n={n}")
        peak = np.abs(E).max(axis=1)
        E = E / peak[:, None]
        pj, pw = peak[cols].max(), peak[rows].max()
        J = E[cols] * (peak[cols] / pj)[:, None]
        W = t.gamma[np.ix_(rows, cols)].T @ (E[rows] * (peak[rows] / pw)[:, None])
        blocks.append((J, W, (1.0 / pj) * (1.0 / pw)))
    M_sys, cond, Qw, rhs, wn = _kernel_system(blocks, n)
    v = np.linalg.solve(M_sys, rhs * inv_tau)
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[:n] = -(Qw.T @ v)
    coeffs[n] = inv_tau
    rep = PolyInBasis(ORTHONORMAL, coeffs, n, base).to_basis(MONIC)
    ns = complex(inv_tau * (inv_tau + wn @ v))
    tiny = np.finfo(float).tiny
    if abs(ns) < tiny:
        # a subnormal norm_sq carries too few digits for gamma_n
        raise SobolevError("degenerate S_n: <S_n, S_n> = 0" if ns == 0 and inv_tau ** 2 >= tiny
                           else f"1/tau_{n}^2 underflows the double range")
    return SobolevOP(n=n, rep=rep, norm_sq=ns, gamma_n=complex(1.0 / np.sqrt(ns)),
                     cond=cond)


def _mono_jet(nu: int, i: int, c):
    """d^i/dx^i x^nu at the mpmath number c."""
    if i > nu:
        return 0
    fall = 1
    for t in range(i):
        fall *= nu - t
    return fall * c ** (nu - i)


def digit_loss(n: int, spec: SobolevSpec) -> float:
    """Estimated decimal digits cancelled when S_n is pinned in fixed
    precision: the jets S_n^(k)(c_j) collapse against the jets of L_n by a
    factor ~ |phi(c_j)|^n.

    The bordered system of sn_lambda is solved without equilibration, and
    its entries range from 1 to ~ |phi(c_j)|^(2n), so sn_lambda and
    orthogonality_residuals_extended set their working precision from twice
    this estimate; error_ratio adds it once to its own budget.
    """
    return n * max(math.log10(abs(phi(t.c))) for t in spec.terms)


# ---- extended-precision coefficient algebra over the recurrence table ----
#
# Jets, norms and mu-moments are all exact recurrences on the (a, b, tau)
# data, with no quadrature anywhere.  That makes a clean arbitrary-precision
# lane possible without re-deriving the measure.

def _mp_ab(base: RecurrenceTable, deg: int):
    """Recurrence coefficients as mp numbers.

    For atom-free bases the Jacobi formulas are re-evaluated in mp: the
    double table carries ~1e-16 dirt that is invisible to the bordered solve
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
    base = _buildable(n, spec, base)
    with mpmath.workdps(dps):
        a2, b = _mp_ab(base, n)
        normsq = _mp_normsq(base, a2, n)
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
        cond = _kernel_system(blocks, n)[1]
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


def sn_lambda(n: int, spec: SobolevSpec, base: RecurrenceTable) -> SobolevOP:
    """sn_kernel's construction in mpmath, for every regular spec.

    The bordered kernel identity runs on the monic jets, solved as it
    stands at twice digit_loss plus 35 digits.  Every step is exact
    coefficient algebra over the recurrence table, with no quadrature.  The
    gate is sn_kernel's equilibrated system, so both lanes report the same
    cond and refuse the same ill-conditioned specs; only sn_kernel refuses
    degrees past the double range.
    """
    core = _mp_kernel(n, spec, base, int(2 * digit_loss(n, spec)) + 35)
    coeffs = np.array([complex(v) for v in core["coeffs_mp"]])
    return SobolevOP(n=n, rep=PolyInBasis(MONIC, coeffs, n, core["base"]),
                     norm_sq=complex(core["norm_sq_mp"]), gamma_n=core["gamma_n"],
                     cond=core["cond"])


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
    wp = max(40, int(2 * digit_loss(n, spec)) + 40)
    return _residuals(spec, _mp_kernel(n, spec, base, wp), wp)


def _residuals(spec: SobolevSpec, core: dict, wp: int) -> np.ndarray:
    """The residuals of the monic mp coefficients core["coeffs_mp"], with
    core's mp recurrence coefficients a2, b, norms normsq and norm_sq_mp."""
    a2, b, normsq = core["a2"], core["b"], core["normsq"]
    coeffs = core["coeffs_mp"]
    n = len(coeffs) - 1
    out = np.zeros(n)
    with mpmath.workdps(wp):
        sn_norm = mpmath.sqrt(abs(core["norm_sq_mp"]))
        points = []
        for t in spec.terms:
            c, order = mpmath.mpc(t.c), max(t.N, t.J)
            sj = _mp_poly_jet(coeffs, _mp_basis_jets(n, order, c, a2, b), order)
            points.append((t, c, [[mpmath.mpc(v) for v in row] for row in t.gamma], sj))
        e = [mpmath.mpf(1)]
        for k in range(n):
            terms = [v * coeffs[i] * normsq[i] for i, v in enumerate(e)]
            xk2 = mpmath.fsum(v ** 2 * normsq[i] for i, v in enumerate(e))
            for t, c, g, sj in points:
                mj = [_mono_jet(k, i, c) for i in range(max(t.N, t.J) + 1)]
                xk2 += mpmath.fsum(mj[i] * g[i][kk] * mj[kk]
                                   for i in range(t.N + 1)
                                   for kk in range(t.J + 1))
                terms += [mj[i] * g[i][kk] * sj[kk]
                          for i in range(t.N + 1) for kk in range(t.J + 1)]
            terms = [v for v in terms if v != 0]
            val = mpmath.fsum(terms)
            sc = (mpmath.fsum(abs(v) for v in terms) if len(terms) > 1
                  else sn_norm * mpmath.sqrt(abs(xk2)))
            out[k] = float(abs(val) / sc) if sc > 0 else float(abs(val))
            if k < n - 1:
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
