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
  table, at the digits the collapse of the jets at the c_j needs.  Its
  mpmath core lives in `relasym.extended`, which it loads on its first
  call, so double-precision runs never load mpmath.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .joukowski import NEAR_CUT, dist_to_cut, phi
from .measures import RecurrenceTable
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
    """A refused construction; kind names the cause ("pre_asymptotic",
    "overflow" or "underflow")."""

    def __init__(self, message: str, kind: str = "pre_asymptotic"):
        super().__init__(message)
        self.kind = kind


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
        if not np.isfinite(self.c):
            raise SobolevError(f"coupling point {self.c} is not finite")
        if not np.all(np.isfinite(self.gamma)):
            raise SobolevError(f"coupling weights at {self.c} are not finite")
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


def sobolev_inner(h: PolyInBasis, g: PolyInBasis, spec: SobolevSpec) -> complex:
    """<h, g>: mu integral plus the derivative coupling terms (bilinear,
    no conjugation; h sits in the left slot of the couplings)."""
    total = inner_mu(h, g)
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


def coupling_jets(spec: SobolevSpec, base: RecurrenceTable,
                  top: int) -> tuple[RecurrenceTable, list]:
    """The table sn_kernel needs through degree top, and on it the
    orthonormal jets at each coupling point through degree top, to the
    highest derivative its gamma couples.

    One forward sweep per point serves every degree n <= top: a value at
    degree k does not depend on how far the sweep runs.
    """
    out = []
    with np.errstate(over="ignore", invalid="ignore"):    # refused per degree
        base = _ensure_table(base, top + 1)
        for t in spec.terms:
            rows, cols = _support(t.gamma)
            out.append(basis_jets(base, max(top, 0), t.c, order=max(rows + cols),
                                  basis=ORTHONORMAL))
    return base, out


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
    return sn_kernel_jets(n, spec, *coupling_jets(spec, base, n))


def sn_kernel_jets(n: int, spec: SobolevSpec, base: RecurrenceTable,
                   jets: list) -> SobolevOP:
    """sn_kernel from (base, jets) = coupling_jets(spec, table, top), any top >= n."""
    base = _buildable(n, spec, base)
    if not np.isfinite(base.tau[n]):
        raise SobolevError(f"tau_{n} overflows the double range", kind="overflow")
    inv_tau = 1.0 / base.tau[n]
    blocks = []
    for t, E in zip(spec.terms, jets):
        rows, cols = _support(t.gamma)
        E = E[:, : n + 1]
        if not np.all(np.isfinite(E)):
            raise SobolevError(f"jets at c = {t.c} overflow the double range at n={n}",
                               kind="overflow")
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
        if ns == 0 and inv_tau ** 2 >= tiny:
            raise SobolevError("degenerate S_n: <S_n, S_n> = 0")
        raise SobolevError(f"1/tau_{n}^2 underflows the double range", kind="underflow")
    return SobolevOP(n=n, rep=rep, norm_sq=ns, gamma_n=complex(1.0 / np.sqrt(ns)),
                     cond=cond)


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


def sn_lambda(n: int, spec: SobolevSpec, base: RecurrenceTable) -> SobolevOP:
    """sn_kernel's construction in mpmath, for every regular spec.

    The bordered kernel identity runs on the monic jets, solved as it
    stands at twice digit_loss plus 35 digits (`extended._mp_kernel`).
    Every step is exact coefficient algebra over the recurrence table, with
    no quadrature.  The gate is sn_kernel's equilibrated system, so both
    lanes report the same cond and refuse the same ill-conditioned specs.
    The solve runs past the double range, but the results are cast to
    double: a coefficient or gamma_n that overflows refuses with kind
    "overflow", and a nonzero norm_sq below the smallest normal double with
    kind "underflow", as in sn_kernel.
    """
    from .extended import _mp_kernel    # mpmath loads on the first call
    core = _mp_kernel(n, spec, base, int(2 * digit_loss(n, spec)) + 35)
    coeffs = np.array([complex(v) for v in core["coeffs_mp"]])
    if not (np.all(np.isfinite(coeffs)) and np.isfinite(core["gamma_n"])):
        raise SobolevError(f"S_{n} overflows the double range", kind="overflow")
    ns = complex(core["norm_sq_mp"])
    if abs(ns) < np.finfo(float).tiny and core["norm_sq_mp"] != 0:
        raise SobolevError(f"<S_{n}, S_{n}> underflows the double range",
                           kind="underflow")
    return SobolevOP(n=n, rep=PolyInBasis(MONIC, coeffs, n, core["base"]),
                     norm_sq=ns, gamma_n=core["gamma_n"], cond=core["cond"])


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
    from .extended import _mp_kernel, _residuals    # mpmath loads on the first call
    wp = max(40, int(2 * digit_loss(n, spec)) + 40)
    return _residuals(spec, _mp_kernel(n, spec, base, wp), wp)


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
