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

from . import reader
from .joukowski import NEAR_ATOM, apart, phi, point
from .measures import RecurrenceTable, table_through
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import solve_Q  # noqa: F401
from .polybasis import PolyInBasis, basis_jets

__all__ = [
    "SobolevTerm",
    "SobolevSpec",
    "SobolevError",
    "RegularityReport",
    "SobolevOP",
    "regularity",
    "sn_kernel",
    "sn_lambda",
    "digit_loss",
    "gamma_sequence",
]

COND_LIMIT = 1e10
DET_TOL = 1e-12


class SobolevError(reader.Refusal):
    """A refused construction; kind names the cause ("pre_asymptotic",
    "overflow" or "underflow")."""


def _as_complex_matrix(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=object)
    if g.ndim != 2:
        raise SobolevError("gamma must be a matrix")
    return np.array([reader.number(v, "coupling weight", SobolevError) for v in g.flat],
                    dtype=complex).reshape(g.shape)


@dataclass(frozen=True)
class SobolevTerm:
    """One point c with derivative couplings gamma[i, k], i <= N, k <= J."""

    c: complex
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", point(self.c, "coupling point", SobolevError))
        object.__setattr__(self, "gamma", _as_complex_matrix(self.gamma))
        if not np.all(np.isfinite(self.gamma)):
            raise SobolevError(f"coupling weights at {self.c} are not finite")
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
        apart([t.c for t in self.terms], None, "coupling points must be distinct", SobolevError)

    @property
    def A(self) -> int:
        """Degree of s(z) = prod (z - c_j)^{N_j + 1}."""
        return sum(t.N + 1 for t in self.terms)

    @classmethod
    def diagonal(cls, points) -> "SobolevSpec":
        """Build from [(c, [M_0, ..., M_N])], each mass list a nonempty flat
        sequence.  The masses stay objects on the diagonal, so that
        SobolevTerm checks each one as a number."""
        terms = []
        for c, masses in points:
            m = np.array(masses, dtype=object)
            if m.ndim != 1 or not m.size:
                raise SobolevError(f"the masses at {c} must be a nonempty flat sequence, "
                                   f"got {masses!r}")
            terms.append(SobolevTerm(c=c, gamma=np.diag(m)))
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
    def from_json_dict(cls, data: dict, path: str = "") -> "SobolevSpec":
        return reader.build(cls, path, **reader.obj(
            data, path, {"terms": reader.seq_of(_read_term)}, ("terms",)))


def _read_term(data, path: str) -> SobolevTerm:
    """A coupling term; its N, when given, must be gamma's row count minus 1."""
    gamma = reader.seq_of(reader.seq_of(reader.cpx))
    term = reader.obj(data, path, {"c": reader.cpx, "N": reader.integral, "gamma": gamma},
                      ("c", "gamma"))
    N = len(term["gamma"]) - 1
    if term.pop("N", N) != N:
        raise reader.ConfigError(f"{path}.N must be {N}, one less than gamma's rows")
    return reader.build(SobolevTerm, path, **term)


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
    (relative to the Hadamard row bound).  det_gamma_star is the reduced
    matrix's det, inf or nan where it leaves the double range."""
    reports = []
    for t in spec.terms:
        g = t.gamma
        rows, cols = _support(g)
        star = g[np.ix_(rows, cols)]
        if star.shape[0] != star.shape[1] or star.size == 0:
            reports.append(TermRegularity(False, 0, 0.0 + 0.0j))
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # past the double range
            det = complex(np.linalg.det(star))
        # det against the Hadamard row bound, both of star over its largest
        # entry: their ratio does not depend on the scale of gamma
        unit = star / np.abs(star).max()
        hadamard = float(np.prod(np.linalg.norm(unit, axis=1)))
        ok = hadamard > 0.0 and abs(np.linalg.det(unit)) > DET_TOL * hadamard
        reports.append(TermRegularity(ok, star.shape[0] if ok else 0, det))
    overall = all(r.is_regular for r in reports)
    return RegularityReport(
        terms=tuple(reports),
        overall_regular=overall,
        A=spec.A,
        N_total=sum(r.I for r in reports),
    )


@dataclass
class SobolevOP:
    n: int
    rep: PolyInBasis                  # monic mu-basis coefficients of S_n
    norm_sq: complex                  # <S_n, S_n>
    gamma_n: complex                  # principal branch of norm_sq^{-1/2}
    cond: float


def _refusals(degrees, spec: SobolevSpec, base: RecurrenceTable) -> tuple:
    """Refusals both lanes share, the spec's own checked once: a table through
    the deepest degree + 1, and degree -> SobolevError for each refused degree.
    A coupling point on an atom of the measure, where forward jets follow a
    decaying solution into rounding noise, is an input conflict: ConfigError."""
    apart([t.c for t in spec.terms], [loc for loc, _ in base.spec.mass_points],
          "a coupling point coincides with a mass point", reader.ConfigError, NEAR_ATOM)
    regular = regularity(spec).overall_regular
    base = table_through(base, max(degrees) + 1)    # sn_kernel refuses an infinite tau_n
    order = max(max(t.gamma.shape) for t in spec.terms) - 1
    refused = {}
    for n in degrees:
        if not regular:
            refused[n] = SobolevError("inner product is not regular; construction undefined")
        elif n <= order:
            refused[n] = SobolevError(
                f"need n > {order}, the highest coupled derivative, got {n}")
    return base, refused


def _kernel_system(blocks: list, n: int) -> tuple:
    """The equilibrated bordered system from each point's (J, W, 1/(P P')).

    J and W are the point's orthonormal jet blocks divided by their largest
    entries P and P'.  Each is factored as P L Q; returns the matrix
    diag(L^-1 L'^-T / (P P')) + Q Q'^T, the stacked Q', and L^-1 J[:, n]
    and L'^-1 W[:, n] stacked.
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
    return M_sys, Qw, np.concatenate(rhs), np.concatenate(wn)


def _kernel_cond(M: np.ndarray) -> float:
    """The condition number of a kernel matrix, inf for a non-finite one;
    raises SobolevError past COND_LIMIT."""
    cond = float(np.linalg.cond(M)) if np.all(np.isfinite(M)) else math.inf
    if cond > COND_LIMIT:
        raise SobolevError(f"bordered kernel system ill-conditioned (cond ~ {cond:.2e})")
    return cond


def coupling_jets(spec: SobolevSpec, base: RecurrenceTable, top: int,
                  probes: tuple = (), order: int = 0) -> tuple[RecurrenceTable, list]:
    """The table sn_kernel needs through degree top, and on it the
    orthonormal jets at each coupling point through degree top, to the
    highest derivative its gamma couples.

    One forward sweep serves every point and every degree n <= top: a value
    at degree k depends neither on how far the sweep runs nor on the other
    points and orders swept with it.  Each point's slice is scaled to
    orthonormal on its own.  The probes, if any, ride the same sweep to
    `order`; their monic jets (order+1, top+1, len(probes)) come last.
    """
    deg = max(top, 0)
    orders = []
    for t in spec.terms:
        rows, cols = _support(t.gamma)
        orders.append(max(rows + cols))
    with np.errstate(over="ignore", invalid="ignore"):    # refused per degree
        base = table_through(base, top + 1)
        swept = basis_jets(base, deg, np.array([t.c for t in spec.terms] + list(probes)),
                           max(orders + [order]))
        tau = base.tau[: deg + 1]
        out = [swept[: k + 1, :, i] * tau for i, k in enumerate(orders)]
    if probes:
        out.append(swept[: order + 1, :, len(orders):])
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
    op = sn_kernel_many((n,), spec, *coupling_jets(spec, base, n))[n]
    if isinstance(op, Exception):
        raise op
    return op


def _kernel_blocks(n: int, spec: SobolevSpec, base: RecurrenceTable, jets: list) -> list:
    """Each point's (J, W, 1/(P P')) at degree n, for _kernel_system."""
    if not np.isfinite(base.tau[n]):
        raise SobolevError(f"tau_{n} overflows the double range", kind="overflow")
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
    return blocks


def _kernel_op(n: int, base: RecurrenceTable, v: np.ndarray, Qw: np.ndarray,
               wn: np.ndarray, cond: float) -> SobolevOP:
    """SobolevOP from the solved v: s = -Q'^T v and norm_sq."""
    inv_tau = 1.0 / base.tau[n]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[:n] = -(Qw.T @ v)
    coeffs[n] = inv_tau
    rep = PolyInBasis(coeffs * base.tau[: n + 1], base)    # c_m l_m = (c_m tau_m) L_m
    ns = complex(inv_tau * (inv_tau + wn @ v))
    tiny = np.finfo(float).tiny
    if abs(ns) < tiny:
        # a subnormal norm_sq carries too few digits for gamma_n
        if ns == 0 and inv_tau ** 2 >= tiny:
            raise SobolevError("degenerate S_n: <S_n, S_n> = 0")
        raise SobolevError(f"1/tau_{n}^2 underflows the double range", kind="underflow")
    return SobolevOP(n=n, rep=rep, norm_sq=ns, gamma_n=complex(1.0 / np.sqrt(ns)),
                     cond=cond)


# what refuses one degree and leaves the others to their own solves
_DEGREE_REFUSALS = (SobolevError, np.linalg.LinAlgError)


def sn_kernel_many(degrees, spec: SobolevSpec, base: RecurrenceTable,
                   jets: list) -> dict:
    """sn_kernel at each degree, from (base, jets) = coupling_jets(spec, table,
    top) with top >= every degree: degree -> SobolevOP, or the SobolevError
    that degree refuses with.

    The spec's refusals are checked once; then each degree's bordered system
    is assembled, gated and solved on its own.
    """
    base, out = _refusals(degrees, spec, base)
    for n in degrees:
        if n not in out:
            try:
                M, Qw, rhs, wn = _kernel_system(_kernel_blocks(n, spec, base, jets), n)
                cond = _kernel_cond(M)
                # the gate leaves no singular matrix for the solve
                v = np.linalg.solve(M, rhs * (1.0 / base.tau[n]))
                out[n] = _kernel_op(n, base, v, Qw, wn, cond)
            except _DEGREE_REFUSALS as exc:
                out[n] = exc
    return {n: out[n] for n in degrees}


def digit_loss(n: int, spec: SobolevSpec) -> float:
    """Estimated decimal digits cancelled when S_n is pinned in fixed
    precision: the jets S_n^(k)(c_j) collapse against the jets of L_n by a
    factor ~ |phi(c_j)|^n.

    The bordered system of sn_lambda is solved without equilibration, and
    its entries range from 1 to ~ |phi(c_j)|^(2n), so the mpmath lane sets
    its working precision from twice this estimate.
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
    return SobolevOP(n=n, rep=PolyInBasis(coeffs, core["base"]),
                     norm_sq=ns, gamma_n=core["gamma_n"], cond=core["cond"])


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
