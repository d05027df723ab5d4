"""Sobolev orthogonal polynomials for discrete derivative-coupled inner products.

The bilinear form is

    <h, g> = integral h g dmu + sum_j sum_{i<=N_j} h^(i)(c_j) * sum_k gamma^j_{i,k} g^(k)(c_j),

with finitely many points c_j off the support.  Regularity (the reduced
coefficient matrices Gamma_j* square and nonsingular) is what the
construction and the asymptotics need.  One construction, for every
regular spec (complex points, non-diagonal and indefinite gamma, the Pade
coupling matrices alike): a bordered system on the Christoffel-Darboux
kernel of mu, one unknown per nonzero column of each gamma_j.  It runs in
two arithmetics, which gate on the same equilibrated system at the same
condition number and both return S_n as a PolyInBasis:

* sn_kernel: in double precision, solving the equilibrated system;
* sn_lambda: the same jets (`coupling_jets`) and gate (`_kernel_system`)
  on the recurrence table rebuilt in mpmath, solving the identity as it
  stands at the digits the collapse of the jets at the c_j needs.  Its
  mpmath core lives in `relasym.extended`, which it loads on its first
  call, so double-precision runs never load mpmath.

Past the spec's own refusals, a degree refuses only where what S_n is
built from (tau_n, the jets, a cast coefficient) leaves the double range.
<S_n, S_n> is no part of S_n: `gamma_sequence` alone reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reader
from .joukowski import NEAR_ATOM, apart, phi, point
from .measures import DEGREE_REFUSALS, RecurrenceTable, table_through
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import solve_Q  # noqa: F401
from .polybasis import PolyInBasis, basis_jets

__all__ = [
    "SobolevTerm",
    "SobolevSpec",
    "SobolevError",
    "sn_kernel",
    "sn_lambda",
    "digit_loss",
    "gamma_sequence",
]

COND_LIMIT = 1e10
DET_TOL = 1e-12


class SobolevError(reader.Refusal):
    """A refused construction; kind names the cause ("pre_asymptotic" or
    "overflow")."""


def _as_complex_matrix(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=object)
    if g.ndim != 2:
        raise SobolevError("gamma must be a matrix")
    return np.array([reader.number(v, "coupling weight", SobolevError) for v in g.flat],
                    dtype=complex).reshape(g.shape)


@dataclass(frozen=True)
class SobolevTerm:
    """One point c with derivative couplings gamma[i, k], i <= N, k <= J.

    gamma is read once, here, and made read-only, so what is read from it
    cannot go stale: rows and cols index its nonzero rows and columns (its
    support), star = gamma[rows, cols] is the reduced matrix Gamma*, order
    = max(rows + cols) is the highest derivative it couples, and I is the
    size of Gamma* when Gamma* is square with det != 0 relative to the
    Hadamard row bound (the term is regular), else 0.
    """

    c: complex
    gamma: np.ndarray
    rows: tuple = field(init=False, compare=False)
    cols: tuple = field(init=False, compare=False)
    star: np.ndarray = field(init=False, compare=False, repr=False)
    order: int = field(init=False, compare=False)
    I: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", point(self.c, "coupling point", SobolevError))
        g = _as_complex_matrix(self.gamma)
        if not np.all(np.isfinite(g)):
            raise SobolevError(f"coupling weights at {self.c} are not finite")
        if not np.any(g[-1]):
            raise SobolevError("top derivative row of gamma is identically zero")
        g.flags.writeable = False
        rows = tuple(i for i in range(g.shape[0]) if np.any(g[i]))
        cols = tuple(k for k in range(g.shape[1]) if np.any(g[:, k]))
        star = g[np.ix_(rows, cols)]
        star.flags.writeable = False
        size = 0
        if len(rows) == len(cols):
            # det against the Hadamard row bound, both of star over its largest
            # entry: their ratio does not depend on the scale of gamma
            unit = star / np.abs(star).max()
            hadamard = float(np.prod(np.linalg.norm(unit, axis=1)))
            if hadamard > 0.0 and abs(np.linalg.det(unit)) > DET_TOL * hadamard:
                size = len(rows)
        for name, value in (("gamma", g), ("rows", rows), ("cols", cols), ("star", star),
                            ("order", max(rows + cols)), ("I", size)):
            object.__setattr__(self, name, value)

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
    def regular(self) -> bool:
        """Whether every term is regular (I > 0): the construction and the
        asymptotics need it."""
        return all(t.I for t in self.terms)

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


def _refusals(degrees, spec: SobolevSpec, base: RecurrenceTable) -> tuple:
    """Refusals both lanes share, the spec's own checked once: a table through
    the deepest degree, and degree -> SobolevError for each refused degree.
    A coupling point on an atom of the measure, where forward jets follow a
    decaying solution into rounding noise, is an input conflict: ConfigError."""
    apart([t.c for t in spec.terms], [loc for loc, _ in base.spec.mass_points],
          "a coupling point coincides with a mass point", reader.ConfigError, NEAR_ATOM)
    base = table_through(base, max(degrees))    # sn_kernel refuses an infinite tau_n
    regular, order = spec.regular, max(t.order for t in spec.terms)
    refused = {}
    for n in degrees:
        if not regular:
            refused[n] = SobolevError("inner product is not regular; construction undefined")
        elif n <= order:
            refused[n] = SobolevError(
                f"need n > {order}, the highest coupled derivative, got {n}")
    return base, refused


def _kernel_system(n: int, spec: SobolevSpec, jets: list) -> tuple:
    """The equilibrated bordered system at degree n, gated at COND_LIMIT.

    Per point, its orthonormal jets E (either number type) are divided by
    their peaks in E's own arithmetic and cast to double, so sn_lambda's mp
    jets give a system that fits in double even where the jets do not.  J
    (jet rows at gamma's nonzero columns) and W = Gamma*^T E[rows] are each
    divided by their largest entry P and P' and factored as P L Q.  Returns
    the matrix M = diag(L^-1 L'^-T / (P P')) + Q Q'^T, the stacked Q',
    L^-1 J[:, n] and L'^-1 W[:, n] stacked, and cond(M); raises
    SobolevError past COND_LIMIT.
    """
    Q, Qw, D, rhs, wn = [], [], [], [], []
    for t, E in zip(spec.terms, jets):
        rows, cols = list(t.rows), list(t.cols)
        E = E[:, : n + 1]
        peak = np.abs(E).max(axis=1)
        E = (E / peak[:, None]).astype(complex)
        pj, pw = peak[cols].max(), peak[rows].max()
        J = E[cols] * (peak[cols] / pj).astype(float)[:, None]
        W = t.star.T @ (E[rows] * (peak[rows] / pw).astype(float)[:, None])
        q, r = np.linalg.qr(J[:, :n].T)
        qw, rw = np.linalg.qr(W[:, :n].T)
        Li, Lwi = np.linalg.inv(r.T), np.linalg.inv(rw.T)
        Q.append(q.T)
        Qw.append(qw.T)
        # 1/(P P') underflows harmlessly once the kernel part dominates
        D.append(Li @ Lwi.T * float((1.0 / pj) * (1.0 / pw)))
        rhs.append(Li @ J[:, n])
    Qw = np.vstack(Qw)
    M = np.vstack(Q) @ Qw.T
    i = 0
    for d in D:
        M[i:i + len(d), i:i + len(d)] += d
        i += len(d)
    cond = float(np.linalg.cond(M)) if np.all(np.isfinite(M)) else math.inf
    if cond > COND_LIMIT:
        raise SobolevError(f"bordered kernel system ill-conditioned (cond ~ {cond:.2e})")
    return M, Qw, np.concatenate(rhs), cond


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
    The jets take the table's number type.
    """
    deg = max(top, 0)
    orders = [t.order for t in spec.terms]
    with np.errstate(over="ignore", invalid="ignore"):    # refused per degree
        base = table_through(base, top)
        swept = basis_jets(base, deg, np.array([t.c for t in spec.terms] + list(probes)),
                           max(orders + [order]))
        tau = base.tau[: deg + 1]
        out = [swept[: k + 1, :, i] * tau for i, k in enumerate(orders)]
    if probes:
        out.append(swept[: order + 1, :, len(orders):])
    return base, out


def sn_kernel(n: int, spec: SobolevSpec, base: RecurrenceTable) -> PolyInBasis:
    """S_n in double precision, for every regular spec.

    S_n = L_n - sum_j sum_{i,k} gamma^j_{ik} S_n^(k)(c_j) K_{n-1}^{(0,i)}(x, c_j)
    with K the unconjugated kernel sum_{m<n} l_m(x) l_m(c).  The unknowns
    u = S_n^(k)(c_j), k over the nonzero columns of gamma_j, solve
    (I + J W^T) u = (L_n^(k)(c_j)): J holds the jet rows l_m^(k)(c_j), m < n,
    W = Gamma*^T (jet rows at the nonzero rows of gamma_j).  Then s = -W^T u.
    Jet rows are divided by their largest entry, and each point's J and W
    blocks are factored as P L Q (scalar, small lower triangle, orthonormal
    rows).  The solve runs on v = P' L'^T u with
    diag(L^-1 L'^-T / (P P')) + Q Q'^T, which equilibrates rows and columns
    and takes in the near-parallel derivative rows of each point; then
    s = -Q'^T v.  A degree whose tau_n or jets leave the double range
    refuses with kind "overflow"; nothing else S_n is built from can.
    """
    s = sn_kernel_many((n,), spec, *coupling_jets(spec, base, n))[n]
    if isinstance(s, Exception):
        raise s
    return s


def sn_kernel_many(degrees, spec: SobolevSpec, base: RecurrenceTable,
                   jets: list) -> dict:
    """sn_kernel at each degree, from (base, jets) = coupling_jets(spec, table,
    top) with top >= every degree: degree -> S_n as a PolyInBasis, or the
    SobolevError that degree refuses with.

    The spec's refusals are checked once; then each degree's bordered system
    is assembled, gated and solved on its own.
    """
    base, out = _refusals(degrees, spec, base)
    for n in degrees:
        if n not in out:
            try:
                # the double range, refused before anything divides by tau_n or a jet
                if not np.isfinite(base.tau[n]):
                    raise SobolevError(f"tau_{n} overflows the double range", kind="overflow")
                for t, E in zip(spec.terms, jets):
                    if not np.all(np.isfinite(E[:, : n + 1])):
                        raise SobolevError(f"jets at c = {t.c} overflow the double range "
                                           f"at n={n}", kind="overflow")
                M, Qw, rhs, _ = _kernel_system(n, spec, jets)
                inv_tau = 1.0 / base.tau[n]
                # the gate leaves no singular matrix for the solve
                v = np.linalg.solve(M, rhs * inv_tau)
                coeffs = np.empty(n + 1, dtype=complex)
                coeffs[:n] = -(Qw.T @ v)
                coeffs[n] = inv_tau
                # c_m l_m = (c_m tau_m) L_m
                out[n] = PolyInBasis(coeffs * base.tau[: n + 1], base)
            except DEGREE_REFUSALS as exc:
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


def _lane_dps(n: int, spec: SobolevSpec) -> int:
    """The mpmath lane's working digits at degree n: twice digit_loss, plus 35."""
    return int(2 * digit_loss(n, spec)) + 35


def sn_lambda(n: int, spec: SobolevSpec, base: RecurrenceTable) -> PolyInBasis:
    """sn_kernel's construction in mpmath, for every regular spec.

    The same identity on the same code (`coupling_jets`, `_kernel_system`)
    over the recurrence table rebuilt in mp, solved as it stands at
    `_lane_dps` digits (`extended._mp_kernel`), with no quadrature.  The
    gate is sn_kernel's equilibrated system, so both lanes gate at the same
    cond and refuse the same ill-conditioned specs.  The solve runs past
    the double range, but the coefficients are cast to double: one that
    overflows refuses with kind "overflow".
    """
    from .extended import _mp_kernel    # mpmath loads on the first call
    core = _mp_kernel(n, spec, base, _lane_dps(n, spec))
    coeffs = np.array([complex(v) for v in core["coeffs_mp"]])
    if not np.all(np.isfinite(coeffs)):
        raise SobolevError(f"S_{n} overflows the double range", kind="overflow")
    return PolyInBasis(coeffs, core["base"])


def gamma_sequence(spec: SobolevSpec, base: RecurrenceTable, degrees) -> dict[int, complex]:
    """gamma_n = <S_n, S_n>^{-1/2} from the mpmath lane's norm over the given
    degrees, branch-continuous.

    The norm comes from `extended._mp_kernel` and its root is taken at the
    lane's digits; a gamma_n past the double range refuses with kind
    "overflow".  The principal branch is taken at the smallest degree; each
    later sign is chosen to minimize |gamma_{m}/gamma_{m'} - 2^{m-m'}|
    against the previous computed degree (consecutive degrees give the
    plain ratio-2 rule).
    """
    from .extended import _mp_kernel    # mpmath loads on the first call
    degrees = sorted(degrees)
    out: dict[int, complex] = {}
    prev_n = None
    for n in degrees:
        dps = _lane_dps(n, spec)
        ns = _mp_kernel(n, spec, base, dps)["norm_sq_mp"]
        with ns.context.workdps(dps):    # mpmath's own context, read off the number
            g = complex(1 / ns.context.sqrt(ns))
        if not np.isfinite(g):
            raise SobolevError(f"gamma_{n} overflows the double range", kind="overflow")
        if prev_n is not None:
            target = 2.0 ** (n - prev_n)
            if abs(-g / out[prev_n] - target) < abs(g / out[prev_n] - target):
                g = -g
        out[n] = g
        prev_n = n
    return out
