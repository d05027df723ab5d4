"""Sobolev orthogonal polynomials for discrete derivative-coupled inner products.

The bilinear form is

    <h, g> = integral h g dmu + sum_j sum_{i<=N_j} h^(i)(c_j) * sum_k gamma^j_{i,k} g^(k)(c_j),

with finitely many points c_j off the support, defined for every gamma_j:
with gamma_j = U_j V_j^T at its rank, the coupling is (U_j^T h-jets) .
(V_j^T g-jets), and the construction and the asymptotics read that rank;
the double lane reads U_j through an orthonormal basis, U_j = B_j T_j.
One construction, for every spec (complex points, non-diagonal, indefinite
and rank-deficient gamma, the Pade coupling matrices alike): a bordered
system on the Christoffel-Darboux kernel of mu, rank_j unknowns per point
c_j.  It runs in two arithmetics, which gate on the same equilibrated
system at the same condition number and both return S_n as a PolyInBasis:

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
from .polybasis import PolyInBasis, _orthonormal_rows

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
RANK_TOL = 1e-12
ROUNDING = 8 * np.finfo(float).eps


class SobolevError(reader.Refusal):
    """A refused construction; kind names the cause ("pre_asymptotic" or
    "overflow")."""


def _as_complex_matrix(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=object)
    if g.ndim != 2:
        raise SobolevError("gamma must be a matrix")
    return np.array([reader.number(v, "coupling weight", SobolevError) for v in g.flat],
                    dtype=complex).reshape(g.shape)


def _gram_schmidt(a: np.ndarray, tol: float) -> tuple:
    """Classical Gram-Schmidt, twice per column, pivoted: next comes the
    column whose part orthogonal to those taken is largest relative to its
    norm, while that ratio passes tol and fewer columns than rows are taken.
    Returns those columns in ascending order, Q orthonormal on them, R = Q^H a
    (upper triangular on them, in pivot order) and the largest ratio left."""
    e = np.frexp(np.abs(a).max(axis=0))[1]    # exact powers of two: no norm overflows
    x = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    size = np.maximum(np.linalg.norm(x, axis=0), 0.5)    # a zero column has ratio 0
    Q, taken = np.zeros((len(a), 0), complex), []
    while True:
        rest = x - Q @ (Q.conj().T @ x)
        rest -= Q @ (Q.conj().T @ rest)
        ratio = np.linalg.norm(rest, axis=0) / size
        ratio[taken] = -1.0
        k = int(np.argmax(ratio))
        if len(taken) == min(a.shape) or ratio[k] <= tol:
            break
        v = rest[:, k] / np.abs(rest[:, k]).max()
        Q = np.column_stack([Q, v / np.linalg.norm(v)])
        taken.append(k)
    R = Q.conj().T @ a
    R[:, taken] = np.triu(R[:, taken])
    return sorted(taken), Q, R, ratio[k] if len(taken) < len(a) else 0.0


def _factor(g: np.ndarray, c: complex) -> tuple:
    """(U, V, B, T): gamma = U V^T at its rank (U its kept columns, V their
    coordinates, I on the kept ones) and U = B T, B orthonormal.  On rows
    scaled to unit 2-norm `_gram_schmidt` keeps columns above RANK_TOL and
    drops the rest only at rounding (ROUNDING per row); in between the rank
    is ambiguous: refused."""
    peak = np.abs(g).max(axis=1, keepdims=True)    # first, so no scale overflows
    s = g / np.where(peak > 0, peak, 1.0)
    s /= np.maximum(np.linalg.norm(s, axis=1, keepdims=True), 1.0)
    kept, _, C, left = _gram_schmidt(s, RANK_TOL)
    if left > ROUNDING * len(g):
        raise SobolevError(f"the rank of gamma at {c} is ambiguous: a column leaves the kept "
                           f"ones by {left:.1e} of its norm, past rounding")
    V = (np.linalg.inv(C[:, kept]) @ C).T
    V[kept] = np.eye(len(kept))
    _, B, T, _ = _gram_schmidt(g[:, kept], -1.0)
    return g[:, kept], V, B, T


@dataclass(frozen=True)
class SobolevTerm:
    """One point c with derivative couplings gamma[i, k], i <= N, k <= J.

    gamma is read once, here, and made read-only, so what is read from it
    cannot go stale: gamma = U V^T at its rank, U = B T (`_factor`), rank =
    U's column count (the zeros c attracts and its limit factor's exponent),
    and order, the highest derivative it couples.  An ambiguous rank refuses.
    """

    c: complex
    gamma: np.ndarray
    U: np.ndarray = field(init=False, compare=False, repr=False)
    V: np.ndarray = field(init=False, compare=False, repr=False)
    B: np.ndarray = field(init=False, compare=False, repr=False)
    T: np.ndarray = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False)
    order: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", point(self.c, "coupling point", SobolevError))
        g = _as_complex_matrix(self.gamma)
        if not np.all(np.isfinite(g)):
            raise SobolevError(f"coupling weights at {self.c} are not finite")
        if not np.any(g[-1]):
            raise SobolevError("top derivative row of gamma is identically zero")
        U, V, B, T = _factor(g, self.c)
        for matrix in (g, U, V, B, T):
            matrix.flags.writeable = False
        # the top row is nonzero: the order is N or the last nonzero column
        for name, value in (("gamma", g), ("U", U), ("V", V), ("B", B), ("T", T),
                            ("rank", U.shape[1]),
                            ("order", int(max(np.flatnonzero(g.any(axis=0))[-1], len(g) - 1)))):
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
        return {"terms": [{"c": [t.c.real, t.c.imag], "N": t.N,
                           "gamma": [[[v.real, v.imag] for v in row] for row in t.gamma]}
                          for t in self.terms]}

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
    order = max(t.order for t in spec.terms)
    refused = {n: SobolevError(f"need n > {order}, the highest coupled derivative, got {n}")
               for n in degrees if n <= order}
    return base, refused


def _kernel_system(n: int, spec: SobolevSpec, jets: list) -> tuple:
    """The equilibrated bordered system at degree n, gated at COND_LIMIT.

    Per point, its orthonormal jets E (either number type) are divided by
    their peaks in E's own arithmetic and cast to double, so sn_lambda's mp
    jets give a system that fits in double even where the jets do not.
    J = V^T E and W = U^T E, each over its factor's nonzero rows, are
    divided by the largest peak P and P' of those rows and factored as
    P L Q, W as T^T B^T E: U's near-parallel columns meet in L', not in a
    sum.  Returns M = diag(L^-1 L'^-T / (P P')) + Q Q'^T, the stacked Q', the
    stacked L^-1 J[:, n], and cond(M); raises SobolevError past COND_LIMIT.
    """
    parts = []
    for t, E in zip(spec.terms, jets):
        E = E[:, : n + 1]
        peak = np.abs(E).max(axis=1)
        E = (E / peak[:, None]).astype(complex)
        blocks = []
        for F, T in ((t.V, np.eye(t.rank)), (t.B, t.T)):
            k = np.flatnonzero(np.any(F, axis=1))    # F^T E over F's nonzero rows, at P
            P = peak[k].max()
            X = F[k].T @ (E[k] * (peak[k] / P).astype(float)[:, None])
            q, r = np.linalg.qr(X[:, :n].T)
            blocks.append((q.T, np.linalg.inv((r @ T).T), P, X[:, n]))
        (q, Li, pj, jn), (qw, Lwi, pw, _) = blocks
        # 1/(P P') underflows harmlessly once the kernel part dominates
        parts.append((q, qw, Li @ Lwi.T * float((1.0 / pj) * (1.0 / pw)), Li @ jn))
    Q, Qw, D, rhs = zip(*parts)
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


def coupling_jets(spec: SobolevSpec, table: RecurrenceTable, top: int) -> list:
    """The orthonormal jets at each coupling point through degree top, to the
    highest derivative its gamma couples: per point an (order + 1, top + 1)
    array, [j, m] = l_m^(j)(c), on a table through top.

    One forward sweep of the orthonormal recurrence (`_orthonormal_rows`),
    in one block, serves every point and every degree n <= top: a value at
    degree m depends neither on how far the sweep runs nor on the other
    points and orders swept with it.  The sweep gives l_m^(j) / j!, so the
    rows of order j >= 2 are multiplied by j!.  The jets take the table's
    number type: complex on a double table, mpmath's mpc on the mp lane's.
    """
    dtype = np.result_type(table.b, complex)
    order = max(t.order for t in spec.terms)
    z = np.array([t.c for t in spec.terms], dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):    # refused per degree
        (_, rows), = _orthonormal_rows(table, z, top + 1, order,
                                       np.empty((top + 1) * (order + 1) * z.size, dtype))
        rows = rows.reshape(top + 1, order + 1, z.size)
        for j in range(2, order + 1):
            rows[:, j] *= math.factorial(j)
    return [np.ascontiguousarray(rows[:, : t.order + 1, i].T) for i, t in enumerate(spec.terms)]


def sn_kernel(n: int, spec: SobolevSpec, base: RecurrenceTable) -> PolyInBasis:
    """S_n in double precision, for every spec.

    S_n = L_n - sum_j sum_{i,k} gamma^j_{ik} S_n^(k)(c_j) K_{n-1}^{(0,i)}(x, c_j)
    with K the unconjugated kernel sum_{m<n} l_m(x) l_m(c).  With
    gamma_j = U_j V_j^T, the unknowns u = V_j^T (S_n's jets at c_j), rank_j of
    them per point, solve (I + J W^T) u = V^T (L_n's jets): J = V^T and
    W = U^T of the jet rows l_m^(k)(c_j), m < n.  Then s = -W^T u.  The
    solve runs on v = P' L'^T u with `_kernel_system`'s matrix, which
    equilibrates rows and columns and takes in the near-parallel derivative
    rows of each point; then s = -Q'^T v.  A degree whose tau_n or jets
    leave the double range refuses with kind "overflow"; nothing else S_n
    is built from can.
    """
    s = sn_kernel_many((n,), spec, base)[n]
    if isinstance(s, Exception):
        raise s
    return s


def sn_kernel_many(degrees, spec: SobolevSpec, table: RecurrenceTable) -> dict:
    """sn_kernel at each degree: degree -> S_n as a PolyInBasis, or the
    SobolevError that degree refuses with.

    The spec's refusals are checked once and the jets swept once, through
    the deepest degree (`coupling_jets`); then each degree's bordered system
    is assembled, gated and solved on its own.
    """
    base, out = _refusals(degrees, spec, table)
    jets = coupling_jets(spec, base, max(degrees))
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
                # c_m l_m = (c_m tau_m) L_m
                out[n] = PolyInBasis(np.append(-(Qw.T @ v), inv_tau) * base.tau[: n + 1], base)
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
    """sn_kernel's construction in mpmath, for every spec.

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
    for prev_n, n in zip([None] + degrees, degrees):
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
    return out
