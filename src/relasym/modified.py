"""Orthogonal polynomials for rationally modified measures r d(mu).

The modifier r = S/T is a rational function with zeros and poles off the
support, and r dmu is a complex measure with its own three-term recurrence.
Its table follows from the base table by factorizations of the Jacobi
matrix: one bidiagonal Geronimus step per pole on the real base table,
then one banded Christoffel step for S (`measures.geronimus_step`,
`measures.christoffel_step`).  beta_n = b'_n, alpha_n^2 = a'_n^2 and
1/kappa_n^2 = mass' prod a'_k^2 are read off that table.  The step factors
also give Q_n over the monic mu-basis: the zero step's S(J) = LU has
P = L Q, so Q_n is row n of L^-1, by back substitution in O(nA), and a
pole step Q_k = P_k + l_k P_{k-1} maps it one basis back in O(n), P the
polynomials one step earlier.  Nothing is integrated or divided.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import reader
from .joukowski import NEAR_ATOM, apart, point
from .measures import (DEGREE_REFUSALS, MAX_DEPTH, RecurrenceTable, christoffel_step,
                       geronimus_step, minimal_solution_depth, table_through)
from .polybasis import PolyInBasis

__all__ = [
    "RationalModifier",
    "ModifiedTable",
    "ModifiedError",
    "modified_table",
    "solve_Q",
    "weak_limit_probe",
]

_TINY = np.finfo(float).tiny
COLLAPSE_TOL = 1e-8     # a degree reads at least ~8 digits of its pivots


class ModifiedError(reader.Refusal):
    """A refused degree or reading; kind names the cause ("pre_asymptotic",
    "degree_collapse", "underflow" or "overflow")."""


def _canon_points(points) -> tuple[tuple[complex, int], ...]:
    out = []
    for loc, mult in points:
        loc = point(loc, "modifier point", ModifiedError)
        mult = reader.integral(mult, "multiplicity", ModifiedError)
        if mult < 1:
            raise ModifiedError("multiplicities must be positive")
        out.append((loc, mult))
    return tuple(out)


@dataclass(frozen=True)
class RationalModifier:
    """r = prod (x-c_i)^{A_i} / prod (x-d_j)^{B_j}, lowest terms, off-support."""

    zeros: tuple[tuple[complex, int], ...] = ()
    poles: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "zeros", _canon_points(self.zeros))
        object.__setattr__(self, "poles", _canon_points(self.poles))
        apart([c for c, _ in self.zeros], [d for d, _ in self.poles],
              "common zero/pole: modifier not in lowest terms", ModifiedError)
        # the table of r dmu reads the base past degree A + B, and the steps
        # expand each multiplicity unit by unit: check the depth first
        if self.A + self.B > MAX_DEPTH:
            raise ModifiedError(f"multiplicities summing to {self.A + self.B:.3g} need a "
                                f"table deeper than numpy can allocate")

    @property
    def A(self) -> int:
        return sum(mult for _, mult in self.zeros)

    @property
    def B(self) -> int:
        return sum(mult for _, mult in self.poles)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        out = np.ones_like(x)
        for c, mult in self.zeros:
            out = out * (x - c) ** mult
        for d, mult in self.poles:
            out = out / (x - d) ** mult
        return out

    def to_json_dict(self) -> dict:
        return {
            "zeros": [{"c": [c.real, c.imag], "mult": m} for c, m in self.zeros],
            "poles": [{"d": [d.real, d.imag], "mult": m} for d, m in self.poles],
        }

    @classmethod
    def from_json_dict(cls, data: dict, path: str = "") -> "RationalModifier":
        return reader.build(cls, path, **reader.obj(data, path, {
            "zeros": reader.seq_of(reader.record(c=reader.cpx, mult=reader.integral)),
            "poles": reader.seq_of(reader.record(d=reader.cpx, mult=reader.integral))}))


def _collapse(n: int, why: str) -> ModifiedError:
    return ModifiedError(f"recurrence of r dmu breaks down at n={n}: {why}",
                         kind="degree_collapse")


@dataclass
class ModifiedTable:
    """Recurrence data of r dmu through degree nmax, and the factors of the
    steps that lead there from the base table, in the order applied."""

    r: RationalModifier
    base: RecurrenceTable
    b: np.ndarray               # b'_k, k = 0..nmax
    asq: np.ndarray             # a'_k^2, k = 1..nmax; asq[0] = 0
    mass: complex               # integral r dmu
    poles: list                 # (d, l) per pole step, in the order applied
    zero_mult: np.ndarray | None    # L of the zero step: P_k = sum_o L[k, o] Q_{k-A+o} + Q_k
    zero_rel: np.ndarray | None     # each pivot U[k, 0] relative to its largest term

    @property
    def nmax(self) -> int:
        return len(self.b) - 1

    def kappa_sq_inv(self, n: int) -> complex:
        """integral Q_n^2 r dmu = mass' prod_{k<=n} a'_k^2.  Refused where a
        factor vanishes or is not finite, or the product leaves the double
        range."""
        terms = np.concatenate([[self.mass], self.asq[1: n + 1]])
        if not np.all(np.isfinite(terms) & (terms != 0)):
            raise ModifiedError(f"kappa_{n}^-2 undefined: the recurrence of r dmu "
                                f"breaks down at or below n={n}", kind="degree_collapse")
        val = complex(np.prod(terms))
        if abs(val) < _TINY:
            raise ModifiedError(f"kappa_{n}^-2 underflows the double range at n={n}",
                                kind="underflow")
        if not cmath.isfinite(val):
            raise ModifiedError(f"kappa_{n}^-2 overflows the double range at n={n}",
                                kind="overflow")
        return val

    def op(self, n: int) -> PolyInBasis:
        """Q_n, monic of exact degree n: over the last pole step's basis by
        back substitution on the zero step's L, q_n = 1 and
        q_j = -sum_{i=j+1}^{min(j+A, n)} L[i, j] q_i, then walked back
        through the pole steps by q_{k-1} += l_k q_k.  Refused only for
        what it reads, where the polynomial of that degree is not unique or
        not resolved in double: a pivot of the zero step that one of its
        rows was eliminated with and that is zero to working precision
        (below COLLAPSE_TOL of its terms), or a Q_n that is not finite."""
        if not 0 <= n <= self.nmax:
            raise ModifiedError(f"degree {n} outside the table's 0..{self.nmax}")
        A = self.r.A
        q = [0j] * n + [1 + 0j]
        if self.zero_mult is not None:
            rel = self.zero_rel[max(0, n - A): n]
            bad = np.flatnonzero(~(rel > COLLAPSE_TOL))
            if bad.size:
                k = max(0, n - A) + bad[0]
                raise _collapse(n, f"the zero step's pivot at k={k} is zero to working "
                                   f"precision ({rel[bad[0]]:.1e} of its terms)")
            M = self.zero_mult[: n + 1].tolist()
            for j in range(n - 1, -1, -1):
                acc = 0j
                for i in range(j + 1, min(j + A, n) + 1):
                    acc += M[i][j - i + A] * q[i]
                q[j] = -acc
        q = np.array(q)
        with np.errstate(invalid="ignore", over="ignore"):
            for _, l in reversed(self.poles):
                q[:-1] += l[1: n + 1] * q[1:]
        if not np.all(np.isfinite(q)):
            raise _collapse(n, "Q_n has a non-finite coefficient")
        return PolyInBasis(q, self.base)


def modified_table(r: RationalModifier, base: RecurrenceTable, top: int) -> ModifiedTable:
    """The table of r dmu through degree top: one Geronimus step per pole,
    a step per unit of multiplicity, then one Christoffel step for all of S.
    A modifier point on an atom of the measure is an input conflict, not a
    numerical limit: ConfigError."""
    apart([p for p, _ in r.zeros + r.poles], [loc for loc, _ in base.spec.mass_points],
          "modifier point {} coincides with a mass point", reader.ConfigError, NEAR_ATOM)
    poles = [d for d, mult in r.poles for _ in range(mult)]
    zeros = [c for c, mult in r.zeros for _ in range(mult)]
    # the zero step loses a degree per zero, each pole step its backward tail
    tops = [top + len(zeros)]
    for d in reversed(poles):
        tops.append(minimal_solution_depth(d, tops[-1] + 1))
    base = table_through(base, tops[-1])
    b = base.b[: tops[-1] + 1].astype(complex)
    asq = (base.a * base.a)[: tops[-1] + 1].astype(complex)
    mass = complex(base.total_mass)
    steps, mult, rel = [], None, None
    for d, t in zip(poles, reversed(tops[:-1])):
        b, asq, mass, l = geronimus_step(b, asq, mass, d, t)
        steps.append((d, l))
    if zeros:
        b, asq, mass, mult, rel = christoffel_step(b, asq, mass, zeros)
    return ModifiedTable(r=r, base=base, b=b, asq=asq, mass=mass, poles=steps,
                         zero_mult=mult, zero_rel=rel)


def solve_Q(n: int, r: RationalModifier, base: RecurrenceTable) -> PolyInBasis:
    """Monic Q_n orthogonal to lower degrees under the bilinear form of
    r d(mu), read off the table of r dmu through n."""
    return modified_table(r, base, n).op(n)


def solve_Q_many(degrees, r: RationalModifier, base: RecurrenceTable) -> dict:
    """solve_Q at each degree, from one table through the deepest: degree ->
    Q_n, or the error that degree refuses with."""
    try:
        table = modified_table(r, base, max(degrees))
    except DEGREE_REFUSALS as exc:
        return {n: exc for n in degrees}
    out: dict = {}
    for n in degrees:
        try:
            out[n] = table.op(n)
        except DEGREE_REFUSALS as exc:
            out[n] = exc
    return out


def weak_limit_probe(f: PolyInBasis, nu: int, n: int, r: RationalModifier,
                     base: RecurrenceTable) -> tuple[complex, complex]:
    """lhs = integral f q_n q_{n+nu} r dmu against the orthonormalized pair;
    rhs = (1/pi) integral f T_nu / sqrt(1-x^2) dx by Gauss-Chebyshev, whose
    closed-form nodes are exact for its degree.

    f = sum f_j L_j acts on Q_n as f(J'), J' the monic Jacobi matrix of
    r dmu, by L_{j+1}(J') = (J' - b_j) L_j(J') - a_j^2 L_{j-1}(J') from e_n:
    one banded step per degree of f.  That gives f Q_n = sum_m c_m Q_m, and
    by orthogonality integral f Q_n Q_{n+nu} r dmu = c_{n+nu} / kappa_{n+nu}^2,
    so lhs = c_{n+nu} kappa_n / kappa_{n+nu} = c_{n+nu} alpha_{n+1}..alpha_{n+nu}
    with principal-root alphas, the recursive normalization choice.  Exact:
    nothing is integrated, and no kappa is formed.
    """
    if nu < 0:
        raise ModifiedError("nu must be >= 0")
    top = n + max(nu, f.degree)
    table = modified_table(r, base, top)
    bt, asqt = table.b, table.asq
    fc = f.coeffs
    a, b = f.table.a, f.table.b
    prev, cur = np.zeros(top + 1, dtype=complex), np.zeros(top + 1, dtype=complex)
    cur[n] = 1.0
    fq = fc[0] * cur                               # f(J') e_n over Q_0..Q_top
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(f.degree):                  # L_{j+1}(J') e_n from the two before
            nxt = (bt - b[j]) * cur - a[j] ** 2 * prev
            nxt[1:] += cur[:-1]
            nxt[:-1] += asqt[1:] * cur[1:]
            prev, cur = cur, nxt
            fq += fc[j + 1] * cur
        lhs = complex(fq[n + nu] * np.prod(np.sqrt(asqt[n + 1: n + nu + 1])))
    if not cmath.isfinite(lhs):
        raise ModifiedError(f"recurrence of r dmu breaks down near n={n}",
                            kind="degree_collapse")

    mc = f.degree + nu + 32
    theta = (2 * np.arange(1, mc + 1) - 1) * np.pi / (2 * mc)
    xc = np.cos(theta)
    rhs = complex(np.sum(f.values(xc) * np.cos(nu * theta)) / mc)
    return lhs, rhs
