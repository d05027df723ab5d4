"""Base measures on [-1, 1]: recurrence tables, Gauss rules, Cauchy transforms.

A measure is a classical weight on [-1, 1] (Chebyshev, Legendre, Jacobi)
plus finitely many point masses strictly outside the interval.  Everything
downstream works through the three-term recurrence of its monic orthogonal
polynomials

    L_{k+1}(x) = (x - b_k) L_k(x) - a_k^2 L_{k-1}(x),

with orthonormal off-diagonal entries a_k > 0 and leading coefficients
tau_k such that l_k = tau_k L_k is orthonormal.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .joukowski import phi

__all__ = [
    "MeasureError",
    "BaseMeasureSpec",
    "RecurrenceTable",
    "QuadratureRule",
    "recurrence_for",
    "gauss_rule",
    "rule_for",
    "minimal_solution",
]

WEIGHT_KINDS = ("chebyshev_first_kind", "chebyshev_second_kind", "legendre", "jacobi")


class MeasureError(ValueError):
    """Invalid measure description or table request."""


@dataclass(frozen=True)
class BaseMeasureSpec:
    """Weight kind, Jacobi exponents, and point masses off [-1, 1]."""

    weight_kind: str
    alpha: float = 0.0      # exponent of (1-x), jacobi only
    beta: float = 0.0       # exponent of (1+x), jacobi only
    mass_points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.weight_kind not in WEIGHT_KINDS:
            raise MeasureError(f"unknown weight_kind {self.weight_kind!r}")
        a, b = self.jacobi_exponents()
        if not (-1.0 < a < np.inf and -1.0 < b < np.inf):
            raise MeasureError("jacobi exponents must be finite and exceed -1")
        for loc, mass in self.mass_points:
            if not (np.isfinite(loc) and np.isfinite(mass)):
                raise MeasureError(f"mass point ({loc}, {mass}) is not finite")
            if abs(loc) <= 1.0:
                raise MeasureError(f"mass point location {loc} must lie outside [-1,1]")
            if mass <= 0.0:
                raise MeasureError(f"mass {mass} must be positive")

    def jacobi_exponents(self) -> tuple[float, float]:
        if self.weight_kind == "chebyshev_first_kind":
            return (-0.5, -0.5)
        if self.weight_kind == "chebyshev_second_kind":
            return (0.5, 0.5)
        if self.weight_kind == "legendre":
            return (0.0, 0.0)
        return (self.alpha, self.beta)

    @property
    def has_atoms(self) -> bool:
        return bool(self.mass_points)

    def continuous_mass(self) -> float:
        a, b = self.jacobi_exponents()
        return 2.0 ** (a + b + 1.0) * math.exp(
            math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
        )

    def pure(self) -> "BaseMeasureSpec":
        """The same weight with the atoms dropped."""
        if not self.mass_points:
            return self
        return BaseMeasureSpec(self.weight_kind, self.alpha, self.beta, ())

    def to_json_dict(self) -> dict:
        return {
            "weight_kind": self.weight_kind,
            "alpha": self.alpha,
            "beta": self.beta,
            "mass_points": [[loc, mass] for loc, mass in self.mass_points],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BaseMeasureSpec":
        return cls(
            weight_kind=d["weight_kind"],
            alpha=float(d.get("alpha", 0.0)),
            beta=float(d.get("beta", 0.0)),
            mass_points=tuple((float(p[0]), float(p[1])) for p in d.get("mass_points", ())),
        )


@dataclass
class RecurrenceTable:
    """Recurrence coefficients and leading coefficients up to degree nmax.

    Internal layout: ``b[k]`` is valid for k = 0..nmax and ``a[k]`` for
    k = 1..nmax; ``a[0]`` is a zero placeholder so recurrence loops index
    naturally.  ``tau[k]`` is the leading coefficient of the orthonormal
    l_k, so tau[0] = 1/sqrt(total mass) and tau[k+1] = tau[k]/a[k+1].
    The JSON form stores a without the placeholder (a_1..a_nmax).
    """

    a: np.ndarray
    b: np.ndarray
    tau: np.ndarray
    spec: BaseMeasureSpec | None = None

    @property
    def nmax(self) -> int:
        return len(self.b) - 1

    @property
    def total_mass(self) -> float:
        return float(1.0 / self.tau[0] ** 2)

    def to_json_dict(self) -> dict:
        return {
            "a": [float(v) for v in self.a[1:]],
            "b": [float(v) for v in self.b],
            "tau": [float(v) for v in self.tau],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str, spec: BaseMeasureSpec | None = None) -> "RecurrenceTable":
        d = json.loads(text)
        a = np.concatenate([[0.0], np.asarray(d["a"], dtype=float)])
        return cls(a=a, b=np.asarray(d["b"], dtype=float),
                   tau=np.asarray(d["tau"], dtype=float), spec=spec)


@dataclass
class QuadratureRule:
    """Gauss nodes/weights for the continuous part plus exact atoms."""

    nodes: np.ndarray
    weights: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()

    def all_points(self) -> np.ndarray:
        if not self.atoms:
            return self.nodes
        return np.concatenate([self.nodes, [loc for loc, _ in self.atoms]])

    def all_weights(self) -> np.ndarray:
        if not self.atoms:
            return self.weights
        return np.concatenate([self.weights, [mass for _, mass in self.atoms]])

    @property
    def size(self) -> int:
        return len(self.nodes)


def _jacobi_ab(alpha: float, beta: float, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic Jacobi recurrence: b_k diagonal, asq_k = a_k^2 off-diagonal."""
    s = alpha + beta
    k = np.arange(nmax + 1, dtype=float)
    b = np.empty(nmax + 1)
    b[0] = (beta - alpha) / (s + 2.0)
    if nmax >= 1:
        num = beta * beta - alpha * alpha
        den = (2.0 * k[1:] + s) * (2.0 * k[1:] + s + 2.0)
        b[1:] = num / den
    asq = np.zeros(nmax + 1)
    if nmax >= 1:
        # k = 1 in factored form: the (k + s) factor cancels against the
        # (2k + s - 1) zero when s = -1, so the generic formula is 0/0 there.
        asq[1] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + s) ** 2 * (3.0 + s))
    if nmax >= 2:
        kk = k[2:]
        nab = 2.0 * kk + s
        asq[2:] = (4.0 * kk * (kk + alpha) * (kk + beta) * (kk + s)
                   / (nab * nab * (nab + 1.0) * (nab - 1.0)))
    return b, asq


def _tau_from(asq: np.ndarray, total_mass: float) -> np.ndarray:
    tau = np.empty(len(asq))
    tau[0] = 1.0 / math.sqrt(total_mass)
    for kk in range(1, len(asq)):
        tau[kk] = tau[kk - 1] / math.sqrt(asq[kk])
    return tau


def _add_point(b: np.ndarray, asq: np.ndarray, mass: float,
               x: float, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix of a discrete measure after adding w * delta(x).

    ``b``, ``asq`` (``asq[0]`` unused) hold the Jacobi matrix of a discrete
    measure with len(b) points and total mass ``mass``; the result has one
    row more.  One sweep of the Rutishauser/Kahan/Pal/Walker kernel: the
    point is absorbed by orthogonal similarity, so a point mass outside
    [-1, 1] costs no digits (the naive Stieltjes moment iteration loses
    most of them there).  Gragg & Harrod 1984, Gautschi 2004 sec. 2.2.3.
    """
    p0 = np.append(b, x)
    p1 = np.append(asq, 0.0)
    p1[0] = mass
    pn = w
    gam, sig, t = 1.0, 0.0, 0.0
    for k in range(len(p0)):
        rho = p1[k] + pn
        tmp = gam * rho
        tsig = sig
        if rho <= 0.0:
            gam, sig = 1.0, 0.0
        else:
            gam = p1[k] / rho
            sig = pn / rho
        tk = sig * (p0[k] - x) - gam * t
        p0[k] -= tk - t
        t = tk
        if sig <= 0.0:
            pn = tsig * p1[k]
        else:
            pn = t * t / sig
        p1[k] = tmp
    p1[0] = 0.0
    return p0, p1


def recurrence_for(spec: BaseMeasureSpec, nmax: int) -> RecurrenceTable:
    """Recurrence table for the measure, atoms folded into the inner product.

    The closed-form Jacobi matrix of the pure weight, truncated at
    N = nmax + 2, is the Jacobi matrix of its N-point Gauss rule.  That
    rule plus the exact point masses matches the measure's moments through
    degree 2N - 1, so its coefficients through degree nmax are those of
    the measure itself.  Each point mass is absorbed by one O(N) sweep
    (`_add_point`), so a table of degree nmax is bit for bit the leading
    part of any longer one.
    """
    if nmax < 1:
        raise MeasureError("nmax must be >= 1")
    alpha, beta = spec.jacobi_exponents()
    b, asq = _jacobi_ab(alpha, beta, nmax + 1)
    mass = spec.continuous_mass()
    for x, w in spec.mass_points:
        b, asq = _add_point(b, asq, mass, x, w)
        mass += w
    b, asq = b[: nmax + 1], asq[: nmax + 1]
    tau = _tau_from(asq, mass)
    a = np.concatenate([[0.0], np.sqrt(asq[1:])])
    return RecurrenceTable(a=a, b=b, tau=tau, spec=spec)


def _golub_welsch(b: np.ndarray, a: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule whose Jacobi matrix has diagonal
    b and off-diagonal a: its eigenvalues, and mass times the squared first
    eigenvector components (Golub & Welsch, Math. Comp. 23, 1969)."""
    vals, vecs = np.linalg.eigh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1))
    return np.clip(vals, -1.0, 1.0), mass * vecs[0] ** 2


def gauss_rule(table: RecurrenceTable, m: int) -> QuadratureRule:
    """m-point Gauss rule.  Atoms of the generating measure ride along.

    A table that knows its measure gets `rule_for` (nodes of the pure
    weight, so they stay inside [-1,1], and the atoms as exact point
    masses); otherwise plain Golub-Welsch on the table.  No construction
    or check of the package uses it: every integral there is exact
    recurrence algebra.  It stays as the tests' independent quadrature
    oracle, and as the layer perfbench's tracer wraps.
    """
    if m < 1:
        raise MeasureError("rule size must be >= 1")
    if table.spec is not None:
        return rule_for(table.spec, m)
    if m > table.nmax:
        raise MeasureError(f"rule size {m} exceeds table nmax {table.nmax}")
    nodes, weights = _golub_welsch(table.b[:m], table.a[1:m], table.total_mass)
    return QuadratureRule(nodes=nodes, weights=weights, atoms=())


def rule_for(spec: BaseMeasureSpec, m: int) -> QuadratureRule:
    """Gauss rule of the pure weight plus the measure's atoms.

    Kept, like `gauss_rule`, only as an independent quadrature oracle for
    the tests; the package itself integrates by recurrence algebra.
    """
    alpha, beta = spec.jacobi_exponents()
    b, asq = _jacobi_ab(alpha, beta, m)
    nodes, weights = _golub_welsch(b[:m], np.sqrt(asq[1:m]), spec.continuous_mass())
    return QuadratureRule(nodes=nodes, weights=weights, atoms=spec.mass_points)


def _series_recip(s: list) -> list:
    """1/s for a truncated Taylor series s (s[0] != 0)."""
    out = [1.0 / s[0]]
    for k in range(1, len(s)):
        out.append(-sum(s[i] * out[k - i] for i in range(1, k + 1)) * out[0])
    return out


def _series_mul(s: list, t: list) -> list:
    return [sum(s[i] * t[k - i] for i in range(k + 1)) for k in range(len(s))]


def minimal_solution(table: RecurrenceTable, z, lo: int, hi: int,
                     order: int = 0) -> np.ndarray:
    """Taylor jets of q_m(z) = integral L_m(x)/(z - x) dmu(x), m = lo..hi,
    divided by q_lo(z): out[s, m - lo] = q_m^(s)(z) / (s! q_lo(z)).

    The q_m (m >= 1) are the minimal solution of the three-term recurrence
    (Gautschi, SIAM Rev. 9, 1967), found by backward recurrence on ratios
    h_m = q_m/q_{m-1} = a_m^2 / (z - b_m - h_{m+1}), each a truncated Taylor
    series in z, so nothing under- or overflows at any degree.  Starting
    from h = 0 leaves a dominant share shrinking like |phi(z)|^-2 per step;
    a tail of log(1/eps) / log|phi(z)| steps puts it below eps^2.  q_lo's
    own z-dependence, needed for the jets, follows from the inhomogeneous
    first step q_1 = (z - b_0) q_0 - mu_0, valid for atom tables too.  At a
    mass point of the measure the minimal solution is L_m itself, and
    order 0 gives L_m(z) / L_lo(z).
    """
    z = complex(z)
    top = hi + math.ceil(-math.log(np.finfo(float).eps) / math.log(abs(phi(z))))
    if table.nmax < top:
        if table.spec is None:
            raise MeasureError(f"table nmax {table.nmax} too short, need {top}")
        table = recurrence_for(table.spec, top)
    a, b = table.a, table.b
    h, hs = [0j] * (order + 1), {}
    for m in range(top, lo if order == 0 else 0, -1):
        den = [-v for v in h]
        den[0] += z - b[m]
        if order:
            den[1] += 1.0
        h = hs[m] = [a[m] * a[m] * v for v in _series_recip(den)]
    cols = [[1.0 + 0j] + [0j] * order]              # q_m(z) / q_lo(z)
    for m in range(lo + 1, hi + 1):
        cols.append(_series_mul(cols[-1], hs[m]))
    if order:
        # q_lo(z)/q_lo(z0) = [q_0(z)/q_0(z0)] prod_{k<=lo} h_k(z)/h_k(z0), with
        # q_0 = mu_0 / (z - b_0 - h_1) by the inhomogeneous first step
        den = [-v for v in hs[1]]
        den[0] += z - b[0]
        den[1] += 1.0
        scale = _series_recip([v / den[0] for v in den])
        for k in range(1, lo + 1):
            scale = _series_mul(scale, [v / hs[k][0] for v in hs[k]])
        cols = [_series_mul(col, scale) for col in cols]
    return np.array(cols, dtype=complex).T


def atom_basis_values(table: RecurrenceTable, deg: int, loc: float) -> np.ndarray:
    """Orthonormal basis values l_0(loc)..l_deg(loc) at a mass point of the
    table's own measure.

    Forward recurrence is useless here: the values at a mass point are
    square summable, hence the minimal solution of the three-term
    recurrence, and forward errors grow with the dominant one.  They are
    the order-0 case of `minimal_solution`, normalized by l_0 = tau_0.
    """
    return table.tau[: deg + 1] * minimal_solution(table, loc, 0, deg)[0].real
