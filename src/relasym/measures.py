"""Base measures on [-1, 1]: recurrence tables, Gauss rules, Cauchy transforms.

A measure is a classical weight on [-1, 1] (Chebyshev, Legendre, Jacobi)
plus finitely many point masses strictly outside the interval.  Everything
downstream works through the three-term recurrence of its monic orthogonal
polynomials

    L_{k+1}(x) = (x - b_k) L_k(x) - a_k^2 L_{k-1}(x),

with orthonormal off-diagonal entries a_k > 0 and leading coefficients
tau_k such that l_k = tau_k L_k is orthonormal.  A point mass, a pole
1/(x - d) and a polynomial factor S each transform that recurrence in one
O(n) sweep (`_add_point`, `geronimus_step`, `christoffel_step`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reader
from .joukowski import phi

__all__ = [
    "MeasureError",
    "BaseMeasureSpec",
    "RecurrenceTable",
    "QuadratureRule",
    "recurrence_for",
    "per_degree",
    "gauss_rule",
    "rule_for",
    "table_through",
    "minimal_ratios",
    "minimal_ratios_for",
    "geronimus_step",
    "christoffel_step",
]

WEIGHT_KINDS = ("chebyshev_first_kind", "chebyshev_second_kind", "legendre", "jacobi")
EPS = np.finfo(float).eps
_LN2 = math.log(2.0)
STIRLING_FROM = 15.0    # both Jacobi exponents this large: the mass from Stirling's series
# the coefficients B_2k / (2k (2k - 1)) of Stirling's series for lgamma,
# k = 1..5: at x = a + 1 >= 16 the first term left out is below 2e-16
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
# numpy refuses, before allocating anything, an array of more bytes than the
# largest intp; a table through degree nmax is built on arrays of nmax + 2
# entries of 8 bytes (float, or the pointers of an object array)
MAX_DEPTH = np.iinfo(np.intp).max // 8 - 2


class MeasureError(reader.ConfigError):
    """Invalid measure description or table request."""


# what refuses one degree, or one ladder row, and leaves the others to their own
# builds; a MeasureError is a ConfigError and refuses the whole config
DEGREE_REFUSALS = (reader.Refusal, np.linalg.LinAlgError)


def per_degree(degrees, build) -> dict:
    """Degree -> build(n), or the refusal (DEGREE_REFUSALS) it raised: the
    one place a failed degree is told from a failed config."""
    out: dict = {}
    for n in dict.fromkeys(degrees):
        try:
            out[n] = build(n)
        except DEGREE_REFUSALS as exc:
            out[n] = exc
    return out


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
        for key in ("alpha", "beta"):
            value = reader.real(getattr(self, key), key, MeasureError)
            # the exponents of every other kind are fixed: a given one would be ignored
            if value and self.weight_kind != "jacobi":
                raise MeasureError(f"{key} is read for jacobi only, not {self.weight_kind}")
            object.__setattr__(self, key, value)
        object.__setattr__(self, "mass_points", tuple(
            (reader.real(loc, "mass point location", MeasureError),
             reader.real(mass, "mass", MeasureError)) for loc, mass in self.mass_points))
        a, b = self.jacobi_exponents()
        if not (a > -1.0 and b > -1.0):
            raise MeasureError("jacobi exponents must exceed -1")
        for loc, mass in self.mass_points:
            if abs(loc) <= 1.0:
                raise MeasureError(f"mass point location {loc} must lie outside [-1,1]")
            if mass <= 0.0:
                raise MeasureError(f"mass {mass} must be positive")
        self.continuous_mass()

    def jacobi_exponents(self) -> tuple[float, float]:
        if self.weight_kind == "chebyshev_first_kind":
            return (-0.5, -0.5)
        if self.weight_kind == "chebyshev_second_kind":
            return (0.5, 0.5)
        if self.weight_kind == "legendre":
            return (0.0, 0.0)
        return (self.alpha, self.beta)

    def continuous_mass(self) -> float:
        """2^(a+b+1) B(a+1, b+1).  With both exponents from STIRLING_FROM on,
        from Stirling's series (`_stirling_log_mass`), as the three lgamma
        terms cancel digits that grow with a + b.  Otherwise log B from
        lgamma, the larger argument's lgamma(p) - lgamma(p + q) from
        Stirling's series if its exponent is from STIRLING_FROM on
        (`_stirling_lgamma_ratio`), with the whole powers of two of both
        factors applied last, so that neither factor leaves the double range
        where the mass does not.  A mass out of the double range is a
        MeasureError."""
        a, b = self.jacobi_exponents()
        try:
            if min(a, b) >= STIRLING_FROM:
                mass = math.exp(_stirling_log_mass(a + 1.0, b + 1.0))
            else:
                if max(a, b) >= STIRLING_FROM:
                    q, p = sorted((a + 1.0, b + 1.0))
                    log_beta = math.lgamma(q) + _stirling_lgamma_ratio(p, q)
                else:
                    log_beta = (math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                                - math.lgamma(a + b + 2.0))
                # exp underflows below about -708, so a log_beta below -960 ln 2
                # hands its whole binades past that to the exponent
                shift = min(0, math.ceil(log_beta / _LN2) + 960)
                # 2^(a+b+1) from the whole and fractional parts of each
                # exponent: a + b would round off the low bits of the smaller
                # one.  The fractional parts add up exactly from |a|, |b| >= 1
                # on (and their product would move 2^0.5 * 2^0.5 off 2).
                ka, kb = math.floor(a), math.floor(b)
                mass = math.ldexp(2.0 ** ((a - ka) + (b - kb))
                                  * math.exp(log_beta - shift * _LN2), ka + kb + 1 + shift)
        except (OverflowError, ValueError):     # ValueError: ceil of a nan
            mass = math.inf
        if not 0.0 < mass < math.inf:
            raise MeasureError(f"the mass of the jacobi weight ({a:g}, {b:g}) "
                               f"leaves the double range")
        return mass

    def to_json_dict(self) -> dict:
        return {
            "weight_kind": self.weight_kind,
            "alpha": self.alpha,
            "beta": self.beta,
            "mass_points": [[loc, mass] for loc, mass in self.mass_points],
        }

    @classmethod
    def from_json_dict(cls, d: dict, path: str = "") -> "BaseMeasureSpec":
        return reader.build(cls, path, **reader.obj(d, path, {
            "weight_kind": reader.text, "alpha": reader.real, "beta": reader.real,
            "mass_points": reader.seq_of(reader.seq_of(reader.real, 2))}, ("weight_kind",)))


def _stirling_corr(x: float) -> float:
    """lgamma(x) - (x - 1/2) log x + x - 1/2 log(2 pi), Stirling's series."""
    y = 1.0 / (x * x)
    return sum(c * y ** k for k, c in enumerate(_STIRLING)) / x


def _stirling_log_mass(p: float, q: float) -> float:
    """log(2^(p+q-1) B(p, q)) for large p and q.  With s = p + q and
    d = (p - q)/s, Stirling's series gives
    1/2 log(2 pi / s) + (p - 1/2) log1p(d) + (q - 1/2) log1p(-d) plus the
    series' corrections at p, q and s; the two log1p terms are written as
    s d atanh(d) + (s - 1)/2 log1p(-d^2), two terms of the size of their
    sum, so that no two large terms cancel."""
    s = p + q
    d = (p - q) / s
    return (0.5 * math.log(2.0 * math.pi / s) + s * d * math.atanh(d)
            + 0.5 * (s - 1.0) * math.log1p(-d * d)
            + _stirling_corr(p) + _stirling_corr(q) - _stirling_corr(s))


def _stirling_lgamma_ratio(p: float, q: float) -> float:
    """lgamma(p) - lgamma(p + q) for p >= STIRLING_FROM + 1 from Stirling's
    series: q - (p - 1/2) log1p(q/p) - q log(p + q) plus the corrections at
    p and p + q, where no terms larger than about q cancel; the two lgamma
    values themselves cancel digits that grow with p."""
    s = p + q
    return (q - (p - 0.5) * math.log1p(q / p) - q * math.log(s)
            + _stirling_corr(p) - _stirling_corr(s))


@dataclass
class RecurrenceTable:
    """Recurrence coefficients and leading coefficients up to degree nmax.

    Internal layout: ``b[k]`` is valid for k = 0..nmax and ``a[k]`` for
    k = 1..nmax; ``a[0]`` is a zero placeholder so recurrence loops index
    naturally.  ``tau[k]`` is the leading coefficient of the orthonormal
    l_k, so tau[0] = 1/sqrt(total mass) and tau[k+1] = tau[k]/a[k+1].
    The JSON form stores a without the placeholder (a_1..a_nmax).  ``spec``
    is the measure the table belongs to, so the table can be rebuilt deeper
    (`table_through`) or in mpmath (`extended._mp_ab`), both by `_table`.
    """

    a: np.ndarray
    b: np.ndarray
    tau: np.ndarray
    spec: BaseMeasureSpec

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


def _jacobi_ab(alpha, beta, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic Jacobi recurrence: b_k diagonal, asq_k = a_k^2 off-diagonal,
    in the exponents' number type: float64 arrays for floats, object
    arrays of mpf for mpmath's mpf."""
    s = alpha + beta
    dtype = np.asarray(s).dtype
    k = np.arange(nmax + 1, dtype=dtype)
    b = np.empty(nmax + 1, dtype)
    b[0] = (beta - alpha) / (s + 2.0)
    if nmax >= 1:
        num = beta * beta - alpha * alpha
        den = (2.0 * k[1:] + s) * (2.0 * k[1:] + s + 2.0)
        b[1:] = np.divide(num, den)    # an mpf num on the left would format den
    asq = np.zeros(nmax + 1, dtype)
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


def _add_point(b: np.ndarray, asq: np.ndarray, mass, x, w) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix of a discrete measure after adding w * delta(x).

    ``b``, ``asq`` (``asq[0]`` unused) hold the Jacobi matrix of a discrete
    measure with len(b) points and total mass ``mass``; the result has one
    row more, in their number type (float, or mpmath's mpf).  One sweep of
    the Rutishauser/Kahan/Pal/Walker kernel: the point is absorbed by
    orthogonal similarity, so a point mass outside [-1, 1] costs no digits
    (the naive Stieltjes moment iteration loses most of them there).
    Gragg & Harrod 1984, Gautschi 2004 sec. 2.2.3.
    """
    # lists: the operations of numpy scalars, in either number type, at a third of the cost
    p0, p1 = np.append(b, x).tolist(), [mass, *asq[1:].tolist(), 0.0]
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
    return np.array(p0, dtype=b.dtype), np.array(p1, dtype=b.dtype)


def _table(spec: BaseMeasureSpec, nmax: int, alpha, beta, mass) -> RecurrenceTable:
    """The measure's table through degree nmax, in the number type of the
    exponents alpha, beta and the continuous mass: float for
    `recurrence_for`, mpmath's mpf for the extended lane (`extended._mp_ab`).

    The closed-form Jacobi matrix of the pure weight, truncated at
    N = nmax + 2, is the Jacobi matrix of its N-point Gauss rule.  That
    rule plus the exact point masses matches the measure's moments through
    degree 2N - 1, so its coefficients through degree nmax are those of
    the measure itself.  Each point mass is absorbed by one O(N) sweep
    (`_add_point`), the masses at one location summed into one, so a
    table of degree nmax is bit for bit the leading part of any longer one.
    tau_k = tau_{k-1}/a_k = 1/||L_k|| one division at a time, inf past the
    double range: every reader of tau checks, and the tables deepened for
    a and b alone never read it.  A depth whose arrays numpy refuses to
    allocate is a MeasureError.
    """
    if nmax < 1:
        raise MeasureError("nmax must be >= 1")
    too_deep = MeasureError(f"a table through degree {nmax:.3g} is more than numpy can allocate")
    if nmax > MAX_DEPTH:
        raise too_deep
    try:
        b, asq = _jacobi_ab(alpha, beta, nmax + 1)
    except MemoryError:    # a depth numpy accepts but the host cannot hold
        raise too_deep from None
    num = type(mass)    # the atoms are summed and swept in mass's number type
    # a second sweep at a node the discrete measure already has absorbs
    # its delta wrongly
    atoms: dict = {}
    for x, w in spec.mass_points:
        atoms[x] = atoms.get(x, 0) + num(w)
    for x, w in atoms.items():
        b, asq = _add_point(b, asq, mass, num(x), w)
        mass += w
    a = np.concatenate([[0 * mass], np.sqrt(asq[1: nmax + 1])])    # a zero a[0] of mass's type
    with np.errstate(over="ignore"):
        tau = np.divide.accumulate(np.concatenate([[1 / np.sqrt(mass)], a[1:]]))
    return RecurrenceTable(a=a, b=b[: nmax + 1], tau=tau, spec=spec)


def recurrence_for(spec: BaseMeasureSpec, nmax: int) -> RecurrenceTable:
    """Recurrence table for the measure, atoms folded into the inner
    product (`_table`)."""
    return _table(spec, nmax, *spec.jacobi_exponents(), spec.continuous_mass())


def _golub_welsch(b: np.ndarray, a: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule whose Jacobi matrix has diagonal
    b and off-diagonal a: its eigenvalues, and mass times the squared first
    eigenvector components (Golub & Welsch, Math. Comp. 23, 1969)."""
    vals, vecs = np.linalg.eigh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1))
    return np.clip(vals, -1.0, 1.0), mass * vecs[0] ** 2


def gauss_rule(table: RecurrenceTable, m: int) -> QuadratureRule:
    """m-point Gauss rule of the table's measure (`rule_for`): nodes of the
    pure weight, so they stay inside [-1,1], and the atoms as exact point
    masses.  No construction or check of the package uses it: every
    integral there is exact recurrence algebra.  It stays as the tests'
    independent quadrature oracle, and as the layer perfbench's tracer wraps.
    """
    if m < 1:
        raise MeasureError("rule size must be >= 1")
    return rule_for(table.spec, m)


def rule_for(spec: BaseMeasureSpec, m: int) -> QuadratureRule:
    """Gauss rule of the pure weight plus the measure's atoms.

    Kept, like `gauss_rule`, only as an independent quadrature oracle for
    the tests; the package itself integrates by recurrence algebra.
    """
    alpha, beta = spec.jacobi_exponents()
    b, asq = _jacobi_ab(alpha, beta, m)
    nodes, weights = _golub_welsch(b[:m], np.sqrt(asq[1:m]), spec.continuous_mass())
    return QuadratureRule(nodes=nodes, weights=weights, atoms=spec.mass_points)


def table_through(table: RecurrenceTable, deg: int) -> RecurrenceTable:
    """table itself if it reaches degree deg, else its measure's table
    through deg."""
    if table.nmax >= deg:
        return table
    return recurrence_for(table.spec, deg)


def minimal_solution_depth(z: complex, hi: int) -> int:
    """The degree `minimal_ratios` at z through degree hi starts its
    backward recurrence from."""
    return hi + math.ceil(-math.log(EPS) / math.log(abs(phi(z))))


def minimal_ratios(b: np.ndarray, asq: np.ndarray, z, hi: int) -> list:
    """h[k] = q_k(z) / q_{k-1}(z) for k = 1..hi (h[0] = 0), where
    q_m(z) = integral L_m(x)/(z - x) dmu(x) for the (possibly complex)
    measure with recurrence data b_k, asq_k = a_k^2.

    The q_m (m >= 1) are the minimal solution of the three-term recurrence
    (Gautschi, SIAM Rev. 9, 1967), found by backward recurrence on the
    ratios h_m = a_m^2 / (z - b_m - h_{m+1}), so nothing under- or
    overflows at any degree.  Starting from h = 0 at
    minimal_solution_depth(z, hi), which b and asq must reach, leaves a
    dominant share below eps^2.  q_0 itself is mu_0 / (z - b_0 - h_1), by
    the inhomogeneous first step.  At a mass point of the measure the
    minimal solution is L_m itself.
    """
    z = complex(z)
    top = minimal_solution_depth(z, hi)
    if len(b) <= top:
        raise MeasureError(f"recurrence data through {len(b) - 1} too short, need {top}")
    bb, aa = b[: top + 1].tolist(), asq[: top + 1].tolist()
    h = [0j] * (hi + 1)
    cur = 0j
    for m in range(top, 0, -1):
        den = z - bb[m] - cur
        cur = aa[m] / den if den else complex(math.inf)   # q_{m-1}(z) = 0
        if m <= hi:
            h[m] = cur
    return h


def minimal_ratios_for(table: RecurrenceTable, z, hi: int) -> list:
    """`minimal_ratios` of the table's own measure at z through degree hi,
    on the table deepened as far as the backward recurrence starts."""
    deep = table_through(table, minimal_solution_depth(z, hi))
    return minimal_ratios(deep.b, deep.a * deep.a, z, hi)


def geronimus_step(b: np.ndarray, asq: np.ndarray, mass: complex, d: complex,
                   top: int) -> tuple:
    """Recurrence data of dmu/(x - d) through degree top, d off the support.

    With l_k = -q_k(d)/q_{k-1}(d) from `minimal_ratios`, the new monic
    polynomials are Q_k = L_k + l_k L_{k-1}, and J - dI = UL with
    u_k = b_k - d - l_{k+1} gives the new Jacobi matrix LU + dI:
    b'_k = d + u_k + l_k and a'_k^2 = l_k u_{k-1}.  The new mass is
    integral dmu/(x - d) = -q_0(d).  Returns (b', asq', mass', l), l[0] = 0;
    b and asq must reach minimal_solution_depth(d, top + 1).
    (Gautschi, Orthogonal Polynomials: Computation and Approximation,
    OUP 2004, sec. 2.4; Bueno & Marcellan, Linear Algebra Appl. 384, 2004.)
    """
    d = complex(d)
    h = minimal_ratios(b, asq, d, top + 1)
    l = -np.array(h)
    with np.errstate(invalid="ignore", over="ignore"):
        u = b[: top + 1] - d - l[1:]
        new_asq = np.zeros(top + 1, dtype=complex)
        new_asq[1:] = l[1: top + 1] * u[:top]
        return d + u + l[: top + 1], new_asq, -mass / (d - b[0] - h[1]), l[: top + 1]


def christoffel_step(b: np.ndarray, asq: np.ndarray, mass: complex, zeros) -> tuple:
    """Recurrence data of S dmu, S = prod (x - c) over `zeros` (a zero once
    per unit of multiplicity, all off the support), A = len(zeros) degrees
    short.

    With J the monic Jacobi matrix (x L_k = L_{k+1} + b_k L_k + a_k^2 L_{k-1}),
    the banded S(J) = LU without pivoting, L unit lower with A subdiagonals
    and U upper with A superdiagonals, gives the new monic polynomials Q_k
    by L_k = sum_j L[k, j] Q_j (so S Q_k = sum_{j<=A} U[k, j] L_{k+j},
    U[k, A] = 1), and the new Jacobi matrix U J U^-1:
    b'_k = U[k, A-1] + b_{k+A} - U[k+1, A-1] and
    a'_k^2 = a_k^2 U[k, 0] / U[k-1, 0].  The pivot U[k, 0] is
    integral Q_k^2 S dmu / integral L_k^2 dmu, so it depends on S dmu alone:
    one factorization for all of S never passes through the measures of its
    partial products, which may be nearly degenerate where S dmu is not.
    The new mass is mass * U[0, 0].  For A = 1 the pivots are the forward
    ratios -L_{k+1}(c)/L_k(c).  A zero pivot means Q_{k+1} is not unique;
    the rows after it are eliminated with eps times the largest term summed
    into it in its place, so that they stay finite, and b'_k is infinite.  A pivot that is zero
    only to working precision is the same breakdown, so each pivot comes
    with its size relative to the largest term summed into it (its row of
    S(J) or an elimination product): about eps over its relative error, 0
    at an exact zero.  Returns (b', asq', mass', M, rel) with the
    multipliers M[k, o] = L[k, k - A + o], o < A.  (Bueno & Marcellan,
    Linear Algebra Appl. 384, 2004; Gautschi, OUP 2004, sec. 2.4.)
    """
    A, n = len(zeros), len(b)
    # band[i][o + A] = S(J)[i, i + o], one factor (J - cI) at a time
    band = np.zeros((n, 2 * A + 1), dtype=complex)
    band[:, A] = 1.0
    pad = np.zeros(n + 2 * A, dtype=complex)
    for c in zeros:
        bc, sub = pad.copy(), pad.copy()
        bc[A: A + n] = b - complex(c)
        sub[A: A + n] = asq
        new = np.zeros_like(band)
        for o in range(-A, A + 1):
            col = band[:, o + A]
            new[:, o + A] += col * bc[A + o: A + o + n]
            if o < A:
                new[:, o + A + 1] += col
            if o > -A:
                new[:, o + A - 1] += col * sub[A + o: A + o + n]
        band = new
    rows = band.tolist()
    big = np.abs(band).max(axis=1).tolist()
    U, M, piv = [], np.zeros((n, A), dtype=complex), []
    for i, w in enumerate(rows):
        for r in range(max(0, i - A), i):       # eliminate S(J)[i, r] with row r of U
            o = r - i + A
            if w[o]:
                m = M[i, o] = w[o] / piv[r]
                for k in range(A + 1):
                    w[o + k] -= m * U[r][k]
                big[i] = max(big[i], abs(m * U[r][i - r]))
        U.append(w[A:])
        piv.append(w[A] or EPS * big[i])
    U = np.array(U)
    rel = np.abs(U[:, 0]) / np.array(big)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        new_asq = np.zeros(n - A, dtype=complex)
        new_asq[1:] = asq[1: n - A] * U[1: n - A, 0] / U[: n - A - 1, 0]
        new_b = U[: n - A, A - 1] + b[A:] - U[1: n - A + 1, A - 1]
    new_b[U[: n - A, 0] == 0] = math.inf    # integral Q_k^2 S dmu = 0
    return new_b, new_asq, mass * U[0, 0], M, rel
