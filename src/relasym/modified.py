"""Orthogonal polynomials for rationally modified measures r d(mu).

The modifier r = S/T is a rational function with zeros and poles off the
support.  Monic orthogonal polynomials Q_n of r d(mu) are obtained through
R_n = S Q_n, expanded over the monic mu-basis as

    R_n = L_{n+A} + lambda_1 L_{n+A-1} + ... + lambda_{A+B} L_{n-B},

where the lambda solve a square linear system: divisibility of R_n by S
(jet conditions at each zero) plus pole conditions (moment integrals
against L_{n-B}/(x-d_j)^nu).  Everything downstream (recurrence data,
leading coefficients, weak limits) is read off the solved expansion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .joukowski import NEAR_CUT, dist_to_cut
from .measures import (BaseMeasureSpec, MeasureError, RecurrenceTable, minimal_solution,
                       minimal_solution_depth, recurrence_for)
from .polybasis import MONIC, PolyInBasis, basis_jets, divide_out_zeros, xmul, xmul_coeffs

__all__ = [
    "RationalModifier",
    "ModifiedOP",
    "ModifiedError",
    "solve_Q",
    "recurrence_extract",
    "weak_limit_probe",
]

# Condition-number gate: a solve above this is reported as pre-asymptotic.
COND_LIMIT = 1e10


class ModifiedError(ValueError):
    """A refused solve; kind names the cause ("pre_asymptotic" or "overflow")."""

    def __init__(self, message: str, cond: float | None = None,
                 kind: str = "pre_asymptotic"):
        super().__init__(message)
        self.cond = cond
        self.kind = kind


def _canon_points(points) -> tuple[tuple[complex, int], ...]:
    out = []
    for loc, mult in points:
        loc = complex(loc)
        mult = int(mult)
        if mult < 1:
            raise ModifiedError("multiplicities must be positive")
        if not np.isfinite(loc):
            raise ModifiedError(f"modifier point {loc} is not finite")
        if dist_to_cut(loc) <= NEAR_CUT:
            raise ModifiedError(f"modifier point {loc} lies on or near [-1, 1]")
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
        for c, _ in self.zeros:
            for d, _ in self.poles:
                if abs(c - d) < 1e-12:
                    raise ModifiedError("common zero/pole: modifier not in lowest terms")

    @property
    def A(self) -> int:
        return sum(mult for _, mult in self.zeros)

    @property
    def B(self) -> int:
        return sum(mult for _, mult in self.poles)

    @property
    def is_trivial(self) -> bool:
        return not self.zeros and not self.poles

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
    def from_json_dict(cls, data: dict) -> "RationalModifier":
        zeros = tuple((complex(e["c"][0], e["c"][1]), int(e["mult"]))
                      for e in data.get("zeros", ()))
        poles = tuple((complex(e["d"][0], e["d"][1]), int(e["mult"]))
                      for e in data.get("poles", ()))
        return cls(zeros=zeros, poles=poles)


@dataclass
class ModifiedOP:
    """One solved degree: expansion, monic polynomial, and recurrence data."""

    n: int
    lam: np.ndarray                 # lambda_0..lambda_{A+B}, lambda_0 = 1
    rep: PolyInBasis                # R_n = S*Q_n over the monic mu-basis
    q: PolyInBasis                  # Q_n, monic of exact degree n
    kappa_sq_inv: complex           # integral Q_n^2 r dmu = 1/kappa_n^2
    beta: complex                   # kappa_n^2 * integral x Q_n^2 r dmu
    cond: float
    alpha_sq: complex | None = None  # kappa_{n-1}^2/kappa_n^2, set when known


def _ensure_table(base: RecurrenceTable, deg: int) -> RecurrenceTable:
    if base.nmax >= deg:
        return base
    if base.spec is None:
        raise ModifiedError(f"table nmax {base.nmax} too small for degree {deg}")
    return recurrence_for(base.spec, deg)


def _check_off_atoms(r: RationalModifier, spec: BaseMeasureSpec | None):
    if spec is None:
        return
    for loc, _ in spec.mass_points:
        for p, _ in r.zeros + r.poles:
            if abs(p - loc) < 1e-12:
                raise ModifiedError(f"modifier point {p} coincides with a mass point")


def _pole_moments(base: RecurrenceTable, d: complex, lj: np.ndarray, j: int,
                  hi: int) -> np.ndarray:
    """out[nu-1, m-j] = integral L_m L_j (x-d)^-nu dmu / q_j(d), nu = 1..mult,
    m = j..hi, with q_m(d) = integral L_m/(d-x) dmu the minimal solution and
    lj = (L_j^(t)(d)), t < mult.

    Past its Taylor terms at d through order nu-1, L_j is (x-d)^nu times a
    polynomial of degree j-nu, orthogonal to L_m for m > j-nu.  That leaves
    -sum_{t<nu} [L_j^(t)(d)/t!] [q_m^(nu-1-t)(d)/(nu-1-t)!], exactly.
    """
    mult = len(lj)
    qj = minimal_solution(base, d, j, hi, mult - 1)
    out = np.zeros((mult, hi - j + 1), dtype=complex)
    for nu in range(1, mult + 1):
        for t in range(nu):
            out[nu - 1] -= lj[t] / math.factorial(t) * qj[nu - 1 - t]
    return out


def modifier_jets(r: RationalModifier, base: RecurrenceTable, top: int,
                  probes: tuple = (), order: int = 0) -> tuple[RecurrenceTable, list]:
    """The table solve_Q needs through degree top, pole moments included,
    and on it the monic jets at each modifier zero, then at each pole,
    through degree top + A, to the order its multiplicity needs.

    One forward sweep serves every point and every degree n <= top: a value
    at degree k depends neither on how far the sweep runs nor on the other
    points and orders swept with it.  The probes, if any, ride the same
    sweep to `order`; their jets (order+1, top+A+1, len(probes)) come last
    in the list.
    """
    A = r.A
    # deep enough for every pole moment's minimal solution too
    base = _ensure_table(base, max([top + A + 1] + [minimal_solution_depth(d, top + A)
                                                    for d, _ in r.poles]))
    points = r.zeros + r.poles
    orders = [mult - 1 for _, mult in points]
    zz = np.array([p for p, _ in points] + list(probes), dtype=complex)
    if not zz.size:
        return base, []
    with np.errstate(over="ignore", invalid="ignore"):
        swept = basis_jets(base, max(top + A, 0), zz, max(orders + [order]))
    jets = [swept[: k + 1, :, i] for i, k in enumerate(orders)]
    if probes:
        jets.append(swept[: order + 1, :, len(points):])
    return base, jets


def _lambda_system(n: int, r: RationalModifier, base: RecurrenceTable,
                   jets: list) -> tuple[np.ndarray, np.ndarray]:
    """Rows: divisibility jets at each zero, then pole moments against
    L_{n-B}; unknowns lambda_1..lambda_{A+B}; the lambda_0 = 1 column moves
    to the rhs.  Pole rows carry a common factor 1/q_{n-B}(d) per pole, which
    the row scaling in `_equilibrated` removes.  jets as from modifier_jets."""
    A, B = r.A, r.B
    ab = A + B
    degs = [n + A - k for k in range(ab + 1)]   # degree paired with lambda_k
    rows = np.zeros((ab, ab), dtype=complex)
    rhs = np.zeros(ab, dtype=complex)
    i = 0
    for (c, mult), cj in zip(r.zeros, jets):
        for nu in range(mult):
            rows[i] = [cj[nu, degs[k]] for k in range(1, ab + 1)]
            rhs[i] = -cj[nu, degs[0]]
            i += 1
    for (d, mult), dj in zip(r.poles, jets[len(r.zeros):]):
        mom = _pole_moments(base, d, dj[:, n - B], n - B, n + A)   # column k: degree n-B+k
        rows[i:i + mult] = mom[:, ab - 1::-1]
        rhs[i:i + mult] = -mom[:, ab]
        i += mult
    return rows, rhs


def _equilibrated(n, r, base, jets):
    """The degree-n lambda system with every row scaled to a largest entry 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows, rhs = _lambda_system(n, r, base, jets)
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
        raise ModifiedError(f"lambda system overflows the double range at n={n}",
                            kind="overflow")
    scale = np.maximum(np.abs(rows).max(axis=1), np.abs(rhs))
    scale[scale == 0.0] = 1.0
    return rows / scale[:, None], rhs / scale


def _beta(n: int, lam: np.ndarray, r: RationalModifier,
          base: RecurrenceTable) -> complex:
    """beta_n = kappa_n^2 integral x Q_n^2 r dmu, exactly.

    Write x Q_n = T u + v with deg v < B.  The v part vanishes against
    Q_n r dmu by orthogonality, and u (degree n+1-B) pairs with
    R_n = S Q_n only through its two lowest terms, which gives

        beta_n = lambda_1 + sum A_i c_i + sum B_j d_j
                 - sum_{k=n-B+1}^{n+A-1} b_k
                 + (lambda_{A+B-1} / lambda_{A+B}) a_{n-B+1}^2.
    """
    A, B = r.A, r.B
    shift = sum(m * c for c, m in r.zeros) + sum(m * d for d, m in r.poles)
    tail = np.sum(base.b[n - B + 1: n + A])
    return complex(lam[1] + shift - tail
                   + lam[A + B - 1] / lam[A + B] * base.a[n - B + 1] ** 2)


def _expand(n: int, lam: np.ndarray, cond: float, r: RationalModifier,
            base: RecurrenceTable) -> ModifiedOP:
    """ModifiedOP from the solved lambda: R_n, Q_n = R_n / S, kappa and beta."""
    A, B = r.A, r.B
    coeffs = np.zeros(n + A + 1, dtype=complex)
    for k in range(A + B + 1):
        coeffs[n + A - k] = lam[k]
    rep = PolyInBasis(MONIC, coeffs, n + A, base)
    q = divide_out_zeros(rep, list(r.zeros))
    top = abs(q.coeffs[n]) / float(np.max(np.abs(q.coeffs)))
    if top < 1e-8:
        raise ModifiedError(f"degree collapse at n={n} (top coefficient {top:.2e})", cond=cond)

    with np.errstate(over="ignore"):
        tau_sq = base.tau[n - B] ** 2
    if not np.isfinite(tau_sq):
        raise ModifiedError(f"tau_{n - B}^2 overflows the double range at n={n}",
                            cond=cond, kind="overflow")
    kappa_sq_inv = lam[A + B] / tau_sq
    if abs(kappa_sq_inv) == 0.0:
        raise ModifiedError(f"kappa_n^2 undefined at n={n} (vanishing norm)")
    beta = _beta(n, lam, r, base)
    return ModifiedOP(n=n, lam=lam, rep=rep, q=q,
                      kappa_sq_inv=complex(kappa_sq_inv), beta=complex(beta), cond=cond)


# what refuses one degree and leaves the others to their own solves
_DEGREE_REFUSALS = (ModifiedError, MeasureError, np.linalg.LinAlgError)


def solve_Q(n: int, r: RationalModifier, base: RecurrenceTable) -> ModifiedOP:
    """Monic Q_n orthogonal to lower degrees under the bilinear form of r d(mu).

    The lambda system couples divisibility (jets at modifier zeros) with the
    pole moments, both exact recurrence quantities, and is solved once.
    kappa_sq_inv (lambda_{A+B}/tau_{n-B}^2) and beta come from the expansion
    itself, and Q_n from R_n by exact division by S; no quadrature.
    """
    op = solve_Q_many((n,), r, *modifier_jets(r, base, n))[n]
    if isinstance(op, Exception):
        raise op
    return op


def solve_Q_many(degrees, r: RationalModifier, base: RecurrenceTable,
                 jets: list) -> dict:
    """solve_Q at each degree, from (base, jets) = modifier_jets(r, table, top)
    with top >= every degree: degree -> ModifiedOP, or the error that degree
    refuses with.

    Each lambda system is assembled and equilibrated on its own.  Those that
    pass the overflow check meet the condition gate in one stacked cond call
    and are solved in one stacked solve.  numpy's gufuncs run LAPACK once per
    matrix, so every degree gets the numbers of its own solve.
    """
    A, B = r.A, r.B
    try:
        _check_off_atoms(r, base.spec)
        on_atom = None
    except ModifiedError as exc:
        on_atom = exc
    out: dict = {}
    systems: dict = {}
    for n in degrees:
        if n < A + B + 1:
            out[n] = ModifiedError(f"need n >= A+B+1 = {A + B + 1}, got {n}")
        elif on_atom is not None:
            out[n] = on_atom
        elif r.is_trivial:
            q = PolyInBasis.basis_poly(base, n)
            out[n] = ModifiedOP(
                n=n, lam=np.array([1.0 + 0.0j]), rep=q, q=q,
                kappa_sq_inv=1.0 / base.tau[n] ** 2,
                beta=complex(base.b[n]), cond=1.0,
                alpha_sq=complex(base.a[n] ** 2))
        else:
            try:
                systems[n] = _equilibrated(n, r, base, jets)
            except _DEGREE_REFUSALS as exc:
                out[n] = exc
    if systems:
        rows = np.array([rows for rows, _ in systems.values()])
        rhs = np.array([rhs for _, rhs in systems.values()])
        conds = np.linalg.cond(rows)
        ok = np.isfinite(conds) & (conds <= COND_LIMIT)
        # the gate leaves no singular matrix for the solve
        lams = iter(np.linalg.solve(rows[ok], rhs[ok][..., None])[..., 0])
        for n, cond, good in zip(systems, conds.tolist(), ok.tolist()):
            if not good:
                out[n] = ModifiedError(
                    f"lambda system ill-conditioned (cond ~ {cond:.2e}) at n={n}", cond=cond)
                continue
            lam = np.concatenate([[1.0 + 0.0j], next(lams)])
            try:
                out[n] = _expand(n, lam, cond, r, base)
            except _DEGREE_REFUSALS as exc:
                out[n] = exc
    return {n: out[n] for n in degrees}


def recurrence_extract(op_prev: ModifiedOP, op_mid: ModifiedOP,
                       op_next: ModifiedOP) -> tuple[complex, complex, float]:
    """(alpha_n^2, beta_n, residual) from three consecutive solved degrees.

    alpha_n^2 = kappa_{n-1}^2/kappa_n^2; beta_n comes with op_mid.  The
    residual is the coefficient norm of Q_{n+1} - (x - beta_n) Q_n
    + alpha_n^2 Q_{n-1}, relative to the largest term.
    """
    if not (op_prev.n + 1 == op_mid.n and op_mid.n + 1 == op_next.n):
        raise ModifiedError("recurrence extraction needs consecutive degrees")
    alpha_sq = complex(op_mid.kappa_sq_inv / op_prev.kappa_sq_inv)
    beta = complex(op_mid.beta)
    xq = xmul(op_mid.q)
    resid_c = np.zeros(op_next.n + 1, dtype=complex)
    resid_c[: op_next.n + 1] += op_next.q.coeffs
    resid_c[: xq.degree + 1] -= xq.coeffs
    resid_c[: op_mid.n + 1] += beta * op_mid.q.coeffs
    resid_c[: op_prev.n + 1] += alpha_sq * op_prev.q.coeffs
    scale = max(float(np.max(np.abs(op_next.q.coeffs))),
                float(np.max(np.abs(xq.coeffs))))
    residual = float(np.max(np.abs(resid_c))) / scale
    op_mid.alpha_sq = alpha_sq
    return alpha_sq, beta, residual


def _alpha_chain(ops: list[ModifiedOP]) -> complex:
    """Product alpha_{n+1}..alpha_{n+nu} over consecutive solved degrees,
    each alpha the principal root of kappa_sq_inv ratios."""
    prod = 1.0 + 0.0j
    for lo, hi in zip(ops[:-1], ops[1:]):
        prod *= np.sqrt(hi.kappa_sq_inv / lo.kappa_sq_inv)
    return complex(prod)


def weak_limit_probe(f: PolyInBasis, nu: int, n: int, r: RationalModifier,
                     base: RecurrenceTable) -> tuple[complex, complex]:
    """lhs = integral f q_n q_{n+nu} r dmu against the orthonormalized pair;
    rhs = (1/pi) integral f T_nu / sqrt(1-x^2) dx by Gauss-Chebyshev, whose
    closed-form nodes are exact for its degree.

    f = sum f_j L_j acts on Q_n's monic coefficients as sum f_j L_j(J), one
    recurrence step on `xmul_coeffs` per degree of f.  Peeling f Q_n from
    the top over Q_m, m > n + nu, leaves c L_{n+nu} plus lower degrees, and
    by orthogonality integral f Q_n Q_{n+nu} r dmu = c / kappa_{n+nu}^2,
    exactly: no quadrature, no pole moments, nothing special for atoms.

    kappa_n kappa_{n+nu} is evaluated as kappa_n^2 / (alpha_{n+1}..alpha_{n+nu})
    with principal-root alphas, the recursive normalization choice; no global
    square-root chain is ever taken.
    """
    if nu < 0:
        raise ModifiedError("nu must be >= 0")
    top = n + max(nu, f.degree)
    built = solve_Q_many(range(n, top + 1), r, *modifier_jets(r, base, top))
    ops = list(built.values())
    for op in ops:
        if isinstance(op, Exception):
            raise op
    fc = f.to_basis(MONIC).coeffs
    a, b = f.table.a, f.table.b
    lo, cur = np.zeros(0, dtype=complex), ops[0].q.coeffs
    fq = np.zeros(top + 1, dtype=complex)          # f Q_n over the monic mu-basis
    fq[: n + 1] = fc[0] * cur
    for j in range(f.degree):                      # L_{j+1} Q_n from L_j Q_n, L_{j-1} Q_n
        nxt = xmul_coeffs(cur, base)
        nxt[:-1] -= b[j] * cur
        nxt[: len(lo)] -= a[j] ** 2 * lo
        lo, cur = cur, nxt
        fq[: len(cur)] += fc[j + 1] * cur
    for op in ops[:nu:-1]:                         # peel Q_top .. Q_{n+nu+1}
        fq[: op.n + 1] -= fq[op.n] * op.q.coeffs
    kk = (1.0 / ops[0].kappa_sq_inv) / _alpha_chain(ops[: nu + 1])
    lhs = complex(fq[n + nu] * ops[nu].kappa_sq_inv * kk)

    mc = f.degree + nu + 32
    theta = (2 * np.arange(1, mc + 1) - 1) * np.pi / (2 * mc)
    xc = np.cos(theta)
    rhs = complex(np.sum(f.values(xc) * np.cos(nu * theta)) / mc)
    return lhs, rhs
