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
from .measures import (BaseMeasureSpec, QuadratureRule, RecurrenceTable,
                       gauss_rule, minimal_solution, recurrence_for)
from .polybasis import MONIC, PolyInBasis, basis_jets, divide_out_zeros, xmul

__all__ = [
    "RationalModifier",
    "ModifiedOP",
    "ModifiedError",
    "solve_Q",
    "recurrence_extract",
    "weak_limit_probe",
    "inner_rho",
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


def modifier_jets(r: RationalModifier, base: RecurrenceTable,
                  top: int) -> tuple[RecurrenceTable, list]:
    """The table solve_Q needs through degree top, and on it the monic jets
    at each modifier zero through degree top + A, then at each pole through
    degree top - B, to the order its multiplicity needs.

    One forward sweep per point serves every degree n <= top: a value at
    degree k does not depend on how far the sweep runs.
    """
    A, B = r.A, r.B
    base = _ensure_table(base, top + A + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        jets = [basis_jets(base, max(top + A, 0), c, order=mult - 1) for c, mult in r.zeros]
        jets += [basis_jets(base, max(top - B, 0), d, order=mult - 1) for d, mult in r.poles]
    return base, jets


def _lambda_system(n: int, r: RationalModifier, base: RecurrenceTable,
                   jets: list) -> tuple[np.ndarray, np.ndarray]:
    """Rows: divisibility jets at each zero, then pole moments against
    L_{n-B}; unknowns lambda_1..lambda_{A+B}; the lambda_0 = 1 column moves
    to the rhs.  Pole rows carry a common factor 1/q_{n-B}(d) per pole, which
    the row scaling in `_solve_lambda` removes.  jets as from modifier_jets."""
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


def _solve_lambda(n, r, base, jets):
    with np.errstate(over="ignore", invalid="ignore"):
        rows, rhs = _lambda_system(n, r, base, jets)
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
        raise ModifiedError(f"lambda system overflows the double range at n={n}",
                            kind="overflow")
    scale = np.maximum(np.abs(rows).max(axis=1), np.abs(rhs))
    scale[scale == 0.0] = 1.0
    rows = rows / scale[:, None]
    rhs = rhs / scale
    cond = float(np.linalg.cond(rows))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ModifiedError(
            f"lambda system ill-conditioned (cond ~ {cond:.2e}) at n={n}", cond=cond)
    lam = np.concatenate([[1.0 + 0.0j], np.linalg.solve(rows, rhs)])
    return lam, cond


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


def solve_Q(n: int, r: RationalModifier, base: RecurrenceTable) -> ModifiedOP:
    """Monic Q_n orthogonal to lower degrees under the bilinear form of r d(mu).

    The lambda system couples divisibility (jets at modifier zeros) with the
    pole moments, both exact recurrence quantities, and is solved once.
    kappa_sq_inv (lambda_{A+B}/tau_{n-B}^2) and beta come from the expansion
    itself, and Q_n from R_n by exact division by S; no quadrature.
    """
    return solve_Q_jets(n, r, *modifier_jets(r, base, n))


def solve_Q_jets(n: int, r: RationalModifier, base: RecurrenceTable,
                 jets: list) -> ModifiedOP:
    """solve_Q from (base, jets) = modifier_jets(r, table, top), any top >= n."""
    A, B = r.A, r.B
    if n < A + B + 1:
        raise ModifiedError(f"need n >= A+B+1 = {A + B + 1}, got {n}")
    _check_off_atoms(r, base.spec)

    if r.is_trivial:
        q = PolyInBasis.basis_poly(base, n)
        return ModifiedOP(
            n=n, lam=np.array([1.0 + 0.0j]), rep=q, q=q,
            kappa_sq_inv=1.0 / base.tau[n] ** 2,
            beta=complex(base.b[n]), cond=1.0,
            alpha_sq=complex(base.a[n] ** 2))

    lam, cond = _solve_lambda(n, r, base, jets)
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


def inner_rho(p: PolyInBasis, q: PolyInBasis, r: RationalModifier,
              rule: QuadratureRule) -> complex:
    """Bilinear integral of p*q*r against mu (no conjugation)."""
    pts = rule.all_points()
    w = rule.all_weights()
    return complex(np.sum(w * p.values_on_rule(rule) * q.values_on_rule(rule)
                          * r.values(pts)))


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
    rhs = (1/pi) integral f T_nu / sqrt(1-x^2) dx by Gauss-Chebyshev.

    kappa_n kappa_{n+nu} is evaluated as kappa_n^2 / (alpha_{n+1}..alpha_{n+nu})
    with principal-root alphas, the recursive normalization choice; no global
    square-root chain is ever taken.
    """
    if nu < 0:
        raise ModifiedError("nu must be >= 0")
    base = _ensure_table(base, n + nu + r.A + 1)
    ops = [solve_Q(k, r, base) for k in range(n, n + nu + 1)]
    m = n + nu + r.A + r.B + 60 + f.degree
    big = gauss_rule(base, m)
    s = inner_rho(f_times(f, ops[0].q), ops[-1].q, r, big)
    kk = (1.0 / ops[0].kappa_sq_inv) / _alpha_chain(ops) if nu > 0 else 1.0 / ops[0].kappa_sq_inv
    lhs = complex(s * kk)

    mc = f.degree + nu + 32
    theta = (2 * np.arange(1, mc + 1) - 1) * np.pi / (2 * mc)
    xc = np.cos(theta)
    rhs = complex(np.sum(f.values(xc) * np.cos(nu * theta)) / mc)
    return lhs, rhs


def f_times(f: PolyInBasis, g: PolyInBasis) -> PolyInBasis:
    """Product f*g, Horner in x over the basis (f of small degree)."""
    fm = f.to_basis(MONIC)
    gm = g.to_basis(MONIC)
    mono = monomial_to_coeffs(fm)
    acc = PolyInBasis(MONIC, gm.coeffs * mono[fm.degree], gm.degree, gm.table)
    for k in range(fm.degree - 1, -1, -1):
        acc = xmul(acc)
        cc = acc.coeffs.copy()
        cc[: gm.degree + 1] += mono[k] * gm.coeffs
        acc = PolyInBasis(MONIC, cc, acc.degree, gm.table)
    return acc.to_basis(g.basis)


def monomial_to_coeffs(p: PolyInBasis) -> np.ndarray:
    """Monomial coefficients of a low-degree polynomial given over the mu-basis."""
    pm = p.to_basis(MONIC)
    deg = pm.degree
    table = pm.table
    # Build the change-of-basis triangle L_k -> monomials by the recurrence.
    tri = np.zeros((deg + 1, deg + 1), dtype=complex)
    tri[0, 0] = 1.0
    if deg >= 1:
        tri[1, 1] = 1.0
        tri[1, 0] = -table.b[0]
    for k in range(1, deg):
        prev = tri[k - 1]
        cur = tri[k]
        nxt = np.zeros(deg + 1, dtype=complex)
        nxt[1:] += cur[:-1]
        nxt -= table.b[k] * cur
        nxt -= table.a[k] ** 2 * prev
        tri[k + 1] = nxt
    return pm.coeffs @ tri
