"""Output checks made apart from the program.

Everything here uses the standard library and numpy only: the limits
come from the Joukowski map written out below, Legendre values from
numpy.polynomial.legendre, and orthogonality from a numpy Gauss-Legendre
rule.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial import legendre as npleg

# reported limits are double-precision evaluations of the same closed
# forms, so they agree with ours to a few ulps of |limit|
LIMIT_RTOL = 1e-10
# relative error of the top rung n at z = 3 must be below this over n.
# Every bundled law converges at least like 1/n: derivative rows
# (nu = 1) sit near 1/n and sobolev_point_derivative near 1.85/n, while
# the other nu = 0 rows are far below 1e-2 at n = 80
TOP_RUNG_RTOL_N = 4.0
# base_ratio against numpy's Legendre series (forward recurrence off the
# cut is stable, so both sides carry only rounding)
LEGENDRE_RTOL = 1e-9
# Legendre roots against numpy's Gauss-Legendre nodes
NODE_ATOL = 1e-12
# Gram matrix of an atom table against the identity
GRAM_ATOL = 1e-11
# roots closer than this to [-1, 1] count as support roots
SUPPORT_BAND = 0.05


def phi(z: complex) -> complex:
    """The root of w^2 - 2 z w + 1 = 0 with |w| > 1 (z off [-1, 1])."""
    s = cmath.sqrt(z * z - 1.0)
    w1, w2 = z + s, z - s
    return w1 if abs(w1) > abs(w2) else w2


def dist_to_segment(z: complex) -> float:
    """Distance from z to [-1, 1]."""
    return math.hypot(max(abs(z.real) - 1.0, 0.0), z.imag)


def _modification_limit(z: complex, zeros, poles) -> complex:
    pz = phi(z)
    out = complex(0.5 ** sum(m for _, m in zeros))
    for d, m in poles:
        out *= (1.0 - 1.0 / (pz * phi(d))) ** m
    for c, m in zeros:
        if z == c:
            # removable point: the difference quotient tends to phi'(c)
            pc = phi(c)
            out *= (pc / (pc - c)) ** m
        else:
            out *= ((pz - phi(c)) / (z - c)) ** m
    return out


def _attraction_limit(z: complex, centers) -> complex:
    pz = phi(z)
    out = 1.0 + 0.0j
    for c, count in centers:
        if z == c:
            return 0.0j
        out *= ((pz - phi(c)) ** 2 / (2.0 * pz * (z - c))) ** count
    return out


def law_limit(law: str, z: complex, target: dict) -> complex:
    """Closed-form n -> infinity limit of a ratio law at z.

    target is the benchmark's own description of the scenario:
    {"zeros": [(c, mult)], "poles": [(d, mult)], "centers": [(c, count)]}.
    """
    if law in ("base_ratio", "modified_ratio"):
        return phi(z) / 2.0
    if law in ("base_log_derivative", "modified_log_derivative"):
        return 1.0 / (phi(z) - z)
    if law == "modified_derivative_gap":
        return 1.0 / (z * z - 1.0)
    if law == "modified_vs_base":
        return _modification_limit(z, target["zeros"], target["poles"])
    if law in ("sobolev_vs_base", "pade_vs_base"):
        return _attraction_limit(z, target["centers"])
    raise ValueError(f"no closed form for law {law!r}")


def _ladders(report: dict):
    """{(z, nu): [(n, ratio, limit, abs_err)] sorted by n} from a JSON report."""
    cols = report["columns"]
    out: dict = {}
    for raw in report["rows"]:
        r = dict(zip(cols, raw))
        key = (complex(r["z_re"], r["z_im"]), r["nu"])
        out.setdefault(key, []).append((
            r["n"], complex(r["ratio_re"], r["ratio_im"]),
            complex(r["limit_re"], r["limit_im"]), r["abs_err"]))
    for rungs in out.values():
        rungs.sort(key=lambda t: t[0])
    return out


def check_ratio_report(law: str, report: dict, target: dict, probes, ladder,
                       jets: int, monotone: bool, top_z: complex | None) -> list:
    """Problems in one ratios_<law>.json report.

    Every row's limit is recomputed here and its error re-derived from
    the reported ratio.  With monotone set, errors must not increase
    along any ladder; otherwise only the top rung must beat the first.
    With top_z set, the top rung n there must be within TOP_RUNG_RTOL_N / n.
    """
    problems = []
    ladders = _ladders(report)
    want = {(complex(z), nu) for z in probes for nu in range(jets + 1)}
    if set(ladders) != want:
        return [f"{law}: ladders {sorted(map(str, ladders))} != {sorted(map(str, want))}"]
    for (z, nu), rungs in sorted(ladders.items(), key=lambda kv: str(kv[0])):
        where = f"{law} z={z} nu={nu}"
        if [n for n, *_ in rungs] != list(ladder):
            problems.append(f"{where}: rungs {[n for n, *_ in rungs]} != {list(ladder)}")
            continue
        lim = law_limit(law, z, target)
        slack = LIMIT_RTOL * max(abs(lim), 1.0)
        errs = []
        for n, ratio, limit, abs_err in rungs:
            if abs_err is None:
                problems.append(f"{where} n={n}: row flagged")
                break
            err = abs(ratio - lim)
            if abs(limit - lim) > slack:
                problems.append(f"{where} n={n}: limit {limit} != closed form {lim}")
            if abs(abs_err - err) > slack:
                problems.append(f"{where} n={n}: abs_err {abs_err} != |ratio - limit| {err}")
            errs.append(err)
        if len(errs) != len(rungs):
            continue
        if monotone:
            for (n, *_), e0, e1 in zip(rungs[1:], errs, errs[1:]):
                if e1 > e0 + slack:
                    problems.append(f"{where} n={n}: error rose {e0:.3e} -> {e1:.3e}")
        elif not errs[-1] < errs[0]:
            problems.append(f"{where}: top-rung error {errs[-1]:.3e} "
                            f"not below first-rung {errs[0]:.3e}")
        bound = TOP_RUNG_RTOL_N / ladder[-1]
        if top_z is not None and z == top_z and errs[-1] > bound * abs(lim):
            problems.append(f"{where}: top-rung relative error "
                            f"{errs[-1] / abs(lim):.3e} >= {bound:.3g}")
    return problems


def legendre_ratio(n: int, z: complex, nu: int) -> complex:
    """L_{n+1}^(nu)(z) / L_n^(nu)(z) for monic Legendre L_n, via numpy.

    P_n has leading coefficient (2n)!/(2^n n!^2), so the monic ratio is
    the P ratio times (n+1)/(2n+1).
    """
    top = npleg.Legendre.basis(n + 1).deriv(nu)(z)
    bot = npleg.Legendre.basis(n).deriv(nu)(z)
    return complex(top / bot) * (n + 1) / (2 * n + 1)


def check_legendre_base_ratio(report: dict) -> list:
    """Problems in base_ratio rows of the plain Legendre weight."""
    problems = []
    for (z, nu), rungs in _ladders(report).items():
        for n, ratio, _, _ in rungs:
            ref = legendre_ratio(n, z, nu)
            if abs(ratio - ref) > LEGENDRE_RTOL * abs(ref):
                problems.append(f"base_ratio z={z} nu={nu} n={n}: "
                                f"{ratio} != numpy Legendre {ref}")
    return problems


def count_roots(roots, centers) -> tuple[list, int, list]:
    """(per-center counts, support count, strays) with our own disks.

    A center's disk has radius a tenth of its distance to [-1, 1]; the
    support band is SUPPORT_BAND wide.
    """
    counts = [0] * len(centers)
    support, strays = 0, []
    for r in roots:
        for i, c in enumerate(centers):
            if abs(r - c) <= 0.1 * dist_to_segment(c):
                counts[i] += 1
                break
        else:
            if dist_to_segment(r) <= SUPPORT_BAND:
                support += 1
            else:
                strays.append(r)
    return counts, support, strays


def check_zero_report(rep: dict, degree: int, centers, counts) -> list:
    """Problems in one degree's zero report against the paper's counts."""
    roots = [complex(*r) for r in rep["roots"]]
    if len(roots) != degree:
        return [f"{len(roots)} roots at degree {degree}"]
    problems = []
    got = [complex(*c) for c in rep["centers"]]
    if got != [complex(c) for c in centers]:
        problems.append(f"centers {got} != {list(centers)}")
    if list(rep["cluster_counts"]) != list(counts):
        problems.append(f"cluster counts {rep['cluster_counts']} != {list(counts)}")
    if rep["support_count"] != degree - sum(counts):
        problems.append(f"support count {rep['support_count']} != "
                        f"{degree} - {sum(counts)}")
    if rep["unassigned"]:
        problems.append(f"{len(rep['unassigned'])} stray roots")
    own, support, strays = count_roots(roots, [complex(c) for c in centers])
    if own != list(counts) or support != degree - sum(counts) or strays:
        problems.append(f"recount gives centers {own}, support {support}, "
                        f"{len(strays)} strays")
    return problems


def check_legendre_roots(rep: dict, degree: int) -> list:
    """Roots of the degree-n Legendre polynomial against numpy's nodes."""
    roots = sorted((complex(*r) for r in rep["roots"]), key=lambda z: z.real)
    nodes, _ = npleg.leggauss(degree)
    if len(roots) != degree:
        return [f"{len(roots)} Legendre roots at degree {degree}"]
    worst = max(abs(r - x) for r, x in zip(roots, np.sort(nodes)))
    if worst > NODE_ATOL:
        return [f"Legendre roots differ from leggauss nodes by {worst:.3e}"]
    return []


def check_one_root_near(rep: dict, loc: float) -> list:
    """Exactly one root within a disk around a point off [-1, 1]."""
    radius = min(0.1, dist_to_segment(complex(loc)) / 3.0)
    near = [r for r in rep["roots"] if abs(complex(*r) - loc) <= radius]
    if len(near) != 1:
        return [f"{len(near)} roots within {radius:.3g} of the atom at {loc}"]
    return []


def _atom_values(a, b, tau0: float, loc: float, deg: int) -> np.ndarray:
    """Orthonormal values l_0..l_deg at an atom by backward recurrence.

    At a mass point the values are the minimal solution of the
    recurrence, so they are run backward from the top of the table and
    normalized through l_0 = tau_0.  a[k] is the k-th off-diagonal
    (a[0] unused), b[k] the k-th diagonal.
    """
    top = len(b) - 1
    v = np.zeros(top + 1)
    v[top - 1] = 1.0
    for k in range(top - 1, 0, -1):
        v[k - 1] = ((loc - b[k]) * v[k] - a[k + 1] * v[k + 1]) / a[k]
        if abs(v[k - 1]) > 1e200:
            v[k - 1:] *= 1e-200
    return v[: deg + 1] * (tau0 / v[0])


def check_atom_table(table: dict, loc: float, mass: float, deg: int) -> list:
    """Orthonormality of an atom table's polynomials through degree deg.

    The measure is dx on [-1, 1] plus mass at loc: the continuous part is
    integrated by a numpy Gauss-Legendre rule exact to degree 2 deg, the
    atom exactly.  Needs a table some 40 rungs deeper than deg.
    """
    a = np.concatenate([[0.0], np.asarray(table["a"], dtype=float)])
    b = np.asarray(table["b"], dtype=float)
    tau0 = float(table["tau"][0])
    if len(b) < deg + 41:
        return [f"table nmax {len(b) - 1} too short to check degree {deg}"]
    x, w = npleg.leggauss(deg + 1)
    vals = np.zeros((deg + 1, len(x)))
    vals[0] = tau0
    vals[1] = (x - b[0]) * vals[0] / a[1]
    for k in range(1, deg):
        vals[k + 1] = ((x - b[k]) * vals[k] - a[k] * vals[k - 1]) / a[k + 1]
    at = _atom_values(a, b, tau0, loc, deg)
    gram = (vals * w) @ vals.T + mass * np.outer(at, at)
    worst = float(np.max(np.abs(gram - np.eye(deg + 1))))
    if not worst <= GRAM_ATOL:
        return [f"atom table Gram matrix off the identity by {worst:.3e}"]
    return []
