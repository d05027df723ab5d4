"""The map phi(z) = z + sqrt(z^2 - 1) and the closed-form limit functions.

Branch: sqrt(z^2 - 1) is computed as sqrt(z-1)*sqrt(z+1) with principal
square roots, which is positive for z > 1 and continuous off the cut
[-1, 1]; then |phi| > 1 off the cut and phi(z) ~ 2z at infinity.
"""
from __future__ import annotations

import cmath

import numpy as np

from .reader import Refusal, number

__all__ = [
    "CutDomainError",
    "dist_to_cut",
    "point",
    "apart",
    "phi",
    "sqrt_z2m1",
    "limit_modified",
    "limit_sobolev",
    "kappa_tau_limit",
]

NEAR_CUT = 1e-12
NEAR_ATOM = 1e-10       # a target point this close to an atom sits on it
NEAR_POINT = 1e-12      # two points of one target this close are one point


class CutDomainError(Refusal):
    """Input on (or indistinguishably close to) the cut [-1, 1]."""


_SCALARS = (int, float, complex, np.number)


def dist_to_cut(z):
    """Euclidean distance from z to the segment [-1, 1]: a float for one
    number, without numpy's per-call cost (abs of a complex is libm's
    hypot, as np.hypot is, so the bits agree), an array for an array."""
    if isinstance(z, _SCALARS):
        z = complex(z)
        return abs(complex(max(abs(z.real) - 1.0, 0.0), z.imag))
    zz = np.asarray(z, dtype=complex)
    x, y = zz.real, zz.imag
    dx = np.maximum(np.abs(x) - 1.0, 0.0)
    return np.hypot(dx, y)


def point(value, what: str, error: type, margin: float = NEAR_CUT) -> complex:
    """value as a complex number (`reader.number`: never a bool or a
    string), finite, and farther than margin from [-1, 1].  Anything else
    raises error naming what."""
    z = number(value, what, error)
    if not cmath.isfinite(z):
        raise error(f"{what} {z} is not finite")
    if dist_to_cut(z) <= margin:
        raise error(f"{what} {z} lies on or near [-1, 1]")
    return z


def apart(points, others, why: str, error: type, tol: float = NEAR_POINT) -> None:
    """Raise error(why.format(p, q)) where a point p lies within tol of a
    point q of others, or, with others None, of another of points."""
    points = list(points)
    for i, p in enumerate(points):
        for q in points[i + 1:] if others is None else others:
            if abs(p - q) < tol:
                raise error(why.format(p, q))


def _off_cut(z):
    """z as a numpy complex scalar, or a complex array for an array of one
    or more dimensions; within NEAR_CUT of the cut it is a CutDomainError.
    The arithmetic stays numpy's for a scalar too, since cmath's sqrt
    differs from numpy's in the last bit on Re z = +-1 and on subnormal
    parts."""
    if isinstance(z, _SCALARS) or np.ndim(z) == 0:
        z = np.complex128(z)
        near = dist_to_cut(z) < NEAR_CUT
    else:
        z = np.asarray(z, dtype=complex)
        near = (dist_to_cut(z) < NEAR_CUT).any()
    if near:
        raise CutDomainError("point within 1e-12 of the cut [-1, 1]")
    return z


def sqrt_z2m1(z):
    """sqrt(z^2 - 1), positive for z > 1, continuous off the cut."""
    z = _off_cut(z)
    out = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    return complex(out) if out.ndim == 0 else out


def phi(z):
    """z + sqrt(z^2 - 1) on the correct branch; |phi| > 1 off the cut."""
    z = _off_cut(z)
    out = z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    return complex(out) if out.ndim == 0 else out


def limit_modified(z, r) -> complex:
    """Limit of Q_n/L_n for the modification r = S/T of the base measure.

    (1/2)^A * prod over poles (1 - 1/(phi(z) phi(d_j)))^{B_j}
            * prod over zeros ((phi(z) - phi(c_i)) / (z - c_i))^{A_i}.
    """
    pz = phi(z)
    out = 0.5 ** r.A + 0.0j
    for d, bj in r.poles:
        out *= (1.0 - 1.0 / (pz * phi(d))) ** bj
    for c, ai in r.zeros:
        if abs(z - c) < 1e-13 * max(1.0, abs(c)):
            # removable point z = c: the difference quotient tends to phi'(c)
            out *= (phi(c) / sqrt_z2m1(c)) ** ai
        else:
            out *= ((pz - phi(c)) / (z - c)) ** ai
    return complex(out)


def limit_sobolev(z, factors) -> complex:
    """Limit of S_n/L_n: product of ((phi(z)-phi(c))^2 / (2 phi(z)(z-c)))^e.

    factors is a list of (c_j, e_j); e_j is the attraction count of c_j,
    the rank of its coupling matrix gamma_j (N_j+1 in the Pade case).
    Empty list gives 1.
    """
    pz = phi(z)
    out = 1.0 + 0.0j
    for c, e in factors:
        if abs(z - c) < 1e-13 * max(1.0, abs(c)):
            return 0.0 + 0.0j   # the factor vanishes linearly at z = c
        out *= ((pz - phi(c)) ** 2 / (2.0 * pz * (z - c))) ** e
    return complex(out)


def kappa_tau_limit(r) -> complex:
    """Limit of kappa_n^2 / tau_n^2 for the modification r."""
    out = (-2.0 + 0.0j) ** (r.A - r.B)
    for d, bj in r.poles:
        out *= phi(d) ** bj
    for c, ai in r.zeros:
        out /= phi(c) ** ai
    return complex(out)
