"""Closed forms of the Joukowski map for the tests: the Chebyshev Cauchy
transform and the identity behind the modification and Sobolev limits."""
from __future__ import annotations

from relasym.joukowski import phi, sqrt_z2m1


def cheb_transform(nu: int, z) -> complex:
    """Normalized Cauchy transform of the first-kind Chebyshev polynomial.

    Closed form of (1/pi) * Integral of t_nu(x) / ((z-x) sqrt(1-x^2)) dx,
    namely 1/(phi(z)^nu * sqrt(z^2 - 1)); t_0 = 1, t_1(x) = x and
    t_{nu+1} = 2x t_nu - t_{nu-1}.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return phi(z) ** (-nu) / sqrt_z2m1(z)


def factor_identity_check(z, c) -> float:
    """|((phi(z)-phi(c))/(2(z-c))) * (1 - 1/(phi(z)phi(c))) - 1|.

    Exactly zero in exact arithmetic; a branch-consistency probe.
    """
    pz, pc = phi(z), phi(c)
    lhs = (pz - pc) / (2.0 * (z - c)) * (1.0 - 1.0 / (pz * pc))
    return abs(lhs - 1.0)
