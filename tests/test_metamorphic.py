"""Relations that need no oracle, on seeded random specs.

Conjugation: on a real measure with real couplings, moving every coupling
point c to conj(c) and every probe z to conj(z) conjugates the Sobolev
ratio S_n(z) / L_n(z) exactly, bit for bit, and refuses the same degrees
with the same kind: every step of the double lane is a field operation
or a modulus, and IEEE arithmetic commutes with conjugation in both.
The roots of S_n, polish included, come out as the exact conjugates of
the roots at c for the same reason.
"""
import random

import numpy as np
import pytest

from relasym import BaseMeasureSpec, SobolevSpec, basis_jets, recurrence_for, roots, sn_kernel
from relasym.joukowski import dist_to_cut
from relasym.sobolev import SobolevTerm, sn_kernel_many
from relasym.zeros import SUPPORT_BAND

LADDER = (4, 10, 20, 40, 80, 160, 320, 500)
PROBES = (3.0, -2.5, 1.5 + 1.5j, 0.4 + 0.7j)
SEEDS = range(12)


def _gamma(rng: random.Random, kind: str) -> np.ndarray:
    """A real coupling matrix: generic up to 3 x 3, two near-parallel
    columns, or wider than tall."""
    if kind == "near_parallel":
        col = [rng.uniform(0.5, 2.0) for _ in range(rng.randint(2, 3))]
        eps = 10.0 ** -rng.randint(3, 11)
        return np.array([col, [v * (1 + eps * rng.uniform(-1.0, 1.0)) + eps for v in col]]).T
    rows = rng.randint(1, 2) if kind == "wide" else rng.randint(1, 3)
    cols = 3 if kind == "wide" else rng.randint(1, 3)
    g = np.array([[rng.choice((0.0, rng.uniform(-2.0, 2.0))) for _ in range(cols)]
                  for _ in range(rows)])
    g[-1, -1] = rng.uniform(0.5, 2.0)    # a nonzero top derivative row
    return g


def _case(seed: int) -> tuple:
    """Jacobi plus up to two atoms, and one or two coupling points: the
    first complex on odd seeds, real on even ones."""
    rng = random.Random(seed)
    atoms = tuple((rng.choice((-1, 1)) * rng.uniform(1.3, 3.0), rng.uniform(0.1, 1.0))
                  for _ in range(rng.randint(0, 2)))
    measure = BaseMeasureSpec("jacobi", rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5), atoms)
    points = [complex(rng.uniform(-1.5, 1.5), rng.choice((-1, 1)) * rng.uniform(0.4, 1.2))
              if seed % 2 else complex(rng.choice((-1, 1)) * rng.uniform(1.3, 3.0))]
    if rng.random() < 0.5:
        points.append(complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.2)))
    kinds = ("generic", "near_parallel", "wide")
    terms = tuple(SobolevTerm(c, _gamma(rng, kinds[(seed + j) % 3])) for j, c in enumerate(points))
    return measure, terms


def _ratios(spec: SobolevSpec, table, probes) -> dict:
    """degree -> S_n(z) / L_n(z) at the probes, or the refusal's (type, kind)."""
    monic = basis_jets(table, LADDER[-1], np.array(probes))[0]
    out = {}
    for n, s in sn_kernel_many(LADDER, spec, table).items():
        out[n] = ((type(s), s.kind) if isinstance(s, Exception)
                  else s.coeffs @ monic[: n + 1] / monic[n])
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugation_conjugates_the_ratio_exactly(seed):
    measure, terms = _case(seed)
    table = recurrence_for(measure, LADDER[-1])
    given = _ratios(SobolevSpec(terms), table, PROBES)
    mirrored = _ratios(SobolevSpec(tuple(SobolevTerm(t.c.conjugate(), t.gamma) for t in terms)),
                       table, tuple(np.conj(PROBES)))
    assert any(isinstance(r, np.ndarray) for r in given.values()), given
    for n in LADDER:
        if isinstance(given[n], tuple):
            assert mirrored[n] == given[n], (seed, n)
        else:
            np.testing.assert_array_equal(mirrored[n], np.conj(given[n]), err_msg=f"n = {n}")


@pytest.mark.parametrize("measure", [BaseMeasureSpec("legendre"),
                                     BaseMeasureSpec("jacobi", 0.5, -0.5, ((1.8, 0.3),))],
                         ids=["legendre", "jacobi_atom"])
@pytest.mark.parametrize("c, gamma", [(2j, np.eye(2)), (1.5 + 0.5j, np.eye(3)),
                                      (0.3 + 1.2j, np.array([[1.0, 0.5], [0.5, 2.0]])),
                                      (-2.0 + 1j, np.diag([0.0, 1.0]))],
                         ids=["diag11", "I3", "full", "diag01"])
@pytest.mark.parametrize("n", [60, 180])
def test_conjugation_conjugates_the_roots_exactly(measure, c, gamma, n):
    # the secular solve, the extended precision polish of the roots c
    # attracts (clusters included) and the residual gate, bit for bit
    table = recurrence_for(measure, n + 2)
    given, mirrored = (np.array(roots(sn_kernel(n, SobolevSpec((SobolevTerm(w, gamma),)), table)))
                       for w in (c, np.conj(c)))
    assert np.any(dist_to_cut(given) > SUPPORT_BAND)
    np.testing.assert_array_equal(np.sort_complex(mirrored), np.sort_complex(np.conj(given)))
