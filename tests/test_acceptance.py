"""End-to-end acceptance gates, one test per criterion.

Each test carries its runtime budget and the numeric tolerance it
asserts; the pytest -v line for each test is the pass/fail record.
Expected values and attainability notes were measured against the
independent oracles in _mp_oracles.py before being frozen here.
"""
from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from relasym import (
    BaseMeasureSpec,
    PolyInBasis,
    RationalModifier,
    SobolevSpec,
    StieltjesFn,
    error_ratio,
    gamma_sequence,
    kappa_tau_limit,
    modified_table,
    phi,
    recurrence_for,
    sn_kernel,
    sn_lambda,
    solve_Q,
    to_sobolev_spec,
    weak_limit_probe,
)
from relasym.measures import rule_for
from relasym.polybasis import basis_jets
from relasym.scenarios import SCENARIOS, scenario
from relasym.verify import monotone_violations, run_ratio_ladder, run_zero_attraction

from _closed_forms import cheb_transform, factor_identity_check
from _mp_oracles import (
    compare_monomial,
    lambda_monic,
    monomial_coeffs,
    oracle_base_monic,
    oracle_modified_monic,
    oracle_sobolev_monic,
    orthogonality_residuals_extended,
)

CHEB = BaseMeasureSpec("chebyshev_first_kind")
CHEB_ATOM = BaseMeasureSpec("chebyshev_first_kind", mass_points=((2.0, 0.5),))
LEG = BaseMeasureSpec("legendre")
MEASURES = {"chebyshev": CHEB, "chebyshev_atom": CHEB_ATOM, "legendre": LEG}


class _budget:
    """Assert the block stays under its wall-clock budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s over the {self.limit}s budget")


def exact_moments(spec: BaseMeasureSpec, count: int) -> np.ndarray:
    """Closed-form monomial moments, independent of the recurrence tables."""
    m = np.zeros(count)
    if spec.weight_kind == "chebyshev_first_kind":
        m[0] = np.pi
        for s in range(2, count, 2):
            m[s] = m[s - 2] * (s - 1) / s
    elif spec.weight_kind == "legendre":
        for s in range(0, count, 2):
            m[s] = 2.0 / (s + 1)
    else:
        raise NotImplementedError(spec.weight_kind)
    for loc, mass in spec.mass_points:
        m += mass * loc ** np.arange(count)
    return m


def test_criterion_01_cheb_transform_closed_form_vs_quadrature():
    with _budget(1.0):
        worst = 0.0
        for z in (2.0, 1.5, 2j, -3.0):
            zc = complex(z)
            for nu in range(11):
                re, _ = quad(lambda t: (np.cos(nu * t) / (zc - np.cos(t))).real,
                             0.0, np.pi, limit=200)
                im, _ = quad(lambda t: (np.cos(nu * t) / (zc - np.cos(t))).imag,
                             0.0, np.pi, limit=200)
                ref = complex(re, im) / np.pi
                worst = max(worst, abs(cheb_transform(nu, zc) - ref))
        assert worst < 1e-10, f"worst closed-form vs quadrature gap {worst:.2e}"


def test_criterion_02_branch_and_factor_identities_on_grid():
    with _budget(1.0):
        re = np.linspace(-3.0, 3.0, 10)
        im = np.linspace(0.2, 2.0, 10)
        grid = (re[:, None] + 1j * im[None, :]).ravel()
        assert grid.size == 100
        worst_phi = max(abs(phi(z) + 1.0 / phi(z) - 2.0 * z) for z in grid)
        worst_fac = max(max(factor_identity_check(z, 2.0),
                            factor_identity_check(z, 2j)) for z in grid)
        assert worst_phi < 1e-10, f"phi + 1/phi - 2z residual {worst_phi:.2e}"
        assert worst_fac < 1e-10, f"factor identity residual {worst_fac:.2e}"


def test_criterion_03_orthogonality_residuals():
    with _budget(30.0):
        # L_n, n <= 40, all bundled measures: moment-space cancellation
        for name, spec in MEASURES.items():
            table = recurrence_for(spec, 41)
            mom = exact_moments(spec, 81)
            worst = 0.0
            for n in range(1, 41):
                mono = monomial_coeffs(PolyInBasis.basis_poly(table, n))
                for k in range(n):
                    terms = mono * mom[k: k + n + 1]
                    den = float(np.abs(terms).sum())
                    if den > 0.0:
                        worst = max(worst, abs(terms.sum()) / den)
            assert worst < 1e-9, f"L_n residual {worst:.2e} on {name}"

        # Q_n, n <= 80, the three pinned modifiers (legendre base)
        tab = recurrence_for(LEG, 85)
        mods = (RationalModifier(zeros=((3.0 + 0j, 1),)),
                RationalModifier(zeros=((2j, 1),)),
                RationalModifier(zeros=((2j, 1),), poles=((3j, 1),)))
        for r in mods:
            worst = 0.0
            for n in range(5, 81, 5):
                rule = rule_for(LEG, n + 60)
                pts, w = rule.all_points(), rule.all_weights()
                qv = solve_Q(n, r, tab).values(pts)
                V = basis_jets(tab, n - 1, pts)[0] * tab.tau[:n, None]   # l_m = tau_m L_m
                terms = V * (w * r.values(pts) * qv)
                worst = max(worst, float(np.max(
                    np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1))))
            assert worst < 1e-9, f"Q_n residual {worst:.2e} for {r}"

        # S_n, n <= 80, both bundled coupling specs (extended checker)
        for sob in (SobolevSpec.diagonal([(2.0, [0.0, 1.0])]),
                    SobolevSpec.diagonal([(2.0, [1.0, 1.0])])):
            for n in (40, 80):
                res = orthogonality_residuals_extended(n, sob, tab)
                assert np.max(res) < 1e-9, f"S_n residual {np.max(res):.2e} at n={n}"

        # Pade Q_n, n <= 60: the pole pairing is the Sobolev form that
        # to_sobolev_spec writes down, so the same extended checker reads it
        deep = recurrence_for(LEG, 125)
        pade_form = to_sobolev_spec(StieltjesFn(LEG, ((2j, (0.0, 1.0)),)))
        for n in (10, 20, 40, 60):
            res = orthogonality_residuals_extended(n, pade_form, deep)
            assert np.max(res) < 1e-9, f"pade residual {np.max(res):.2e} at n={n}"


def test_criterion_04_cross_method_equality():
    with _budget(30.0):
        tab = recurrence_for(LEG, 45)
        # both kernel lanes vs the lambda expansion (test oracle) on the
        # positive-diagonal overlap
        for sob in (SobolevSpec.diagonal([(2.0, [0.0, 1.0])]),
                    SobolevSpec.diagonal([(2.0, [1.0, 1.0])])):
            for n in (10, 20, 40):
                l = lambda_monic(n, sob, tab)
                scale = max(1.0, float(np.max(np.abs(l))))
                for build in (sn_kernel, sn_lambda):
                    k = build(n, sob, tab)
                    diff = float(np.max(np.abs(k.coeffs - l)))
                    assert diff / scale < 1e-8, f"kernel vs lambda {diff:.2e} at n={n}"

        # polar-part pairing vs its coupling-matrix image
        f = StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0 + 0j, (2.0,))))
        spec = to_sobolev_spec(f)
        for c, A in f.poles:
            term = next(t for t in spec.terms if abs(t.c - c) < 1e-14)
            N = len(A) - 1
            for i in range(N + 1):
                for k in range(N + 1):
                    want = A[k + i] * math.comb(k + i, i) if k + i <= N else 0.0
                    assert term.gamma[i, k] == pytest.approx(want, abs=0.0)
        from relasym import pade_denominator
        for n in (13, 20, 40):
            q1 = pade_denominator(n, f, tab)
            q2 = lambda_monic(n, spec, tab)
            diff = float(np.max(np.abs(q1.coeffs - q2)))
            scale = max(1.0, float(np.max(np.abs(q2))))
            assert diff / scale < 1e-10, f"denominator mismatch {diff:.2e} at n={n}"


def test_criterion_05_oracle_equality_gram_schmidt():
    with _budget(60.0):
        r_lin = RationalModifier(zeros=((-3.0 + 0j, 1),))
        r_rat = RationalModifier(zeros=((2j, 1),), poles=((3j, 1),))
        for name, spec in MEASURES.items():
            # couple away from any point mass: the bordered kernel system is
            # out of numerical reach when the coupling point IS an atom
            c_sob = -2.0 if spec.mass_points else 2.0
            sob = SobolevSpec.diagonal([(c_sob, [1.0, 1.0])])
            table = recurrence_for(spec, 20)
            gaps = {
                "base": compare_monomial(
                    PolyInBasis.basis_poly(table, 15),
                    oracle_base_monic(spec, 15), 0),
                "modified_linear": compare_monomial(
                    solve_Q(15, r_lin, table),
                    oracle_modified_monic(spec, r_lin, 15), 0),
                "modified_rational": compare_monomial(
                    solve_Q(15, r_rat, table),
                    oracle_modified_monic(spec, r_rat, 15), 0),
                "sobolev": compare_monomial(
                    sn_kernel(15, sob, table),
                    oracle_sobolev_monic(spec, sob, 15), 0),
            }
            for path, gap in gaps.items():
                assert gap < 1e-8, f"{path} vs oracle gap {gap:.2e} on {name}"


# (law, scenario, nu) triples whose n=80 error is structurally free of
# the universal 1/n normalization offsets; every law is covered at nu=0
_FINAL_ERROR_INSTANCES = [
    ("base_ratio", "base_legendre", 0),
    ("base_log_derivative", "base_legendre", 0),
    ("modified_vs_base", "modified_linear_real", 0),
    ("modified_vs_base", "modified_linear_complex", 0),
    ("modified_vs_base", "modified_rational", 0),
    ("modified_vs_base", "modified_linear_complex", 1),
    ("modified_ratio", "modified_linear_complex", 0),
    ("modified_log_derivative", "modified_linear_complex", 0),
    ("modified_derivative_gap", "modified_linear_complex", 0),
    ("sobolev_vs_base", "sobolev_point_pair", 0),
    ("sobolev_vs_base", "sobolev_point_derivative", 1),
    ("pade_vs_base", "pade_gonchar", 0),
]


def test_criterion_06_ratio_ladders_decrease_and_converge():
    with _budget(120.0):
        all_rows = {}
        for name in SCENARIOS:
            rows = run_ratio_ladder(scenario(name))
            bad = monotone_violations(rows)
            assert not bad, f"{name}: ladder increases at {bad[:4]}"
            all_rows[name] = rows
        for law, sc, nu in _FINAL_ERROR_INSTANCES:
            row = next(r for r in all_rows[sc]
                       if r.law == law and r.n == 80 and r.nu == nu
                       and r.z == 3.0 + 0.0j)
            rel = row.abs_err / abs(row.limit)
            assert rel < 1e-2, f"{law}/{sc}/nu={nu}: rel err {rel:.2e} at n=80"


def test_criterion_07_recurrence_coefficient_limits():
    with _budget(30.0):
        for name in ("modified_linear_complex", "modified_rational"):
            cfg = scenario(name)
            table = recurrence_for(cfg.measure, 83)
            mod = modified_table(cfg.target, table, 80)
            alpha_sq, beta = mod.asq[80], mod.b[80]
            assert abs(alpha_sq - 0.25) < 0.05, f"{name}: alpha^2 off by {abs(alpha_sq - 0.25):.2e}"
            assert abs(beta) < 0.05, f"{name}: beta {abs(beta):.2e}"
            # the table's numbers are those of Q_79..Q_81, each orthogonal
            # to lower degrees on the Gauss-rule oracle, as in criterion 3
            for n in (79, 80, 81):
                rule = rule_for(cfg.measure, n + 60)
                pts, w = rule.all_points(), rule.all_weights()
                V = basis_jets(table, n - 1, pts)[0] * table.tau[:n, None]
                qv = solve_Q(n, cfg.target, table).values(pts)
                terms = V * (w * cfg.target.values(pts) * qv)
                resid = float(np.max(np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)))
                assert resid < 1e-9, f"{name}: Q_{n} residual {resid:.2e}"
            lim = kappa_tau_limit(cfg.target)
            kap_sq = 1.0 / mod.kappa_sq_inv(80)
            dev = abs(kap_sq / table.tau[80] ** 2 - lim) / abs(lim)
            assert dev < 0.1, f"{name}: kappa^2/tau^2 deviation {dev:.2e}"


def test_criterion_08_zero_attraction_counts():
    with _budget(30.0):
        # the default disk radius at c = 2 is 0.1, and the support band 0.05
        rep = run_zero_attraction(
            dataclasses.replace(scenario("sobolev_point_derivative"), zero_degrees=(60,)))[60]
        assert (rep.radius, rep.support_band) == (0.1, 0.05)
        assert list(rep.cluster_counts) == [1], f"counts {rep.cluster_counts}"
        assert rep.support_count == 59, f"support {rep.support_count}"
        assert not rep.unassigned, f"stray zeros {rep.unassigned}"

        rep = run_zero_attraction(
            dataclasses.replace(scenario("pade_gonchar"), zero_degrees=(60,)))[60]
        assert list(rep.cluster_counts) == [2], f"counts {rep.cluster_counts}"
        assert rep.support_count == 58, f"support {rep.support_count}"
        assert not rep.unassigned, f"stray zeros {rep.unassigned}"


def test_criterion_09_pade_error_ratio_rate():
    with _budget(30.0):
        f = StieltjesFn(CHEB, ((2j, (0.0, 1.0)),))
        tab = recurrence_for(CHEB, 45)
        lim = 1.0 / phi(3.0) ** 2
        d30 = abs(error_ratio(30, 3.0, f, tab) - lim)
        d40 = abs(error_ratio(40, 3.0, f, tab) - lim)
        assert d30 < 0.1, f"ratio off the geometric rate by {d30:.2e} at n=30"
        # both land on the double-rounding floor of the returned ratio
        # (6.94e-18, dps-invariant), so "closer" admits equality
        assert d40 <= d30, f"no improvement: {d40:.2e} vs {d30:.2e}"


def test_criterion_10_weak_limit_against_chebyshev_average():
    with _budget(30.0):
        table = recurrence_for(LEG, 70)
        r = RationalModifier(zeros=((2j, 1),))
        worst = 0.0
        for fdeg in (0, 1, 2):
            c = np.zeros(fdeg + 1, dtype=complex)
            c[fdeg] = 1.0
            fpoly = PolyInBasis(c, table)
            for nu in (0, 1, 2):
                lhs, rhs = weak_limit_probe(fpoly, nu, 60, r, table)
                worst = max(worst, abs(lhs - rhs))
        assert worst < 0.05, f"weak limit gap {worst:.2e}"


def test_criterion_11_normalization_limits():
    with _budget(30.0):
        table = recurrence_for(LEG, 83)
        sob = SobolevSpec.diagonal([(2.0, [1.0, 1.0])])
        lim = phi(2.0) ** (-2.0)           # one point, I = 2
        gs = gamma_sequence(sob, table, (10, 20, 40, 80, 81))
        errs = [abs(gs[n] / table.tau[n] - lim) for n in (10, 20, 40, 80)]
        assert all(b < a for a, b in zip(errs, errs[1:])), f"not decreasing: {errs}"
        ratio_gap = abs(gs[81] / gs[80] - 2.0)
        assert ratio_gap < 0.05, f"gamma ratio gap {ratio_gap:.2e}"


def test_criterion_12_cli_determinism(tmp_path: Path):
    with _budget(10.0):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            r = subprocess.run(
                [sys.executable, "-m", "relasym.cli", "verify",
                 "--config", "modified_rational", "--out", str(out)],
                capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        assert files, "no reports written"
        for name in files:
            b0 = (outs[0] / name).read_bytes()
            b1 = (outs[1] / name).read_bytes()
            assert b0 == b1, f"{name} differs between identical runs"
