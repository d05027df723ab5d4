"""Ladder configs, report emission, and the monotone-error diagnostic."""
import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from relasym import (
    BaseMeasureSpec,
    ExperimentConfig,
    RatioRow,
    VerifyConfigError,
    emit_report,
    load_rows,
    monotone_violations,
    run_ratio_ladder,
    run_zero_attraction,
    recurrence_for,
    roots,
    scenario,
    sn_kernel,
    sn_lambda,
    to_sobolev_spec,
)
from relasym import polybasis
from relasym.polybasis import eval_jet
from relasym.scenarios import SCENARIOS
from relasym.sobolev import SobolevSpec, SobolevTerm
from relasym.verify import CSV_COLUMNS, _TargetPolys, boundary_grid

LEG = BaseMeasureSpec("legendre")


def _small_base(**kw):
    defaults = dict(measure=LEG, probe_points=(3.0,), n_ladder=(5, 10),
                    jets=0, laws=("base_ratio",))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("kw", [
    {"probe_points": (0.5,)},                       # on the cut
    {"probe_points": (3.0,), "n_ladder": (20, 10)},
    {"probe_points": (3.0,), "n_ladder": ()},
    {"target_kind": "nonsense"},
    {"target_kind": "modified"},                    # payload missing
    {"precision": "quad"},
    {"jets": -1},
    {"laws": ("sobolev_vs_base",)},                 # wrong target
])
def test_config_rejected(kw):
    base = dict(measure=LEG)
    base.update(kw)
    with pytest.raises(VerifyConfigError):
        ExperimentConfig(**base)


def test_probe_on_attraction_center_rejected():
    cfg = scenario("sobolev_point_derivative")
    with pytest.raises(VerifyConfigError):
        dataclasses.replace(cfg, probe_points=(2.0 + 0.0j,))


def test_config_json_round_trip():
    for name in ("base_legendre", "modified_rational",
                 "sobolev_point_pair", "pade_gonchar"):
        cfg = scenario(name)
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again.to_json_dict() == cfg.to_json_dict()


def test_config_from_bad_dict():
    with pytest.raises(VerifyConfigError):
        ExperimentConfig.from_json_dict({"probe_points": [[3.0, 0.0]]})


def test_boundary_grid_walks_perimeter():
    pts = boundary_grid(1.0, 2.0, 3.0, 4.0, count=20)
    assert len(pts) == 20
    assert pts[0] == 1.0 + 3.0j
    for z in pts:
        on_edge = (abs(z.imag - 3.0) < 1e-12 or abs(z.imag - 4.0) < 1e-12
                   or abs(z.real - 1.0) < 1e-12 or abs(z.real - 2.0) < 1e-12)
        assert on_edge, z
    assert len(set(pts)) == 20
    with pytest.raises(VerifyConfigError):
        boundary_grid(1.0, 1.0, 3.0, 4.0)


def test_ladder_rows_and_rate():
    rows = run_ratio_ladder(_small_base())
    assert [r.n for r in rows] == [5, 10]
    assert all(r.law == "base_ratio" and r.nu == 0 for r in rows)
    assert math.isnan(rows[0].est_rate)
    # base ratio error decays, so the two-point rate must be positive
    assert rows[1].abs_err < rows[0].abs_err
    assert rows[1].est_rate > 0
    assert rows[0].abs_err == abs(rows[0].ratio - rows[0].limit)


def test_pre_asymptotic_degrees_flagged_not_fatal():
    # rational modifier needs n >= A+B+1, so degree 1 cannot be built
    cfg = dataclasses.replace(scenario("modified_rational"), n_ladder=(1, 10),
                              jets=0, probe_points=(3.0 + 0.0j,),
                              laws=("modified_vs_base",))
    rows = run_ratio_ladder(cfg)
    assert rows[0].flag.startswith("pre_asymptotic")
    assert math.isnan(rows[0].abs_err)
    assert not rows[1].flag and rows[1].abs_err < 1.0
    # flagged rows surface through the violation list
    assert (rows[0].law, rows[0].z, 0, 1) in monotone_violations(rows)


def test_non_diagonal_sobolev_reaches_general_lane():
    # a regular complex center with coupled value/derivative masses is
    # built like any other regular spec
    gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
    cfg = dataclasses.replace(
        scenario("sobolev_point_pair"),
        sobolev=SobolevSpec(terms=(SobolevTerm(c=2j, gamma=gamma),)),
        probe_points=(3.0, -2.5, -2j, 1.5 + 1.5j))
    rows = run_ratio_ladder(cfg)
    assert len(rows) == 4 * 2 * 4                  # probes x jets x degrees
    assert [r.flag for r in rows if r.flag] == []
    assert monotone_violations(rows) == []


def test_pade_extended_precision_reaches_extended_lane():
    # an "extended" setting must reach the mpmath expansion bit for bit
    # even at small n
    cfg = dataclasses.replace(scenario("pade_gonchar"), precision="extended",
                              n_ladder=(6,))
    table = recurrence_for(cfg.measure, 12)
    got = _TargetPolys(cfg, table).poly(6)
    want = sn_lambda(6, to_sobolev_spec(cfg.stieltjes), table).rep
    assert np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("name", ["pade_gonchar", "sobolev_point_pair"])
def test_double_precision_reaches_kernel_lane(name):
    # "double" builds every Sobolev target and Pade denominator with sn_kernel
    cfg = scenario(name)
    spec = cfg.sobolev if cfg.sobolev is not None else to_sobolev_spec(cfg.stieltjes)
    table = recurrence_for(cfg.measure, 22)
    got = _TargetPolys(cfg, table).poly(20)
    assert np.array_equal(got.coeffs, sn_kernel(20, spec, table).rep.coeffs)


def test_monotone_violations_synthetic():
    def row(n, err, flag=""):
        return RatioRow(law="base_ratio", n=n, z=3.0 + 0j, nu=0,
                        ratio=1.0, limit=1.0, abs_err=err,
                        est_rate=float("nan"), flag=flag)

    good = [row(10, 1e-1), row(20, 1e-2), row(40, 1e-2)]
    assert monotone_violations(good) == []
    bad = [row(10, 1e-2), row(20, 1e-1)]
    assert monotone_violations(bad) == [("base_ratio", 3.0 + 0j, 0, 20)]


def test_csv_round_trip(tmp_path):
    rows = run_ratio_ladder(_small_base())
    path = emit_report(rows, "csv", tmp_path / "r.csv")
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = load_rows(path)
    assert len(back) == len(rows)
    for r, d in zip(rows, back):
        assert d["n"] == r.n and d["nu"] == r.nu
        ratio = complex(d["ratio_re"], d["ratio_im"])
        limit = complex(d["limit_re"], d["limit_im"])
        # repr floats round-trip exactly, so the recomputed error agrees
        assert abs(abs(ratio - limit) - d["abs_err"]) <= 1e-15


def test_csv_degenerate_sizes(tmp_path):
    p0 = emit_report([], "csv", tmp_path / "empty.csv")
    assert p0.read_text() == ",".join(CSV_COLUMNS) + "\n"
    assert load_rows(p0) == []
    rows = run_ratio_ladder(_small_base(n_ladder=(5,)))
    p1 = emit_report(rows, "csv", tmp_path / "one.csv")
    assert len(p1.read_text().splitlines()) == 2


def test_json_report_schema_and_nan(tmp_path):
    rows = run_ratio_ladder(_small_base())
    path = emit_report(rows, "json", tmp_path / "r.json")
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["columns"] == list(CSV_COLUMNS)
    assert payload["rows"][0][-1] is None          # first-rung rate
    back = load_rows(path)
    assert math.isnan(back[0]["est_rate"])
    assert back[1]["est_rate"] == rows[1].est_rate


def test_large_run_emits_parseable_json(tmp_path):
    rows = run_ratio_ladder(scenario("modified_rational"))
    assert len(rows) == 128                        # 4 laws x 4 probes x 2 jets x 4 n
    payload = json.loads(emit_report(rows, "json", tmp_path / "big.json").read_text())
    assert len(payload["rows"]) == 128


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(VerifyConfigError):
        emit_report([], "xml", tmp_path / "r.xml")


def test_boundary_grid_error_shrinks_with_degree():
    # max |ratio - limit| over a rectangle boundary away from [-1, 1]
    # must drop as the degree grows
    grid = boundary_grid(2.0, 3.0, 0.5, 1.5, count=20)
    cfg = dataclasses.replace(scenario("modified_rational"), probe_points=grid,
                              n_ladder=(10, 40), jets=0,
                              laws=("modified_vs_base",))
    rows = run_ratio_ladder(cfg)
    worst = {10: 0.0, 40: 0.0}
    for r in rows:
        worst[r.n] = max(worst[r.n], r.abs_err)
    assert worst[40] < worst[10]


def test_zero_attraction_keying():
    cfg = scenario("pade_gonchar")
    out = run_zero_attraction(cfg, degrees=(20, 30))
    assert sorted(out) == [20, 30]
    for rep in out.values():
        assert sum(rep.cluster_counts) + rep.support_count + len(rep.unassigned) \
            == len(rep.roots)
    # default degrees come from the config
    assert sorted(run_zero_attraction(cfg)) == sorted(cfg.zero_degrees or cfg.n_ladder)


def _pointwise_ratio(law, table, polys, n, z, nu):
    """One row's ratio from scalar eval_jet and PolyInBasis.jet calls."""
    if law == "base_ratio":
        return eval_jet(table, n + 1, z, nu)[nu] / eval_jet(table, n, z, nu)[nu]
    if law == "base_log_derivative":
        jets = eval_jet(table, n, z, nu + 1)
        return jets[nu + 1] / (n * jets[nu])
    if law.endswith("_vs_base"):
        return polys.poly(n).jet(z, nu)[nu] / eval_jet(table, n, z, nu)[nu]
    if law == "modified_ratio":
        return polys.poly(n + 1).jet(z, nu)[nu] / polys.poly(n).jet(z, nu)[nu]
    if law == "modified_log_derivative":
        jets = polys.poly(n).jet(z, nu + 1)
        return jets[nu + 1] / (n * jets[nu])
    assert law == "modified_derivative_gap"
    jets = polys.poly(n).jet(z, nu + 2)
    return jets[nu + 2] / (n * (n - 1) * jets[nu])


def test_batched_ladder_matches_pointwise(monkeypatch):
    # basis_jets calls as (points, made while a target was being built)
    calls, building = [], []
    orig_jets, orig_poly = polybasis.basis_jets, _TargetPolys.poly

    def counting_jets(table, deg, z, *args, **kwargs):
        calls.append((tuple(np.atleast_1d(z)), bool(building)))
        return orig_jets(table, deg, z, *args, **kwargs)

    def tracking_poly(self, n):
        building.append(n)
        try:
            return orig_poly(self, n)
        finally:
            building.pop()

    for key, mod in list(sys.modules.items()):
        if key.startswith("relasym") and getattr(mod, "basis_jets", None) is orig_jets:
            monkeypatch.setattr(mod, "basis_jets", counting_jets)
    monkeypatch.setattr(_TargetPolys, "poly", tracking_poly)
    for name in SCENARIOS:
        cfg = scenario(name)
        calls.clear()
        rows = run_ratio_ladder(cfg)
        assert [pts for pts, in_build in calls if not in_build] == [cfg.probe_points]
        table = recurrence_for(cfg.measure, max(cfg.n_ladder) + 3)
        polys = _TargetPolys(cfg, table)
        for row in rows:
            assert not row.flag
            want = complex(_pointwise_ratio(row.law, table, polys, row.n, row.z, row.nu))
            assert row.ratio == want, (name, row)
    target = polys.poly(max(cfg.n_ladder))
    calls.clear()
    assert len(roots(target)) == target.degree
    assert calls == []
