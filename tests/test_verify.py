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
    RationalModifier,
    RatioRow,
    SobolevError,
    StieltjesFn,
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
    solve_Q,
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
    # an "extended" setting must reach the mpmath lane bit for bit even
    # at small n
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


@pytest.mark.parametrize("name", ["sobolev_point_pair", "modified_rational"])
def test_limits_computed_once_per_law_and_probe(monkeypatch, name):
    # a limit depends only on (law, z): its cost must not scale with the rows
    from relasym import verify
    counts: dict = {}

    def counting(fname):
        orig = getattr(verify, fname)

        def wrapped(*args, **kwargs):
            counts[fname] = counts.get(fname, 0) + 1
            return orig(*args, **kwargs)
        return wrapped

    cfg = scenario(name)
    for fname in ("regularity", "limit_sobolev", "limit_modified", "phi", "sqrt_z2m1"):
        monkeypatch.setattr(verify, fname, counting(fname))
    rows = run_ratio_ladder(cfg)
    per_law_probe = len(cfg.resolved_laws) * len(cfg.probe_points)
    assert len(rows) == per_law_probe * (cfg.jets + 1) * len(cfg.n_ladder)
    assert counts.get("regularity", 0) <= 1
    limit_calls = sum(n for f, n in counts.items() if f != "regularity")
    assert 0 < limit_calls <= per_law_probe, counts


def test_builder_refusal_flags_only_its_rows():
    cfg = dataclasses.replace(scenario("sobolev_point_derivative"), n_ladder=(1, 10, 20))
    rows = run_ratio_ladder(cfg)
    want = "pre_asymptotic: need n > 1, the highest coupled derivative, got 1"
    order = [(z, nu, n) for z in cfg.probe_points for nu in (0, 1) for n in (1, 10, 20)]
    assert [(r.z, r.nu, r.n) for r in rows] == order
    assert [r.flag for r in rows] == [want if n == 1 else "" for _, _, n in order]
    assert all(r.law == "sobolev_vs_base" for r in rows)


def test_flagged_rows_write_strict_json(tmp_path):
    # JSON has no NaN: every non-finite value of a flagged row is null
    cfg = dataclasses.replace(scenario("sobolev_point_derivative"), n_ladder=(1, 10, 20))
    rows = run_ratio_ladder(cfg)
    path = emit_report(rows, "json", tmp_path / "r.json")

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(path.read_text(), parse_constant=refuse)
    back = load_rows(path)
    floats = CSV_COLUMNS[4:]
    for row, raw, d in zip(rows, payload["rows"], back):
        if row.flag:
            assert raw[4:] == [None] * len(floats)
            assert all(math.isnan(d[k]) for k in floats)
        else:
            assert d["ratio_re"] == row.ratio.real and d["abs_err"] == row.abs_err


# Legendre plus an atom, with a double zero (A = 2: the top rung needs a
# table one degree past the ladder's) and a real pole
ATOM_RATIONAL = ExperimentConfig(
    measure=BaseMeasureSpec("legendre", mass_points=((1.8, 0.5),)),
    target_kind="modified",
    modifier=RationalModifier(zeros=((2j, 2),), poles=((3.0, 1),)),
    probe_points=(-2.5, 3j, 1.5 + 1.5j))


def _per_degree_target(cfg, n, table):
    """The degree-n target from its builder alone, which sweeps through n."""
    if cfg.target_kind == "base_only":
        return polybasis.PolyInBasis.basis_poly(table, n)
    if cfg.target_kind == "modified":
        return solve_Q(n, cfg.modifier, table).q
    spec = cfg.sobolev if cfg.target_kind == "sobolev" else to_sobolev_spec(cfg.stieltjes)
    return sn_kernel(n, spec, table).rep


def _count_jets(monkeypatch) -> list:
    calls = []
    orig = polybasis.basis_jets

    def counting(*args, **kwargs):
        calls.append(args[2])
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("relasym") and getattr(mod, "basis_jets", None) is orig:
            monkeypatch.setattr(mod, "basis_jets", counting)
    return calls


@pytest.mark.parametrize("name", [*SCENARIOS, "atom_rational"])
def test_shared_jets_match_per_degree_builders(monkeypatch, name):
    # one sweep per coupling point serves every rung, bit for bit: a value
    # at degree k does not depend on how far the forward recurrence runs
    cfg = ATOM_RATIONAL if name == "atom_rational" else scenario(name)
    points = []
    if cfg.target_kind == "modified":
        points = [c for c, _ in cfg.modifier.zeros + cfg.modifier.poles]
    elif cfg.target_kind == "sobolev":
        points = [t.c for t in cfg.sobolev.terms]
    elif cfg.target_kind == "pade":
        points = [c for c, _ in cfg.stieltjes.poles]
    calls = _count_jets(monkeypatch)
    rows = run_ratio_ladder(cfg)
    assert not any(r.flag for r in rows)
    assert np.array_equal(calls[0], np.array(cfg.probe_points))
    assert [complex(z) for z in calls[1:]] == [complex(c) for c in points]
    table = recurrence_for(cfg.measure, max(cfg.n_ladder) + 3)
    polys = _TargetPolys(cfg, table)
    degrees = sorted({m for n in cfg.n_ladder for m in (n, n + 1)})
    shared = {n: repr(polys.poly(n).coeffs.tolist()) for n in degrees}
    monkeypatch.undo()
    for n in degrees:
        assert shared[n] == repr(_per_degree_target(cfg, n, table).coeffs.tolist()), n


def test_shared_jets_refuse_like_the_per_degree_builder():
    # the sweep runs to 601, past the double range at c = 2; the 100 rung
    # reads its leading part unchanged and the 600 rung refuses as sn_kernel
    # does on its own
    cfg = dataclasses.replace(scenario("sobolev_point_pair"), n_ladder=(100, 600))
    table = recurrence_for(cfg.measure, 603)
    polys = _TargetPolys(cfg, table)
    got = polys.poly(100).coeffs
    assert repr(got.tolist()) == repr(sn_kernel(100, cfg.sobolev, table).rep.coeffs.tolist())
    with pytest.raises(SobolevError) as shared:
        polys.poly(600)
    with pytest.raises(SobolevError) as alone:
        sn_kernel(600, cfg.sobolev, table)
    assert str(shared.value) == str(alone.value)
    assert "jets at c = (2+0j) overflow the double range at n=600" in str(alone.value)
    assert shared.value.kind == alone.value.kind == "overflow"


def test_builder_overflow_is_flagged_overflow():
    # a refusal at the top of the double range is labelled by its kind, not
    # pre_asymptotic; the extended lane carries the same ladder
    cfg = ExperimentConfig(
        measure=LEG, target_kind="pade",
        stieltjes=StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0, (2.0,)))),
        probe_points=(3.0, -2.5, -2j, 1.5 + 1.5j), n_ladder=(100, 500))
    rows = run_ratio_ladder(cfg)
    want = "overflow: jets at c = 2j overflow the double range at n=500"
    assert [r.flag for r in rows] == [want if r.n == 500 else "" for r in rows]
    assert sum(r.n == 500 for r in rows) == 8


def _old_rows_to_csv(rows) -> str:
    """The report writers as they were before rows carried their cells."""
    def fmt(x):
        return repr(float(x))
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join((
            str(r.n), fmt(r.z.real), fmt(r.z.imag), str(r.nu),
            fmt(r.ratio.real), fmt(r.ratio.imag), fmt(r.limit.real), fmt(r.limit.imag),
            fmt(r.abs_err), fmt(r.est_rate))))
    return "\n".join(lines) + "\n"


def _old_rows_to_json(rows) -> str:
    def num(x):
        return float(x) if math.isfinite(x) else None
    payload = {
        "schema_version": 1,
        "columns": list(CSV_COLUMNS),
        "rows": [[r.n, num(r.z.real), num(r.z.imag), r.nu,
                  *map(num, (r.ratio.real, r.ratio.imag, r.limit.real,
                             r.limit.imag, r.abs_err, r.est_rate))]
                 for r in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _odd_rows() -> list:
    odd = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300,
           -1e300, 0.1, 1.0 / 3.0, 1e16, 2.5e-8]
    rows = []
    for i in range(3 * len(odd)):
        v = [odd[(i + 3 * k) % len(odd)] for k in range(8)]
        rows.append(RatioRow(law="base_ratio", n=[0, 7, 10 ** 30][i % 3],
                             z=complex(v[0], v[1]), nu=[0, 3, 2 ** 70][i % 3],
                             ratio=complex(v[2], v[3]), limit=complex(v[4], v[5]),
                             abs_err=v[6], est_rate=v[7], flag=""))
    return rows


@pytest.mark.parametrize("case", ["empty", "one", "odd_values", "ladder", "flagged"])
def test_emission_matches_the_encoders_byte_for_byte(tmp_path, case):
    rows = {"empty": lambda: [],
            "one": lambda: run_ratio_ladder(_small_base(n_ladder=(5,))),
            "odd_values": _odd_rows,
            "ladder": lambda: run_ratio_ladder(scenario("modified_rational")),
            "flagged": lambda: run_ratio_ladder(dataclasses.replace(
                scenario("sobolev_point_derivative"), n_ladder=(1, 10, 20)))}[case]()
    for fmt, old in (("csv", _old_rows_to_csv), ("json", _old_rows_to_json)):
        got = emit_report(rows, fmt, tmp_path / f"r.{fmt}").read_bytes()
        assert got == old(rows).encode(), fmt
