"""Ladder configs, report emission, and the monotone-error diagnostic."""
import dataclasses
import json
import math
import sys
from pathlib import Path

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
from relasym import modified, polybasis, reader, sobolev
from relasym.reader import ConfigError as _CONFIG_ERRORS
from relasym.polybasis import basis_jets
from relasym.scenarios import SCENARIOS
from relasym.sobolev import SobolevSpec, SobolevTerm
from relasym.verify import CSV_COLUMNS, _targets

LEG = BaseMeasureSpec("legendre")
CHEB = BaseMeasureSpec("chebyshev_first_kind")


def _small_base(**kw):
    defaults = dict(measure=LEG, probe_points=(3.0,), n_ladder=(5, 10),
                    jets=0, laws=("base_ratio",))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("kw", [
    {"probe_points": (0.5,)},                       # on the cut
    {"probe_points": (3.0,), "n_ladder": (20, 10)},
    {"probe_points": (3.0,), "n_ladder": ()},
    {"probe_points": (3.0,), "n_ladder": (10, 10, 20)},     # repeated rung
    {"probe_points": (3.0,), "n_ladder": (-1, 10)},         # negative degree
    {"probe_points": ()},                                   # nothing to check
    {"target": "modified"},                         # not a target type
    {"target": StieltjesFn(CHEB, ((2j, (1.0,)),))},  # Pade base is not the measure
    {"precision": "quad"},
    {"jets": -1},
    {"laws": ("sobolev_vs_base",)},                 # wrong target
    {"zero_degrees": (10, -1)},                     # negative zero degree
    {"laws": ()},                                   # a run that checks nothing
    # a repeated law or probe repeats its rows, which read as a rising error
    {"laws": ("base_ratio", "base_ratio")},
    {"probe_points": (3.0, -2.5, 3.0)},
    # int() would truncate these or read True as 1
    {"n_ladder": (10.7, 20.2)},
    {"n_ladder": (True, 10)},
    {"jets": 1.9},
    {"jets": True},
    {"zero_degrees": (60.5,)},
    {"zero_degrees": (float("inf"),)},
    {"laws": (["base_ratio"],)},                    # unhashable: a TypeError
    {"jets": 81},       # above the default top rung 80: pre_asymptotic rows alone
    # every limit is stated off supp mu, so a probe on an atom is no probe
    {"measure": BaseMeasureSpec("legendre", mass_points=((2.0, 0.5),)),
     "probe_points": (2.0, 3.0)},
])
def test_config_rejected(kw):
    base = dict(measure=LEG)
    base.update(kw)
    with pytest.raises(VerifyConfigError):
        ExperimentConfig(**base)


def test_integral_degrees_kept():
    cfg = ExperimentConfig(measure=LEG, n_ladder=(10.0, np.int64(20)), jets=2.0,
                           zero_degrees=(np.float64(60.0),))
    assert cfg.n_ladder == (10, 20) and cfg.zero_degrees == (60,) and cfg.jets == 2
    assert all(type(n) is int for n in (*cfg.n_ladder, *cfg.zero_degrees, cfg.jets))


MODIFIER = {"zeros": [{"c": [3.0, 0.0], "mult": 1}], "poles": []}
SOBOLEV = {"terms": [{"c": [2.0, 0.0], "gamma": [[[1.0, 0.0]]]}]}
STIELTJES = {"base": LEG.to_json_dict(), "poles": [{"c": [0.0, 3.0], "A": [[1.0, 0.0]]}]}


@pytest.mark.parametrize("target, match", [
    ({"kind": "nonsense"}, "unknown target kind 'nonsense'"),
    ({"kind": "modified"}, "target 'modified' needs its payload 'modifier'"),
    ({"kind": "pade", "sobolev": SOBOLEV}, "target 'pade' takes no sobolev"),
    # a payload the kind does not read used to be echoed and ignored
    ({"kind": "base_only", "modifier": MODIFIER}, "target 'base_only' takes no modifier"),
    ({"modifier": MODIFIER}, "target 'base_only' takes no modifier"),
    ({"kind": "sobolev", "sobolev": SOBOLEV, "stieltjes": STIELTJES},
     "target 'sobolev' takes no stieltjes"),
    # the denominators are built on the measure's table, never on this base
    ({"kind": "pade", "stieltjes": dict(STIELTJES, base={"weight_kind": "chebyshev_first_kind"})},
     "stieltjes.base must equal the measure"),
    ([], "target must be a JSON object"),
], ids=["unknown_kind", "payload_missing", "wrong_payload", "base_only_with_modifier",
        "no_kind_with_modifier", "second_payload", "pade_base_mismatch", "not_a_dict"])
def test_json_target_rejected(target, match):
    with pytest.raises(VerifyConfigError, match=match):
        ExperimentConfig.from_json_dict({"measure": LEG.to_json_dict(), "target": target})


def test_probe_on_attraction_center_rejected():
    cfg = scenario("sobolev_point_derivative")
    with pytest.raises(VerifyConfigError):
        dataclasses.replace(cfg, probe_points=(2.0 + 0.0j,))


def test_config_json_round_trip():
    for name in SCENARIOS:
        cfg = scenario(name)
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again.to_json_dict() == cfg.to_json_dict()


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_leaf_reads_or_is_a_config_error(name):
    # one leaf of a bundled config replaced by a value of each JSON type:
    # the reader returns a config or refuses it, and never crashes
    data = scenario(name).to_json_dict()
    for path in _leaf_paths(data):
        for value in (None, True, 1.5, "x", [], {}):
            bad = json.loads(json.dumps(data))
            *head, last = path
            node = bad
            for key in head:
                node = node[key]
            node[last] = value
            try:
                ExperimentConfig.from_json_dict(bad)
            except _CONFIG_ERRORS:
                pass
            except Exception as exc:
                pytest.fail(f"{path} = {value!r}: {exc!r}")


def test_reader_takes_numbers_only():
    # the exact-type fast path refuses what the ABC check refuses
    for value in (1.5, 2, np.float64(1.5), np.float32(0.5), np.int64(3)):
        assert reader.real(value, "x") == float(value)
        assert reader.number(value, "x", ValueError) == complex(value)
    assert reader.integral(np.float64(4.0), "x") == 4
    assert reader.number(np.complex128(1j), "x", ValueError) == 1j
    for value in (True, False, np.bool_(True), "1.5", "1", None, [1.0]):
        for read in (reader.real, reader.integral):
            with pytest.raises(_CONFIG_ERRORS):
                read(value, "x")
        with pytest.raises(ValueError, match="must be a number"):
            reader.number(value, "x", ValueError)


def test_config_from_bad_dict():
    with pytest.raises(VerifyConfigError):
        ExperimentConfig.from_json_dict({"probe_points": [[3.0, 0.0]]})


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
    # the log-derivative reads one order past nu, which degree 0 does not have
    cfg = dataclasses.replace(scenario("modified_rational"), n_ladder=(0, 10),
                              jets=0, probe_points=(3.0 + 0.0j,),
                              laws=("modified_log_derivative",))
    rows = run_ratio_ladder(cfg)
    assert rows[0].flag.startswith("pre_asymptotic")
    assert math.isnan(rows[0].abs_err)
    assert not rows[1].flag and rows[1].abs_err < 1.0
    # flagged rows surface through the violation list
    assert (rows[0].law, rows[0].z, 0, 0) in monotone_violations(rows)


def test_non_diagonal_sobolev_reaches_general_lane():
    # a complex center with coupled value/derivative masses is built like
    # any other spec
    gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
    cfg = dataclasses.replace(
        scenario("sobolev_point_pair"),
        target=SobolevSpec(terms=(SobolevTerm(c=2j, gamma=gamma),)),
        probe_points=(3.0, -2.5, -2j, 1.5 + 1.5j))
    rows = run_ratio_ladder(cfg)
    assert len(rows) == 4 * 2 * 4                  # probes x jets x degrees
    assert [r.flag for r in rows if r.flag] == []
    assert monotone_violations(rows) == []


@pytest.mark.parametrize("name", ["pade_gonchar", "sobolev_point_pair"])
def test_pade_extended_precision_reaches_extended_lane(name):
    # an "extended" setting must reach the mpmath lane bit for bit at every
    # degree of the ladder, small n included
    cfg = dataclasses.replace(scenario(name), precision="extended")
    spec = cfg.target if cfg.target_kind == "sobolev" else to_sobolev_spec(cfg.target)
    table = recurrence_for(cfg.measure, max(cfg.n_ladder) + 2)
    got = _targets(cfg, table, cfg.n_ladder)[0]
    assert list(got) == list(cfg.n_ladder)
    for n in cfg.n_ladder:
        assert np.array_equal(got[n].coeffs, sn_lambda(n, spec, table).coeffs), n


@pytest.mark.parametrize("name", ["pade_gonchar", "sobolev_point_pair"])
def test_double_precision_reaches_kernel_lane(name):
    # "double" builds every Sobolev target and Pade denominator with sn_kernel
    cfg = scenario(name)
    spec = cfg.target if cfg.target_kind == "sobolev" else to_sobolev_spec(cfg.target)
    table = recurrence_for(cfg.measure, 22)
    got = _targets(cfg, table, (20,))[0][20]
    assert np.array_equal(got.coeffs, sn_kernel(20, spec, table).coeffs)


def test_monotone_violations_synthetic():
    def row(n, err, flag=""):
        return RatioRow(law="base_ratio", n=n, z=3.0 + 0j, nu=0,
                        ratio=1.0, limit=1.0, abs_err=err,
                        est_rate=float("nan"), flag=flag)

    good = [row(10, 1e-1), row(20, 1e-2), row(40, 1e-2)]
    assert monotone_violations(good) == []
    bad = [row(10, 1e-2), row(20, 1e-1)]
    assert monotone_violations(bad) == [("base_ratio", 3.0 + 0j, 0, 20)]


def load_rows(path) -> list:
    """Read a report back into plain dicts keyed by the column names."""
    path = Path(path)
    text = path.read_text()
    out = []
    if path.suffix == ".json":
        payload = json.loads(text)
        cols = payload["columns"]
        for raw in payload["rows"]:
            d = dict(zip(cols, raw))
            for k in cols:
                if d[k] is None:
                    d[k] = float("nan")
            out.append(d)
        return out
    lines = [ln for ln in text.splitlines() if ln]
    cols = lines[0].split(",")
    for ln in lines[1:]:
        parts = ln.split(",")
        d = dict(zip(cols, parts))
        d["n"], d["nu"] = int(d["n"]), int(d["nu"])
        for k in cols[4:] + ["z_re", "z_im"]:
            d[k] = float(d[k])
        out.append(d)
    return out


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
    # 20 points 0.2 apart along the boundary of [2, 3] x [0.5, 1.5]
    t = [k / 5 for k in range(5)]
    grid = ([2.0 + s + 0.5j for s in t] + [3.0 + (0.5 + s) * 1j for s in t]
            + [3.0 - s + 1.5j for s in t] + [2.0 + (1.5 - s) * 1j for s in t])
    cfg = dataclasses.replace(scenario("modified_rational"), probe_points=grid,
                              n_ladder=(10, 40), jets=0,
                              laws=("modified_vs_base",))
    rows = run_ratio_ladder(cfg)
    worst = {10: 0.0, 40: 0.0}
    for r in rows:
        worst[r.n] = max(worst[r.n], r.abs_err)
    assert worst[40] < worst[10]


@pytest.mark.parametrize("target", [StieltjesFn(BaseMeasureSpec("legendre")),
                                    RationalModifier()], ids=["pade", "modified"])
def test_target_that_is_the_base_has_the_base_zeros(target):
    base = dataclasses.replace(scenario("base_legendre"), zero_degrees=(1, 20, 61))
    want = run_zero_attraction(base)
    got = run_zero_attraction(dataclasses.replace(base, target=target))
    assert {n: rep.roots for n, rep in got.items()} == {n: rep.roots for n, rep in want.items()}


def test_zero_attraction_keying():
    cfg = scenario("pade_gonchar")
    out = run_zero_attraction(dataclasses.replace(cfg, zero_degrees=(20, 30)))
    assert sorted(out) == [20, 30]
    for rep in out.values():
        assert sum(rep.cluster_counts) + rep.support_count + len(rep.unassigned) \
            == len(rep.roots)
    # default degrees come from the config
    assert sorted(run_zero_attraction(cfg)) == sorted(cfg.zero_degrees or cfg.n_ladder)


def _jet(poly, z, order):
    """poly's jets at z through order, at least through order 1: the ladder
    reads every order from one product of many rows, and numpy takes a
    one-row product as a dot, which sums in another order."""
    return poly.jet(z, max(order, 1))


def _pointwise_ratio(law, table, polys, n, z, nu):
    """One row's ratio from scalar basis_jets and PolyInBasis.jet calls."""
    if law == "base_ratio":
        return basis_jets(table, n + 1, z, nu)[nu, n + 1] / basis_jets(table, n, z, nu)[nu, n]
    if law == "base_log_derivative":
        jets = basis_jets(table, n, z, nu + 1)[:, n]
        return jets[nu + 1] / (n * jets[nu])
    if law.endswith("_vs_base"):
        return _jet(polys[n], z, nu)[nu] / basis_jets(table, n, z, nu)[nu, n]
    if law == "modified_ratio":
        return _jet(polys[n + 1], z, nu)[nu] / _jet(polys[n], z, nu)[nu]
    if law == "modified_log_derivative":
        jets = polys[n].jet(z, nu + 1)
        return jets[nu + 1] / (n * jets[nu])
    assert law == "modified_derivative_gap"
    jets = polys[n].jet(z, nu + 2)
    return jets[nu + 2] / (n * (n - 1) * jets[nu])


def test_batched_ladder_matches_pointwise(monkeypatch):
    # per run, one basis_jets call over exactly the probes, and one
    # orthonormal sweep over exactly the coupling points per kernel build
    calls, sweeps = _count_sweeps(monkeypatch)
    for name in SCENARIOS:
        cfg = scenario(name)
        calls.clear()
        sweeps.clear()
        rows = run_ratio_ladder(cfg)
        assert calls == [list(cfg.probe_points)]
        points = _builder_points(cfg)
        assert sweeps == ([points] if points else [])
        table = recurrence_for(cfg.measure, max(cfg.n_ladder) + 3)
        polys = _targets(cfg, table, {m for n in cfg.n_ladder for m in (n, n + 1)})[0]
        for row in rows:
            assert not row.flag
            want = complex(_pointwise_ratio(row.law, table, polys, row.n, row.z, row.nu))
            assert row.ratio == want, (name, row)
    target = polys[max(cfg.n_ladder)]
    calls.clear()
    assert len(roots(target)) == target.degree
    assert calls == []


def test_probes_swept_to_the_orders_their_laws_read(monkeypatch):
    # jets + the highest order above nu a resolved law reads: the
    # derivative-gap rows of modified targets read two more, a base
    # log-derivative one, and an over-base ratio none
    from relasym import verify
    orders = []

    def recording(fname):
        orig = getattr(verify, fname)

        def wrapped(*args, **kwargs):
            orders.append(args[-1])
            return orig(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(verify, "basis_jets", recording("basis_jets"))
    got = {}
    for name in SCENARIOS:
        orders.clear()
        run_ratio_ladder(scenario(name))
        got[name] = orders[:]
    assert got == {"base_legendre": [2], "modified_linear_real": [3],
                   "modified_linear_complex": [3], "modified_rational": [3],
                   "sobolev_point_derivative": [1], "sobolev_point_pair": [1],
                   "pade_gonchar": [1]}


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
    for fname in ("limit_sobolev", "limit_modified", "phi", "sqrt_z2m1"):
        monkeypatch.setattr(verify, fname, counting(fname))
    rows = run_ratio_ladder(cfg)
    per_law_probe = len(cfg.resolved_laws) * len(cfg.probe_points)
    assert len(rows) == per_law_probe * (cfg.jets + 1) * len(cfg.n_ladder)
    assert 0 < sum(counts.values()) <= per_law_probe, counts


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
    target=RationalModifier(zeros=((2j, 2),), poles=((3.0, 1),)),
    probe_points=(-2.5, 3j, 1.5 + 1.5j))


def _per_degree_target(cfg, n, table):
    """The degree-n target from its builder alone, which sweeps through n."""
    if cfg.target_kind == "base_only":
        return polybasis.PolyInBasis.basis_poly(table, n)
    if cfg.target_kind == "modified":
        return solve_Q(n, cfg.target, table)
    spec = cfg.target if cfg.target_kind == "sobolev" else to_sobolev_spec(cfg.target)
    return sn_kernel(n, spec, table)


def _builder_points(cfg) -> list:
    """The points the double kernel builder sweeps its jets at, in sweep
    order; the modified table reads no jets."""
    if cfg.target_kind == "sobolev":
        return [t.c for t in cfg.target.terms]
    if cfg.target_kind == "pade":
        return [c for c, _ in cfg.target.poles]
    return []


def _count_sweeps(monkeypatch) -> tuple:
    """(calls, sweeps): the points of each basis_jets call in the package,
    and of each orthonormal sweep the kernel builder makes, in call order."""
    calls, sweeps = [], []
    orig_jets, orig_rows = polybasis.basis_jets, polybasis._orthonormal_rows

    def counting_jets(*args, **kwargs):
        calls.append(list(np.atleast_1d(args[2])))
        return orig_jets(*args, **kwargs)

    def counting_rows(*args, **kwargs):
        sweeps.append(list(args[1]))
        return orig_rows(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("relasym") and getattr(mod, "basis_jets", None) is orig_jets:
            monkeypatch.setattr(mod, "basis_jets", counting_jets)
    monkeypatch.setattr(sobolev, "_orthonormal_rows", counting_rows)
    return calls, sweeps


@pytest.mark.parametrize("name", [*SCENARIOS, "atom_rational"])
def test_shared_jets_match_per_degree_builders(monkeypatch, name):
    # one sweep per coupling point serves every rung, bit for bit: a value
    # at degree k does not depend on how far the forward recurrence runs
    cfg = ATOM_RATIONAL if name == "atom_rational" else scenario(name)
    calls, sweeps = _count_sweeps(monkeypatch)
    rows = run_ratio_ladder(cfg)
    assert not any(r.flag for r in rows)
    # the probes take one monic sweep, the builder's points one orthonormal sweep
    assert calls == [list(cfg.probe_points)]
    points = _builder_points(cfg)
    assert sweeps == ([points] if points else [])
    table = recurrence_for(cfg.measure, max(cfg.n_ladder) + 3)
    degrees = sorted({m for n in cfg.n_ladder for m in (n, n + 1)})
    polys = _targets(cfg, table, degrees)[0]
    shared = {n: repr(polys[n].coeffs.tolist()) for n in degrees}
    monkeypatch.undo()
    for n in degrees:
        assert shared[n] == repr(_per_degree_target(cfg, n, table).coeffs.tolist()), n


def test_shared_jets_refuse_like_the_per_degree_builder():
    # the sweep runs to 601, past the double range at c = 2; the 100 rung
    # reads its leading part unchanged and the 600 rung refuses as sn_kernel
    # does on its own
    cfg = dataclasses.replace(scenario("sobolev_point_pair"), n_ladder=(100, 600))
    table = recurrence_for(cfg.measure, 603)
    polys = _targets(cfg, table, cfg.n_ladder)[0]
    got = polys[100].coeffs
    assert repr(got.tolist()) == repr(sn_kernel(100, cfg.target, table).coeffs.tolist())
    shared = polys[600]
    assert isinstance(shared, SobolevError)
    with pytest.raises(SobolevError) as alone:
        sn_kernel(600, cfg.target, table)
    assert str(shared) == str(alone.value)
    assert "jets at c = (2+0j) overflow the double range at n=600" in str(alone.value)
    assert shared.kind == alone.value.kind == "overflow"


def test_modified_ladder_keeps_per_degree_refusals():
    # degrees 1 and 2 have values, as the table has no degree floor; only
    # the derivative orders a degree does not have are flagged
    cfg = dataclasses.replace(scenario("modified_rational"), n_ladder=(1, 2, 10))
    rows = run_ratio_ladder(cfg)

    def want(row):
        order = row.nu + {"modified_log_derivative": 1,
                          "modified_derivative_gap": 2}.get(row.law, 0)
        if order > row.n:
            return (f"pre_asymptotic: derivative order {order} exceeds degree {row.n}")
        return ""

    assert len(rows) == 4 * 4 * 2 * 3
    assert [r.flag for r in rows] == [want(r) for r in rows]
    # each degree of the batch is the one solve_Q reads alone
    table = recurrence_for(cfg.measure, 13)
    polys = _targets(cfg, table, (1, 2, 3, 10, 11))[0]
    for n in (1, 2, 10):
        alone = solve_Q(n, cfg.target, table)
        assert repr(polys[n].coeffs.tolist()) == repr(alone.coeffs.tolist())


def test_modified_ladder_builds_one_table(monkeypatch):
    # every rung reads one table of r dmu, and Q_n comes off its factors by
    # substitution: nothing is solved
    tables, solves = [], []
    orig_table = modified.modified_table

    def table(*args):
        tables.append(args[2])
        return orig_table(*args)

    monkeypatch.setattr(modified, "modified_table", table)
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
    monkeypatch.setattr(np.linalg, "cond", None)
    cfg = scenario("modified_rational")
    run_ratio_ladder(cfg)
    degrees = {m for n in cfg.n_ladder for m in (n, n + 1)}
    assert tables == [max(degrees)]
    assert solves == []


def test_modified_ladder_reaches_past_the_old_lambda_overflow():
    # the lambda system overflowed the double range at n = 800; the table
    # reads every rung, and the error keeps falling like 1/n^2
    cfg = dataclasses.replace(scenario("modified_rational"), n_ladder=(200, 400, 800),
                              probe_points=(1.2j, 1.5, -1.3, 0.5 + 1j))
    rows = run_ratio_ladder(cfg)
    assert [r.flag for r in rows if r.flag] == []
    assert monotone_violations(rows) == []
    errs = [r.abs_err for r in rows
            if r.law == "modified_vs_base" and r.z == 1.2j and r.nu == 0]
    assert errs[2] < 1e-8 and errs[0] / errs[2] > 10


def test_modified_ladder_reaches_past_the_base_tau_overflow():
    # Q_n comes off the table's factors over the monic basis, so nothing
    # reads the base tau, which overflows from n = 1025 on Legendre: every
    # rung through 2000 passes, and the error falls about 4x per doubling
    cfg = dataclasses.replace(scenario("modified_rational"), n_ladder=(250, 500, 1000, 2000),
                              probe_points=(1.2j, 1.5, -1.3, 0.5 + 1j))
    rows = run_ratio_ladder(cfg)
    assert [r.flag for r in rows if r.flag] == []
    assert monotone_violations(rows) == []
    for z in cfg.probe_points:
        errs = [r.abs_err for r in rows
                if r.law == "modified_vs_base" and r.z == z and r.nu == 0]
        assert len(errs) == 4
        assert errs[2] / 20 < errs[3] < 5 * errs[2] / 4, (z, errs)


@pytest.mark.parametrize("name", ["sobolev_point_pair", "sobolev_point_derivative",
                                  "pade_gonchar"])
def test_kernel_ladder_checks_the_spec_once(monkeypatch, name):
    # a term's factorization and rank are read when the term is built, not
    # per degree: only a Pade target builds its terms, once per pole; each
    # rung's kernel system is gated and solved on its own, one 2-D solve per rung
    cfg = scenario(name)
    built = []
    orig = sobolev.SobolevTerm.__post_init__

    def counting(term):
        built.append(term)
        orig(term)

    monkeypatch.setattr(sobolev.SobolevTerm, "__post_init__", counting)
    dims = []
    orig_solve = np.linalg.solve

    def solve(a, b):
        dims.append(np.ndim(a))
        return orig_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    run_ratio_ladder(cfg)
    assert len(built) == (len(cfg.target.poles) if name == "pade_gonchar" else 0)
    assert dims == [2] * len(cfg.n_ladder)


def test_builder_overflow_is_flagged_overflow():
    # a refusal at the top of the double range is labelled by its kind, not
    # pre_asymptotic; the extended lane carries the same ladder
    cfg = ExperimentConfig(
        measure=LEG,
        target=StieltjesFn(LEG, ((2j, (0.3, 1.0)), (-3.0, (2.0,)))),
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
