"""Tests of the benchmark itself: its checks reject wrong answers, its
inputs follow the seed, and its tracer and metric lists match
BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relasym import cli  # noqa: E402
from relasym.scenarios import scenario  # noqa: E402
from relasym.verify import ExperimentConfig  # noqa: E402


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _run_config(tmp_path: Path, sub: str, config: dict, name: str = "cfg") -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"{name}_{sub}"
    assert _cli([sub, "--config", str(path), "--out", str(out)]) == 0
    return out


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _shift_ratio(report: dict, pick, delta: complex) -> dict:
    """Copy of a ratio report with delta added to the ratio of rows pick() selects."""
    bad = copy.deepcopy(report)
    cols = bad["columns"]
    i_re, i_im = cols.index("ratio_re"), cols.index("ratio_im")
    for row in bad["rows"]:
        if pick(dict(zip(cols, row))):
            row[i_re] += delta.real
            row[i_im] += delta.imag
    return bad


@pytest.fixture(scope="module")
def ladder_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ladders")
    return {name: _run_config(tmp, "verify", workloads.SCENARIOS[name].config, name)
            for name in ("base_legendre", "modified_rational", "pade_gonchar")}


@pytest.mark.parametrize("name", sorted(workloads.SCENARIOS))
def test_scenarios_match_bundled(name):
    mine = ExperimentConfig.from_json_dict(workloads.SCENARIOS[name].config)
    assert mine.to_json_dict() == scenario(name).to_json_dict()


def test_ladder_checks_pass_on_program_output(ladder_outputs):
    for name, out in ladder_outputs.items():
        assert workloads._verify_problems(workloads.SCENARIOS[name], out) == []


def test_ratio_moved_by_1e6_is_rejected(ladder_outputs):
    scn = workloads.SCENARIOS["modified_rational"]
    report = _read(ladder_outputs["modified_rational"] / "ratios_modified_vs_base.json")
    bad = _shift_ratio(report, lambda r: r["n"] == 40 and r["nu"] == 0, 1e-6)
    problems = checks.check_ratio_report("modified_vs_base", bad, scn.target(), scn.probes,
                                         workloads.LADDER, workloads.JETS, True, 3.0)
    assert any("abs_err" in p for p in problems)


def test_base_ratio_moved_by_1e6_fails_numpy_legendre(ladder_outputs):
    report = _read(ladder_outputs["base_legendre"] / "ratios_base_ratio.json")
    assert checks.check_legendre_base_ratio(report) == []
    bad = _shift_ratio(report, lambda r: r["n"] == 80 and r["z_re"] == 3.0, 1e-6)
    assert checks.check_legendre_base_ratio(bad)


def test_wrong_limit_is_rejected(ladder_outputs):
    scn = workloads.SCENARIOS["pade_gonchar"]
    report = _read(ladder_outputs["pade_gonchar"] / "ratios_pade_vs_base.json")
    # the limit of a Sobolev law with one attracted zero instead of two
    target = dict(scn.target(), centers=((2.0j, 1),))
    problems = checks.check_ratio_report("pade_vs_base", report, target, scn.probes,
                                         workloads.LADDER, workloads.JETS, True, 3.0)
    assert any("closed form" in p for p in problems)


def test_rising_error_and_slow_top_rung_are_rejected(ladder_outputs):
    scn = workloads.SCENARIOS["base_legendre"]
    report = _read(ladder_outputs["base_legendre"] / "ratios_base_log_derivative.json")
    cols = report["columns"]
    lim = checks.law_limit("base_log_derivative", 3.0 + 0j, scn.target())
    # push the top rung at z = 3 away from its limit, with a matching abs_err
    bad = copy.deepcopy(report)
    for row in bad["rows"]:
        r = dict(zip(cols, row))
        if r["n"] == 80 and r["z_re"] == 3.0 and r["nu"] == 0:
            ratio = lim * 1.06
            row[cols.index("ratio_re")], row[cols.index("ratio_im")] = ratio.real, ratio.imag
            row[cols.index("abs_err")] = abs(ratio - lim)
    args = (bad, scn.target(), scn.probes, workloads.LADDER, workloads.JETS)
    problems = checks.check_ratio_report("base_log_derivative", *args, True, 3.0)
    assert any("error rose" in p for p in problems)
    assert any("top-rung relative error" in p for p in problems)
    ends = checks.check_ratio_report("base_log_derivative", *args, False, None)
    assert any("not below first-rung" in p for p in ends)


@pytest.fixture(scope="module")
def zero_output(tmp_path_factory):
    cfg = workloads.SCENARIOS["sobolev_point_pair"].config     # degree 60
    out = _run_config(tmp_path_factory.mktemp("zeros"), "zeros", cfg)
    return _read(out / "zeros.json")["reports"]["60"]


def test_zero_counts_pass_and_off_by_one_is_rejected(zero_output):
    assert checks.check_zero_report(zero_output, 60, [2.0], [2]) == []
    assert checks.check_zero_report(zero_output, 60, [2.0], [1])
    bad = copy.deepcopy(zero_output)
    bad["cluster_counts"] = [3]
    assert checks.check_zero_report(bad, 60, [2.0], [2])


def test_stray_or_missing_root_is_rejected(zero_output):
    moved = copy.deepcopy(zero_output)
    moved["roots"][0] = [0.0, 0.5]         # off the interval, near no center
    assert any("recount" in p for p in checks.check_zero_report(moved, 60, [2.0], [2]))
    short = copy.deepcopy(zero_output)
    short["roots"].pop()
    assert checks.check_zero_report(short, 60, [2.0], [2])


def test_legendre_roots_against_leggauss(tmp_path):
    cfg = dict(workloads.SCENARIOS["base_legendre"].config, zero_degrees=[40])
    rep = _read(_run_config(tmp_path, "zeros", cfg) / "zeros.json")["reports"]["40"]
    assert checks.check_legendre_roots(rep, 40) == []
    rep["roots"][7][0] += 1e-9
    assert checks.check_legendre_roots(rep, 40)


@pytest.fixture(scope="module")
def atom_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("atom")
    loc, mass = 2.2, 0.4
    ops = workloads.make_ops("atom_measure", 0, 1, tmp)
    scn = workloads.atom_scenario(loc, mass)
    measure = dict(scn.config["measure"], nmax=workloads.ATOM_TABLE_NMAX)
    table_out = _run_config(tmp, "recurrence", measure, "measure")
    zeros_out = _run_config(tmp, "zeros", scn.config, "atom")
    return {"ops": ops, "loc": loc, "mass": mass,
            "table": _read(table_out / "recurrence.json")["table"],
            "zeros": _read(zeros_out / "zeros.json")["reports"]["60"]}


def test_atom_table_orthogonal_and_perturbed_table_rejected(atom_outputs):
    loc, mass, table = atom_outputs["loc"], atom_outputs["mass"], atom_outputs["table"]
    assert checks.check_atom_table(table, loc, mass, workloads.ATOM_GRAM_DEGREE) == []
    bad = copy.deepcopy(table)
    bad["b"][5] += 1e-6
    assert checks.check_atom_table(bad, loc, mass, workloads.ATOM_GRAM_DEGREE)
    # the table of a different mass is not orthogonal for this one
    assert checks.check_atom_table(table, loc, mass * 1.001, workloads.ATOM_GRAM_DEGREE)


def test_one_root_near_atom(atom_outputs):
    rep, loc = atom_outputs["zeros"], atom_outputs["loc"]
    assert checks.check_one_root_near(rep, loc) == []
    extra = copy.deepcopy(rep)
    extra["roots"][0] = [loc + 0.01, 0.0]
    assert checks.check_one_root_near(extra, loc)


def test_atom_op_passes_its_check(atom_outputs):
    op = atom_outputs["ops"][0]
    for argv in op.argvs:
        assert _cli(argv) == 0
    assert op.check(_cli) == []


@pytest.mark.parametrize("workload", sorted(run.OP_SECONDS))
def test_same_seed_same_inputs(tmp_path, workload):
    def inputs(seed, sub):
        work = tmp_path / sub
        ops = workloads.make_ops(workload, seed, 4, work)
        files = {p.name: p.read_text() for p in (work / "inputs").iterdir()}
        argvs = [[a.replace(str(work), "") for a in argv] for op in ops for argv in op.argvs]
        return files, argvs

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")


def test_atoms_stay_in_range():
    for loc, mass in workloads.draw_atoms(123, 200):
        assert workloads.ATOM_LOC[0] <= loc <= workloads.ATOM_LOC[1]
        assert workloads.ATOM_MASS[0] <= mass <= workloads.ATOM_MASS[1]


def test_tracer_wraps_every_import_name_and_restores(tmp_path):
    from relasym import modified, sobolev, verify
    orig = modified.solve_Q
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.solve_Q is modified.solve_Q is sobolev.solve_Q
        assert verify.solve_Q is not orig
        tracer.active = True
        _cli(["recurrence", "--config", "legendre", "--out", str(tmp_path)])
        tracer.active = False
        layers = tracer.summary(1)
    finally:
        tracer.uninstall()
    assert verify.solve_Q is orig
    assert layers["cli.main.calls"][0] == 1
    assert layers["measures.recurrence_for.calls"][0] == 1
    assert layers["measures.recurrence_for.degrees"][0] == 80
    assert layers["cli.main.self_s"][0] > 0.0


def test_import_times_counts_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |         40 |     scipy.sparse",
        "import time:        60 |        100 |   scipy.linalg",
        "import time:        50 |         50 |   mpmath",
        "import time:         1 |        200 | relasym",
    ])
    assert run.import_times(text) == pytest.approx(
        {"relasym": 200e-6, "scipy": 130e-6, "mpmath": 50e-6})


def test_benchmark_json_matches_the_code():
    spec = _read(ROOT / "BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(run.OP_SECONDS)
    names = tracing.layer_metric_names() + [f"import.{r}_s" for r in run.IMPORT_ROOTS]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert {m["name"] for m in spec["end_to_end"]} == {"op_s", "op_cpu_s", "setup_s",
                                                        "peak_rss_mb"}


def test_failed_command_is_reported(tmp_path):
    import worker
    op = workloads.Op([["verify"], ["zeros"]], tmp_path / "op", lambda main: [])
    times, problems = worker.run_op(lambda argv: 4, op)
    assert len(problems) == 1 and problems[0].startswith("exit 4 from verify")
    assert times["cpu"] >= 0.0 and times["cpu_ref"] >= 0.0
