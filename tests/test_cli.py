"""Exit codes, report files, and byte determinism of the command line."""
import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import relasym.cli
import relasym.zeros
from relasym import scenario
from relasym.cli import _json_text
from relasym.cli import _write_json as cli_write_json
from relasym.scenarios import BUNDLED_MEASURES, SCENARIOS
from relasym.cli import main
from relasym.verify import run_zero_attraction


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_recurrence_bundled_measure(tmp_path, capsys):
    rc = main(["recurrence", "--config", "chebyshev", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "recurrence.json").read_text())
    assert payload["nmax"] == 80
    assert payload["table"]["a"][0] == pytest.approx(0.70710678118654752)
    assert "wrote" in capsys.readouterr().out


def test_recurrence_from_measure_file(tmp_path):
    cfg = _write_json(tmp_path / "m.json",
                      {"weight_kind": "legendre", "nmax": 12})
    rc = main(["recurrence", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "recurrence.json").read_text())["nmax"] == 12


def test_recurrence_refuses_overflowing_tau(tmp_path, capsys):
    # Legendre tau_k ~ 2^k leaves the double range at k = 1025, and JSON has
    # no Infinity: the command refuses instead of writing an invalid file
    cfg = _write_json(tmp_path / "m.json", {"weight_kind": "legendre", "nmax": 1100})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["recurrence", "--config", cfg, "--out", str(out)]) == 4
    assert "tau_1025 overflows the double range" in capsys.readouterr().err
    assert not (out / "recurrence.json").exists()


def test_missing_config_is_io_error(tmp_path):
    assert main(["recurrence", "--config", str(tmp_path / "gone.json"),
                 "--out", str(tmp_path)]) == 2


def test_broken_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["recurrence", "--config", str(bad), "--out", str(tmp_path)]) == 3


def test_probe_on_cut_is_config_error(tmp_path):
    payload = scenario("base_legendre").to_json_dict()
    payload["probe_points"] = [[0.5, 0.0]]
    cfg = _write_json(tmp_path / "cut.json", payload)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("key, value", [
    ("n_ladder", [10, 10, 20]),        # a repeated rung divided by zero in the rate
    ("n_ladder", [-1, 10]),
    ("probe_points", []),              # a run that checks nothing is no pass
    ("laws", []),                      # it used to read back as every law and pass
])
def test_ladder_that_checks_nothing_is_config_error(tmp_path, key, value, capsys):
    payload = scenario("base_legendre").to_json_dict()
    payload[key] = value
    cfg = _write_json(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "summary.json").exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("nmax", [2.9, True, "12"])
def test_fractional_nmax_is_config_error(tmp_path, nmax, capsys):
    # 2.9 wrote a table through degree 2
    cfg = _write_json(tmp_path / "m.json", {"weight_kind": "legendre", "nmax": nmax})
    out = tmp_path / "out"
    assert main(["recurrence", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    assert "nmax must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_refused_zero_degree_is_numerical_error(tmp_path, precision, capsys):
    # degree 1 is at the highest coupled derivative: its builder refuses it
    cfg = _write_json(tmp_path / "c.json", {
        "measure": {"weight_kind": "legendre"},
        "target": {"kind": "sobolev", "sobolev": {"terms": [
            {"c": [2.0, 0.0], "gamma": [[[1.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [1.0, 0.0]]]}]}},
        "zero_degrees": [1, 60]})
    out = tmp_path / "out"
    assert main(["zeros", "--config", cfg, "--out", str(out),
                 "--precision", precision]) == 4
    assert not (out / "zeros.json").exists()
    assert capsys.readouterr().err == (
        "numerical error: need n > 1, the highest coupled derivative, got 1\n")


@pytest.mark.parametrize("name", ["base_legendre", "pade_gonchar"])
def test_negative_zero_degree_is_config_error(tmp_path, name, capsys):
    # it used to crash in basis_poly (exit 1) or refuse in the kernel (exit 4)
    payload = scenario(name).to_json_dict()
    payload["zero_degrees"] = [-1]
    cfg = _write_json(tmp_path / "z.json", payload)
    out = tmp_path / "out"
    assert main(["zeros", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "zeros.json").exists()
    assert "config error" in capsys.readouterr().err


ATOM_AT_2 = {"weight_kind": "legendre", "mass_points": [[2.0, 0.5]]}
# a target point on the atom at 2, for each target that places one
ON_ATOM_TARGETS = {
    "modifier_zero": {"kind": "modified", "modifier": {"zeros": [{"c": [2.0, 0.0], "mult": 1}]}},
    "modifier_pole": {"kind": "modified", "modifier": {"poles": [{"d": [2.0, 0.0], "mult": 1}]}},
    "coupling_point": {"kind": "sobolev", "sobolev": {"terms": [
        {"c": [2.0, 0.0], "gamma": [[[1.0, 0.0]]]}]}},
    "pade_pole": {"kind": "pade", "stieltjes": {"base": ATOM_AT_2, "poles": [
        {"c": [2.0, 0.0], "A": [[1.0, 0.0]]}]}},
}


@pytest.mark.parametrize("sub", ["verify", "zeros"])
@pytest.mark.parametrize("kind", sorted(ON_ATOM_TARGETS))
def test_target_point_on_an_atom_is_config_error(tmp_path, kind, sub, capsys):
    # an input conflict, not a numerical limit: it is refused once for the
    # spec, where a modifier or coupling point used to refuse every degree
    # (exit 4, every target row flagged)
    cfg = _write_json(tmp_path / "c.json", {"measure": ATOM_AT_2,
                                            "target": ON_ATOM_TARGETS[kind]})
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "with a mass point" in err, err


LEGENDRE = {"weight_kind": "legendre"}
# one config per kind of placed value (a point or an exponent), set to v
NONFINITE_CONFIGS = {
    "probe": lambda v: {"measure": LEGENDRE, "probe_points": [[v, 0.0]]},
    "mass_point": lambda v: {"measure": {"weight_kind": "legendre",
                                         "mass_points": [[v, 0.5]]}},
    "jacobi_exponent": lambda v: {"measure": {"weight_kind": "jacobi", "alpha": v}},
    "modifier_zero": lambda v: {"measure": LEGENDRE, "target": {
        "kind": "modified", "modifier": {"zeros": [{"c": [v, 0.0], "mult": 1}]}}},
    "modifier_pole": lambda v: {"measure": LEGENDRE, "target": {
        "kind": "modified", "modifier": {"poles": [{"d": [v, 0.0], "mult": 1}]}}},
    "coupling_point": lambda v: {"measure": LEGENDRE, "target": {
        "kind": "sobolev", "sobolev": {"terms": [{"c": [v, 0.0], "gamma": [[[1.0, 0.0]]]}]}}},
    "pade_pole": lambda v: {"measure": LEGENDRE, "target": {
        "kind": "pade", "stieltjes": {"base": LEGENDRE,
                                      "poles": [{"c": [v, 0.0], "A": [[1.0, 0.0]]}]}}},
    # weights and coefficients: NaN != 0 passes the nonzero-top-row checks
    "coupling_weight": lambda v: {"measure": LEGENDRE, "target": {
        "kind": "sobolev", "sobolev": {"terms": [{"c": [2.0, 0.0], "gamma": [[[v, 0.0]]]}]}}},
    "pade_coefficient": lambda v: {"measure": LEGENDRE, "target": {
        "kind": "pade", "stieltjes": {"base": LEGENDRE,
                                      "poles": [{"c": [0.0, 3.0], "A": [[v, 0.0]]}]}}},
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(NONFINITE_CONFIGS))
def test_nonfinite_value_is_config_error(tmp_path, kind, value):
    # NaN passes every distance-to-cut comparison and inf lies far from the
    # cut: both are refused before anything is built or written
    cfg = _write_json(tmp_path / "c.json", NONFINITE_CONFIGS[kind](value))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "summary.json").exists()


def _modifier(**point):
    return {"measure": LEGENDRE, "target": {"kind": "modified", "modifier": {
        "zeros": [{"c": [3.0, 0.0], "mult": 1, **point}]}}}


def _sobolev(**term):
    return {"measure": LEGENDRE, "target": {"kind": "sobolev", "sobolev": {"terms": [{
        "c": [2.0, 0.0], "gamma": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        **term}]}}}


def _pade(**stieltjes):
    return {"measure": LEGENDRE, "target": {"kind": "pade", "stieltjes": {
        "base": LEGENDRE, "poles": [{"c": [0.0, 3.0], "A": [[1.0, 0.0]]}], **stieltjes}}}


# (subcommand, config, the path its error names), one bad key or value per
# row at each nesting level; each used to exit 0, exit 1 (a modifier with
# a misspelt key read as trivial, then failed its laws), crash, or name no path
BAD_CONFIGS = {
    "list_verify": ("verify", [1, 2], "config"),
    "list_zeros": ("zeros", [1, 2], "config"),
    "list_recurrence": ("recurrence", [1, 2], "config"),
    "string_verify": ("verify", "legendre", "config"),
    "string_recurrence": ("recurrence", "legendre", "config"),
    "bare_measure_no_weight_kind": ("recurrence", {"nmax": 12}, "weight_kind"),
    "bare_measure_unknown_key": ("recurrence", {"weight_kind": "legendre",
                                                "mass_point": [[2.0, 0.5]]}, "mass_point"),
    "top_unknown_key": ("verify", {"measure": LEGENDRE, "n_ladders": [5, 7]}, "n_ladders"),
    "top_fractional_count": ("verify", {"measure": LEGENDRE, "n_ladder": [10, 20.5]},
                             "n_ladder[1]"),
    "top_bool_count": ("zeros", {"measure": LEGENDRE, "zero_degrees": [10, True]},
                       "zero_degrees[1]"),
    # it read as the letters of a law: "laws repeats a law"
    "laws_not_a_list": ("verify", {"measure": LEGENDRE, "laws": "base_ratio"},
                        "laws must be a JSON list"),
    "probe_of_three": ("verify", {"measure": LEGENDRE, "probe_points": [[3, 0, 9]]},
                       "probe_points[0]"),
    "measure_not_object": ("verify", {"measure": "legendre"}, "measure"),
    "measure_unknown_key": ("verify", {"measure": {"weight_kind": "legendre",
                                                   "mass_point": [[2.0, 0.5]]}},
                            "measure.mass_point"),
    "alpha_string": ("verify", {"measure": {"weight_kind": "jacobi", "alpha": "0.5"}},
                     "measure.alpha"),
    "beta_bool": ("verify", {"measure": {"weight_kind": "jacobi", "beta": True}},
                  "measure.beta"),
    # exponents of a fixed kind: Legendre ran, and summary.json echoed alpha 0.5
    "legendre_alpha": ("verify", {"measure": {"weight_kind": "legendre", "alpha": 0.5}},
                       "measure: alpha is read for jacobi only"),
    "bare_chebyshev_beta": ("recurrence", {"weight_kind": "chebyshev_first_kind",
                                           "beta": -0.5}, "beta is read for jacobi only"),
    "mass_point_of_one": ("verify", {"measure": {"weight_kind": "legendre",
                                                 "mass_points": [[2.0]]}},
                          "measure.mass_points[0]"),
    "target_kind_wrong_type": ("verify", {"measure": LEGENDRE, "target": {"kind": 5}},
                               "target.kind"),
    "modifier_unknown_key": ("verify", {"measure": LEGENDRE, "target": {
        "kind": "modified", "modifier": {"zero": [{"c": [3.0, 0.0], "mult": 1}]}}},
                             "target.modifier.zero"),
    "mult_fractional": ("verify", _modifier(mult=1.9), "target.modifier.zeros[0].mult"),
    "mult_bool": ("verify", _modifier(mult=True), "target.modifier.zeros[0].mult"),
    "point_unknown_key": ("verify", _modifier(m=2), "target.modifier.zeros[0].m"),
    "sobolev_unknown_key": ("verify", {"measure": LEGENDRE, "target": {
        "kind": "sobolev", "sobolev": {"terms": [], "points": []}}}, "target.sobolev.points"),
    "term_not_object": ("verify", {"measure": LEGENDRE, "target": {
        "kind": "sobolev", "sobolev": {"terms": [5]}}}, "target.sobolev.terms[0]"),
    "term_N_mismatch": ("verify", _sobolev(N=7), "target.sobolev.terms[0].N"),
    "term_N_fractional": ("verify", _sobolev(N=1.5), "target.sobolev.terms[0].N"),
    "term_unknown_key": ("verify", _sobolev(N=1, weight=2.0), "target.sobolev.terms[0].weight"),
    "gamma_bare_number": ("verify", _sobolev(gamma=[[1.0]]),
                          "target.sobolev.terms[0].gamma[0][0]"),
    "stieltjes_unknown_key": ("verify", _pade(pole=[]), "target.stieltjes.pole"),
    "base_unknown_key": ("verify", _pade(base={"weight_kind": "legendre", "mass": 1.0}),
                         "target.stieltjes.base.mass"),
    "pole_not_object": ("verify", _pade(poles=[[0.0, 3.0]]), "target.stieltjes.poles[0]"),
    "pole_coefficient_bare_number": ("verify", _pade(poles=[{"c": [0.0, 3.0], "A": [1.0]}]),
                                     "target.stieltjes.poles[0].A[0]"),
    # values a constructor refuses: still config errors, now with their path
    "unknown_weight_kind": ("verify", {"measure": {"weight_kind": "hermite"}}, "measure: "),
    "modifier_point_on_cut": ("verify", _modifier(c=[0.5, 0.0]), "target.modifier: "),
    "gamma_ragged": ("verify", _sobolev(gamma=[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
                     "target.sobolev.terms[0]: "),
    "pole_on_mass_point": ("verify", {
        "measure": {"weight_kind": "legendre", "mass_points": [[2.0, 0.5]]},
        "target": {"kind": "pade", "stieltjes": {
            "base": {"weight_kind": "legendre", "mass_points": [[2.0, 0.5]]},
            "poles": [{"c": [2.0, 0.0], "A": [[1.0, 0.0]]}]}}}, "target.stieltjes: "),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_names_its_path(tmp_path, name, capsys):
    sub, payload, path = BAD_CONFIGS[name]
    cfg = _write_json(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path in err, err


def test_verify_sobolev_scenario(tmp_path, capsys):
    rc = main(["verify", "--config", "sobolev_point_derivative",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ratios_sobolev_vs_base.csv").exists()
    assert (tmp_path / "ratios_sobolev_vs_base.json").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True and summary["violations"] == []
    assert summary["rows"] == 4 * 2 * 4            # probes x jets x degrees
    assert "PASS" in capsys.readouterr().out


def test_verify_flags_unbuildable_degree(tmp_path):
    # the zero 2.5 is b_0 of Legendre plus the atom (3, 10), the zero of
    # L_1: (x - 2.5) dmu has no unique Q_1, and degree 1 is flagged
    payload = scenario("modified_rational").to_json_dict()
    payload["measure"]["mass_points"] = [[3.0, 10.0]]
    payload["target"]["modifier"] = {"zeros": [{"c": [2.5, 0.0], "mult": 1}]}
    payload["n_ladder"] = [1, 10]
    payload["laws"] = ["modified_vs_base"]
    payload["probe_points"] = [[-2.0, 0.0]]
    cfg = _write_json(tmp_path / "early.json", payload)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [row[4] for row in summary["flagged"]] == [1, 1]
    assert summary["flagged"][0][5].startswith("degree_collapse: ")


def test_verify_flags_every_row_of_an_ill_conditioned_kernel(tmp_path):
    # coupling points 1e-5 apart: the kernel gate refuses every degree
    terms = [{"c": [c, 0.0], "gamma": [[[1.0, 0.0]]]} for c in (2.0, 2.00001)]
    cfg = _write_json(tmp_path / "near.json", {
        "measure": {"weight_kind": "legendre"},
        "target": {"kind": "sobolev", "sobolev": {"terms": terms}}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"] == len(summary["flagged"]) == 32
    assert all(row[5].startswith("pre_asymptotic: bordered kernel system ill-conditioned")
               for row in summary["flagged"])


@pytest.mark.parametrize("target, precision", [
    ({"kind": "pade", "stieltjes": {"base": {"weight_kind": "legendre"}}}, "double"),
    ({"kind": "pade", "stieltjes": {"base": {"weight_kind": "legendre"}}}, "extended"),
    ({"kind": "modified", "modifier": {}}, "double")],
    ids=["pade_no_poles", "pade_no_poles_extended", "modifier_no_points"])
def test_verify_target_that_is_the_base_passes(tmp_path, target, precision):
    # X_n = L_n: the law over the base reads 1 with error 0 at every row.
    # Read off a product of the probe jets with e_n and divided by L_n, some
    # rows missed 1 by an ulp after a row of error 0, a monotone violation
    cfg = _write_json(tmp_path / "base.json",
                      {"measure": {"weight_kind": "legendre"}, "target": target})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                 "--precision", precision]) == 0
    law = f"{target['kind']}_vs_base"
    rows = json.loads((tmp_path / f"ratios_{law}.json").read_text())["rows"]
    assert len(rows) == 32
    assert {(r[4], r[5], r[8]) for r in rows} == {(1.0, 0.0, 0.0)}


def test_verify_monotone_failure_exit(tmp_path, monkeypatch):
    monkeypatch.setattr("relasym.cli.monotone_violations",
                        lambda rows: [("base_ratio", 3.0 + 0j, 0, 20)])
    rc = main(["verify", "--config", "base_legendre", "--out", str(tmp_path)])
    assert rc == 1
    assert json.loads((tmp_path / "summary.json").read_text())["pass"] is False


def test_precision_override_lands_in_summary(tmp_path):
    payload = {"measure": {"weight_kind": "legendre"},
               "probe_points": [[3.0, 0.0]], "n_ladder": [5, 10], "jets": 0}
    cfg = _write_json(tmp_path / "tiny.json", payload)
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path),
               "--precision", "extended"])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["precision"] == "extended"


def test_zeros_scenario(tmp_path, capsys):
    rc = main(["zeros", "--config", "pade_gonchar", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "zeros.json").read_text())
    rep = payload["reports"]["60"]
    assert rep["cluster_counts"] == [2]
    assert rep["support_count"] == 58
    assert "clusters=[2]" in capsys.readouterr().out


def test_zeros_of_the_first_degrees_on_legendre(tmp_path):
    # l_1 has its root at 0 exactly, where the gate's evaluation scale is 0
    payload = scenario("base_legendre").to_json_dict()
    payload["zero_degrees"] = [1, 2, 3]
    cfg = _write_json(tmp_path / "low.json", payload)
    assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "zeros.json").read_text())["reports"]
    assert [reports[str(n)]["support_count"] for n in (1, 2, 3)] == [1, 2, 3]


def test_zeros_numerical_failure_exit(tmp_path, capsys):
    # a singular coupling matrix: the kernel lane refuses every degree of a
    # product that is not regular, which is a numerics exit (a coupling point
    # on an atom is a config error: test_target_point_on_an_atom_is_config_error)
    payload = scenario("sobolev_point_pair").to_json_dict()
    payload["target"]["sobolev"]["terms"][0]["gamma"] = [[[1.0, 0.0], [1.0, 0.0]],
                                                         [[1.0, 0.0], [1.0, 0.0]]]
    cfg = _write_json(tmp_path / "singular.json", payload)
    assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "inner product is not regular" in capsys.readouterr().err


def test_extended_precision_rejected_for_modified(tmp_path):
    # the modified target has no extended lane, so the override is a
    # config error rather than a silently ignored setting
    assert main(["verify", "--config", "modified_rational", "--out", str(tmp_path),
                 "--precision", "extended"]) == 3
    assert not (tmp_path / "summary.json").exists()


def test_zeros_past_double_range_is_numerical_exit(tmp_path):
    # at degree 1000 the lambda system of this modifier overflows; the
    # refusal maps to the numerics exit instead of ending in a traceback
    payload = scenario("modified_rational").to_json_dict()
    payload["zero_degrees"] = [1000]
    cfg = _write_json(tmp_path / "deep.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_zeros_overflowed_residual_is_numerical_exit(tmp_path, capsys):
    # at degree 600 the recurrence at the root next to the atom at 2
    # leaves the double range; a gate that cannot evaluate its residual
    # refuses instead of letting a nan pass as a small one
    payload = {"measure": {"weight_kind": "legendre", "mass_points": [[2.0, 0.5]]},
               "zero_degrees": [600]}
    cfg = _write_json(tmp_path / "atom.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "zeros.json").exists()


def test_unconverged_root_iteration_is_numerical_exit(tmp_path, monkeypatch, capsys):
    # pade_gonchar has complex coefficients, so its roots come from the
    # secular iteration; past the sweep cap it refuses with a typed error
    monkeypatch.setattr(relasym.zeros, "MAX_SWEEPS", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["zeros", "--config", "pade_gonchar", "--out", str(tmp_path)]) == 4
    assert "did not converge at degree 60" in capsys.readouterr().err
    assert not (tmp_path / "zeros.json").exists()


def test_zeros_report_is_byte_identical_across_processes(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        subprocess.run([sys.executable, "-m", "relasym.cli", "zeros", "--config",
                        "pade_gonchar", "--out", str(out)], check=True,
                       capture_output=True)
        outs.append((out / "zeros.json").read_bytes())
    assert outs[0] == outs[1]


# specs whose ladders the double lane carries; the probes stay off the
# coupling points and poles (the default probe 2i is a pole of two_pole)
EXTENDED_TARGETS = {
    "mixed": {"kind": "sobolev", "sobolev": {"terms": [
        {"c": [2.0, 0.0], "gamma": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"c": [-3.0, 0.0], "gamma": [[[1.0, 0.0]]]}]}},
    "two_pole": {"kind": "pade", "stieltjes": {
        "base": {"weight_kind": "legendre"},
        "poles": [{"c": [0.0, 2.0], "A": [[0.3, 0.0], [1.0, 0.0]]},
                  {"c": [-3.0, 0.0], "A": [[2.0, 0.0]]}]}},
}


@pytest.mark.parametrize("name", ["sobolev_point_derivative", "sobolev_point_pair",
                                  "pade_gonchar", "mixed", "two_pole"])
def test_extended_precision_verify_passes(tmp_path, name):
    # the mpmath lane must carry every bundled Sobolev and Pade ladder, and
    # every ladder the double lane carries
    config = name
    if name in EXTENDED_TARGETS:
        config = _write_json(tmp_path / f"{name}.json", {
            "measure": {"weight_kind": "legendre"}, "target": EXTENDED_TARGETS[name],
            "probe_points": [[3.0, 0.0], [-2.5, 0.0], [0.0, -2.0], [1.5, 1.5]],
            "n_ladder": [10, 20, 40, 80], "jets": 1})
    assert main(["verify", "--config", config, "--out", str(tmp_path),
                 "--precision", "extended"]) == 0


def test_overflowed_ladder_rows_are_flagged(tmp_path):
    # past the double range the jets overflow; those rows carry a flag that
    # names the overflow and the run is a numerics exit, not a violation
    payload = {"measure": {"weight_kind": "legendre"},
               "n_ladder": [200, 400, 700, 1000]}
    cfg = _write_json(tmp_path / "deep.json", payload)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    flags = [entry[5] for entry in summary["flagged"]]
    assert flags and all(f.startswith("overflow") for f in flags)
    nan_rows = sum(line.split(",")[8] == "nan"
                   for law in summary["laws"]
                   for line in (tmp_path / f"ratios_{law}.csv").read_text().splitlines())
    assert nan_rows == len(flags)


def test_derivative_order_above_degree_is_pre_asymptotic(tmp_path, capsys):
    # L_n^(k) = 0 for k > n, so a row whose law reads such an order is 0/0
    # or x/0: it is flagged by the order it reads (nu for base_ratio, nu + 1
    # for the log-derivative), without a division and without a warning
    payload = scenario("base_legendre").to_json_dict()
    payload["jets"] = 3
    payload["n_ladder"] = [1, 2, 10]
    cfg = _write_json(tmp_path / "low.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "FAIL: 32 rows could not be evaluated\n"
    summary = json.loads((tmp_path / "summary.json").read_text())
    flags = {(law, nu, n): flag for law, _, _, nu, n, flag in summary["flagged"]}
    want = {}
    for law, extra in (("base_ratio", 0), ("base_log_derivative", 1)):
        for nu in range(4):
            for n in (1, 2, 10):
                if nu + extra > n:
                    want[law, nu, n] = (f"pre_asymptotic: derivative order "
                                        f"{nu + extra} exceeds degree {n}")
    assert flags == want
    assert len(summary["flagged"]) == len(want) * len(payload["probe_points"])
    # every other row keeps a finite ratio
    kept = [line.split(",") for law in summary["laws"]
            for line in (tmp_path / f"ratios_{law}.csv").read_text().splitlines()[1:]]
    assert len(kept) == summary["rows"]
    assert sum(np.isfinite(float(cols[8])) for cols in kept) == summary["rows"] - 32


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; the command line must not pay its import
    code = "import sys, relasym.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _mpmath_loaded_after(code: str, *argv) -> bool:
    """Whether a fresh interpreter has imported mpmath after running code."""
    out = subprocess.run([sys.executable, "-c", code + "\nprint('mpmath' in sys.modules)",
                          *map(str, argv)], capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1] == "True"


def test_double_precision_commands_never_load_mpmath(tmp_path):
    # mpmath is the extended lane's alone: every bundled double-precision
    # run finishes without importing it
    code = """
import sys
from relasym.cli import main
from relasym.scenarios import scenario_names
runs = [["recurrence", "--config", "legendre"]]
runs += [[cmd, "--config", name] for name in scenario_names() for cmd in ("verify", "zeros")]
assert all(main(argv + ["--out", sys.argv[1]]) == 0 for argv in runs)"""
    assert not _mpmath_loaded_after(code, tmp_path)


def test_pole_free_error_ratio_never_loads_mpmath():
    # with no poles Q_n = L_n, and the Q_n^2 identity runs in double alone
    code = """
import sys
from relasym import BaseMeasureSpec, StieltjesFn, error_ratio, recurrence_for
cheb = BaseMeasureSpec("chebyshev_first_kind")
for z in (3.0, -1.05):
    error_ratio(1000, z, StieltjesFn(cheb), recurrence_for(cheb, 10))"""
    assert not _mpmath_loaded_after(code)


@pytest.mark.parametrize("code", [
    "from relasym.cli import main\n"
    "assert main(['verify', '--config', 'sobolev_point_pair', '--out', sys.argv[1],"
    " '--precision', 'extended']) == 0",
    "from relasym import error_ratio, recurrence_for, scenario\n"
    "f = scenario('pade_gonchar').target\n"
    "error_ratio(5, 3.0, f, recurrence_for(f.base, 10))",
], ids=["verify_extended", "error_ratio"])
def test_extended_lane_loads_mpmath_on_demand(tmp_path, code):
    assert _mpmath_loaded_after("import sys\n" + code, tmp_path)


def _zeros_payload(name, n):
    cfg = scenario(name)
    reps = run_zero_attraction(dataclasses.replace(cfg, zero_degrees=(n,)))
    return {"config": cfg.to_json_dict(),
            "reports": {str(k): rep.to_json_dict() for k, rep in reps.items()}}


WRITER_EDGES = {
    "empty": {"roots": [], "centers": [], "reports": {}},
    "signed_zero_subnormal_huge": {"roots": [[-0.0, 5e-324], [1e300, -1e300], [0.1, -2.5]]},
    "nan": {"roots": [[float("nan"), 0.0], [1.0, 2.0]], "x": float("nan")},
    "inf": {"roots": [[1.0, float("-inf")]]},
    "ints_and_bools": {"roots": [[1, 2]], "mixed": [[1.0, 2]], "flags": [[True, 1.0]]},
    "nested": {"a": [[[1.0, 2.0]], {"roots": [[3.0, 4.0]]}], "b": {"c": {"roots": [[5.0, 6.0]]}},
               "triples": [[1.0, 2.0, 3.0]], "s": "tab\there é"},
    "nonfinite": {"x": [math.nan, math.inf, -math.inf], "y": [[math.inf, 1.0]], "z": -math.inf},
    "tiny_and_signed_zero": {"x": [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e22]},
    "empty_and_nested": {"l": [], "d": {}, "n": [[], [[]], [{}], [[1, [2.0, [3]]]]], "e": [{}]},
    "tuples": {"t": (1.0, 2.0), "u": ((1.0, 2.0), (3, "x")), "v": [(0.5, -0.5)], "w": ()},
    "strings": {"q": 'say "hi" \\ back/slash', "u": "ünïcödé 中文 \u2028 \U0001f600",
                "c": "\n\r\t\x00\x1f\x7f", "": "", "é": "key"},
    "constants": {"t": True, "f": False, "n": None, "l": [True, None, False, 0, -7, 10 ** 30]},
    "root_list": [[1.5, -2.5], [0.0, 3.0]],
    "root_scalar": 0.1,
}


@pytest.mark.parametrize("payload", [pytest.param(p, id=k) for k, p in WRITER_EDGES.items()]
                         + [pytest.param(name, id=name) for name in
                            ("sobolev_point_pair", "pade_gonchar", "base_legendre")])
def test_json_writer_matches_json_dumps(tmp_path, payload):
    # root lists go through a template; the bytes are json.dumps's
    if isinstance(payload, str):
        payload = _zeros_payload(payload, 180)
    path = cli_write_json(tmp_path / "out.json", payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


BUNDLED_COMMANDS = ([("verify", name) for name in sorted(SCENARIOS)]
                    + [("zeros", name) for name in sorted(SCENARIOS)]
                    + [("recurrence", name) for name in sorted(BUNDLED_MEASURES)])


@pytest.mark.parametrize("sub, name", BUNDLED_COMMANDS)
def test_json_text_of_every_bundled_report_is_json_dumps(tmp_path, monkeypatch, sub, name):
    # every summary.json, zeros.json and recurrence.json payload the bundled
    # configs give, taken on its way to the writer
    payloads, write = [], relasym.cli._write_json

    def kept(path, payload):
        payloads.append(payload)
        return write(path, payload)

    monkeypatch.setattr(relasym.cli, "_write_json", kept)
    assert main([sub, "--config", name, "--out", str(tmp_path)]) == 0
    assert payloads
    for payload in payloads:
        assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_repeated_commands_in_one_process_write_what_separate_processes_write(tmp_path):
    # the parser is built once at import: a process that runs many commands,
    # in any order, writes each report as a fresh process does
    commands = [("zeros", "pade_gonchar"), ("recurrence", "chebyshev_atom"),
                ("verify", "sobolev_point_pair"), ("verify", "modified_rational")]
    alone = []
    for k, (sub, name) in enumerate(commands):
        out = tmp_path / "alone" / str(k)
        subprocess.run([sys.executable, "-m", "relasym.cli", sub, "--config", name,
                        "--out", str(out)], check=True, capture_output=True)
        alone.append(_tree(out))
    for run, k in enumerate([2, 0, 3, 1, 0, 2, 1, 3]):
        sub, name = commands[k]
        out = tmp_path / "in_process" / str(run)
        assert main([sub, "--config", name, "--out", str(out)]) == 0
        assert _tree(out) == alone[k]


@pytest.mark.parametrize("sub", ["recurrence", "verify", "zeros"])
def test_each_subcommand_runs(tmp_path, sub):
    config = "legendre" if sub == "recurrence" else "sobolev_point_derivative"
    assert main([sub, "--config", config, "--out", str(tmp_path)]) == 0
    name = {"recurrence": "recurrence.json", "verify": "summary.json",
            "zeros": "zeros.json"}[sub]
    assert (tmp_path / name).exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "base_legendre", "--precision", "quad"],
    ["verify"],
    ["--config", "base_legendre"],
    ["solve", "--config", "base_legendre"],
], ids=["bad_precision", "missing_config", "missing_subcommand", "unknown_subcommand"])
def test_bad_command_line_exits_2(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path)])
    assert info.value.code == 2
    assert "usage: relasym" in capsys.readouterr().err
