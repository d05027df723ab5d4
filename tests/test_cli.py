"""Exit codes, report files, and byte determinism of the command line."""
import json
import subprocess
import sys
import warnings

import pytest

from relasym import scenario
from relasym.cli import main


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
    payload = scenario("modified_rational").to_json_dict()
    payload["n_ladder"] = [1, 10]
    payload["laws"] = ["modified_vs_base"]
    payload["probe_points"] = [[3.0, 0.0]]
    cfg = _write_json(tmp_path / "early.json", payload)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flagged"] and summary["flagged"][0][4] == 1


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


def test_zeros_numerical_failure_exit(tmp_path):
    # value coupling sitting on a measure atom: the kernel lane refuses it
    # (forward jets at an atom are rounding noise), which is a numerics exit
    payload = scenario("sobolev_point_pair").to_json_dict()
    payload["measure"] = {"weight_kind": "chebyshev_first_kind",
                          "mass_points": [[2.0, 0.5]]}
    cfg = _write_json(tmp_path / "collide.json", payload)
    assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 4


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


@pytest.mark.parametrize("name", ["sobolev_point_derivative", "sobolev_point_pair",
                                  "pade_gonchar"])
def test_extended_precision_verify_passes(tmp_path, name):
    # the exact lane must carry every bundled Sobolev and Pade ladder
    assert main(["verify", "--config", name, "--out", str(tmp_path),
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


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; the command line must not pay its import
    code = "import sys, relasym.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
