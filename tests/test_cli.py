"""Exit codes, report files, and byte determinism of the command line."""
import json
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
    # value coupling sitting on a measure atom: the bordered solve is
    # rejected by the conditioning gate, which is a numerics exit
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
        warnings.simplefilter("ignore", RuntimeWarning)   # the jets overflow
        assert main(["zeros", "--config", cfg, "--out", str(tmp_path)]) == 4
