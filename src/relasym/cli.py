"""Command line front end.

Three subcommands, all driven by a config that is either the name of a
bundled scenario or a path to a JSON experiment description:

    relasym recurrence --config legendre --out results/
    relasym verify     --config sobolev_point_derivative --out results/
    relasym zeros      --config pade_gonchar --out results/

Every run is deterministic: no clocks, no RNG, stable key ordering in
all emitted JSON, so re-running a command with the same config yields
byte-identical report files.

Exit codes: 0 success, 1 a monotone-decrease assertion failed, 2 I/O
(unreadable config, unwritable output), 3 bad configuration, 4 the
numerics gave out (singular solve, overflow, residual gate).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .joukowski import CutDomainError
from .measures import BaseMeasureSpec, MeasureError, recurrence_for
from .modified import ModifiedError
from .pade import PadeError
from .sobolev import SobolevError
from .verify import (ExperimentConfig, VerifyConfigError, emit_report,
                     monotone_violations, run_ratio_ladder,
                     run_zero_attraction)
from .zeros import ClusterConfigError, ZerosError
from .scenarios import BUNDLED_MEASURES, SCENARIOS, bundled_measure, scenario

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_CONFIG_ERRORS = (VerifyConfigError, ClusterConfigError, MeasureError)
_NUMERICAL_ERRORS = (ZerosError, SobolevError, ModifiedError, PadeError,
                     CutDomainError)


def _read_json(path_str: str) -> dict:
    # OSError propagates to the exit-code mapper (I/O); bad syntax is config.
    text = Path(path_str).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise VerifyConfigError(f"config is not valid JSON: {exc}") from exc


def load_experiment(name_or_path: str) -> ExperimentConfig:
    """Bundled scenario by name, else a JSON file path."""
    if name_or_path in SCENARIOS:
        return scenario(name_or_path)
    return ExperimentConfig.from_json_dict(_read_json(name_or_path))


def load_measure(name_or_path: str) -> tuple[BaseMeasureSpec, int]:
    """Measure plus table depth from a name, scenario, or JSON file."""
    if name_or_path in BUNDLED_MEASURES:
        return bundled_measure(name_or_path), 80
    if name_or_path in SCENARIOS:
        cfg = scenario(name_or_path)
        return cfg.measure, max(cfg.n_ladder)
    data = _read_json(name_or_path)
    if "measure" in data:
        cfg = ExperimentConfig.from_json_dict(data)
        return cfg.measure, max(cfg.n_ladder)
    try:
        nmax = int(data.pop("nmax", 80))
    except (TypeError, ValueError) as exc:
        raise VerifyConfigError(f"bad nmax: {exc}") from exc
    return BaseMeasureSpec.from_json_dict(data), nmax


def _write_json(path: Path, payload: dict) -> Path:
    """The one JSON writer: sorted keys, 2-space indent, a final newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.precision is not None and args.precision != cfg.precision:
        cfg = dataclasses.replace(cfg, precision=args.precision)
    return cfg


def cmd_recurrence(args) -> int:
    spec, nmax = load_measure(args.config)
    with np.errstate(over="ignore"):
        table = recurrence_for(spec, nmax)
    over = np.flatnonzero(~np.isfinite(table.tau))
    if over.size:
        # JSON has no Infinity: refuse instead of writing an invalid file
        print(f"numerical error: tau_{over[0]} overflows the double range",
              file=sys.stderr)
        return EXIT_NUMERICAL
    out = _out_dir(args)
    path = _write_json(out / "recurrence.json", {
        "measure": spec.to_json_dict(),
        "nmax": table.nmax,
        "table": table.to_json_dict(),
    })
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _apply_overrides(load_experiment(args.config), args)
    rows = run_ratio_ladder(cfg)
    out = _out_dir(args)
    written = []
    for law in cfg.resolved_laws:
        law_rows = [r for r in rows if r.law == law]
        written.append(emit_report(law_rows, "csv", out / f"ratios_{law}.csv"))
        written.append(emit_report(law_rows, "json", out / f"ratios_{law}.json"))
    bad = monotone_violations(rows)
    flagged = [r for r in rows if r.flag]
    summary = {
        "config": cfg.to_json_dict(),
        "laws": list(cfg.resolved_laws),
        "rows": len(rows),
        "violations": [[law, z.real, z.imag, nu, n] for law, z, nu, n in bad],
        "flagged": [[r.law, r.z.real, r.z.imag, r.nu, r.n, r.flag]
                    for r in flagged],
        "pass": not bad,
    }
    written.append(_write_json(out / "summary.json", summary))
    for p in written:
        print(f"wrote {p}")
    if flagged:
        print(f"FAIL: {len(flagged)} rows could not be evaluated", file=sys.stderr)
        return EXIT_NUMERICAL
    if bad:
        print(f"FAIL: {len(bad)} monotone-decrease violations", file=sys.stderr)
        return EXIT_ASSERTION
    print(f"PASS: {len(rows)} rows, errors non-increasing along the ladder")
    return EXIT_OK


def cmd_zeros(args) -> int:
    cfg = _apply_overrides(load_experiment(args.config), args)
    reports = run_zero_attraction(cfg)
    out = _out_dir(args)
    path = _write_json(out / "zeros.json", {
        "config": cfg.to_json_dict(),
        "reports": {str(n): rep.to_json_dict() for n, rep in sorted(reports.items())},
    })
    print(f"wrote {path}")
    for n, rep in sorted(reports.items()):
        print(f"n={n}: clusters={list(rep.cluster_counts)} "
              f"support={rep.support_count} unassigned={len(rep.unassigned)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relasym",
        description="Ratio-asymptotic experiments for modified orthogonal polynomials.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="bundled scenario name or path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--precision", choices=("double", "extended"),
                       default=None, help="override the config's precision lane")

    p_rec = sub.add_parser("recurrence", help="emit a recurrence table as JSON")
    common(p_rec)
    p_rec.set_defaults(func=cmd_recurrence)

    p_ver = sub.add_parser("verify", help="run ratio ladders and report errors")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_zer = sub.add_parser("zeros", help="locate zeros and cluster them")
    common(p_zer)
    p_zer.set_defaults(func=cmd_zeros)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
