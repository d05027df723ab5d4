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
import math
import sys
from pathlib import Path

import numpy as np

from . import reader
from .measures import BaseMeasureSpec, recurrence_for
from .verify import (ExperimentConfig, VerifyConfigError, emit_report, monotone_violations,
                     report_cells, run_ratio_ladder, run_zero_attraction)
from .scenarios import BUNDLED_MEASURES, SCENARIOS, bundled_measure, scenario

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_escape = json.encoder.encode_basestring_ascii


def _read_json(path_str: str) -> dict:
    # OSError propagates to the exit-code mapper (I/O); bytes that are not
    # UTF-8 and text the decoder refuses are config.  Besides bad syntax
    # (JSONDecodeError) it raises ValueError for an integer past Python's
    # digit limit and RecursionError for nesting past its recursion limit.
    data = Path(path_str).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise VerifyConfigError(f"config is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
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
    data = reader.obj(_read_json(name_or_path), "")
    if "measure" in data:
        cfg = ExperimentConfig.from_json_dict(data)
        return cfg.measure, max(cfg.n_ladder)
    nmax = reader.integral(data.pop("nmax", 80), "nmax")
    return BaseMeasureSpec.from_json_dict(data), nmax


def _is_root_list(obj) -> bool:
    """A nonempty list of [re, im] pairs of finite floats."""
    return type(obj) is list and bool(obj) and all(
        type(p) is list and len(p) == 2 and type(p[0]) is float and type(p[1]) is float
        and math.isfinite(p[0]) and math.isfinite(p[1]) for p in obj)


def _json_text(obj, pad: str = "") -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) at indent pad,
    written here, since json.dumps indents through one pure-Python generator
    per level.  It takes dicts with str keys, lists, tuples, str, int, float
    (NaN and +-Infinity for a non-finite one, as json.dumps writes them),
    bool and None; anything else is a TypeError.  Root lists come from one
    fixed template, the way emit_report writes rows."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _is_root_list(obj):
            pair = f"{inner}[\n{inner}  {{!r}},\n{inner}  {{!r}}\n{inner}]"
            return "[\n" + ",\n".join(pair.format(*p) for p in obj) + f"\n{pad}]"
        return "[\n" + ",\n".join(inner + _json_text(v, inner) for v in obj) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{\n" + ",\n".join(f"{inner}{_escape(k)}: {_json_text(obj[k], inner)}"
                                    for k in sorted(obj)) + f"\n{pad}}}")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> Path:
    """The writer of recurrence.json, summary.json and zeros.json: sorted
    keys, 2-space indent, a final newline.  Ratio reports are written by
    verify.emit_report from its own row template."""
    path.write_text(_json_text(payload) + "\n")
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
    if args.precision is not None:
        # the table is built in double alone: a lane it ignored would read as honoured
        raise reader.ConfigError("recurrence has no precision lane")
    spec, nmax = load_measure(args.config)
    table = recurrence_for(spec, nmax)
    over = np.flatnonzero(~np.isfinite(table.tau))
    if over.size:
        # JSON has no Infinity: refuse instead of writing an invalid file
        raise reader.Refusal(f"tau_{over[0]} overflows the double range", kind="overflow")
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
        cells = report_cells(law_rows)
        written.append(emit_report(law_rows, "csv", out / f"ratios_{law}.csv", cells))
        written.append(emit_report(law_rows, "json", out / f"ratios_{law}.json", cells))
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


COMMANDS = {"recurrence": cmd_recurrence, "verify": cmd_verify, "zeros": cmd_zeros}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relasym",
        description="Ratio-asymptotic experiments for modified orthogonal polynomials. "
                    "recurrence emits a recurrence table as JSON, verify runs ratio "
                    "ladders and reports errors, zeros locates zeros and clusters them.",
    )
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="bundled scenario name or path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--precision", choices=("double", "extended"),
                        default=None,
                        help="override the config's precision lane (verify and zeros)")
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return COMMANDS[args.subcommand](args)
    except reader.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except reader.Refusal as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
