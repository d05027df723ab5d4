"""Ratio-ladder experiments against closed-form limits, with reports.

Each law names a ratio of computed polynomial data and the limit it
must approach as the degree grows:

  base_ratio               L_{n+1}^(nu)(z) / L_n^(nu)(z)        phi(z)/2
  base_log_derivative      L_n^(nu+1)(z) / (n L_n^(nu)(z))      1/sqrt(z^2-1)
  modified_vs_base         Q_n^(nu)(z) / L_n^(nu)(z)            modification product
  modified_ratio           Q_{n+1}^(nu)(z) / Q_n^(nu)(z)        phi(z)/2
  modified_log_derivative  Q_n^(nu+1)(z) / (n Q_n^(nu)(z))      1/sqrt(z^2-1)
  modified_derivative_gap  Q_n^(nu+2)(z) / (n(n-1) Q_n^(nu)(z)) 1/(z^2-1)
  sobolev_vs_base          S_n^(nu)(z) / L_n^(nu)(z)            attraction product
  pade_vs_base             Q_n^(nu)(z) / L_n^(nu)(z)            attraction product

Ladders are emitted as rows carrying the ratio, the limit, the error
and a two-point geometric rate estimate; reports are CSV or JSON with
a fixed column order and deterministic float formatting, so identical
configs produce identical bytes.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .joukowski import (CutDomainError, dist_to_cut, limit_modified,
                        limit_sobolev, phi, sqrt_z2m1)
from .measures import BaseMeasureSpec, MeasureError, RecurrenceTable, recurrence_for
from .modified import ModifiedError, RationalModifier, solve_Q
from .pade import PadeError, StieltjesFn, to_sobolev_spec
from .polybasis import MONIC, PolyInBasis, basis_jets
from .sobolev import SobolevError, SobolevSpec, regularity, sn_kernel, sn_lambda
from .zeros import cluster, roots

__all__ = [
    "VerifyConfigError",
    "ExperimentConfig",
    "RatioRow",
    "LAWS_BY_TARGET",
    "CSV_COLUMNS",
    "DEFAULT_LADDER",
    "DEFAULT_PROBES",
    "run_ratio_ladder",
    "run_zero_attraction",
    "emit_report",
    "load_rows",
    "monotone_violations",
    "boundary_grid",
    "attraction_factors",
]

DEFAULT_LADDER = (10, 20, 40, 80)
DEFAULT_PROBES = (3.0 + 0.0j, -2.5 + 0.0j, 2.0j, 1.5 + 1.5j)

LAWS_BY_TARGET = {
    "base_only": ("base_ratio", "base_log_derivative"),
    "modified": ("modified_vs_base", "modified_ratio",
                 "modified_log_derivative", "modified_derivative_gap"),
    "sobolev": ("sobolev_vs_base",),
    "pade": ("pade_vs_base",),
}

CSV_COLUMNS = ("n", "z_re", "z_im", "nu", "ratio_re", "ratio_im",
               "limit_re", "limit_im", "abs_err", "est_rate")


class VerifyConfigError(ValueError):
    pass


@dataclass
class RatioRow:
    """One compared quantity: computed ratio vs its closed-form limit."""

    law: str
    n: int
    z: complex
    nu: int
    ratio: complex
    limit: complex
    abs_err: float
    est_rate: float
    flag: str = ""


@dataclass
class ExperimentConfig:
    """A measure, a target construction, and the grid to probe it on."""

    measure: BaseMeasureSpec
    target_kind: str = "base_only"
    modifier: RationalModifier | None = None
    sobolev: SobolevSpec | None = None
    stieltjes: StieltjesFn | None = None
    probe_points: tuple = DEFAULT_PROBES
    n_ladder: tuple = DEFAULT_LADDER
    jets: int = 1
    laws: tuple | None = None
    zero_degrees: tuple = ()
    precision: str = "double"

    def __post_init__(self):
        if self.target_kind not in LAWS_BY_TARGET:
            raise VerifyConfigError(f"unknown target kind {self.target_kind!r}")
        payload = {"modified": self.modifier, "sobolev": self.sobolev,
                   "pade": self.stieltjes}
        need = payload.get(self.target_kind)
        if self.target_kind != "base_only" and need is None:
            raise VerifyConfigError(f"target {self.target_kind!r} needs its payload")
        if self.precision not in ("double", "extended"):
            raise VerifyConfigError(f"unknown precision {self.precision!r}")
        if self.precision == "extended" and self.target_kind == "modified":
            raise VerifyConfigError("target 'modified' has no extended-precision lane")
        self.probe_points = tuple(complex(z) for z in self.probe_points)
        self.n_ladder = tuple(int(n) for n in self.n_ladder)
        self.zero_degrees = tuple(int(n) for n in self.zero_degrees)
        if not self.n_ladder or sorted(self.n_ladder) != list(self.n_ladder):
            raise VerifyConfigError("n_ladder must be a nonempty increasing sequence")
        if self.jets < 0:
            raise VerifyConfigError("jets must be nonnegative")
        centers = [c for c, _ in attraction_factors(self)]
        for z in self.probe_points:
            if dist_to_cut(z) < 1e-9:
                raise VerifyConfigError(f"probe point {z} lies on the cut")
            for c in centers:
                if abs(z - c) < 1e-9:
                    raise VerifyConfigError(f"probe point {z} sits on a center")
        if self.laws is not None:
            self.laws = tuple(self.laws)
            allowed = LAWS_BY_TARGET[self.target_kind]
            for law in self.laws:
                if law not in allowed:
                    raise VerifyConfigError(
                        f"law {law!r} not available for target {self.target_kind!r}")

    @property
    def resolved_laws(self) -> tuple:
        return self.laws if self.laws is not None else LAWS_BY_TARGET[self.target_kind]

    def to_json_dict(self) -> dict:
        target: dict = {"kind": self.target_kind}
        if self.modifier is not None:
            target["modifier"] = self.modifier.to_json_dict()
        if self.sobolev is not None:
            target["sobolev"] = self.sobolev.to_json_dict()
        if self.stieltjes is not None:
            target["stieltjes"] = self.stieltjes.to_json_dict()
        return {
            "measure": self.measure.to_json_dict(),
            "target": target,
            "probe_points": [[z.real, z.imag] for z in self.probe_points],
            "n_ladder": list(self.n_ladder),
            "jets": self.jets,
            "laws": list(self.laws) if self.laws is not None else None,
            "zero_degrees": list(self.zero_degrees),
            "precision": self.precision,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            target = data.get("target", {"kind": "base_only"})
            kind = target.get("kind", "base_only")
            cfg = cls(
                measure=BaseMeasureSpec.from_json_dict(data["measure"]),
                target_kind=kind,
                modifier=(RationalModifier.from_json_dict(target["modifier"])
                          if "modifier" in target else None),
                sobolev=(SobolevSpec.from_json_dict(target["sobolev"])
                         if "sobolev" in target else None),
                stieltjes=(StieltjesFn.from_json_dict(target["stieltjes"])
                           if "stieltjes" in target else None),
                probe_points=tuple(
                    complex(p[0], p[1]) for p in data["probe_points"]
                ) if "probe_points" in data else DEFAULT_PROBES,
                n_ladder=tuple(data.get("n_ladder", DEFAULT_LADDER)),
                jets=int(data.get("jets", 1)),
                laws=tuple(data["laws"]) if data.get("laws") else None,
                zero_degrees=tuple(data.get("zero_degrees", ())),
                precision=data.get("precision", "double"),
            )
        except VerifyConfigError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise VerifyConfigError(f"bad experiment config: {exc}") from exc
        return cfg


def attraction_factors(cfg: ExperimentConfig) -> list:
    """(center, expected zero count) pairs for the config's target."""
    if cfg.target_kind == "sobolev":
        rep = regularity(cfg.sobolev)
        return [(term.c, tr.I)
                for term, tr in zip(cfg.sobolev.terms, rep.terms)]
    if cfg.target_kind == "pade":
        return [(c, len(A)) for c, A in cfg.stieltjes.poles]
    return []


def boundary_grid(re_lo: float, re_hi: float, im_lo: float, im_hi: float,
                  count: int = 20) -> tuple:
    """count points walking the boundary of a rectangle, evenly by arclength."""
    if not (re_hi > re_lo and im_hi > im_lo):
        raise VerifyConfigError("degenerate rectangle")
    w, h = re_hi - re_lo, im_hi - im_lo
    per = 2.0 * (w + h)
    pts = []
    for k in range(count):
        t = per * k / count
        if t < w:
            pts.append(complex(re_lo + t, im_lo))
        elif t < w + h:
            pts.append(complex(re_hi, im_lo + (t - w)))
        elif t < 2 * w + h:
            pts.append(complex(re_hi - (t - w - h), im_hi))
        else:
            pts.append(complex(re_lo, im_hi - (t - 2 * w - h)))
    return tuple(pts)


class _TargetPolys:
    """Degree -> monic target polynomial, built once per ladder run.  Sobolev
    targets and Pade denominators come from sn_kernel, or from sn_lambda
    when the precision is extended."""

    def __init__(self, cfg: ExperimentConfig, table: RecurrenceTable):
        self.cfg = cfg
        self.table = table
        self._cache: dict[int, PolyInBasis] = {}
        self._spec = cfg.sobolev if cfg.target_kind == "sobolev" else None
        if cfg.target_kind == "pade" and cfg.stieltjes.poles:
            self._spec = to_sobolev_spec(cfg.stieltjes)

    def poly(self, n: int) -> PolyInBasis:
        if n not in self._cache:
            cfg = self.cfg
            if cfg.target_kind == "modified":
                self._cache[n] = solve_Q(n, cfg.modifier, self.table).q
            elif self._spec is not None:
                build = sn_lambda if cfg.precision == "extended" else sn_kernel
                self._cache[n] = build(n, self._spec, self.table).rep
            else:
                self._cache[n] = PolyInBasis.basis_poly(self.table, n)
        return self._cache[n]

    def jet(self, n: int, base: np.ndarray, order: int) -> np.ndarray:
        """Degree-n target jet at a point, from its monic jets base[j, k] = L_k^(j)."""
        q = self.poly(n).to_basis(MONIC)
        # contiguous, as in PolyInBasis.jet: a strided matmul sums in another order
        return np.ascontiguousarray(base[: order + 1, : n + 1]) @ q.coeffs


def _law_point(law: str, cfg: ExperimentConfig, base: np.ndarray,
               polys: _TargetPolys, n: int, z: complex, nu: int):
    """(ratio, limit) for one law at one (n, z, nu); base[j, k] = L_k^(j)(z)."""
    if law == "base_ratio":
        return base[nu, n + 1] / base[nu, n], phi(z) / 2.0
    if law == "base_log_derivative":
        return base[nu + 1, n] / (n * base[nu, n]), 1.0 / sqrt_z2m1(z)
    if law in ("modified_vs_base", "sobolev_vs_base", "pade_vs_base"):
        ratio = polys.jet(n, base, nu)[nu] / base[nu, n]
        if law == "modified_vs_base":
            return ratio, limit_modified(z, cfg.modifier)
        return ratio, limit_sobolev(z, attraction_factors(cfg))
    if law == "modified_ratio":
        return polys.jet(n + 1, base, nu)[nu] / polys.jet(n, base, nu)[nu], phi(z) / 2.0
    if law == "modified_log_derivative":
        jets = polys.jet(n, base, nu + 1)
        return jets[nu + 1] / (n * jets[nu]), 1.0 / sqrt_z2m1(z)
    if law == "modified_derivative_gap":
        # degree-drop normalization n(n-1): the leading coefficient of
        # the second derivative carries exactly that factor, so the
        # finite-n ratio is centered on the same limit without the
        # structural 1/n offset a flat n^2 would add
        jets = polys.jet(n, base, nu + 2)
        return jets[nu + 2] / (n * (n - 1) * jets[nu]), 1.0 / (z * z - 1.0)
    raise VerifyConfigError(f"unknown law {law!r}")


def run_ratio_ladder(cfg: ExperimentConfig) -> list:
    """All rows for the config: law x probe x derivative order x degree.

    Rows are ordered deterministically and each carries the two-point
    geometric rate log(err_prev/err_cur)/(n_cur - n_prev) against the
    previous ladder degree (nan on the first rung).  Degrees the target
    cannot be built at are flagged pre_asymptotic, and ratios or limits
    that leave the double range are flagged overflow, instead of aborting
    the run.
    """
    nmax = max(cfg.n_ladder) + 1
    table = recurrence_for(cfg.measure, nmax + 2)
    polys = _TargetPolys(cfg, table)
    # all probes, degrees and orders at once; elementwise, so scalar calls agree
    with np.errstate(over="ignore", invalid="ignore"):
        base = basis_jets(table, nmax, np.array(cfg.probe_points), cfg.jets + 2)
    rows: list[RatioRow] = []
    for law in cfg.resolved_laws:
        for p, z in enumerate(cfg.probe_points):
            for nu in range(cfg.jets + 1):
                prev: RatioRow | None = None
                for n in cfg.n_ladder:
                    flag = ""
                    try:
                        with np.errstate(over="ignore", invalid="ignore"):
                            ratio, limit = map(complex, _law_point(
                                law, cfg, base[:, :, p], polys, n, z, nu))
                        if not (cmath.isfinite(ratio) and cmath.isfinite(limit)):
                            flag = "overflow: ratio or limit leaves the double range"
                    except (SobolevError, ModifiedError, PadeError, MeasureError,
                            CutDomainError, np.linalg.LinAlgError) as exc:
                        flag = f"pre_asymptotic: {exc}"
                    if flag:
                        ratio = limit = complex(float("nan"), float("nan"))
                    abs_err = abs(ratio - limit)
                    rate = float("nan")
                    if (prev is not None and not flag and not prev.flag
                            and prev.abs_err > 0 and abs_err > 0):
                        rate = math.log(prev.abs_err / abs_err) / (n - prev.n)
                    row = RatioRow(law=law, n=n, z=z, nu=nu, ratio=ratio,
                                   limit=limit, abs_err=abs_err, est_rate=rate,
                                   flag=flag)
                    rows.append(row)
                    prev = row
    return rows


def run_zero_attraction(cfg: ExperimentConfig, degrees=None,
                        radius: float | None = None,
                        support_band: float = 0.05) -> dict:
    """ZeroReport per degree for the config's target polynomial."""
    degs = tuple(degrees) if degrees is not None else (cfg.zero_degrees or cfg.n_ladder)
    centers = [c for c, _ in attraction_factors(cfg)]
    table = recurrence_for(cfg.measure, max(degs) + 2)
    polys = _TargetPolys(cfg, table)
    out = {}
    for n in degs:
        rts = roots(polys.poly(n))
        out[n] = cluster(rts, centers, radius, support_band)
    return out


def monotone_violations(rows) -> list:
    """(law, z, nu, n) tuples where abs_err increased along the ladder."""
    bad = []
    prev: dict = {}
    for row in rows:
        key = (row.law, row.z, row.nu)
        if row.flag:
            bad.append((row.law, row.z, row.nu, row.n))
        elif key in prev and not (row.abs_err <= prev[key]):
            bad.append((row.law, row.z, row.nu, row.n))
        if not row.flag:
            prev[key] = row.abs_err
    return bad


def _fmt(x: float) -> str:
    return repr(float(x))


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join((
            str(r.n), _fmt(r.z.real), _fmt(r.z.imag), str(r.nu),
            _fmt(r.ratio.real), _fmt(r.ratio.imag),
            _fmt(r.limit.real), _fmt(r.limit.imag),
            _fmt(r.abs_err), _fmt(r.est_rate),
        )))
    return "\n".join(lines) + "\n"


def _json_num(x: float):
    return None if math.isnan(x) else float(x)


def rows_to_json(rows) -> str:
    payload = {
        "schema_version": 1,
        "columns": list(CSV_COLUMNS),
        "rows": [[r.n, r.z.real, r.z.imag, r.nu,
                  r.ratio.real, r.ratio.imag, r.limit.real, r.limit.imag,
                  _json_num(r.abs_err), _json_num(r.est_rate)] for r in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(rows, fmt: str, path) -> Path:
    """Write rows as csv or json; identical rows give identical bytes."""
    path = Path(path)
    if fmt == "csv":
        text = rows_to_csv(rows)
    elif fmt == "json":
        text = rows_to_json(rows)
    else:
        raise VerifyConfigError(f"unknown report format {fmt!r}")
    path.write_text(text)
    return path


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
            for k in ("abs_err", "est_rate"):
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
