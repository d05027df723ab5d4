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
from functools import cached_property
from pathlib import Path

import numpy as np

from .joukowski import (CutDomainError, dist_to_cut, limit_modified,
                        limit_sobolev, phi, sqrt_z2m1)
from .measures import BaseMeasureSpec, MeasureError, RecurrenceTable, recurrence_for
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import (ModifiedError, RationalModifier, modifier_jets,  # noqa: F401
                       solve_Q, solve_Q_jets)
from .pade import PadeError, StieltjesFn, to_sobolev_spec
from .polybasis import MONIC, PolyInBasis, basis_jets
from .sobolev import (SobolevError, SobolevSpec, coupling_jets, regularity,
                      sn_kernel_jets, sn_lambda)
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

    @cached_property
    def cells(self) -> tuple:
        """The row's CSV_COLUMNS as report text, made once for both formats:
        ints as str, floats as repr.  Reports read rows as they were made,
        so a row changed after it was reported keeps its old text."""
        return (str(self.n), repr(float(self.z.real)), repr(float(self.z.imag)),
                str(self.nu), repr(float(self.ratio.real)), repr(float(self.ratio.imag)),
                repr(float(self.limit.real)), repr(float(self.limit.imag)),
                repr(float(self.abs_err)), repr(float(self.est_rate)))


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
            if not np.isfinite(z):
                raise VerifyConfigError(f"probe point {z} is not finite")
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
    targets and Pade denominators come from the kernel identity: sn_kernel
    in double, or sn_lambda in mpmath when the precision is extended.

    Callers build the table two degrees past the deepest target.  The first
    double build sweeps the jets at every modifier zero and pole, or at every
    coupling point, once through that degree (modifier_jets, coupling_jets),
    and every degree reads its leading part.
    """

    def __init__(self, cfg: ExperimentConfig, table: RecurrenceTable):
        self.cfg = cfg
        self.table = table
        self._cache: dict[int, PolyInBasis] = {}
        self._swept: tuple | None = None        # (top, builder table, jets)
        self._spec = cfg.sobolev if cfg.target_kind == "sobolev" else None
        if cfg.target_kind == "pade" and cfg.stieltjes.poles:
            self._spec = to_sobolev_spec(cfg.stieltjes)

    def poly(self, n: int) -> PolyInBasis:
        if n not in self._cache:
            cfg = self.cfg
            if cfg.target_kind == "modified":
                self._cache[n] = solve_Q_jets(n, cfg.modifier, *self._sweep(n)).q
            elif self._spec is not None and cfg.precision == "extended":
                self._cache[n] = sn_lambda(n, self._spec, self.table).rep
            elif self._spec is not None:
                self._cache[n] = sn_kernel_jets(n, self._spec, *self._sweep(n)).rep
            else:
                self._cache[n] = PolyInBasis.basis_poly(self.table, n)
        return self._cache[n]

    def _sweep(self, n: int) -> tuple:
        """The builder's table and jets, swept through degree n or deeper."""
        if self._swept is None or n > self._swept[0]:
            top = max(n, self.table.nmax - 2)
            if self.cfg.target_kind == "modified":
                self._swept = (top, *modifier_jets(self.cfg.modifier, self.table, top))
            else:
                self._swept = (top, *coupling_jets(self._spec, self.table, top))
        return self._swept[1:]

    def jet(self, n: int, base: np.ndarray, order: int) -> np.ndarray:
        """Degree-n target jet at a point, from its monic jets base[j, k] = L_k^(j)."""
        q = self.poly(n).to_basis(MONIC)
        # contiguous, as in PolyInBasis.jet: a strided matmul sums in another order
        return np.ascontiguousarray(base[: order + 1, : n + 1]) @ q.coeffs


def _law_ratio(law: str, base: np.ndarray, polys: _TargetPolys, n: int, nu: int):
    """The ratio of one law at one (n, z, nu); base[j, k] = L_k^(j)(z)."""
    if law == "base_ratio":
        return base[nu, n + 1] / base[nu, n]
    if law == "base_log_derivative":
        return base[nu + 1, n] / (n * base[nu, n])
    if law in ("modified_vs_base", "sobolev_vs_base", "pade_vs_base"):
        return polys.jet(n, base, nu)[nu] / base[nu, n]
    if law == "modified_ratio":
        return polys.jet(n + 1, base, nu)[nu] / polys.jet(n, base, nu)[nu]
    if law == "modified_log_derivative":
        jets = polys.jet(n, base, nu + 1)
        return jets[nu + 1] / (n * jets[nu])
    if law == "modified_derivative_gap":
        # degree-drop normalization n(n-1): the leading coefficient of
        # the second derivative carries exactly that factor, so the
        # finite-n ratio is centered on the same limit without the
        # structural 1/n offset a flat n^2 would add
        jets = polys.jet(n, base, nu + 2)
        return jets[nu + 2] / (n * (n - 1) * jets[nu])
    raise VerifyConfigError(f"unknown law {law!r}")


# derivative orders a law reads above nu: L_n^(k) = 0 for k > n, so such a
# row is 0/0 or x/0, not a ratio
_LAW_EXTRA_ORDER = {"base_log_derivative": 1, "modified_log_derivative": 1,
                    "modified_derivative_gap": 2}


def _law_limit(law: str, cfg: ExperimentConfig, factors: list, z: complex) -> complex:
    """The closed-form limit of one law at z; it depends on neither n nor nu."""
    if law in ("base_ratio", "modified_ratio"):
        return phi(z) / 2.0
    if law in ("base_log_derivative", "modified_log_derivative"):
        return 1.0 / sqrt_z2m1(z)
    if law == "modified_vs_base":
        return limit_modified(z, cfg.modifier)
    if law in ("sobolev_vs_base", "pade_vs_base"):
        return limit_sobolev(z, factors)
    if law == "modified_derivative_gap":
        return 1.0 / (z * z - 1.0)
    raise VerifyConfigError(f"unknown law {law!r}")


_REFUSALS = (SobolevError, ModifiedError, PadeError, MeasureError,
             CutDomainError, np.linalg.LinAlgError)
_NAN = complex(float("nan"), float("nan"))


def _refusal_flag(exc: Exception) -> str:
    # builders that know the cause set a kind; any other refusal is a
    # degree the construction cannot reach yet
    return f"{getattr(exc, 'kind', 'pre_asymptotic')}: {exc}"


def run_ratio_ladder(cfg: ExperimentConfig) -> list:
    """All rows for the config: law x probe x derivative order x degree.

    Rows are ordered deterministically and each carries the two-point
    geometric rate log(err_prev/err_cur)/(n_cur - n_prev) against the
    previous ladder degree (nan on the first rung).  Degrees the target
    cannot be built at are flagged with the refusal's kind (overflow or
    underflow at the ends of the double range, else pre_asymptotic), degrees
    below the derivative order the law reads pre_asymptotic, and ratios or
    limits that leave the double range overflow, instead of aborting the
    run.  Each limit is computed once per (law, probe).
    """
    nmax = max(cfg.n_ladder) + 1
    table = recurrence_for(cfg.measure, nmax + 2)
    polys = _TargetPolys(cfg, table)
    factors = attraction_factors(cfg)
    rows: list[RatioRow] = []
    with np.errstate(over="ignore", invalid="ignore"):
        # all probes, degrees and orders at once; elementwise, so scalar calls agree
        jets = basis_jets(table, nmax, np.array(cfg.probe_points), cfg.jets + 2)
        for law in cfg.resolved_laws:
            for p, z in enumerate(cfg.probe_points):
                base = jets[:, :, p]
                try:
                    limit, refusal = complex(_law_limit(law, cfg, factors, z)), ""
                except _REFUSALS as exc:
                    limit, refusal = _NAN, _refusal_flag(exc)
                for nu in range(cfg.jets + 1):
                    prev: RatioRow | None = None
                    order = nu + _LAW_EXTRA_ORDER.get(law, 0)
                    for n in cfg.n_ladder:
                        # a refused ratio names the flag before a refused limit
                        if order > n:
                            ratio, flag = _NAN, (f"pre_asymptotic: derivative order "
                                                 f"{order} exceeds degree {n}")
                        else:
                            try:
                                ratio = complex(_law_ratio(law, base, polys, n, nu))
                                flag = refusal
                            except _REFUSALS as exc:
                                ratio, flag = _NAN, _refusal_flag(exc)
                        if not flag and not (cmath.isfinite(ratio) and cmath.isfinite(limit)):
                            flag = "overflow: ratio or limit leaves the double range"
                        # no abs() of a nan complex: CPython leaves errno alone
                        # there, so an ERANGE left by a refused build would
                        # raise OverflowError
                        if flag:
                            ratio, row_limit, abs_err = _NAN, _NAN, math.nan
                        else:
                            row_limit, abs_err = limit, abs(ratio - limit)
                        rate = float("nan")
                        if (prev is not None and not flag and not prev.flag
                                and prev.abs_err > 0 and abs_err > 0):
                            rate = math.log(prev.abs_err / abs_err) / (n - prev.n)
                        row = RatioRow(law=law, n=n, z=z, nu=nu, ratio=ratio,
                                       limit=row_limit, abs_err=abs_err,
                                       est_rate=rate, flag=flag)
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


# JSON has no NaN or Infinity: a non-finite value is written as null
_JSON_TOKENS = {"nan": "null", "inf": "null", "-inf": "null"}
# the bytes json.dumps(payload, indent=2, sort_keys=True) gives for
# {"schema_version": 1, "columns": CSV_COLUMNS, "rows": [...]}
_JSON_HEAD = ('{\n  "columns": [\n'
              + ",\n".join(f'    "{c}"' for c in CSV_COLUMNS) + '\n  ],\n  "rows": [')
_JSON_ROW = "    [\n" + ",\n".join(["      {}"] * len(CSV_COLUMNS)) + "\n    ]"
_JSON_TAIL = '],\n  "schema_version": 1\n}\n'


def emit_report(rows, fmt: str, path) -> Path:
    """Write rows as csv or json; identical rows give identical bytes."""
    path = Path(path)
    if fmt == "csv":
        text = "\n".join([",".join(CSV_COLUMNS), *(",".join(r.cells) for r in rows)]) + "\n"
    elif fmt == "json":
        body = ",\n".join(_JSON_ROW.format(*[_JSON_TOKENS.get(c, c) for c in r.cells])
                          for r in rows)
        text = _JSON_HEAD + (f"\n{body}\n  " if rows else "") + _JSON_TAIL
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
