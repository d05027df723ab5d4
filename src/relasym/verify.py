"""Ratio-ladder experiments against closed-form limits, with reports.

Each law names a ratio of computed polynomial data and the limit it
must approach as the degree grows.  A law is one of four forms over X,
which is L_n for the base laws and the target polynomial for the others
(Q_n modified, S_n Sobolev, the Pade denominator Q_n):

  step            X_{n+1}^(nu)(z) / X_n^(nu)(z)           phi(z)/2
  log_derivative  X_n^(nu+1)(z) / (n X_n^(nu)(z))         1/sqrt(z^2-1)
  derivative_gap  X_n^(nu+2)(z) / (n(n-1) X_n^(nu)(z))    1/(z^2-1)
  over_base       X_n^(nu)(z) / L_n^(nu)(z)               modification or attraction product

Ladders are emitted as rows carrying the ratio, the limit, the error
and a two-point geometric rate estimate; reports are CSV or JSON with
a fixed column order and deterministic float formatting, so identical
configs produce identical bytes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reader
from .joukowski import apart, limit_modified, limit_sobolev, phi, point, sqrt_z2m1
from .measures import BaseMeasureSpec, MeasureError, RecurrenceTable, recurrence_for
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import RationalModifier, solve_Q, solve_Q_many  # noqa: F401
from .pade import StieltjesFn, to_sobolev_spec
from .polybasis import PolyInBasis, basis_jets
from .sobolev import SobolevSpec, coupling_jets, regularity, sn_kernel_many, sn_lambda
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
    "report_cells",
    "monotone_violations",
    "attraction_factors",
]

DEFAULT_LADDER = (10, 20, 40, 80)
DEFAULT_PROBES = (3.0 + 0.0j, -2.5 + 0.0j, 2.0j, 1.5 + 1.5j)
PROBE_MARGIN = 1e-9     # a probe keeps this far from the cut and from every center

# the law table: law -> (target kind, form), the forms of the module docstring
_LAWS = {
    "base_ratio": ("base_only", "step"),
    "base_log_derivative": ("base_only", "log_derivative"),
    "modified_vs_base": ("modified", "over_base"),
    "modified_ratio": ("modified", "step"),
    "modified_log_derivative": ("modified", "log_derivative"),
    "modified_derivative_gap": ("modified", "derivative_gap"),
    "sobolev_vs_base": ("sobolev", "over_base"),
    "pade_vs_base": ("pade", "over_base"),
}
# the derivative orders a form reads above nu: L_n^(k) = 0 for k > n, so such
# a row is 0/0 or x/0, not a ratio
_EXTRA_ORDER = {"step": 0, "log_derivative": 1, "derivative_gap": 2, "over_base": 0}

# the report and summary order is the table's
LAWS_BY_TARGET = {kind: tuple(law for law, (k, _) in _LAWS.items() if k == kind)
                  for kind in dict.fromkeys(k for k, _ in _LAWS.values())}

CSV_COLUMNS = ("n", "z_re", "z_im", "nu", "ratio_re", "ratio_im",
               "limit_re", "limit_im", "abs_err", "est_rate")


VerifyConfigError = reader.ConfigError


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


# each target kind's payload type and its key in a JSON target; base_only
# has none
_PAYLOADS = {"modified": (RationalModifier, "modifier"),
             "sobolev": (SobolevSpec, "sobolev"),
             "pade": (StieltjesFn, "stieltjes")}
_KIND_OF = {type(None): "base_only",
            **{cls: kind for kind, (cls, _) in _PAYLOADS.items()}}


def _read_target(data, path: str):
    """The payload of a JSON target: exactly the key its kind names
    ("modifier", "sobolev" or "stieltjes"), none for base_only."""
    data = reader.obj(data, path)
    kind = reader.text(data.get("kind", "base_only"), f"{path}.kind")
    if kind not in LAWS_BY_TARGET:
        raise VerifyConfigError(f"unknown target kind {kind!r}")
    payload_cls, key = _PAYLOADS.get(kind, (None, None))
    extra = sorted(set(data) - {"kind", key})
    if extra:
        raise VerifyConfigError(f"target {kind!r} takes no {', '.join(extra)}")
    if key is not None and key not in data:
        raise VerifyConfigError(f"target {kind!r} needs its payload {key!r}")
    return payload_cls.from_json_dict(data[key], f"{path}.{key}") if key else None


@dataclass
class ExperimentConfig:
    """A measure, a target, and the grid to probe it on.

    target is None (the base polynomials alone), a RationalModifier (the
    measure times r), a SobolevSpec (a discrete Sobolev product on the
    measure) or a StieltjesFn (Pade denominators of the measure's Markov
    function plus polar parts, whose base must be the measure); target_kind
    names which.  Degrees and jets are integers, and laws and probe points
    are distinct.
    """

    measure: BaseMeasureSpec
    target: RationalModifier | SobolevSpec | StieltjesFn | None = None
    probe_points: tuple = DEFAULT_PROBES
    n_ladder: tuple = DEFAULT_LADDER
    jets: int = 1
    laws: tuple | None = None
    zero_degrees: tuple = ()
    precision: str = "double"

    def __post_init__(self):
        if type(self.target) not in _KIND_OF:
            raise VerifyConfigError(
                f"target must be None, a RationalModifier, a SobolevSpec or a "
                f"StieltjesFn, got {type(self.target).__name__}")
        if self.target_kind == "pade" and self.target.base != self.measure:
            raise VerifyConfigError("a pade target's stieltjes.base must equal the measure")
        if self.precision not in ("double", "extended"):
            raise VerifyConfigError(f"unknown precision {self.precision!r}")
        if self.precision == "extended" and self.target_kind == "modified":
            raise VerifyConfigError("target 'modified' has no extended-precision lane")
        self.probe_points = tuple(point(z, "probe point", VerifyConfigError, PROBE_MARGIN)
                                  for z in self.probe_points)
        self.n_ladder = tuple(reader.integral(n, "n_ladder") for n in self.n_ladder)
        self.zero_degrees = tuple(reader.integral(n, "zero_degrees") for n in self.zero_degrees)
        self.jets = reader.integral(self.jets, "jets")
        if (not self.n_ladder or self.n_ladder[0] < 0
                or any(m <= n for n, m in zip(self.n_ladder, self.n_ladder[1:]))):
            raise VerifyConfigError(
                "n_ladder must be a nonempty, strictly increasing sequence of nonnegative degrees")
        if any(n < 0 for n in self.zero_degrees):
            raise VerifyConfigError("zero_degrees must be nonnegative")
        if self.jets < 0:
            raise VerifyConfigError("jets must be nonnegative")
        if not self.probe_points:
            raise VerifyConfigError("probe_points is empty: a run would check nothing")
        # a repeated probe or law repeats its rows, which the monotone check
        # would read as one ladder running twice
        if len(set(self.probe_points)) < len(self.probe_points):
            raise VerifyConfigError("probe_points repeats a point")
        apart(self.probe_points, [c for c, _ in attraction_factors(self)],
              "probe point {} sits on a center", VerifyConfigError, PROBE_MARGIN)
        if self.laws is not None:
            self.laws = tuple(reader.text(law, "laws") for law in self.laws)
            if not self.laws:
                raise VerifyConfigError("laws is empty: a run would check nothing")
            if len(set(self.laws)) < len(self.laws):
                raise VerifyConfigError("laws repeats a law")
            allowed = LAWS_BY_TARGET[self.target_kind]
            for law in self.laws:
                if law not in allowed:
                    raise VerifyConfigError(
                        f"law {law!r} not available for target {self.target_kind!r}")

    @property
    def target_kind(self) -> str:
        return _KIND_OF[type(self.target)]

    @property
    def resolved_laws(self) -> tuple:
        return self.laws if self.laws is not None else LAWS_BY_TARGET[self.target_kind]

    def to_json_dict(self) -> dict:
        target: dict = {"kind": self.target_kind}
        if self.target is not None:
            target[_PAYLOADS[self.target_kind][1]] = self.target.to_json_dict()
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
        """The config a JSON object describes; its target reads the one
        payload key its kind names."""
        counts = reader.seq_of(reader.integral)
        return cls(**reader.obj(data, "", {
            "measure": BaseMeasureSpec.from_json_dict, "target": _read_target,
            "probe_points": reader.seq_of(reader.cpx), "n_ladder": counts,
            "jets": reader.integral, "zero_degrees": counts, "precision": reader.text,
            "laws": lambda v, path: v if v is None else reader.seq_of(reader.text)(v, path)},
            ("measure",)))


def attraction_factors(cfg: ExperimentConfig) -> list:
    """(center, expected zero count) pairs for the config's target."""
    if cfg.target_kind == "sobolev":
        rep = regularity(cfg.target)
        return [(term.c, tr.I)
                for term, tr in zip(cfg.target.terms, rep.terms)]
    if cfg.target_kind == "pade":
        return [(c, len(A)) for c, A in cfg.target.poles]
    return []


def _reads_base(cfg: ExperimentConfig) -> bool:
    """Whether the config's target polynomials are the base L_n themselves:
    no target, a Pade function with no poles, or a modifier with no zeros
    and no poles.  Their laws read the base jets, so that X_n / L_n is 1."""
    kind, t = cfg.target_kind, cfg.target
    if kind == "modified":
        return not (t.zeros or t.poles)
    return kind == "base_only" or (kind == "pade" and not t.poles)


def _targets(cfg: ExperimentConfig, table: RecurrenceTable, degrees,
             probes: tuple = (), order: int = 0) -> tuple:
    """(built, probe_jets): built maps each degree to its monic target
    polynomial, or the refusal of its build, from one builder call.
    Modified targets are read off the table of r dmu (solve_Q_many); Sobolev
    targets and Pade denominators come from the kernel identity:
    sn_kernel_many in double, or sn_lambda per degree in mpmath when the
    precision is extended.  A target that is the base (_reads_base) is L_n.

    Callers build the table two degrees past the deepest target.  The double
    kernel builder sweeps the jets at every coupling point once, through
    that degree (coupling_jets), and the probes ride the same sweep:
    probe_jets[j, k, p] = L_k^(j)(probes[p]), to `order` (None without probes).
    """
    degrees = list(dict.fromkeys(degrees))
    top = max([table.nmax - 2, *degrees])
    if _reads_base(cfg):
        built = {n: PolyInBasis.basis_poly(table, n) for n in degrees}
    elif cfg.target_kind == "modified":
        built = {n: op if isinstance(op, Exception) else op.q
                 for n, op in solve_Q_many(degrees, cfg.target, table).items()}
    else:
        sob = cfg.target if cfg.target_kind == "sobolev" else to_sobolev_spec(cfg.target)
        if cfg.precision == "double":
            base, jets = coupling_jets(sob, table, top, probes, order)
            probe_jets = jets.pop() if probes else None
            built = {n: op if isinstance(op, Exception) else op.rep
                     for n, op in sn_kernel_many(degrees, sob, base, jets).items()}
            return built, probe_jets
        built = {}
        for n in degrees:
            try:
                built[n] = sn_lambda(n, sob, table).rep
            except _REFUSALS as exc:
                built[n] = exc
    probe_jets = basis_jets(table, top, np.array(probes), order) if probes else None
    return built, probe_jets


def _target_jets(built: dict, pj: np.ndarray, order: int) -> dict:
    """Degree -> block of each built target's jets at the probes whose basis
    jets are pj, or the refusal of its build: block[j, p] is the order-j
    value (j <= order) at the p-th probe, from one product over every order
    and probe."""
    out: dict = {}
    for n, poly in built.items():
        if isinstance(poly, Exception):
            out[n] = poly
            continue
        rows = np.ascontiguousarray(pj[: order + 1, : n + 1].transpose(0, 2, 1))
        out[n] = (rows.reshape(-1, n + 1) @ poly.coeffs).reshape(order + 1, -1)
    return out


def _jets(source: dict | None, base: np.ndarray, n: int, p: int, top: int):
    """Orders 0..top of X_n at probe p, X as the law's form reads it: L_n from
    base[j, k] = L_k^(j)(z) when source is None, else the built target's block
    (as _target_jets makes it); raises the refusal of a degree not built."""
    if source is None:
        return base[: top + 1, n]
    got = source[n]
    if isinstance(got, Exception):
        raise got
    return got[: top + 1, p]


def _law_ratio(form: str, source: dict | None, base: np.ndarray, n: int, nu: int, p: int):
    """The ratio of one form at one (n, z, nu), z the p-th probe and X read by
    _jets."""
    if form == "step":
        return _jets(source, base, n + 1, p, nu)[nu] / _jets(source, base, n, p, nu)[nu]
    if form == "over_base":
        # L_n / L_n is 1, which numpy's complex quotient of a value by itself
        # can miss by an ulp
        return 1.0 if source is None else _jets(source, base, n, p, nu)[nu] / base[nu, n]
    jets = _jets(source, base, n, p, nu + _EXTRA_ORDER[form])
    if form == "log_derivative":
        return jets[nu + 1] / (n * jets[nu])
    # degree-drop normalization n(n-1): the leading coefficient of the
    # second derivative carries exactly that factor, so the finite-n ratio
    # is centered on the same limit without the structural 1/n offset a
    # flat n^2 would add
    return jets[nu + 2] / (n * (n - 1) * jets[nu])


def _law_limit(form: str, cfg: ExperimentConfig, factors: list, z: complex) -> complex:
    """The closed-form limit of one form at z; it depends on neither n nor nu."""
    if form == "step":
        return phi(z) / 2.0
    if form == "log_derivative":
        return 1.0 / sqrt_z2m1(z)
    if form == "derivative_gap":
        return 1.0 / (z * z - 1.0)
    if cfg.target_kind == "modified":
        return limit_modified(z, cfg.target)
    return limit_sobolev(z, factors)


_REFUSALS = (reader.Refusal, MeasureError, np.linalg.LinAlgError)
_NAN = complex(float("nan"), float("nan"))


def _refusal_flag(exc: Exception) -> str:
    # a Refusal carries its kind; any other refusal is a degree the
    # construction cannot reach yet
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
    table = recurrence_for(cfg.measure, max(cfg.n_ladder) + 3)
    laws = cfg.resolved_laws
    factors = attraction_factors(cfg)
    rows: list[RatioRow] = []
    with np.errstate(over="ignore", invalid="ignore"):
        # a target that is the base reads the base jets, as the base laws do
        target_forms = [] if _reads_base(cfg) else [
            _LAWS[law][1] for law in laws if _LAWS[law][0] != "base_only"]
        degrees = sorted({m for n in cfg.n_ladder
                          for m in ((n, n + 1) if "step" in target_forms else (n,))}
                         ) if target_forms else []
        # every probe, degree and order in the builder's own sweep
        built, probe_jets = _targets(cfg, table, degrees, cfg.probe_points, cfg.jets + 2)
        target = _target_jets(built, probe_jets, cfg.jets + max(
            map(_EXTRA_ORDER.get, target_forms))) if target_forms else None
        for law in laws:
            kind, form = _LAWS[law]
            source = None if kind == "base_only" else target
            extra = _EXTRA_ORDER[form]
            for p, z in enumerate(cfg.probe_points):
                base = probe_jets[:, :, p]
                try:
                    limit, refusal = complex(_law_limit(form, cfg, factors, z)), ""
                except _REFUSALS as exc:
                    limit, refusal = _NAN, _refusal_flag(exc)
                for nu in range(cfg.jets + 1):
                    prev: RatioRow | None = None
                    order = nu + extra
                    for n in cfg.n_ladder:
                        # a refused ratio names the flag before a refused limit
                        if order > n:
                            ratio, flag = _NAN, (f"pre_asymptotic: derivative order "
                                                 f"{order} exceeds degree {n}")
                        else:
                            try:
                                ratio = complex(_law_ratio(form, source, base, n, nu, p))
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
                        rate = math.nan
                        if (prev is not None and not flag and not prev.flag
                                and prev.abs_err > 0 and abs_err > 0):
                            rate = math.log(prev.abs_err / abs_err) / (n - prev.n)
                        row = RatioRow(law, n, z, nu, ratio, row_limit, abs_err, rate, flag)
                        rows.append(row)
                        prev = row
    return rows


def run_zero_attraction(cfg: ExperimentConfig) -> dict:
    """ZeroReport per degree of cfg.zero_degrees, else of cfg.n_ladder, for
    the config's target polynomial."""
    degs = cfg.zero_degrees or cfg.n_ladder
    centers = [c for c, _ in attraction_factors(cfg)]
    table = recurrence_for(cfg.measure, max(degs) + 2)
    built, _ = _targets(cfg, table, degs)
    out = {}
    for n in degs:
        if isinstance(built[n], Exception):
            raise built[n]
        out[n] = cluster(roots(built[n]), centers)
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


def report_cells(rows) -> list:
    """The report text of rows, one list per CSV_COLUMNS entry, made column
    by column for both formats: ints as str, floats as repr.  A probe's
    coordinates and a law's limit repeat down their columns, so there each
    distinct value is formatted once."""
    def floats(values):
        return list(map(repr, map(float, values)))

    def repeating(values):
        values = list(map(float, values))
        text = {x: repr(x) for x in set(values) if x}   # 0.0 == -0.0: zeros apart
        return [text[x] if x else repr(x) for x in values]

    return [list(map(str, [r.n for r in rows])),
            repeating([r.z.real for r in rows]), repeating([r.z.imag for r in rows]),
            list(map(str, [r.nu for r in rows])),
            floats([r.ratio.real for r in rows]), floats([r.ratio.imag for r in rows]),
            repeating([r.limit.real for r in rows]), repeating([r.limit.imag for r in rows]),
            floats([r.abs_err for r in rows]), floats([r.est_rate for r in rows])]


def emit_report(rows, fmt: str, path, cells=None) -> Path:
    """Write rows as csv or json; identical rows give identical bytes.
    cells, when given, are report_cells(rows), made once for both formats."""
    path = Path(path)
    if cells is None:
        cells = report_cells(rows)
    if fmt == "csv":
        text = "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*cells))]) + "\n"
    elif fmt == "json":
        body = ",\n".join(map(_JSON_ROW.format,
                              *(map(_JSON_TOKENS.get, col, col) for col in cells)))
        text = _JSON_HEAD + (f"\n{body}\n  " if body else "") + _JSON_TAIL
    else:
        raise VerifyConfigError(f"unknown report format {fmt!r}")
    path.write_text(text)
    return path
