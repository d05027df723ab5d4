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
from .measures import BaseMeasureSpec, RecurrenceTable, per_degree, recurrence_for
# solve_Q is unused here; perfbench's tracer test checks that this module's
# name for it is wrapped, so it stays until that test changes
from .modified import RationalModifier, solve_Q, solve_Q_many  # noqa: F401
from .pade import StieltjesFn, to_sobolev_spec
from .polybasis import PolyInBasis, basis_jets
from .sobolev import SobolevSpec, sn_kernel_many, sn_lambda
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
PROBE_MARGIN = 1e-9     # a probe keeps this far from the cut, every center and every atom

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
# the form table: form -> (the derivative orders it reads above nu, its
# limit at z for the config), the forms of the module docstring.
# L_n^(k) = 0 for k > n, so a row reading such an order is 0/0 or x/0, not
# a ratio; no limit depends on n or nu
_FORMS = {
    "step": (0, lambda cfg, z: phi(z) / 2.0),
    "log_derivative": (1, lambda cfg, z: 1.0 / sqrt_z2m1(z)),
    "derivative_gap": (2, lambda cfg, z: 1.0 / (z * z - 1.0)),
    "over_base": (0, lambda cfg, z: (limit_modified(z, cfg.target) if cfg.target_kind == "modified"
                                     else limit_sobolev(z, attraction_factors(cfg)))),
}

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
        # L_n^(k) = 0 for k > n: a higher order adds only pre_asymptotic rows
        if self.jets > self.n_ladder[-1]:
            raise VerifyConfigError(f"jets {self.jets:.3g} exceeds the deepest ladder "
                                    f"degree {self.n_ladder[-1]}")
        if not self.probe_points:
            raise VerifyConfigError("probe_points is empty: a run would check nothing")
        # a repeated probe or law repeats its rows, which the monotone check
        # would read as one ladder running twice
        if len(set(self.probe_points)) < len(self.probe_points):
            raise VerifyConfigError("probe_points repeats a point")
        # every limit is stated off supp mu: off the centers and the atoms
        apart(self.probe_points, [c for c, _ in attraction_factors(self)]
              + [loc for loc, _ in self.measure.mass_points],
              "probe point {} sits on {}, a center or a mass point",
              VerifyConfigError, PROBE_MARGIN)
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
        return [(t.c, t.rank) for t in cfg.target.terms]
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


def _targets(cfg: ExperimentConfig, table: RecurrenceTable, degrees) -> dict:
    """Degree -> the monic target polynomial, or the refusal of its build
    (`per_degree`), from one builder call on a table through the deepest
    degree.  Modified targets are read off the table of r dmu (solve_Q_many);
    Sobolev targets and Pade denominators come from the kernel identity:
    sn_kernel_many in double, or sn_lambda per degree in mpmath when the
    precision is extended.  A target that is the base (_reads_base) is L_n.
    """
    if _reads_base(cfg):
        return {n: PolyInBasis.basis_poly(table, n) for n in degrees}
    if cfg.target_kind == "modified":
        return solve_Q_many(degrees, cfg.target, table)
    sob = cfg.target if cfg.target_kind == "sobolev" else to_sobolev_spec(cfg.target)
    if cfg.precision == "double":
        return sn_kernel_many(degrees, sob, table)
    return per_degree(degrees, lambda n: sn_lambda(n, sob, table))


def _target_jets(built: dict, pj: np.ndarray, order: int):
    """(X, refused) at the probes whose basis jets are pj: X[j, n, p], in pj's
    shape, is the degree-n target's order-j value (j <= order) at the p-th
    probe, one product per built degree, NaN elsewhere; refused maps each
    degree whose build was refused (`per_degree`) to its refusal."""
    X = np.full(pj.shape, np.nan, dtype=complex)
    refused: dict = {}
    for n, poly in built.items():
        if isinstance(poly, Exception):
            refused[n] = poly
            continue
        rows = np.ascontiguousarray(pj[: order + 1, : n + 1].transpose(0, 2, 1))
        X[: order + 1, n] = (rows.reshape(-1, n + 1) @ poly.coeffs).reshape(order + 1, -1)
    return X, refused


def _law_values(form: str, X: np.ndarray, base: np.ndarray, ns: np.ndarray, jets: int):
    """V[nu, rung, p]: the ratio of one form at every nu <= jets, every
    degree n of ns and every probe z_p, read off X[j, n, p] = X_n^(j)(z_p);
    an over-base ratio divides by base, the probe jets L_n^(j)(z_p) in the
    same layout."""
    lo = X[: jets + 1, ns]
    if form == "step":
        return X[: jets + 1, ns + 1] / lo
    if form == "over_base":
        # L_n / L_n is 1, which numpy's complex quotient of a value by itself
        # can miss by an ulp
        return np.ones_like(lo) if X is base else lo / base[: jets + 1, ns]
    if form == "log_derivative":
        return X[1: jets + 2, ns] / (ns[:, None] * lo)
    # degree-drop normalization n(n-1): the leading coefficient of the
    # second derivative carries exactly that factor, so the finite-n ratio
    # is centered on the same limit without the structural 1/n offset a
    # flat n^2 would add
    return X[2: jets + 3, ns] / ((ns * (ns - 1))[:, None] * lo)


_NAN = complex(float("nan"), float("nan"))


def _refusal_flag(exc: Exception) -> str:
    # a Refusal carries its kind; numpy's LinAlgError, the other degree
    # refusal, is a degree the construction cannot reach yet
    return f"{getattr(exc, 'kind', 'pre_asymptotic')}: {exc}"


def _ladder_rows(law: str, z: complex, nu: int, order: int, ladder: tuple,
                 ratios, limit: complex, refusals: list) -> list:
    """The rows of one (law, probe, nu) ladder: a rung's ratio, and its
    refusal flag or "", at each degree of ladder; order is the highest
    derivative order the law reads.  A degree below order is flagged
    pre_asymptotic, else a refused rung keeps its flag, else a ratio or
    limit past the double range is flagged overflow.  A row's abs_err is
    |ratio - limit|, and its est_rate log(err_prev/err_cur)/(n_cur - n_prev)
    against the previous rung when both errors are positive, else nan."""
    rows, prev_n, prev_err = [], 0, math.nan
    for n, ratio, flag in zip(ladder, ratios, refusals):
        ratio = complex(ratio)
        if order > n:
            flag = f"pre_asymptotic: derivative order {order} exceeds degree {n}"
        elif not flag and not (cmath.isfinite(ratio) and cmath.isfinite(limit)):
            flag = "overflow: ratio or limit leaves the double range"
        # no abs() of a nan complex: CPython leaves errno alone there, so an
        # ERANGE left by a refused build would raise OverflowError
        abs_err = math.nan if flag else abs(ratio - limit)
        rate = (math.log(prev_err / abs_err) / (n - prev_n)
                if prev_err > 0 and abs_err > 0 else math.nan)
        rows.append(RatioRow(law, n, z, nu, _NAN if flag else ratio,
                             _NAN if flag else limit, abs_err, rate, flag))
        prev_n, prev_err = n, abs_err
    return rows


def run_ratio_ladder(cfg: ExperimentConfig) -> list:
    """All rows for the config: law x probe x derivative order x degree.

    A law's ratios at every rung, order and probe are one array expression
    of its form (_law_values) on one jets array, the probes' or the
    targets' (_target_jets), and its limit is computed once per probe.  A
    rung reading a degree the target cannot be built at, X_{n+1} before X_n
    for a step, is flagged with the refusal's kind (overflow past the
    double range, degree_collapse where the recurrence of r dmu breaks
    down, else pre_asymptotic) instead of aborting the run; _ladder_rows
    makes every row, its other flags, its error and its rate.
    """
    laws = cfg.resolved_laws
    forms = [_LAWS[law][1] for law in laws]
    # a target that is the base reads the base jets, as the base laws do
    target_forms = [] if _reads_base(cfg) else [
        form for law, form in zip(laws, forms) if _LAWS[law][0] != "base_only"]
    degrees = sorted({m for n in cfg.n_ladder
                      for m in ((n, n + 1) if "step" in target_forms else (n,))})
    # the deepest degree a law reads: a step reads n + 1
    top = max(cfg.n_ladder) + ("step" in forms)
    table = recurrence_for(cfg.measure, max(top, 1))    # a table has degree 1 at least
    ns = np.array(cfg.n_ladder)
    rows: list[RatioRow] = []
    # a row reading an order above its degree divides by L_n^(k) = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # every probe, degree and order a law reads, from one sweep of the probes
        probe_jets = basis_jets(table, top, np.array(cfg.probe_points),
                                cfg.jets + max(_FORMS[form][0] for form in forms))
        target, refused = _target_jets(_targets(cfg, table, degrees), probe_jets, cfg.jets + max(
            _FORMS[form][0] for form in target_forms)) if target_forms else (probe_jets, {})
        for law, form in zip(laws, forms):
            X, fails = (probe_jets, {}) if _LAWS[law][0] == "base_only" else (target, refused)
            extra, limit_at = _FORMS[form]
            values = _law_values(form, X, probe_jets, ns, cfg.jets)
            # a step reads its numerator X_{n+1} first
            reads = [(n + 1, n) if form == "step" else (n,) for n in cfg.n_ladder]
            refusals = [next((_refusal_flag(fails[m]) for m in ms if m in fails), "")
                        for ms in reads]
            for p, z in enumerate(cfg.probe_points):
                limit = complex(limit_at(cfg, z))
                for nu in range(cfg.jets + 1):
                    rows += _ladder_rows(law, z, nu, nu + extra, cfg.n_ladder,
                                         values[nu, :, p], limit, refusals)
    return rows


def run_zero_attraction(cfg: ExperimentConfig) -> dict:
    """ZeroReport per degree of cfg.zero_degrees, else of cfg.n_ladder, for
    the config's target polynomial."""
    degs = cfg.zero_degrees or cfg.n_ladder
    centers = [c for c, _ in attraction_factors(cfg)]
    built = _targets(cfg, recurrence_for(cfg.measure, max(1, *degs)), degs)
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
