"""Workload inputs made from a seed, and the ops that run on them.

An op is a fixed list of `relasym` command lines, each run through the
in-process entry the console script uses (relasym.cli.main), followed by
output checks that are not timed.  Every op of a workload is the same
unit of work; the seed only orders the scenarios within an op or, for
atom_measure, draws each op's atom.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

LEGENDRE = {"weight_kind": "legendre", "alpha": 0.0, "beta": 0.0, "mass_points": []}
PROBES = ((3.0, 0.0), (-2.5, 0.0), (0.0, 2.0), (1.5, 1.5))
LADDER = (10, 20, 40, 80)
JETS = 1

# zeros_deep degree: deep enough that the residual gate and the jets
# dominate, below the n ~ 240 where sn_kernel refuses a coupling at 2
ZERO_DEGREE = 180

# atom_measure draws: the atom stays right of the interval, between
# the modifier zero at 3 and the band 1.45-1.6 where the lowest rungs
# of modified_ratio at the probe -2.5 cross zero error and the ladder
# stops decreasing (see README)
ATOM_LOC = (1.7, 2.6)
ATOM_MASS = (0.05, 2.0)        # log-uniform
ATOM_ZERO_DEGREE = 60
ATOM_TABLE_NMAX = 120          # table written for the orthogonality check
ATOM_GRAM_DEGREE = 80

LAWS = {
    "base_only": ("base_ratio", "base_log_derivative"),
    "modified": ("modified_vs_base", "modified_ratio",
                 "modified_log_derivative", "modified_derivative_gap"),
    "sobolev": ("sobolev_vs_base",),
    "pade": ("pade_vs_base",),
}


def _experiment(target: dict, probes=PROBES, measure=LEGENDRE,
                zero_degrees=()) -> dict:
    return {"measure": measure, "target": target,
            "probe_points": [list(p) for p in probes], "n_ladder": list(LADDER),
            "jets": JETS, "laws": None, "zero_degrees": list(zero_degrees),
            "precision": "double"}


def _modified(zeros=(), poles=()) -> dict:
    return {"kind": "modified", "modifier": {
        "zeros": [{"c": list(c), "mult": m} for c, m in zeros],
        "poles": [{"d": list(d), "mult": m} for d, m in poles]}}


def _sobolev_diagonal(c: float, masses) -> dict:
    n = len(masses)
    gamma = [[[masses[i] if i == k else 0.0, 0.0] for k in range(n)] for i in range(n)]
    return {"kind": "sobolev", "sobolev": {"terms": [
        {"c": [c, 0.0], "N": n - 1, "gamma": gamma}]}}


@dataclass(frozen=True)
class Scenario:
    """A config in the program's JSON schema plus what we know about it.

    zeros/poles/centers feed the closed-form limits; centers carry the
    number of zeros the paper says each point attracts.
    """

    config: dict
    zeros: tuple = ()
    poles: tuple = ()
    centers: tuple = ()

    @property
    def laws(self) -> tuple:
        return LAWS[self.config["target"]["kind"]]

    @property
    def probes(self) -> list:
        return [complex(*p) for p in self.config["probe_points"]]

    def target(self) -> dict:
        return {"zeros": self.zeros, "poles": self.poles, "centers": self.centers}


# the seven bundled scenarios, written out here so the program receives
# only configs the benchmark made
SCENARIOS = {
    "base_legendre": Scenario(_experiment({"kind": "base_only"})),
    "modified_linear_real": Scenario(
        _experiment(_modified(zeros=[((3.0, 0.0), 1)])), zeros=((3.0, 1),)),
    "modified_linear_complex": Scenario(
        _experiment(_modified(zeros=[((0.0, 2.0), 1)])), zeros=((2.0j, 1),)),
    "modified_rational": Scenario(
        _experiment(_modified(zeros=[((0.0, 2.0), 1)], poles=[((0.0, 3.0), 1)])),
        zeros=((2.0j, 1),), poles=((3.0j, 1),)),
    "sobolev_point_derivative": Scenario(
        _experiment(_sobolev_diagonal(2.0, [0.0, 1.0]), zero_degrees=(60,)),
        centers=((2.0, 1),)),
    "sobolev_point_pair": Scenario(
        _experiment(_sobolev_diagonal(2.0, [1.0, 1.0]), zero_degrees=(60,)),
        centers=((2.0, 2),)),
    "pade_gonchar": Scenario(
        _experiment({"kind": "pade", "stieltjes": {
            "base": LEGENDRE,
            "poles": [{"c": [0.0, 2.0], "A": [[0.0, 0.0], [1.0, 0.0]]}]}},
            probes=((3.0, 0.0), (-2.5, 0.0), (0.0, -2.0), (1.5, 1.5)),
            zero_degrees=(60,)),
        centers=((2.0j, 2),)),
}

ZERO_SCENARIOS = ("sobolev_point_pair", "pade_gonchar", "base_legendre")


def atom_scenario(loc: float, mass: float) -> Scenario:
    """The README example: Legendre plus one atom, a modifier zero at 3."""
    measure = dict(LEGENDRE, mass_points=[[loc, mass]])
    return Scenario(_experiment(_modified(zeros=[((3.0, 0.0), 1)]),
                                probes=((-2.5, 0.0), (0.0, 2.0)),
                                measure=measure, zero_degrees=(ATOM_ZERO_DEGREE,)),
                    zeros=((3.0, 1),))


def draw_atoms(seed: int, count: int) -> list:
    """count (location, mass) pairs, rounded to 6 digits for readable configs."""
    rng = random.Random(seed)
    lo, hi = ATOM_MASS
    return [(round(rng.uniform(*ATOM_LOC), 6),
             round(lo * (hi / lo) ** rng.random(), 6)) for _ in range(count)]


@dataclass
class Op:
    """Command lines for relasym.cli.main, and the untimed check after them.

    check(main) returns a list of problems; it may run further untimed
    commands through main to fetch what it checks.
    """

    argvs: list
    out: Path
    check: Callable[[Callable], list]


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _verify_problems(scn: Scenario, out: Path, monotone: bool = True,
                     top_z: complex | None = 3.0 + 0.0j) -> list:
    problems = []
    written = sorted(p.name for p in out.glob("ratios_*.json"))
    want = sorted(f"ratios_{law}.json" for law in scn.laws)
    if written != want:
        return [f"reports {written} != {want}"]
    for law in scn.laws:
        problems += checks.check_ratio_report(
            law, _read(out / f"ratios_{law}.json"), scn.target(), scn.probes,
            LADDER, JETS, monotone, top_z)
    if "base_ratio" in scn.laws and not scn.config["measure"]["mass_points"]:
        problems += checks.check_legendre_base_ratio(_read(out / "ratios_base_ratio.json"))
    return problems


def _zeros_problems(scn: Scenario, out: Path) -> list:
    rep = _read(out / "zeros.json")["reports"].get(str(ZERO_DEGREE))
    if rep is None:
        return [f"no report at degree {ZERO_DEGREE}"]
    problems = checks.check_zero_report(
        rep, ZERO_DEGREE, [c for c, _ in scn.centers], [k for _, k in scn.centers])
    if scn is SCENARIOS["base_legendre"]:
        problems += checks.check_legendre_roots(rep, ZERO_DEGREE)
    return problems


def _scenarios_check(names: list, out: Path, problems_of: Callable) -> Callable:
    def check(main) -> list:
        return [f"{name}: {p}" for name in names
                for p in problems_of(SCENARIOS[name], out / name)]
    return check


def _atom_check(loc: float, mass: float, measure_path: str, out: Path) -> Callable:
    def check(main) -> list:
        problems = _verify_problems(atom_scenario(loc, mass), out, monotone=False, top_z=None)
        rep = _read(out / "zeros.json")["reports"].get(str(ATOM_ZERO_DEGREE))
        if rep is None:
            return problems + [f"no zero report at degree {ATOM_ZERO_DEGREE}"]
        problems += checks.check_one_root_near(rep, loc)
        table_out = out / "table"
        rc = main(["recurrence", "--config", measure_path, "--out", str(table_out)])
        if rc != 0:
            return problems + [f"recurrence exited {rc}"]
        table = _read(table_out / "recurrence.json")["table"]
        problems += checks.check_atom_table(table, loc, mass, ATOM_GRAM_DEGREE)
        return [f"atom ({loc}, {mass}): {p}" for p in problems]
    return check


def _scenario_ops(sub: str, configs: dict, problems_of: Callable, seed: int,
                  count: int, work: Path) -> list:
    """Ops that each run sub on every config, in an order drawn from seed."""
    paths = {n: _write(work / "inputs" / f"{n}.json", cfg) for n, cfg in configs.items()}
    rng = random.Random(seed)
    ops = []
    for k in range(count):
        out = work / f"op{k}"
        order = rng.sample(list(configs), len(configs))
        argvs = [[sub, "--config", paths[n], "--out", str(out / n)] for n in order]
        ops.append(Op(argvs, out, _scenarios_check(order, out, problems_of)))
    return ops


def _atom_ops(seed: int, count: int, work: Path) -> list:
    ops = []
    for k, (loc, mass) in enumerate(draw_atoms(seed, count)):
        out = work / f"op{k}"
        scn = atom_scenario(loc, mass)
        cfg = _write(work / "inputs" / f"atom{k}.json", scn.config)
        measure = _write(work / "inputs" / f"atom{k}_measure.json",
                         dict(scn.config["measure"], nmax=ATOM_TABLE_NMAX))
        argvs = [[sub, "--config", cfg, "--out", str(out)] for sub in ("verify", "zeros")]
        ops.append(Op(argvs, out, _atom_check(loc, mass, measure, out)))
    return ops


def make_ops(workload: str, seed: int, count: int, work: Path) -> list:
    """count ops of the workload; their input files go under work/inputs."""
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    if workload == "ladders":
        configs = {n: scn.config for n, scn in SCENARIOS.items()}
        return _scenario_ops("verify", configs, _verify_problems, seed, count, work)
    if workload == "zeros_deep":
        configs = {n: dict(SCENARIOS[n].config, zero_degrees=[ZERO_DEGREE])
                   for n in ZERO_SCENARIOS}
        return _scenario_ops("zeros", configs, _zeros_problems, seed, count, work)
    if workload == "atom_measure":
        return _atom_ops(seed, count, work)
    raise ValueError(f"unknown workload {workload!r}")
