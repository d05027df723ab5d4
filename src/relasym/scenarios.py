"""Bundled measures and experiment configurations.

The ladder scenarios run on the Legendre weight: its recurrence
coefficients approach their limits at an algebraic rate, so every rung
of the default degree ladder sits well above the double-precision
floor and error decrease is observable at each step.  (On the
first-kind Chebyshev weight the base recurrence is exact from degree 2
and ratio errors crash through machine precision by degree 15 or so,
which makes ladders flat, not decreasing.)

The zero-attraction scenarios use the Legendre weight too: degree-60
root sets there are cheap, and every center attracts its expected count.
"""

from __future__ import annotations

from .measures import BaseMeasureSpec
from .modified import RationalModifier
from .pade import StieltjesFn
from .sobolev import SobolevSpec
from .verify import ExperimentConfig, VerifyConfigError

__all__ = [
    "BUNDLED_MEASURES",
    "SCENARIOS",
    "bundled_measure",
    "scenario",
    "scenario_names",
]

BUNDLED_MEASURES = {
    "chebyshev": BaseMeasureSpec("chebyshev_first_kind"),
    "chebyshev_atom": BaseMeasureSpec("chebyshev_first_kind",
                                      mass_points=((2.0, 0.5),)),
    "legendre": BaseMeasureSpec("legendre"),
}


def bundled_measure(name: str) -> BaseMeasureSpec:
    try:
        return BUNDLED_MEASURES[name]
    except KeyError:
        raise VerifyConfigError(f"unknown bundled measure {name!r}") from None


def _scenario_base_legendre() -> ExperimentConfig:
    return ExperimentConfig(measure=bundled_measure("legendre"))


def _scenario_modified_linear_real() -> ExperimentConfig:
    return ExperimentConfig(
        measure=bundled_measure("legendre"),
        target=RationalModifier(zeros=((3.0 + 0.0j, 1),)),
    )


def _scenario_modified_linear_complex() -> ExperimentConfig:
    return ExperimentConfig(
        measure=bundled_measure("legendre"),
        target=RationalModifier(zeros=((2.0j, 1),)),
    )


def _scenario_modified_rational() -> ExperimentConfig:
    return ExperimentConfig(
        measure=bundled_measure("legendre"),
        target=RationalModifier(zeros=((2.0j, 1),), poles=((3.0j, 1),)),
    )


def _scenario_sobolev_point_derivative() -> ExperimentConfig:
    # one real center with a single derivative mass: the simplest
    # inner product whose polynomials are pulled off the interval.
    # ratio errors here decay like 1.85/n (the derivative condition
    # scales with the degree), so ladders decrease but slowly
    return ExperimentConfig(
        measure=bundled_measure("legendre"),
        target=SobolevSpec.diagonal([(2.0, [0.0, 1.0])]),
        zero_degrees=(60,),
    )


def _scenario_sobolev_point_pair() -> ExperimentConfig:
    # value and derivative mass together (two attracted zeros); the
    # value condition anchors the scale and errors decay like 1/n^2
    return ExperimentConfig(
        measure=bundled_measure("legendre"),
        target=SobolevSpec.diagonal([(2.0, [1.0, 1.0])]),
        zero_degrees=(60,),
    )


def _scenario_pade_gonchar() -> ExperimentConfig:
    # one double-order pole at 2i: the denominator ladder against the
    # base polynomials and two attracted zeros per degree.  2i itself
    # is excluded from the probes (it is the attraction center)
    return ExperimentConfig(
        measure=bundled_measure("legendre"),
        target=StieltjesFn(bundled_measure("legendre"), ((2.0j, (0.0, 1.0)),)),
        probe_points=(3.0 + 0.0j, -2.5 + 0.0j, -2.0j, 1.5 + 1.5j),
        zero_degrees=(60,),
    )


SCENARIOS = {
    "base_legendre": _scenario_base_legendre,
    "modified_linear_real": _scenario_modified_linear_real,
    "modified_linear_complex": _scenario_modified_linear_complex,
    "modified_rational": _scenario_modified_rational,
    "sobolev_point_derivative": _scenario_sobolev_point_derivative,
    "sobolev_point_pair": _scenario_sobolev_point_pair,
    "pade_gonchar": _scenario_pade_gonchar,
}


def scenario(name: str) -> ExperimentConfig:
    try:
        build = SCENARIOS[name]
    except KeyError:
        raise VerifyConfigError(f"unknown scenario {name!r}") from None
    return build()


def scenario_names() -> list:
    return sorted(SCENARIOS)
