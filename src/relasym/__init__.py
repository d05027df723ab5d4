"""Orthogonal polynomials for modified measures and discrete Sobolev
inner products, with closed-form limit functions and verification tooling."""

from .measures import BaseMeasureSpec, MeasureError, RecurrenceTable, recurrence_for
from .polybasis import PolyInBasis, basis_jets
from .joukowski import (
    CutDomainError,
    kappa_tau_limit,
    limit_modified,
    limit_sobolev,
    phi,
    sqrt_z2m1,
)
from .modified import (
    ModifiedError,
    RationalModifier,
    modified_table,
    solve_Q,
    weak_limit_probe,
)
from .sobolev import (
    SobolevError,
    SobolevSpec,
    digit_loss,
    gamma_sequence,
    sn_kernel,
    sn_lambda,
)
from .pade import (
    PadeError,
    StieltjesFn,
    error_ratio,
    f_value,
    pade_denominator,
    pade_numerator,
    to_sobolev_spec,
)
from .zeros import (
    ClusterConfigError,
    ZeroReport,
    ZerosError,
    cluster,
    roots,
)
from .verify import (
    ExperimentConfig,
    RatioRow,
    VerifyConfigError,
    emit_report,
    monotone_violations,
    run_ratio_ladder,
    run_zero_attraction,
)
from .scenarios import bundled_measure, scenario, scenario_names

__version__ = "0.1.0"
