"""Orthogonal polynomials for modified measures and discrete Sobolev
inner products, with closed-form limit functions and verification tooling."""

from .measures import BaseMeasureSpec, MeasureError, RecurrenceTable, recurrence_for
from .polybasis import PolyInBasis, basis_jets, eval_jet, inner_mu
from .joukowski import (
    CutDomainError,
    cheb_transform,
    factor_identity_check,
    kappa_tau_limit,
    limit_modified,
    limit_sobolev,
    phi,
    sqrt_z2m1,
)
from .modified import (
    ModifiedError,
    ModifiedOP,
    RationalModifier,
    recurrence_extract,
    solve_Q,
    weak_limit_probe,
)
from .sobolev import (
    RegularityReport,
    SobolevError,
    SobolevSpec,
    digit_loss,
    gamma_sequence,
    orthogonality_residuals_extended,
    regularity,
    sn_kernel,
    sn_lambda,
    sobolev_inner,
)
from .pade import (
    PadeError,
    StieltjesFn,
    error_ratio,
    f_value,
    laurent_moments,
    pade_approximant,
    pade_denominator,
    pade_numerator,
    pade_order_residuals,
    to_sobolev_spec,
)
from .zeros import (
    ClusterConfigError,
    ZeroReport,
    ZerosError,
    cluster,
    radius_halving_stable,
    roots,
)
from .verify import (
    ExperimentConfig,
    RatioRow,
    VerifyConfigError,
    emit_report,
    load_rows,
    monotone_violations,
    run_ratio_ladder,
    run_zero_attraction,
)
from .scenarios import bundled_measure, scenario, scenario_names

__version__ = "0.1.0"
