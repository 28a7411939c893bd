"""Quadratic models for derivative-free optimization, with exact
full-space/subspace conversions.

The package fits interpolation models (determined, minimum-norm,
minimum-Frobenius-norm, least-change) and generalized simplex
gradient/Hessian models, detects the affine subspace spanned by a sample
set, and converts fitted models between the full space and that subspace
without refitting.  A randomized harness checks the conversion identities
on generated instances.
"""

from .bridge import (
    ConversionReport,
    coincidence_check,
    hat_directions,
    lift_lfu,
    lift_mfn,
    lift_mn,
    lift_simplex,
    restrict,
)
from .errors import (
    DimensionMismatchError,
    DuplicatePointError,
    EmptySetError,
    FileFormatError,
    InfeasibleError,
    NonFiniteError,
    NotInSubspaceError,
    NotOrthonormalError,
    NotPoisedError,
    NotSquareError,
    ReferenceMismatchError,
    SpecInfeasibleError,
    SubquadError,
    UnknownTheoremError,
    VariantPreconditionError,
)
from .geometry import (
    FunctionOracle,
    SampleSet,
    SubspaceFrame,
    detect_subspace,
    feasibility_residual,
    hat_function,
    hat_sampleset,
    interpolation_feasible,
    poised_for_quadratic,
)
from .harness import (
    InstanceSpec,
    SuiteResult,
    TrialRecord,
    negative_controls,
    random_instance,
    run_all,
    run_suite,
)
from .models import (
    FactoredHessian,
    GradientFamily,
    ModelResult,
    QuadraticModel,
    evaluate,
    fit_dqi,
    fit_lfu,
    fit_mfn,
    fit_mn,
    member,
)
from .simplex import DirectionBundle, fit_qgsd, gsg, gsh

__all__ = [
    "ConversionReport",
    "DimensionMismatchError",
    "DirectionBundle",
    "DuplicatePointError",
    "EmptySetError",
    "FactoredHessian",
    "FileFormatError",
    "FunctionOracle",
    "GradientFamily",
    "InfeasibleError",
    "InstanceSpec",
    "ModelResult",
    "NonFiniteError",
    "NotInSubspaceError",
    "NotOrthonormalError",
    "NotPoisedError",
    "NotSquareError",
    "QuadraticModel",
    "ReferenceMismatchError",
    "SampleSet",
    "SpecInfeasibleError",
    "SubquadError",
    "SubspaceFrame",
    "SuiteResult",
    "TrialRecord",
    "UnknownTheoremError",
    "VariantPreconditionError",
    "coincidence_check",
    "detect_subspace",
    "evaluate",
    "feasibility_residual",
    "fit_dqi",
    "fit_lfu",
    "fit_mfn",
    "fit_mn",
    "fit_qgsd",
    "gsg",
    "gsh",
    "hat_directions",
    "hat_function",
    "hat_sampleset",
    "interpolation_feasible",
    "lift_lfu",
    "lift_mfn",
    "lift_mn",
    "lift_simplex",
    "member",
    "negative_controls",
    "poised_for_quadratic",
    "random_instance",
    "restrict",
    "run_all",
    "run_suite",
]

__version__ = "0.1.0"
