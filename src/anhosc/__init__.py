"""anhosc: superpotentials, ground states, and minimum-uncertainty coherent
states of anharmonic oscillators, with numerical verification of the
underlying operator identities."""

from .errors import (
    AnhoscError,
    DivergenceError,
    DomainViolationError,
    InadmissibleAlphaError,
    InvalidParameterError,
    SingularJacobianError,
    TruncationError,
    UnderdeterminedError,
    UnsupportedFormError,
)
from .families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from .fit import (
    ExpansionParams,
    FitResult,
    PotentialSample,
    convergence_radius_lower,
    eval_expansion,
    fit_expansion,
)
from .generator import (
    FORM_CONSTANT,
    FORM_LINEAR,
    FORM_PARABOLIC,
    FORM_SQUARED_LINEAR,
    ExpansionRangeWarning,
    GeneratingSeries,
    closed_form_from_series,
    eval_generating_function,
    superpotential_from_series,
)
from .models import (
    OscillatorModel,
    closed_form_potential,
    describe,
    eval_superpotential,
    eval_superpotential_derivative,
)
from .numerics import (
    Grid,
    SampledFunction,
    differentiate_samples,
    integrate_samples,
    make_grid,
    ode_step_halving_error,
    solve_first_order_ode,
)
from .states import (
    ANNIHILATION,
    CREATION,
    AdmissibilityBound,
    GridFields,
    WaveFunction,
    Workspace,
    admissible_bound,
    auto_grid,
    coherent_state,
    grid_fields,
    ground_state,
    is_admissible,
    l2_norm_of,
    ladder_values,
    normalize,
)
from .verify import (
    Tolerances,
    VerificationReport,
    verify_coherent,
    verify_model,
)

__version__ = "0.1.0"
