"""Consistency checkers for finite-dimensional quantum histories.

Chain operators, decoherence functionals and the usual consistency
notions (weak, medium, linear positivity, ordered, sum rule, product
trace compatibility), plus mirror projections for 2-event histories:
verification, the least mirror, self-decoherence of families, occurrence
probabilities, join additivity consequences, probability bounds for
mirrored pairs, contrary inferences, and mixture/component individuality
probes.
"""

from .consistency import (
    NOTIONS,
    ConsistencyReport,
    ContraryInferenceInstance,
    FamilyAnalysis,
    check_C1_compatibility,
    check_C1_family,
    check_linear_positivity,
    check_medium_decoherence,
    check_ordered_consistency,
    check_sum_rule,
    check_weak_decoherence,
    conditional_probability,
    contrary_inference,
    decoherence_functional,
    probability,
)
from .errors import (
    BadParameters,
    DimensionMismatch,
    FamilyTooLarge,
    IdentityChainMismatch,
    LambdaOutOfRange,
    MirrorNotVerified,
    NotCommuting,
    NotComplete,
    NotHermitian,
    NotIdempotent,
    NotOrthogonal,
    NotPositive,
    NotSummable,
    ParseError,
    PreconditionFailed,
    ToolkitError,
    TraceNotOne,
    ValidationError,
    WrongHistoryLength,
    ZeroConditioningEvent,
)
from .histories import (
    DEFAULT_MEMBER_CAP,
    History,
    HistoryFamily,
    ResolutionOfIdentity,
    chain_operator,
    elementary_histories,
    family_member_count,
    history_sum,
    is_commutative,
    make_resolution,
    summable,
)
from .individuality import (
    DEFAULT_LAMBDA_GRID,
    ConditionCProbe,
    IndividualityWitness,
    MirrorComponentReport,
    PropertyPredicate,
    condition_C_probe,
    individuality_violation_search,
    linear_positivity_property,
    medium_decoherence_property,
    mirror_component_decomposition,
    mixture,
    self_decoherence_property,
    weak_decoherence_property,
)
from .matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    commutator,
    complement,
    identity_projection,
    is_orthogonal,
    join,
    max_norm,
    projection_leq,
    projector_onto,
    validate_density,
    validate_projection,
    zero_projection,
)
from .mirror import (
    ContraryBoundReport,
    MirrorCertificate,
    OccurrenceProbability,
    Proposition1Report,
    SelfDecoherenceReport,
    check_self_decoherence,
    contrary_bound_check,
    least_mirror,
    mirror_correlation,
    occurrence_probability,
    proposition1_check,
    verify_mirror,
)
from .sampling import PointerModel, assemble_pointer_model
from .scenarios import (
    Example1Expected,
    Example1Instance,
    build_contrary_inference,
    build_example1,
    build_example1_grid,
    build_example2,
    example1_decoherence_expected,
    example1_expected,
    linear_positivity_expected,
    linear_positivity_range_note,
    linear_positivity_violation_possible,
)

__version__ = "0.4.0"
