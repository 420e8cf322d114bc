"""Data-driven inference of quasi-measurements via minimum-volume ranges.

The package infers the least committal quasi-measurement consistent with
observed (quasi-)probability distributions by minimizing the volume of
the measurement range over the ball of states, and certifies optimality
through the 2-design property of the counter-image.  It also ships the
supporting real-vector formalism, the quantum embedding, and a small
command-line front end.
"""

__version__ = "0.1.0"

from .errors import (
    DdiError,
    DegenerateInputError,
    DegenerateRangeError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidRotationError,
    InvalidStateError,
    NoConvergenceError,
    NotAQuasiMeasurementError,
    NotClosedFormCaseError,
    NotNormalizedError,
    NotPureStateError,
    PreconditionViolatedError,
)
from .geometry import (
    DEFAULT_TOL,
    StateEmbedding,
    ball_membership,
    ball_radius,
    cone_functional,
    embed_density,
    embed_effect,
    hyperplane_basis,
    pseudoinverse,
    traceless_hermitian_basis,
    unit_effect,
)
from .designs import (
    DESIGN_TOL,
    DesignCertificate,
    WeightedStateSet,
    design_weights,
    frame_operator,
    haar_average_estimate,
    is_two_design,
    random_stabilizing_orthogonal,
    regular_simplex,
    rotate_set,
)
from .measurements import (
    QuasiMeasurement,
    det_factorization_check,
    is_informationally_complete,
    pseudoinverse_closure_check,
    random_ic_quasi_measurement,
    random_quasi_measurement,
    range_volume_sq,
    validate,
)
from .inference import (
    DdiResult,
    Ellipsoid,
    ProbabilityCloud,
    ddi_closed_form,
    ddi_on_ball,
    ellipsoid_to_measurement,
    mvee,
)

# The verification harness (ddi.verify) is off the inference path, so its
# names are imported on first use rather than with the package.
_VERIFY_NAMES = frozenset({
    "RoundTripReport",
    "VolumeBoundReport",
    "composition_bijection_check",
    "design_volume_bound_check",
    "feasibility_check",
    "inference_round_trip",
})


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "DdiError",
    "DegenerateInputError",
    "DegenerateRangeError",
    "InvalidDimensionError",
    "InvalidInputError",
    "InvalidRotationError",
    "InvalidStateError",
    "NoConvergenceError",
    "NotAQuasiMeasurementError",
    "NotClosedFormCaseError",
    "NotNormalizedError",
    "NotPureStateError",
    "PreconditionViolatedError",
    "DEFAULT_TOL",
    "StateEmbedding",
    "ball_membership",
    "ball_radius",
    "cone_functional",
    "embed_density",
    "embed_effect",
    "hyperplane_basis",
    "pseudoinverse",
    "traceless_hermitian_basis",
    "unit_effect",
    "DESIGN_TOL",
    "DesignCertificate",
    "WeightedStateSet",
    "design_weights",
    "frame_operator",
    "haar_average_estimate",
    "is_two_design",
    "random_stabilizing_orthogonal",
    "regular_simplex",
    "rotate_set",
    "QuasiMeasurement",
    "det_factorization_check",
    "is_informationally_complete",
    "pseudoinverse_closure_check",
    "random_ic_quasi_measurement",
    "random_quasi_measurement",
    "range_volume_sq",
    "validate",
    "DdiResult",
    "Ellipsoid",
    "ProbabilityCloud",
    "RoundTripReport",
    "VolumeBoundReport",
    "composition_bijection_check",
    "ddi_closed_form",
    "ddi_on_ball",
    "design_volume_bound_check",
    "ellipsoid_to_measurement",
    "feasibility_check",
    "inference_round_trip",
    "mvee",
]
