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
    frame_operator,
    is_two_design,
    regular_simplex,
)
from .measurements import (
    QuasiMeasurement,
    is_informationally_complete,
    range_volume_sq,
    validate,
)
from .inference import (
    DdiResult,
    Ellipsoid,
    ProbabilityCloud,
    ddi_on_ball,
    mvee,
)


def __getattr__(name):
    # The other public names belong to the verification harness (ddi.verify),
    # which is off the inference path and so loads on first use.
    if name in __all__:
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
    "frame_operator",
    "is_two_design",
    "regular_simplex",
    "QuasiMeasurement",
    "is_informationally_complete",
    "range_volume_sq",
    "validate",
    "DdiResult",
    "Ellipsoid",
    "ProbabilityCloud",
    "ddi_on_ball",
    "mvee",
    # ddi.verify
    "haar_average_estimate",
    "random_stabilizing_orthogonal",
    "rotate_set",
    "design_weights",
    "det_factorization_check",
    "pseudoinverse_closure_check",
    "random_ic_quasi_measurement",
    "random_quasi_measurement",
    "ddi_closed_form",
    "RoundTripReport",
    "VolumeBoundReport",
    "composition_bijection_check",
    "design_volume_bound_check",
    "feasibility_check",
    "inference_round_trip",
]
