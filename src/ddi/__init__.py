"""Data-driven inference of quasi-measurements via minimum-volume ranges.

The package infers the least committal quasi-measurement consistent with
observed (quasi-)probability distributions by minimizing the volume of
the measurement range over the ball of states, and certifies optimality
through the 2-design property of the counter-image.  It also ships the
supporting real-vector formalism, the quantum embedding, a verification
harness and a small command-line front end.  The embedding
(:mod:`ddi.embedding`) and the harness (:mod:`ddi.verify`) are off the
inference path and load on first use of one of their names.
"""

__version__ = "0.1.0"

from .errors import (
    DdiError,
    DegenerateInputError,
    DegenerateRangeError,
    InvalidInputError,
    NoConvergenceError,
    NotAQuasiMeasurementError,
)
from .geometry import DEFAULT_TOL, ball_radius, hyperplane_basis, pseudoinverse, unit_effect
from .designs import DESIGN_TOL, DesignCertificate, WeightedStateSet, frame_operator, is_two_design
from .measurements import QuasiMeasurement, range_volume_sq, validate
from .inference import (
    DdiResult,
    Ellipsoid,
    ProbabilityCloud,
    ddi_on_ball,
    mvee,
)


_EMBEDDING = ("StateEmbedding", "embed_density", "embed_effect", "traceless_hermitian_basis")


def __getattr__(name):
    # The other public names belong to the quantum embedding (ddi.embedding)
    # or the verification harness (ddi.verify), which are off the inference
    # path and so load on first use.
    if name in _EMBEDDING:
        from . import embedding as home
    elif name in __all__:
        from . import verify as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


__all__ = [
    "__version__",
    "DdiError",
    "DegenerateInputError",
    "DegenerateRangeError",
    "InvalidInputError",
    "NoConvergenceError",
    "NotAQuasiMeasurementError",
    "DEFAULT_TOL",
    "ball_radius",
    "hyperplane_basis",
    "pseudoinverse",
    "unit_effect",
    "DESIGN_TOL",
    "DesignCertificate",
    "WeightedStateSet",
    "frame_operator",
    "is_two_design",
    "QuasiMeasurement",
    "range_volume_sq",
    "validate",
    "DdiResult",
    "Ellipsoid",
    "ProbabilityCloud",
    "ddi_on_ball",
    "mvee",
    # ddi.embedding
    *_EMBEDDING,
    # ddi.verify
    "cone_functional",
    "ball_membership",
    "regular_simplex",
    "is_informationally_complete",
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
