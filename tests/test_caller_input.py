"""Every public entry point reads a caller's sizes, arrays and tolerances by one rule.

The rule is the JSON layouts' (``ddi.geometry._size`` and ``_array``): a
size is a whole, finite number at or above the entry point's minimum, so
``3.0`` and ``np.int64(3)`` read as 3 while ``2.5``, NaN, infinity,
``True`` and ``"3"`` are refused; an array is rectangular, real, numeric
and finite, and an operator the same but complex.  A tolerance
(``ddi.geometry._real``) is a real number other than a bool; NaN and
negative ones are read as given, and a NaN one passes no check.  Each
refusal is an :class:`InvalidInputError`, and a refused int too long to
print is shown by its bit length.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from ddi import (
    Ellipsoid,
    InvalidInputError,
    NoConvergenceError,
    ProbabilityCloud,
    QuasiMeasurement,
    StateEmbedding,
    WeightedStateSet,
    ball_membership,
    ball_radius,
    composition_bijection_check,
    cone_functional,
    ddi_on_ball,
    design_weights,
    embed_density,
    embed_effect,
    feasibility_check,
    haar_average_estimate,
    hyperplane_basis,
    inference_round_trip,
    is_informationally_complete,
    is_two_design,
    mvee,
    pseudoinverse,
    random_ic_quasi_measurement,
    random_quasi_measurement,
    regular_simplex,
    rotate_set,
    traceless_hermitian_basis,
    unit_effect,
    validate,
)
from ddi.designs import certify_design, state_set_from_dict
from ddi.embedding import hermitian_from_dict, hermitian_to_dict
from ddi.inference import assemble_result, cloud_from_dict
from ddi.measurements import apply, measurement_from_dict

_SIMPLEX_ELLIPSOID = mvee(ProbabilityCloud(np.eye(3)))


def _capped_iterations(max_iter):
    try:
        mvee(ProbabilityCloud(np.random.default_rng([7, 1]).dirichlet(np.ones(4), 30)),
             max_iter=max_iter)
    except NoConvergenceError as exc:
        return exc.partial.iterations
    raise AssertionError("a cap of a few steps must stop the solver")


def _bijection(samples):
    meas = random_ic_quasi_measurement(4, 3, 1)
    return composition_bijection_check(meas, ProbabilityCloud(meas.matrix.T), samples=samples)


# name: (what a size reads as, the smallest size the entry point takes)
SIZED = {
    "unit_effect": (lambda x: unit_effect(x).tolist(), 2),
    "ball_radius": (ball_radius, 2),
    "hyperplane_basis": (lambda x: id(hyperplane_basis(x)), 2),
    "traceless_hermitian_basis": (lambda x: id(traceless_hermitian_basis(x)), 2),
    "StateEmbedding": (lambda x: (type(StateEmbedding(x).d), StateEmbedding(x).d), 2),
    "StateEmbedding.for_dimension": (lambda x: id(StateEmbedding.for_dimension(x)), 2),
    "regular_simplex": (lambda x: regular_simplex(x).points.tolist(), 2),
    "haar_average_estimate.samples": (
        lambda x: haar_average_estimate(np.eye(3)[0], x, seed=1).tolist(), 1),
    "random_ic_quasi_measurement.n": (
        lambda x: random_ic_quasi_measurement(x, 3, 1).matrix.tolist(), 1),
    "random_ic_quasi_measurement.l": (
        lambda x: random_ic_quasi_measurement(4, x, 1).matrix.tolist(), 2),
    "random_quasi_measurement.n": (
        lambda x: random_quasi_measurement(x, 3, 2, 1).matrix.tolist(), 1),
    "random_quasi_measurement.l": (
        lambda x: random_quasi_measurement(4, x, 2, 1).matrix.tolist(), 2),
    "random_quasi_measurement.rank": (
        lambda x: random_quasi_measurement(4, 3, x, 1).matrix.tolist(), 1),
    "composition_bijection_check.samples": (_bijection, 1),
    "Ellipsoid.iterations": (
        lambda x: dataclasses.replace(_SIMPLEX_ELLIPSOID, iterations=x).iterations, 0),
    "mvee.max_iter": (_capped_iterations, 1),
    "inference_round_trip.perturbations": (
        lambda x: inference_round_trip(random_ic_quasi_measurement(5, 3, 2), x,
                                       seed=4).perturbed_excess, 0),
}


@pytest.mark.parametrize("name", SIZED)
def test_a_whole_float_or_numpy_integer_reads_as_the_int(name):
    read, _ = SIZED[name]
    expected = read(3)
    assert read(3.0) == expected
    assert read(np.int64(3)) == expected


@pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), True, "3", "below"],
                         ids=["fraction", "nan", "inf", "true", "string", "below-minimum"])
@pytest.mark.parametrize("name", SIZED)
def test_a_size_that_is_no_whole_number_at_the_minimum_is_refused(name, value):
    read, minimum = SIZED[name]
    with pytest.raises(InvalidInputError, match="must be a whole number >= "):
        read(minimum - 1 if value == "below" else value)


ARRAYS = {
    "ProbabilityCloud": ProbabilityCloud,
    "QuasiMeasurement": lambda a: QuasiMeasurement(matrix=a),
    "validate": validate,
    "WeightedStateSet.points": lambda a: WeightedStateSet(points=a, weights=np.full(3, 1 / 3)),
    "WeightedStateSet.weights": lambda a: WeightedStateSet(points=np.eye(3), weights=a),
    **{f"Ellipsoid.{field}": (
        lambda a, field=field: dataclasses.replace(_SIMPLEX_ELLIPSOID, **{field: a}))
       for field in ("center", "axes", "semi_axes", "chart", "support_weights")},
    "pseudoinverse": pseudoinverse,
    "apply": lambda a: apply(validate(np.eye(3)), a),
    "ball_membership": ball_membership,
    "haar_average_estimate": lambda a: haar_average_estimate(a, 3),
    "cone_functional": cone_functional,
    "rotate_set": lambda a: rotate_set(regular_simplex(3), a),
    "design_weights": design_weights,
}


@pytest.mark.parametrize("array", [
    [[1.0, 0.0, 0.0], [0.0, 1.0]],
    np.eye(3) + 1j,
    np.eye(3, dtype=bool),
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
], ids=["ragged", "complex", "bool", "strings"])
@pytest.mark.parametrize("name", ARRAYS)
def test_an_array_that_is_not_rectangular_real_and_numeric_is_refused(name, array):
    with pytest.raises(InvalidInputError, match="must be a (rectangular|real numeric) array"):
        ARRAYS[name](array)


@pytest.mark.parametrize("array", [
    [1.0, np.nan, 0.0],
    [np.inf, 0.0, 0.0],
    [np.inf, -np.inf, 1.0],
], ids=["nan", "inf", "cancelling-infs"])
@pytest.mark.parametrize("name", ARRAYS)
def test_an_array_with_an_entry_that_is_not_finite_is_refused(name, array):
    with pytest.raises(InvalidInputError, match="entries must be finite"):
        ARRAYS[name](array)


@pytest.mark.parametrize("weights, message", [
    ("x", "must be a real numeric array"),
    (np.full((3, 1), 1 / 3), "ellipsoid support_weights must be a vector"),
], ids=["string", "matrix"])
def test_ellipsoid_support_weights_that_are_no_vector_are_refused(weights, message):
    with pytest.raises(InvalidInputError, match=message):
        dataclasses.replace(_SIMPLEX_ELLIPSOID, support_weights=weights)


_QUBIT = StateEmbedding.for_dimension(2)

OPERATORS = {
    "embed_density": lambda a: embed_density(a, _QUBIT).tolist(),
    "embed_effect": lambda a: embed_effect(a, _QUBIT).tolist(),
    "hermitian_to_dict": hermitian_to_dict,
}


@pytest.mark.parametrize("operator, message", [
    ([[0.5, 0.0], [0.0]], "must be a rectangular array"),
    (np.eye(2, dtype=bool), "must be a numeric array"),
    ([["0.5", "0"], ["0", "0.5"]], "must be a numeric array"),
    ([[0.5, np.nan], [0.0, 0.5]], "entries must be finite"),
    ([[0.5, complex(0.0, np.inf)], [0.0, 0.5]], "entries must be finite"),
], ids=["ragged", "bool", "strings", "nan", "inf-imaginary"])
@pytest.mark.parametrize("name", OPERATORS)
def test_an_operator_that_is_not_rectangular_numeric_and_finite_is_refused(
        name, operator, message):
    with pytest.raises(InvalidInputError, match=message):
        OPERATORS[name](operator)


@pytest.mark.parametrize("name", OPERATORS)
def test_a_complex_operator_is_read_like_a_real_one(name):
    read = OPERATORS[name]
    real = [[0.75, 0.25], [0.25, 0.25]]
    assert read(np.array(real) + 0j) == read(real)
    hermitian = [[0.75, 0.25 - 0.25j], [0.25 + 0.25j, 0.25]]
    assert read(np.array(hermitian)) == read(hermitian)


_SIMPLEX_CLOUD = ProbabilityCloud(np.eye(3))
_SIMPLEX_MEASUREMENT = validate(np.eye(3))

# name: a call that reads the tolerance, or another real number, and
# returns what it decided
TOLERANCES = {
    "ProbabilityCloud.sum_tol": lambda t: ProbabilityCloud(np.eye(3), sum_tol=t).points.tolist(),
    "cloud_from_dict.sum_tol": lambda t: cloud_from_dict(
        {"n": 3, "distributions": np.eye(3).tolist()}, sum_tol=t).points.tolist(),
    "certify_design.tol": lambda t: certify_design(regular_simplex(3), t).is_design,
    "is_two_design.tol": lambda t: is_two_design(regular_simplex(3), tol=t).is_design,
    "embed_density.tol": lambda t: embed_density(np.eye(2) / 2, _QUBIT, tol=t).tolist(),
    "embed_effect.tol": lambda t: embed_effect(np.eye(2), _QUBIT, tol=t).tolist(),
    "ball_membership.tol": lambda t: ball_membership(np.eye(3)[0], tol=t),
    "is_informationally_complete.tol": lambda t: is_informationally_complete(
        _SIMPLEX_MEASUREMENT, tol=t),
    "feasibility_check.tol": lambda t: feasibility_check(
        _SIMPLEX_MEASUREMENT, _SIMPLEX_CLOUD, tol=t),
    "assemble_result.design_tol": lambda t: assemble_result(
        _SIMPLEX_ELLIPSOID, _SIMPLEX_CLOUD, design_tol=t).design_certificate.is_design,
    "ddi_on_ball.design_tol": lambda t: ddi_on_ball(
        _SIMPLEX_CLOUD, design_tol=t).design_certificate.is_design,
    "ddi_on_ball.eps": lambda t: ddi_on_ball(_SIMPLEX_CLOUD, eps=t).volume_sq,
    "mvee.eps": lambda t: mvee(_SIMPLEX_CLOUD, eps=t).semi_axes.tolist(),
    "Ellipsoid.optimality_gap": lambda t: dataclasses.replace(
        _SIMPLEX_ELLIPSOID, optimality_gap=t).optimality_gap,
}


@pytest.mark.parametrize("name", TOLERANCES)
def test_a_real_tolerance_of_any_type_reads_as_its_float(name):
    read = TOLERANCES[name]
    expected = read(1e-6)
    assert read(np.float64(1e-6)) == expected
    assert read(Fraction(1, 10 ** 6)) == expected


@pytest.mark.parametrize("value", [True, np.True_, "1e-9", None, 1e-9 + 0j],
                         ids=["true", "numpy-true", "string", "none", "complex"])
@pytest.mark.parametrize("name", TOLERANCES)
def test_a_tolerance_that_is_no_real_number_is_refused(name, value):
    with pytest.raises(InvalidInputError, match="must be a (positive, finite )?real number"):
        TOLERANCES[name](value)


def test_a_tolerance_beyond_the_float_range_reads_as_infinite():
    assert ball_membership(np.eye(3)[0], tol=10 ** 400)
    assert not ball_membership(np.eye(3)[0], tol=-10 ** 400)
    with pytest.raises(InvalidInputError, match="eps must be a positive, finite real number"):
        mvee(_SIMPLEX_CLOUD, eps=10 ** 400)


_HUGE = 10 ** 5000

HUGE_INTS = {
    "unit_effect": lambda: unit_effect(-_HUGE),
    "mvee.max_iter": lambda: mvee(_SIMPLEX_CLOUD, max_iter=-_HUGE),
    "cloud_from_dict": lambda: cloud_from_dict(
        {"n": _HUGE, "distributions": [[1.0, 0.0], [0.0, 1.0]]}),
    "state_set_from_dict": lambda: state_set_from_dict(
        {"l": _HUGE, "points": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]}),
    "measurement_from_dict": lambda: measurement_from_dict(
        {"n": 2, "l": _HUGE, "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    "hermitian_from_dict": lambda: hermitian_from_dict(
        {"d": _HUGE, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}),
}


@pytest.mark.parametrize("name", HUGE_INTS)
def test_a_refused_int_too_long_to_print_is_shown_by_its_bit_length(name):
    with pytest.raises(InvalidInputError) as info:
        HUGE_INTS[name]()
    message = str(info.value)
    assert len(message) < 200
    assert "int of 16610 bits" in message


@pytest.mark.parametrize("call", [
    lambda: mvee(_SIMPLEX_CLOUD, max_iter=[_HUGE]),
    lambda: mvee(_SIMPLEX_CLOUD, eps=[_HUGE]),
], ids=["mvee.max_iter", "mvee.eps"])
def test_a_refused_value_whose_repr_raises_is_shown_by_its_type(call):
    # Python refuses to print the list's int, so its repr raises
    with pytest.raises(InvalidInputError) as info:
        call()
    message = str(info.value)
    assert len(message) < 200
    assert message.endswith("got a list that cannot be printed")
