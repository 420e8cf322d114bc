"""Every public entry point reads a caller's sizes and arrays by one rule.

The rule is the JSON layouts' (``ddi.geometry._size`` and ``_array``): a
size is a whole, finite number at or above the entry point's minimum, so
``3.0`` and ``np.int64(3)`` read as 3 while ``2.5``, NaN, infinity,
``True`` and ``"3"`` are refused; an array is rectangular, real and
numeric.  Each refusal is an :class:`InvalidInputError`.
"""

import dataclasses

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
    design_weights,
    haar_average_estimate,
    hyperplane_basis,
    inference_round_trip,
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
from ddi.measurements import apply

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
       for field in ("center", "axes", "semi_axes", "chart")},
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
