"""Each oracle passes real outputs and counts a corrupted one as failed."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from ddi import ProbabilityCloud, ddi_on_ball
from perfbench import oracles
from perfbench.workloads import PureTomography, RoundTrip


def _with_matrix(payload, matrix):
    """Payload with another matrix and the volume_sq that matches it."""
    out = copy.deepcopy(payload)
    out["measurement"]["matrix"] = matrix.tolist()
    out["volume_sq"] = float(np.linalg.det(matrix.T @ matrix))
    return out


def _scale_tangent(matrix, factor):
    """Scale the tangent block of ``matrix`` by ``factor``, keeping its center."""
    l = matrix.shape[1]
    center = np.full((l, l), 1.0 / l)
    return matrix @ (center + factor * (np.eye(l) - center))


@pytest.fixture(scope="module")
def inferred():
    cloud = np.random.default_rng(5).dirichlet(np.ones(5), size=60)
    payload = json.loads(json.dumps(ddi_on_ball(ProbabilityCloud(cloud)).to_dict()))
    return cloud, payload


def test_inference_output_passes(inferred):
    cloud, payload = inferred
    assert oracles.check_inference(cloud, payload) == []
    assert oracles.check_cli_infer(cloud, 0, payload) == []


def test_shrunk_tangent_block_fails_containment(inferred):
    cloud, payload = inferred
    matrix = np.array(payload["measurement"]["matrix"])
    failures = oracles.check_inference(cloud, _with_matrix(payload, _scale_tangent(matrix, 0.99)))
    assert any("leaves the ball" in f for f in failures)


def test_grown_tangent_block_fails_witness(inferred):
    cloud, payload = inferred
    matrix = np.array(payload["measurement"]["matrix"])
    failures = oracles.check_inference(cloud, _with_matrix(payload, _scale_tangent(matrix, 1.01)))
    assert failures == ["no counter-image point on the sphere"]


def test_enclosing_but_not_minimal_fails_witness(inferred):
    # shift the center, then rescale so the counter-image touches the sphere again
    cloud, payload = inferred
    matrix = np.array(payload["measurement"]["matrix"])
    l = matrix.shape[1]
    shift = 0.02 * (cloud[0] - cloud.mean(axis=0))
    moved = matrix + np.outer(shift, np.ones(l))
    counter = cloud @ np.linalg.pinv(moved).T
    reach = np.linalg.norm(counter - 1.0 / l, axis=1).max() / np.sqrt(1.0 - 1.0 / l)
    tight = _scale_tangent(moved, reach)
    failures = oracles.check_inference(cloud, _with_matrix(payload, tight))
    assert len(failures) == 1 and "no 2-design" in failures[0]


def test_wrong_volume_fails(inferred):
    cloud, payload = inferred
    bad = dict(payload, volume_sq=payload["volume_sq"] * (1 + 1e-6))
    assert any("volume_sq" in f for f in oracles.check_inference(cloud, bad))


def test_large_gap_fails(inferred):
    cloud, payload = inferred
    bad = dict(payload, optimality_gap=1e-6)
    assert any("optimality_gap" in f for f in oracles.check_inference(cloud, bad))


def test_cli_exit_code_and_missing_output_fail(inferred):
    cloud, payload = inferred
    assert oracles.check_cli_infer(cloud, 2, payload) == ["exit code 2"]
    assert oracles.check_cli_infer(cloud, 0, None) == ["no output"]


@pytest.fixture(scope="module")
def tomography():
    work = PureTomography()
    cloud, true_matrix, text = work.request(work.make_input(1, 1))
    return cloud, true_matrix, json.loads(text)


def test_tomography_passes(tomography):
    assert oracles.check_tomography(*tomography) == []


def test_tomography_corruptions_fail(tomography):
    cloud, true_matrix, payload = tomography
    wrong_volume = dict(payload, volume_sq=payload["volume_sq"] * (1 + 1e-5))
    assert oracles.check_tomography(cloud, true_matrix, wrong_volume)
    uncertified = copy.deepcopy(payload)
    uncertified["design_certificate"]["is_design"] = False
    assert oracles.check_tomography(cloud, true_matrix, uncertified)
    matrix = np.array(payload["measurement"]["matrix"])
    shrunk = _with_matrix(payload, _scale_tangent(matrix, 0.99))
    failures = oracles.check_tomography(cloud, true_matrix, shrunk)
    assert any("leaves the ball" in f for f in failures)


@pytest.fixture(scope="module")
def round_trip():
    work = RoundTrip()
    return work.request(work.make_input(1, 1))


def test_round_trip_passes(round_trip):
    assert oracles.check_round_trip(*round_trip, perturbations=3) == []


@pytest.mark.parametrize("change", [
    {"recovered_volume_sq_factor": 1.01},
    {"relative_gap": 1e-5},
    {"closed_form_gap": 1e-5},
    {"feasible": False},
    {"certified": False},
    {"perturbed_excess": (0.1, -1e-3, 0.2)},
    {"perturbed_excess": (0.1, 0.2)},
])
def test_round_trip_corruptions_fail(round_trip, change):
    matrix, report = round_trip
    change = dict(change)
    if "recovered_volume_sq_factor" in change:
        change["recovered_volume_sq"] = report.recovered_volume_sq * change.pop(
            "recovered_volume_sq_factor")
    if "certified" in change:
        change["design_certificate"] = dataclasses.replace(
            report.design_certificate, is_design=change.pop("certified"))
    bad = dataclasses.replace(report, **change)
    assert oracles.check_round_trip(matrix, bad, perturbations=3)


def test_nnls_matches_scipy():
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((15, 8))
        b = rng.standard_normal(15)
        ours = oracles.nnls(a, b)
        theirs, _ = scipy_nnls(a, b)
        assert ours.min() >= 0
        assert np.linalg.norm(a @ ours - b) <= np.linalg.norm(a @ theirs - b) + 1e-10
