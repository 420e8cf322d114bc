"""Output oracles that do not depend on the ddi solver.

Each check takes what a request returned and returns a list of failure
messages, empty when the output is correct.  The checks recompute what
they need with plain numpy (pseudoinverse, determinant, and an NNLS of
their own), so a faster solver can be checked but cannot mark itself
right.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-9            # solver gap target the requests ask for
BALL_TOL = 1e-6       # containment: max |s| <= 1 + BALL_TOL
RANGE_TOL = 1e-8      # the cloud must be reproduced by M s
SPHERE_TOL = 1e-6     # witness points lie within this of the sphere
FRAME_TOL = 1e-6      # witness frame deviation from I/l
VOLUME_RTOL = 1e-9    # reported volume_sq against det(M^T M)
TRUTH_RTOL = 1e-6     # recovered volume against the true measurement's
DESIGN_TOL = 1e-7     # ddi_on_ball's default design_tol, which the round trip must report


def nnls(a: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """Lawson-Hanson active-set solution of ``min |a x - b|, x >= 0``."""
    m, n = a.shape
    max_iter = 3 * n + 30 if max_iter is None else max_iter
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10 * np.finfo(float).eps * np.linalg.norm(a, 1) * max(m, n)
    for _ in range(max_iter):
        grad = a.T @ (b - a @ x)
        free = ~passive & (grad > tol)
        if not free.any():
            break
        passive[int(np.argmax(np.where(free, grad, -np.inf)))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if z[passive].min() > 0:
                x = z
                break
            shrink = passive & (z <= 0)
            alpha = np.min(x[shrink] / (x[shrink] - z[shrink]))
            x = x + alpha * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
            if not passive.any():
                break
    return x


def frame_witness(points: np.ndarray) -> float:
    """Smallest frame deviation from ``I/l`` over nonnegative weightings.

    The weights come from an NNLS fit of ``sum_j w_j s_j s_j^T = I/l``
    and are normalized to sum to 1; the deviation is a spectral norm.
    """
    m, l = points.shape
    system = np.einsum("mi,mj->mij", points, points).reshape(m, l * l).T
    weights = nnls(system, (np.eye(l) / l).ravel())
    if weights.sum() <= 0:
        return float("inf")
    weights = weights / weights.sum()
    frame = (points.T * weights) @ points
    return float(np.linalg.norm(frame - np.eye(l) / l, 2))


def containment(cloud: np.ndarray, matrix: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The cloud lies in the range of ``matrix``: its counter-image is in the ball."""
    counter = cloud @ np.linalg.pinv(matrix).T
    failures = []
    residual = float(np.abs(counter @ matrix.T - cloud).max())
    if residual > RANGE_TOL:
        failures.append(f"cloud off the measurement's range by {residual:.3g}")
    reach = float(np.linalg.norm(counter, axis=1).max())
    if reach > 1.0 + BALL_TOL:
        failures.append(f"counter-image leaves the ball: max |s| = {reach:.12g}")
    return failures, counter


def check_inference(cloud: np.ndarray, payload: dict, eps: float = EPS) -> list[str]:
    """Containment, optimality witness, volume and gap of an ``infer`` output."""
    matrix = np.asarray(payload["measurement"]["matrix"], dtype=float)
    failures, counter = containment(cloud, matrix)
    norms = np.linalg.norm(counter, axis=1)
    rim = counter[np.abs(norms - 1.0) <= SPHERE_TOL]
    if len(rim) == 0:
        failures.append("no counter-image point on the sphere")
    else:
        deviation = frame_witness(rim)
        if deviation > FRAME_TOL:
            failures.append(f"no 2-design on the {len(rim)} sphere points: "
                            f"frame deviation {deviation:.3g}")
    volume = float(np.linalg.det(matrix.T @ matrix))
    if abs(payload["volume_sq"] - volume) > VOLUME_RTOL * volume:
        failures.append(f"volume_sq {payload['volume_sq']!r} != det(M^T M) {volume!r}")
    if not payload["optimality_gap"] <= eps:
        failures.append(f"optimality_gap {payload['optimality_gap']!r} > {eps}")
    return failures


def check_cli_infer(cloud: np.ndarray, exit_code: int, payload: dict | None) -> list[str]:
    """``ddi infer`` as a subprocess: exit code 0 and a correct output."""
    failures = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if payload is None:
        return failures + ["no output"]
    return failures + check_inference(cloud, payload)


def check_tomography(cloud: np.ndarray, true_matrix: np.ndarray, payload: dict) -> list[str]:
    """The recovered volume is the true one, certified, and contains the cloud."""
    matrix = np.asarray(payload["measurement"]["matrix"], dtype=float)
    failures, _ = containment(cloud, matrix)
    truth = float(np.linalg.det(true_matrix.T @ true_matrix))
    error = abs(payload["volume_sq"] / truth - 1.0)
    if not error <= TRUTH_RTOL:
        failures.append(f"volume_sq off the true det(M^T M) by {error:.3g}")
    if payload["design_certificate"]["is_design"] is not True:
        failures.append("counter-image not certified as a 2-design")
    return failures


def check_round_trip(true_matrix: np.ndarray, report, perturbations: int) -> list[str]:
    """Conditions of acceptance checks 6 and 9 on one round-trip report."""
    failures = []
    truth = float(np.linalg.det(true_matrix.T @ true_matrix))
    error = abs(report.recovered_volume_sq / truth - 1.0)
    if not error <= TRUTH_RTOL:
        failures.append(f"recovered volume off det(M^T M) by {error:.3g}")
    if not report.relative_gap <= TRUTH_RTOL:
        failures.append(f"relative_gap {report.relative_gap:.3g}")
    if not report.closed_form_gap <= TRUTH_RTOL:
        failures.append(f"closed_form_gap {report.closed_form_gap:.3g}")
    if report.feasible is not True:
        failures.append("recovered measurement infeasible")
    certificate = report.design_certificate
    if not (certificate.is_design and certificate.tol_used == DESIGN_TOL):
        failures.append(f"not certified at design_tol {DESIGN_TOL}")
    excess = report.perturbed_excess
    if len(excess) != perturbations or not all(e > 0 for e in excess):
        failures.append(f"perturbed excess not all positive: {excess}")
    return failures
