"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each test aggregates its trials, prints a single summary line with the
worst observed figure against the pinned tolerance, and then asserts.
Everything is seeded, so the numbers are reproducible run to run.
"""

import json
import subprocess
import sys

import numpy as np

from ddi import (
    ProbabilityCloud,
    StateEmbedding,
    ball_radius,
    composition_bijection_check,
    ddi_closed_form,
    ddi_on_ball,
    design_volume_bound_check,
    embed_density,
    embed_effect,
    frame_operator,
    haar_average_estimate,
    inference_round_trip,
    mvee,
    random_ic_quasi_measurement,
    random_quasi_measurement,
    random_stabilizing_orthogonal,
    regular_simplex,
    rotate_set,
    validate,
    det_factorization_check,
    WeightedStateSet,
)
from ddi.verify import sample_enclosing_square

from helpers import (
    enclosing_ellipse_bruteforce,
    random_density,
    random_hermitian,
    bloch_qubit,
    triangle_area,
)


def _report(name, ok, detail):
    print(f"{name}: {detail} => {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}"


def test_01_design_frame_condition():
    worst_simplex = 0.0
    for l in range(2, 17):
        f = frame_operator(regular_simplex(l))
        worst_simplex = max(worst_simplex, float(np.linalg.norm(f - np.eye(l) / l, 2)))
    rng = np.random.default_rng(101)
    worst_union = 0.0
    for l in (3, 4, 5):
        for trial in range(50):
            copies = int(rng.integers(2, 4))
            points = np.vstack([
                rotate_set(regular_simplex(l),
                           random_stabilizing_orthogonal(l, rng)).points
                for _ in range(copies)])
            union = WeightedStateSet(
                points=points, weights=np.full(l * copies, 1.0 / (l * copies)))
            dev = float(np.linalg.norm(frame_operator(union) - np.eye(l) / l, 2))
            worst_union = max(worst_union, dev)
    ok = worst_simplex <= 1e-12 and worst_union <= 1e-10
    _report("01 design-frame-condition", ok,
            f"simplex dev {worst_simplex:.2e} (tol 1e-12), "
            f"150 rotated unions dev {worst_union:.2e} (tol 1e-10)")


def test_02_haar_average_consistency():
    worst = 0.0
    for l in (3, 4):
        est = haar_average_estimate(np.eye(l)[0], 10 ** 5, seed=200 + l)
        worst = max(worst, float(np.linalg.norm(est - np.eye(l) / l, 2)))
    _report("02 haar-average-consistency", worst <= 0.02,
            f"1e5-sample deviation {worst:.4f} (tol 0.02)")


def test_03_pseudoinverse_closure():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        l = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(n, l) + 1))
        meas = random_quasi_measurement(n, l, rank, rng)
        pinv = meas.pinv()
        residual = float(np.linalg.norm(
            pinv.T @ np.ones(l) - meas.matrix @ (pinv @ np.ones(n))))
        worst = max(worst, residual)
    _report("03 pseudoinverse-closure", worst <= 1e-9,
            f"1000 members, worst residual {worst:.2e} (tol 1e-9)")


def test_04_volume_lower_bound():
    rng = np.random.default_rng(404)
    min_det = np.inf
    for trial in range(10 ** 4):
        l = int(rng.integers(2, 7))
        meas = sample_enclosing_square(np.eye(l), rng)
        report = design_volume_bound_check(meas, regular_simplex(l))
        min_det = min(min_det, report.gram_det)
        if not report:
            break
    worst_eq = 0.0
    for trial in range(100):
        l = int(rng.integers(2, 7))
        o = random_stabilizing_orthogonal(l, rng)
        report = design_volume_bound_check(validate(o), regular_simplex(l))
        worst_eq = max(worst_eq, abs(report.gram_det - 1.0))
    ok = min_det >= 1.0 - 1e-9 and worst_eq <= 1e-12
    _report("04 volume-lower-bound", ok,
            f"1e4 enclosing members, min det {min_det:.6f} (>= 1-1e-9); "
            f"100 orthogonals off equality by {worst_eq:.2e} (tol 1e-12)")


def test_05_enclosing_ellipsoid_correctness():
    worst_center = worst_shape = 0.0
    for l in range(2, 9):
        e = mvee(ProbabilityCloud(np.eye(l)))
        worst_center = max(worst_center,
                           float(np.abs(e.center - np.full(l, 1.0 / l)).max()))
        worst_shape = max(worst_shape, float(np.abs(
            e.shape - ball_radius(l) ** 2 * np.eye(l - 1)).max()))
    rng = np.random.default_rng(505)
    worst_tri = worst_oracle = 0.0
    for trial in range(20):
        pts = rng.standard_normal((3, 3))
        pts += (1.0 - pts.sum(axis=1))[:, None] / 3
        cloud = ProbabilityCloud(pts)
        e = mvee(cloud)
        worst_tri = max(worst_tri, float(np.abs(e.center - pts.mean(axis=0)).max()))
        chart_pts = (pts - pts.mean(axis=0)) @ e.chart
        center_bf, h_bf = enclosing_ellipse_bruteforce(chart_pts, seed=trial)
        area = np.pi * np.sqrt(np.linalg.det(e.shape))
        area_bf = np.pi / np.sqrt(np.linalg.det(h_bf))
        worst_oracle = max(
            worst_oracle,
            float(np.abs((e.center - pts.mean(axis=0)) @ e.chart - center_bf).max()),
            abs(area / area_bf - 1.0))
    ok = (worst_center <= 1e-8 and worst_shape <= 1e-7
          and worst_tri <= 1e-6 and worst_oracle <= 1e-6)
    _report("05 enclosing-ellipsoid-correctness", ok,
            f"simplex->ball center {worst_center:.2e} (1e-8) shape {worst_shape:.2e} "
            f"(1e-7); 20 triangles centroid {worst_tri:.2e} (1e-6), "
            f"oracle gap {worst_oracle:.2e} (1e-6)")


def test_06_inference_round_trip():
    rng = np.random.default_rng(606)
    worst_gap = worst_closed = 0.0
    designs = 0
    for n, l in ((4, 3), (6, 4), (8, 5), (10, 6)):
        for trial in range(25):
            meas = random_ic_quasi_measurement(n, l, rng)
            report = inference_round_trip(meas)
            worst_gap = max(worst_gap, report.relative_gap)
            worst_closed = max(worst_closed, report.closed_form_gap)
            designs += int(report.design_certificate.is_design)
    worst_square = 0.0
    for l in (3, 4, 5, 6):
        for trial in range(5):
            meas = random_ic_quasi_measurement(l, l, rng)
            cloud = ProbabilityCloud(meas.matrix.T)
            closed = ddi_closed_form(cloud)
            full = ddi_on_ball(cloud)
            worst_square = max(worst_square,
                               abs(closed.volume_sq / full.volume_sq - 1.0))
    ok = (worst_gap <= 1e-6 and designs == 100
          and worst_closed <= 1e-6 and worst_square <= 1e-6)
    _report("06 inference-round-trip", ok,
            f"100 instances: volume gap {worst_gap:.2e} (1e-6), designs {designs}/100 "
            f"at 1e-7, closed-form gap {max(worst_closed, worst_square):.2e} (1e-6)")


def test_07_determinant_factorization():
    rng = np.random.default_rng(707)
    factor_failures = 0
    for trial in range(500):
        l = int(rng.integers(2, 7))
        n = int(rng.integers(l, l + 5))
        outer = random_ic_quasi_measurement(n, l, rng)
        inner = random_ic_quasi_measurement(l, l, rng)
        factor_failures += int(not det_factorization_check(outer, inner))
    bijections = 0
    cases = [(np.eye(3), 3), (random_ic_quasi_measurement(5, 3, seed=70).matrix, 3),
             (random_ic_quasi_measurement(6, 4, seed=71).matrix, 4)]
    for k, (matrix, l) in enumerate(cases):
        meas = validate(matrix)
        base = np.random.default_rng(72 + k).dirichlet(np.ones(l), 2 * l)
        cloud = ProbabilityCloud(base @ meas.matrix.T)
        bijections += int(composition_bijection_check(meas, cloud,
                                                      samples=100, seed=73 + k))
    ok = factor_failures == 0 and bijections == len(cases)
    _report("07 determinant-factorization", ok,
            f"500 pairs, {factor_failures} failures (tol 1e-8); "
            f"bijection sampling {bijections}/{len(cases)} x100 samples")


def test_08_quantum_embedding():
    worst_born = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(800 + d)
        embedding = StateEmbedding.for_dimension(d)
        for trial in range(1000):
            rho = random_density(d, rng)
            effect = random_hermitian(d, rng)
            s = embed_density(rho, embedding)
            m = embed_effect(effect, embedding)
            born = float(np.real(np.trace(effect @ rho)))
            worst_born = max(worst_born, abs(float(m @ s) - born))
    blochs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    rhos = [bloch_qubit(b) for b in blochs]
    worst_overlap = max(
        abs(float(np.real(np.trace(rhos[i] @ rhos[j]))) - 1.0 / 3.0)
        for i in range(4) for j in range(4) if i != j)
    embedding = StateEmbedding.for_dimension(2)
    vectors = np.array([embed_density(rho, embedding) for rho in rhos])
    gram = vectors @ vectors.T
    worst_dot = float(np.abs(gram - np.diag(np.diag(gram))).max())
    worst_norm = float(np.abs(np.diag(gram) - 1.0).max())
    ok = (worst_born <= 1e-10 and worst_overlap <= 1e-12
          and worst_dot <= 1e-10 and worst_norm <= 1e-10)
    _report("08 quantum-embedding", ok,
            f"3000 probability pairs off by {worst_born:.2e} (1e-10); tetrahedron "
            f"overlap oracle {worst_overlap:.2e}, dots {worst_dot:.2e}, "
            f"norms {worst_norm:.2e} (1e-10)")


def test_09_non_design_volume_excess():
    rng = np.random.default_rng(909)
    min_excess = np.inf
    min_deviation = np.inf
    total = 0
    for trial in range(10):
        n = int(rng.integers(3, 7))
        l = int(rng.integers(3, min(n, 5) + 1))
        meas = random_ic_quasi_measurement(n, l, rng)
        report = inference_round_trip(meas, perturbations=10,
                                      seed=int(rng.integers(2 ** 32)))
        total += len(report.perturbed_excess)
        min_excess = min(min_excess, min(report.perturbed_excess))
        min_deviation = min(min_deviation, min(report.perturbed_deviation))
    ok = total == 100 and min_excess > 0.0 and min_deviation >= 1e-3
    _report("09 non-design-volume-excess", ok,
            f"{total} perturbations (design deviation >= {min_deviation:.2e}), "
            f"smallest volume excess {min_excess:.2e} > 0")


def test_10_cli_determinism(tmp_path):
    cloud = {"n": 4, "distributions":
             np.random.default_rng(1010).dirichlet(np.ones(4), 12).tolist()}
    cloud_path = tmp_path / "cloud.json"
    cloud_path.write_text(json.dumps(cloud), encoding="utf-8")
    pairs = []
    for tag, argv in (("infer", ["infer", str(cloud_path)]),
                      ("simulate", ["simulate", "4", "3", "2", "--seed", "3"])):
        outputs = []
        for run in range(2):
            path = tmp_path / f"{tag}-{run}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "ddi.cli", *argv, "--output", str(path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        pairs.append((tag, outputs[0] == outputs[1], len(outputs[0])))
    ok = all(same for _, same, _ in pairs)
    detail = ", ".join(f"{tag} {size}B {'identical' if same else 'DIFFER'}"
                       for tag, same, size in pairs)
    _report("10 cli-determinism", ok, detail)
