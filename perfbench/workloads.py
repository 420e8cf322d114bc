"""The four workloads: input generators, requests, oracles and probes.

A request runs untraced when ``tracer`` is None.  Traced, it records a
span around each call into a ddi module and counts what the solver did;
``ddi_on_ball`` is replaced by its two calls, ``mvee`` then
``assemble_result``, so that each layer gets its own span.  Inputs come
from ``numpy.random.default_rng([seed, index])``: index 0 is the warm-up
request and 1, 2, ... the measured ones, so a seed fixes every input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import ddi
from ddi import (
    ProbabilityCloud,
    StateEmbedding,
    design_weights,
    embed_density,
    inference_round_trip,
    pseudoinverse,
    random_ic_quasi_measurement,
    range_volume_sq,
    validate,
)
from ddi.inference import cloud_from_dict

from . import oracles
from .tracing import patched_global, traced_ddi_on_ball

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _solve(cloud, tracer):
    return ddi.ddi_on_ball(cloud) if tracer is None else traced_ddi_on_ball(tracer)(cloud)


def _serialize(result) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def child_env() -> dict:
    """Environment of every child interpreter: this checkout first on the path.

    The thread pins set by ``run.py`` are inherited from ``os.environ``.
    """
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str]) -> tuple[int, int, str]:
    """Run a child interpreter; return its exit code, peak RSS in KiB and stdout."""
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, stdout


def attempt(work, given, tracer=None):
    """One timed request; returns (seconds, output, failures).

    Any exception a request raises is a failed request, so it is caught
    here, at the loop that must keep running, and recorded.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            output = work.request(given)
        else:
            with tracer.span("request"):
                output = work.request(given, tracer)
    except Exception as exc:  # noqa: BLE001
        return time.perf_counter() - start, None, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        failures = work.check(given, output)
    except Exception as exc:  # noqa: BLE001
        failures = [f"oracle raised {exc!r}"]
    return elapsed, output, failures


def probe(tracer, matrix: np.ndarray, counter_points: np.ndarray) -> None:
    """Re-call public functions on one result's matrix and counter-image.

    ``design_weights`` is probed only where every counter-image point is
    within ``ddi_on_ball``'s default ``design_tol`` of the sphere, the
    condition under which ``assemble_result`` may run it.
    """
    with tracer.span("measurements.validate_probe", probe=True):
        meas = validate(matrix)
    with tracer.span("measurements.range_volume_probe", probe=True):
        range_volume_sq(meas)
    with tracer.span("geometry.pinv_probe", probe=True):
        pseudoinverse(matrix)
    if np.abs(np.linalg.norm(counter_points, axis=1) - 1.0).max() <= oracles.DESIGN_TOL:
        with tracer.span("designs.design_weights_probe", probe=True):
            design_weights(counter_points)


class DirichletLarge:
    """``infer`` in process on a large cloud with a small support."""

    name = "dirichlet-large"
    in_process = True
    points, outcomes = 300, 8

    def make_input(self, seed, index):
        cloud = _rng(seed, index).dirichlet(np.ones(self.outcomes), size=self.points)
        return cloud, json.dumps({"n": self.outcomes, "distributions": cloud.tolist()})

    def request(self, given, tracer=None):
        _, text = given
        with _span(tracer, "inference.parse"):
            cloud = cloud_from_dict(json.loads(text))
        result = _solve(cloud, tracer)
        if tracer is not None:
            tracer.count("designs.certified_ratio", float(result.design_certificate.is_design))
        with _span(tracer, "inference.serialize"):
            return _serialize(result)

    def check(self, given, text):
        return oracles.check_inference(given[0], json.loads(text))


class PureTomography:
    """Embedded pure qutrit states through a random measurement: a tight optimum."""

    name = "pure-tomography"
    in_process = True
    states, d, outcomes = 1000, 3, 12

    def make_input(self, seed, index):
        rng = _rng(seed, index)
        z = rng.standard_normal((self.states, self.d)) + 1j * rng.standard_normal((self.states, self.d))
        z /= np.linalg.norm(z, axis=1)[:, None]
        return np.einsum("mi,mj->mij", z, z.conj()), int(rng.integers(2 ** 31))

    def request(self, given, tracer=None):
        rhos, meas_seed = given
        with _span(tracer, "geometry.embed"):
            embedding = StateEmbedding.for_dimension(self.d)
            vectors = np.array([embed_density(rho, embedding) for rho in rhos])
        with _span(tracer, "measurements.sample"):
            meas = random_ic_quasi_measurement(self.outcomes, embedding.l, meas_seed)
        cloud = ProbabilityCloud(vectors @ meas.matrix.T)
        result = _solve(cloud, tracer)
        if tracer is not None:
            tracer.count("designs.certified_ratio", float(result.design_certificate.is_design))
        with _span(tracer, "inference.serialize"):
            return cloud.points, meas.matrix, _serialize(result)

    def check(self, given, output):
        cloud, true_matrix, text = output
        return oracles.check_tomography(cloud, true_matrix, json.loads(text))


class RoundTrip:
    """One ``ddi simulate`` trial: four 9-point solves per request."""

    name = "round-trip"
    in_process = True
    outcomes, l, perturbations = 12, 9, 3

    def make_input(self, seed, index):
        return int(_rng(seed, index).integers(2 ** 31))

    def request(self, trial_seed, tracer=None):
        with _span(tracer, "measurements.sample"):
            meas = random_ic_quasi_measurement(self.outcomes, self.l, trial_seed)
        solves = nullcontext() if tracer is None else patched_global(
            inference_round_trip, "ddi_on_ball", traced_ddi_on_ball(tracer))
        with _span(tracer, "inference.round_trip"), solves:
            report = inference_round_trip(meas, perturbations=self.perturbations, seed=trial_seed)
        if tracer is not None:
            tracer.count("designs.certified_ratio", float(report.design_certificate.is_design))
        return meas.matrix, report

    def check(self, trial_seed, output):
        true_matrix, report = output
        return oracles.check_round_trip(true_matrix, report, self.perturbations)


class CliSmall:
    """``python -m ddi.cli infer`` as users run it, one child at a time."""

    name = "cli-small"
    in_process = False
    points, outcomes = 12, 4

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def make_input(self, seed, index):
        cloud = _rng(seed, index).dirichlet(np.ones(self.outcomes), size=self.points)
        path = self.tmp / f"cloud-{index}.json"
        path.write_text(json.dumps({"n": self.outcomes, "distributions": cloud.tolist()}))
        return cloud, path

    def request(self, given, tracer=None):
        _, path = given
        out = path.with_suffix(".out.json")
        if tracer is None:
            argv = ["-m", "ddi.cli", "infer", str(path), "--output", str(out)]
        else:
            argv = ["-m", "perfbench.child", "cli-trace", str(path), str(out)]
        code, rss_kib, stdout = run_child(argv)
        payload = json.loads(out.read_text()) if out.exists() else None
        out.unlink(missing_ok=True)
        if tracer is not None:
            record = json.loads(stdout.splitlines()[-1])
            tracer.adopt(record["spans"], record["counts"])
            if payload is not None:
                tracer.count("designs.certified_ratio",
                             float(payload["design_certificate"]["is_design"]))
                tracer.captured.append((np.array(payload["measurement"]["matrix"]),
                                        np.array(payload["counter_image"]["points"])))
        return code, payload, rss_kib

    def check(self, given, output):
        code, payload, _ = output
        return oracles.check_cli_infer(given[0], code, payload)


class CliWarmUp(CliSmall):
    """The ``cli-small`` request as ``ddi.cli.main`` in this interpreter.

    Set-up samples warm up with it, so that each holds one interpreter
    start and one import of ``ddi.cli``, as a user's ``ddi infer`` does.
    """

    def request(self, given, tracer=None):
        import ddi.cli

        _, path = given
        out = path.with_suffix(".out.json")
        code = ddi.cli.main(["infer", str(path), "--output", str(out)])
        payload = json.loads(out.read_text()) if out.exists() else None
        out.unlink(missing_ok=True)
        return code, payload, 0


WORKLOADS = {w.name: w for w in (DirichletLarge, PureTomography, RoundTrip, CliSmall)}


def make_workload(name: str, tmp: Path):
    cls = WORKLOADS[name]
    return cls(tmp) if cls is CliSmall else cls()
