"""The benchmark's hooks into the library, run as the benchmark runs them.

``perfbench.tracing`` rebuilds ``ddi_on_ball`` from ``mvee`` and
``assemble_result``, binding the arguments by name, and patches it into
``inference_round_trip``.  A signature change on that path would
otherwise show only as every benchmark request failing.  The
in-process requests (dirichlet-large, pure-tomography, round-trip) run
here untraced and traced, each answer checked by the benchmark's own
oracle, and the probes re-call the library on one traced result, so a
name moved or renamed in ``ddi`` fails here rather than in the
benchmark.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ddi import ProbabilityCloud, ddi_on_ball, inference_round_trip, random_ic_quasi_measurement

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import Tracer, patched_global, traced_ddi_on_ball  # noqa: E402
from perfbench.workloads import DirichletLarge, PureTomography, RoundTrip, probe  # noqa: E402


def test_traced_solve_gives_the_library_result():
    cloud = ProbabilityCloud(np.random.default_rng(12).dirichlet(np.ones(4), 12))
    tracer = Tracer()
    result = traced_ddi_on_ball(tracer)(cloud)
    np.testing.assert_array_equal(result.measurement.matrix, ddi_on_ball(cloud).measurement.matrix)
    assert [span["name"] for span in tracer.spans] == ["inference.mvee", "inference.assemble"]
    assert len(tracer.captured) == 1


def test_round_trip_runs_under_the_traced_solve():
    tracer = Tracer()
    meas = random_ic_quasi_measurement(12, 9, seed=5)
    with patched_global(inference_round_trip, "ddi_on_ball", traced_ddi_on_ball(tracer)):
        report = inference_round_trip(meas, perturbations=1)
    # the round trip's own solve and one perturbed solve
    assert len(tracer.captured) == 2
    assert report.relative_gap <= 1e-9 and report.closed_form_gap <= 1e-12
    assert len(report.perturbed_excess) == 1


@pytest.mark.parametrize("workload, span, on_sphere", [
    pytest.param(DirichletLarge, "inference.parse", False, id="dirichlet-large"),
    pytest.param(PureTomography, "geometry.embed", True, id="pure-tomography"),
    pytest.param(RoundTrip, "inference.round_trip", True, id="round-trip"),
])
def test_in_process_request_passes_its_oracle_traced_and_untraced(workload, span, on_sphere):
    work = workload()
    given = work.make_input(11, 1)
    untraced = work.request(given)
    assert work.check(given, untraced) == []
    tracer = Tracer()
    traced = work.request(given, tracer)
    assert work.check(given, traced) == []
    np.testing.assert_equal(traced, untraced)
    assert [record["name"] for record in tracer.spans].count(span) == 1
    # the probes re-call library functions, design_weights among them, through ddi
    probe(tracer, *tracer.captured[0])
    probed = [record["name"] for record in tracer.spans if record["probe"]]
    assert ("designs.design_weights_probe" in probed) == on_sphere
    assert len(probed) == 3 + on_sphere
