"""The benchmark's hooks into the library, run as the benchmark runs them.

``perfbench.tracing`` rebuilds ``ddi_on_ball`` from ``mvee`` and
``assemble_result``, binding the arguments by name, and patches it into
``inference_round_trip``.  A signature change on that path would
otherwise show only as every benchmark request failing.  The
pure-tomography request embeds its states one ``embed_density`` call at
a time; it runs here untraced and traced, each answer checked by the
benchmark's own oracle.
"""

import sys
from pathlib import Path

import numpy as np

from ddi import ProbabilityCloud, ddi_on_ball, inference_round_trip, random_ic_quasi_measurement

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import Tracer, patched_global, traced_ddi_on_ball  # noqa: E402
from perfbench.workloads import PureTomography  # noqa: E402


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


def test_pure_tomography_request_passes_its_oracle_traced_and_untraced():
    work = PureTomography()
    given = work.make_input(11, 1)
    untraced = work.request(given)
    assert work.check(given, untraced) == []
    tracer = Tracer()
    traced = work.request(given, tracer)
    assert work.check(given, traced) == []
    np.testing.assert_array_equal(traced[0], untraced[0])
    assert [span["name"] for span in tracer.spans].count("geometry.embed") == 1
