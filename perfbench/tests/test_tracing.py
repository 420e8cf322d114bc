"""Spans, self time and per-layer aggregation of the traced run."""

from perfbench.tracing import Tracer, layer_metrics


def _fixed(span, start, end):
    span["start"], span["end"] = start, end


def test_self_time_subtracts_children_and_probes_stay_outside():
    tracer = Tracer()
    tracer.request = 1
    with tracer.span("request") as request:
        with tracer.span("inference.mvee") as mvee:
            pass
        with tracer.span("inference.assemble") as assemble:
            pass
    with tracer.span("geometry.pinv_probe", probe=True) as probe:
        pass
    _fixed(request, 0.0, 1.0)
    _fixed(mvee, 0.1, 0.6)
    _fixed(assemble, 0.6, 0.8)
    _fixed(probe, 1.0, 1.05)
    assert probe["parent"] is None and mvee["parent"] == 0
    own = tracer.self_times()
    assert abs(own[0] - 0.3) < 1e-12
    metrics = layer_metrics(tracer, [1])
    assert abs(metrics["inference.mvee_ms"] - 500.0) < 1e-9
    assert abs(metrics["geometry.pinv_probe_ms"] - 50.0) < 1e-9
    assert "request_ms" not in metrics


def test_unexercised_layer_is_absent_not_zero():
    tracer = Tracer()
    tracer.request = 1
    with tracer.span("request"):
        with tracer.span("inference.mvee"):
            pass
    tracer.count("inference.mvee_iterations", 7)
    metrics = layer_metrics(tracer, [1])
    assert "geometry.embed_ms" not in metrics
    assert "designs.certified_ratio" not in metrics
    assert metrics["inference.mvee_iterations"] == 7


def test_adopted_child_spans_nest_under_the_open_span():
    tracer = Tracer()
    tracer.request = 3
    child = [
        {"name": "cli.import", "request": 0, "parent": None, "probe": False, "start": 0, "end": 1},
        {"name": "cli.main", "request": 0, "parent": None, "probe": False, "start": 1, "end": 3},
        {"name": "inference.mvee", "request": 0, "parent": 1, "probe": False, "start": 1, "end": 2},
    ]
    with tracer.span("request"):
        tracer.adopt(child, [{"request": 0, "name": "inference.mvee_iterations", "value": 5}])
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0, 2]
    assert all(s["request"] == 3 for s in tracer.spans)
    assert tracer.per_request("inference.mvee_iterations") == {3: [5]}

