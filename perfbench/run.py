"""Benchmark of the ddi inference pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``perfbench/workloads.py``): ``dirichlet-large``,
``pure-tomography``, ``round-trip`` and ``cli-small``.  Each runs as one
closed loop with one caller, BLAS and OpenMP pinned to one thread here
and in every child interpreter.

Set-up is timed in ``SETUP_SAMPLES`` fresh interpreters, each timing
``import ddi.cli`` plus one warm-up request, and reported as their
median, in ref like the requests (below) and given in seconds at
``reference.NOMINAL_S`` per ref.  Sample k warms up on the input of request k, so one slow input
does not set the set-up time of a seed, and the samples are spread
evenly over the measured time, between requests, so that they see the
same host as the requests do.  This process makes its own untimed
warm-up request (input 0) and runs requests until they and the
reference kernel between them have taken ``--seconds``.  Inputs are
generated from the seed before each request's timing starts, and every
output is checked by an oracle in ``perfbench/oracles.py`` after its
timing ends.

The host's speed drifts by up to 2x over a run (see
``perfbench/reference.py``), so the request metrics in the result line
are in "ref": each request's time over the time of a fixed reference
kernel, never calling ddi, run between requests for ``REF_SHARE`` of the
request time and measured within half a second of the request.  The
same metrics in wall-clock units (``setup_wall_s``, ``throughput_rps``,
``latency_p50_ms``, ``latency_tail_ms``) are printed before the result.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` each input runs once traced and
once untraced, in alternating order; the result holds the per-layer
metrics, and the spans are written to ``.perfbench/`` in the checkout.
Lines before the result give the environment, every metric with its
unit, and the per-layer metrics a workload does not exercise as absent.

``perfbench/steady.py`` runs many seeds and reports spreads against the
bounds in ``BENCHMARK.json``; ``perfbench/baseline.json`` holds the seed
baseline and which end-to-end metric each layer metric should move.  The
benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Before numpy loads: one BLAS thread here and, through the environment, in children.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 7
REF_SHARE = 0.2  # reference-kernel time per request time in an untraced run
TAIL_MIN_REQUESTS = 20  # below this the tail percentile would sit under the median

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Per-layer metrics every workload exercises, in the result line of the traced run.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed before the result line only: some workloads do not exercise these
# layers (printed as absent there), and the ratios describe the problem
# rather than a cost.
PER_LAYER_PRINTED = {
    "cli.main_ms": "ms",
    "inference.parse_ms": "ms",
    "inference.serialize_ms": "ms",
    "inference.round_trip_ms": "ms",
    "inference.mvee_us_per_iteration": "us",
    "inference.support_ratio": "ratio",
    "inference.no_convergence": "count",
    "measurements.sample_ms": "ms",
    "geometry.embed_ms": "ms",
    "designs.design_weights_probe_ms": "ms",
    "designs.certified_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_checkout_ddi() -> None:
    """Exit non-zero unless ``ddi`` imports from this checkout's ``src``."""
    try:
        import ddi
    except ImportError as exc:
        sys.exit(f"cannot import ddi from {ROOT / 'src'}: {exc}")
    source = Path(ddi.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        sys.exit(f"ddi imports from {source}, not from this checkout")


def setup_sample(workload: str, seed: int, index: int, tmp: Path) -> dict:
    """One set-up sample, ``{"import_s", "warmup_s", "failures"}``, from a fresh interpreter."""
    from perfbench.workloads import run_child

    code, _, stdout = run_child(["-m", "perfbench.child", "setup", workload, str(seed),
                                 str(index), str(tmp)])
    if code != 0:
        sys.exit(f"set-up child exited with code {code}")
    return json.loads(stdout.splitlines()[-1])


def tail(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < TAIL_MIN_REQUESTS:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(workload: str, seed: int) -> dict:
    import importlib.metadata
    import platform

    import numpy

    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        commit = found.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddi").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run(args) -> int:
    require_checkout_ddi()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out_dir, prefix="tmp-"))
    try:
        return measure(args, tmp, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class Loop:
    """What the request loop saw."""

    def __init__(self):
        self.latencies, self.traced_s, self.untraced_s = [], [], []
        self.child_rss_kib, self.traced_ids, self.failures = [], [], []
        self.setup, self.intervals, self.refs = [], [], []
        self.attempted = self.failed = self.succeeded = 0
        self.busy = self.ref_busy = 0.0

    def measured(self) -> float:
        return self.busy + self.ref_busy


def request_loop(work, seed: int, seconds: float, tracer, tmp: Path) -> Loop:
    """Closed loop, one caller, until requests and references have taken ``seconds``.

    Set-up sample k, for k = 1 .. SETUP_SAMPLES, is taken once the loop
    has measured (k - 1) / SETUP_SAMPLES of ``seconds``.  Untraced, the
    reference kernel runs after a request whenever its total time is
    below REF_SHARE of the requests'.  Traced, each input runs once
    traced and once untraced, the order alternating, and the probes run
    after the traced request's span.
    """
    from perfbench import reference
    from perfbench.workloads import attempt, probe

    def sample_setup():
        started = time.perf_counter()
        record = setup_sample(work.name, seed, len(loop.setup) + 1, tmp)
        loop.setup.append({**record, "start": started})
        loop.failures += [f"set-up warm-up: {f}" for f in record["failures"]]

    loop = Loop()
    index = 0
    while loop.measured() < seconds:
        if len(loop.setup) < SETUP_SAMPLES and loop.measured() >= len(loop.setup) * seconds / SETUP_SAMPLES:
            sample_setup()
        index += 1
        given = work.make_input(seed, index)
        modes = (None,) if tracer is None else ((None, tracer) if index % 2 else (tracer, None))
        for mode in modes:
            if mode is not None:
                tracer.request = index
                tracer.captured.clear()
            started = time.perf_counter()
            elapsed, output, failures = attempt(work, given, mode)
            loop.busy += elapsed
            loop.attempted += 1
            if failures:
                loop.failed += 1
                loop.failures += [f"request {index}: {f}" for f in failures]
            if mode is None:
                loop.untraced_s.append(elapsed)
                if output is not None:  # returned, right or wrong
                    loop.latencies.append(elapsed)
                    loop.intervals.append((started, started + elapsed))
                    loop.succeeded += not failures
            else:
                loop.traced_s.append(elapsed)
                loop.traced_ids.append(index)
                for matrix, counter in tracer.captured:
                    probe(tracer, matrix, counter)
            if not work.in_process and output is not None:
                loop.child_rss_kib.append(output[2])
        while tracer is None and loop.ref_busy < REF_SHARE * loop.busy:
            loop.refs.append(reference.timed())
            loop.ref_busy += loop.refs[-1][1]
    while len(loop.setup) < SETUP_SAMPLES:
        sample_setup()
    return loop


def end_to_end(loop: Loop, setup_s: list[float], import_ms: float, in_process: bool) -> dict:
    from perfbench.reference import NOMINAL_S, in_ref

    if not loop.latencies:
        sys.exit("every request raised")
    if in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(loop.child_rss_kib)
    costs = in_ref(loop.intervals, loop.refs)
    setup_costs = in_ref([(s["start"], s["start"] + seconds)
                          for s, seconds in zip(loop.setup, setup_s)], loop.refs)
    metrics = {
        "setup_s": NOMINAL_S * statistics.median(setup_costs),
        "throughput_per_kref": 1e3 * loop.succeeded / sum(costs),
        "latency_p50_ref": statistics.median(costs),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    ref_ms = 1e3 * statistics.median(seconds for _, seconds in loop.refs)
    print(f"setup_s {metrics['setup_s']:.4f} s at {1e3 * NOMINAL_S:g} ms per ref (median of "
          f"{len(setup_costs)}: " + ", ".join(f"{c:.1f}" for c in setup_costs) + " ref)")
    print(f"setup_wall_s {statistics.median(setup_s):.4f} s (median of {len(setup_s)}: "
          + ", ".join(f"{s:.4f}" for s in setup_s) + f"; import {import_ms:.1f} ms)")
    print(f"reference_ms {ref_ms:.4f} ms (median of {len(loop.refs)} kernel runs, "
          f"{loop.ref_busy:.2f} s; 1 ref = the local mean)")
    print(f"throughput_per_kref {metrics['throughput_per_kref']:.4f} req/kref "
          f"({loop.succeeded} correct requests in {sum(costs):.1f} ref)")
    print(f"latency_p50_ref {metrics['latency_p50_ref']:.4f} ref")
    print(f"throughput_rps {loop.succeeded / loop.busy:.4f} req/s "
          f"({loop.succeeded} correct requests in {loop.busy:.2f} s)")
    print(f"latency_p50_ms {1e3 * statistics.median(loop.latencies):.4f} ms")
    found = tail(loop.latencies)
    if found is None:
        print(f"latency_tail_ms absent ({len(loop.latencies)} requests, "
              f"needs {TAIL_MIN_REQUESTS})")
    else:
        pct, value, n = found
        print(f"latency_tail_ms {1e3 * value:.4f} ms (p{pct:.1f} of {n} requests, 10 beyond it)")
    print(f"failure_ratio {loop.failed / loop.attempted:.4f} ratio ({loop.failed}/{loop.attempted})")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB "
          f"({'this process' if in_process else 'largest ddi infer child'})")
    return metrics


def per_layer(loop: Loop, tracer, import_ms: float, trace_file: Path) -> dict:
    from perfbench import tracing

    layer = tracing.layer_metrics(tracer, loop.traced_ids)
    layer.setdefault("cli.import_ms", import_ms)  # in-process workloads: from the set-up children
    if loop.untraced_s:
        layer["trace.overhead_ratio"] = sum(loop.traced_s) / sum(loop.untraced_s) - 1.0
    for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
        print(f"{name} " + (f"{layer[name]:.6g} {unit}" if name in layer else "absent"))
    first = loop.traced_ids[:16]
    print("counts " + json.dumps({"requests": first, **tracing.exact_counts(tracer, first)}))
    trace_file.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    print(f"spans {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    return {name: layer[name] for name in PER_LAYER if name in layer}


def measure(args, tmp: Path, out_dir: Path) -> int:
    from perfbench import tracing, workloads

    work = workloads.make_workload(args.workload, tmp)
    _, _, warm_failures = workloads.attempt(work, work.make_input(args.seed, 0))
    failures = [f"warm-up: {f}" for f in warm_failures]
    tracer = tracing.Tracer() if args.trace else None
    loop = request_loop(work, args.seed, args.seconds, tracer, tmp)
    failures += loop.failures

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(args.workload, args.seed)))
    for message in failures[:20]:
        print(f"FAILED {message}")
    setup_s = [s["import_s"] + s["warmup_s"] for s in loop.setup]
    import_ms = 1e3 * statistics.median(s["import_s"] for s in loop.setup)
    if tracer is None:
        metrics, units = end_to_end(loop, setup_s, import_ms, work.in_process), END_TO_END
    else:
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, units = per_layer(loop, tracer, import_ms, trace_file), PER_LAYER
    print(json.dumps({
        "correct": not failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(run(parse_args(sys.argv[1:])))
