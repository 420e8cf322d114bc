"""Steadiness check of the benchmark over several seeds.

    python3 perfbench/steady.py --workload <name> [--workload ...] [--seeds 1-10] [--counts]

For each workload, runs ``run.py --trace 0`` once per seed, one run at a
time and for the ``run_seconds`` of ``BENCHMARK.json``, and prints for
every end-to-end metric its median, quartiles and spread,
(q3 - q1) / median, against its bound in ``BENCHMARK.json``, and the
spreads of the wall-clock figures the runs print (``WALL_CLOCK``), which
have no bound and show how far the host moved under the runs.
With ``--counts`` it also runs the traced run twice at the first seed
and requires the per-request counts (solver iterations, support ratio,
certified ratio) to repeat exactly; a mismatch is a steadiness failure,
never averaged away.  Raw results go to ``.perfbench/steady-<name>.json``.
Exits 1 when any spread exceeds its bound, a run is incorrect, or a
count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
WALL_CLOCK = ("setup_wall_s", "throughput_rps", "latency_p50_ms", "reference_ms")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    found = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = found.stdout.splitlines()
    if found.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({found.returncode}): {found.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def spreads(workload: str, seeds: list[int], seconds: float, bounds: dict) -> bool:
    results = []
    for seed in seeds:
        result, lines = bench(workload, seed, seconds, 0)
        result["wall_clock"] = {line.split()[0]: float(line.split()[1]) for line in lines
                                if line.split()[:1] and line.split()[0] in WALL_CLOCK}
        results.append(result)
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / f"steady-{workload}.json").write_text(
        json.dumps({"seeds": seeds, "seconds": seconds, "results": results}, indent=1))
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    for name, bound in bounds.items():
        median, q1, q3, share = spread([r["metrics"][name]["value"] for r in results])
        verdict = ("steady" if share <= bound / 3 else "within bound" if share <= bound
                   else "UNSTEADY")
        ok &= verdict != "UNSTEADY"
        print(f"{workload:16s} {name:19s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {share:7.2%}  bound {bound:.0%}  {verdict}")
    for name in WALL_CLOCK:
        median, q1, q3, share = spread([r["wall_clock"][name] for r in results])
        print(f"{workload:16s} {name:19s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {share:7.2%}  (wall clock, no bound)")
    return ok


def counts_repeat(workload: str, seed: int, seconds: float) -> bool:
    runs = []
    for _ in range(2):
        _, lines = bench(workload, seed, seconds, 1)
        runs.append(json.loads(next(l for l in lines if l.startswith("counts "))[len("counts "):]))
    first, second = runs
    common = min(len(first["requests"]), len(second["requests"]))
    ok = common > 0
    for name, values in first.items():
        if name != "requests" and values[:common] != second[name][:common]:
            ok = False
            print(f"{workload:16s} STEADINESS FAILURE: {name} differs at seed {seed}: "
                  f"{values[:common]} vs {second[name][:common]}")
    print(f"{workload:16s} counts over {common} requests at seed {seed}: "
          f"{'repeat exactly' if ok else 'DO NOT REPEAT'}")
    return ok


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        ok &= spreads(workload, args.seeds, seconds, bounds)
        if args.counts:
            ok &= counts_repeat(workload, args.seeds[0], seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
