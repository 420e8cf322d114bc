"""Entry points the benchmark runs in a fresh interpreter.

    python -m perfbench.child setup <workload> <seed> <index> <tmp>
        Times ``import ddi.cli`` and then one warm-up request on input
        ``index``, and prints ``{"import_s", "warmup_s", "failures"}``.
        The ``cli-small`` warm-up calls ``ddi.cli.main`` here, in no
        further child.
    python -m perfbench.child cli-trace <cloud.json> <output.json>
        Times ``import ddi.cli`` and ``ddi.cli.main(["infer", ...])`` with
        ``ddi_on_ball`` split into traced calls, and prints the exit code,
        spans and counts.

Nothing here imports numpy or ddi before the timed import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from perfbench.tracing import Tracer, patched_global, traced_ddi_on_ball


def setup(workload: str, seed: int, index: int, tmp: Path) -> dict:
    start = time.perf_counter()
    import ddi.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - start

    from perfbench.workloads import CliWarmUp, attempt, make_workload

    work = CliWarmUp(tmp) if workload == "cli-small" else make_workload(workload, tmp)
    warmup_s, _, failures = attempt(work, work.make_input(seed, index))
    return {"import_s": import_s, "warmup_s": warmup_s, "failures": failures}


def cli_trace(cloud_path: str, out_path: str) -> dict:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import ddi.cli
    with tracer.span("cli.main"), \
            patched_global(ddi.cli.cmd_infer, "ddi_on_ball", traced_ddi_on_ball(tracer)):
        code = ddi.cli.main(["infer", cloud_path, "--output", out_path])
    return {"code": code, "spans": tracer.spans, "counts": tracer.counts}


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        record = setup(argv[1], int(argv[2]), int(argv[3]), Path(argv[4]))
    elif argv[0] == "cli-trace":
        record = cli_trace(argv[1], argv[2])
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return record.get("code", 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
