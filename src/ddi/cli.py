"""Command-line front end: infer, verify-design, embed, simulate.

Exit codes: 0 success, 1 not certified (verify-design), 2 solver did not
converge (infer only, which still writes the partial result), 3 invalid
input, a usage error or an unwritable output path.  Output files are
written to a temporary sibling and atomically renamed, so a complete
prior result is never clobbered by a partial one.
Messages go to stderr as lines ``LEVEL ddi: message``; the DDI_LOG
environment variable names the lowest level shown (debug, info, warning,
error; warning by default and for any other value).  ``ddi infer`` loads
only the inference path: the quantum embedding and the verification
harness are imported by the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DdiError, InvalidInputError, NoConvergenceError
from .designs import is_two_design, state_set_from_dict
from .inference import assemble_result, cloud_from_dict, ddi_on_ball
from .measurements import QuasiMeasurement, validate

FORMAT_VERSION = 2

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_INPUT = 3


_LEVELS = ("debug", "info", "warning", "error")


def _log(level: str, message: str, *args) -> None:
    """Write ``LEVEL ddi: message % args`` to stderr if DDI_LOG admits ``level``."""
    shown = os.environ.get("DDI_LOG", "warning").strip().lower()
    if _LEVELS.index(level) >= _LEVELS.index(shown if shown in _LEVELS else "warning"):
        print(f"{level.upper()} ddi: {message % args}", file=sys.stderr)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise InvalidInputError(f"cannot read JSON from {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    # Stage into a new file in the same directory, then rename atomically.
    # Opened exclusively under a fresh name, it gets the mode that
    # open(path, "w") gives a new file: 0o666 less the umask.
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    staging = os.path.join(directory, f".ddi-{os.urandom(8).hex()}.tmp")
    try:
        handle = open(staging, "x", encoding="utf-8", newline="")
        try:
            with handle:
                handle.write(text)
            os.replace(staging, path)
        except BaseException:
            if os.path.exists(staging):
                os.unlink(staging)
            raise
    except OSError as exc:
        raise DdiError(f"cannot write {path}: {exc}") from exc


def _json_text(payload: dict) -> str:
    payload = {"version": __version__, "format_version": FORMAT_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def cmd_infer(args) -> int:
    cloud = cloud_from_dict(_load_json(args.input), sum_tol=args.tol)
    _log("info", "inferring over %d distributions spanning %d dimensions",
         len(cloud), cloud.span_dim)
    try:
        result = ddi_on_ball(cloud, eps=args.eps, max_iter=args.max_iter)
        code = EXIT_OK
    except NoConvergenceError as exc:
        _log("warning", "no convergence: %s", exc)
        result = assemble_result(exc.partial, cloud)
        code = EXIT_NO_CONVERGENCE
    _log("debug", "solver: %d iterations, support %d of %d points, gap %.3g",
         result.iterations, np.count_nonzero(result.counter_image.weights > 0.0),
         len(cloud), result.optimality_gap)
    _write_text(args.output, _json_text(result.to_dict()))
    return code


def cmd_verify_design(args) -> int:
    states = state_set_from_dict(_load_json(args.input))
    certificate = is_two_design(states, tol=args.tol)
    _write_text(args.output, _json_text(certificate.to_dict()))
    return EXIT_OK if certificate.is_design else EXIT_NOT_CERTIFIED


def cmd_embed(args) -> int:
    # the embedding stays off the other commands, as the harness does
    from .embedding import StateEmbedding, embed_density, hermitian_from_dict

    payload = _load_json(args.input)
    if not isinstance(payload, list) or not payload:
        raise InvalidInputError("embed expects a nonempty JSON list of operators")
    operators = [hermitian_from_dict(obj) for obj in payload]
    d = operators[0].shape[0]
    if args.dim is not None and args.dim != d:
        raise InvalidInputError(f"operators have dimension {d}, expected {args.dim}")
    if any(op.shape[0] != d for op in operators):
        raise InvalidInputError("all operators must share one dimension")
    embedding = StateEmbedding.for_dimension(d)
    vectors = []
    report = []
    for op in operators:
        vector = embed_density(op, embedding, tol=args.tol)
        purity = float(np.trace(op @ op).real)
        vectors.append(vector)
        report.append({
            "purity": purity,
            "norm_sq": float(vector @ vector),
            "hyperplane_residual": abs(float(vector.sum()) - 1.0),
        })
    if args.format == "csv":
        header = (["index", "purity", "norm_sq", "hyperplane_residual"]
                  + [f"s{i}" for i in range(embedding.l)])
        rows = [[i, r["purity"], r["norm_sq"], r["hyperplane_residual"], *v]
                for i, (r, v) in enumerate(zip(report, vectors))]
        _write_text(args.output, _csv_text(header, rows))
    else:
        _write_text(args.output, _json_text({
            "d": d,
            "l": embedding.l,
            "alpha": embedding.alpha,
            "vectors": np.asarray(vectors).tolist(),
            "report": report,
        }))
    return EXIT_OK


def _trial_measurement(n: int, l: int, trial_seed: int) -> QuasiMeasurement:
    from .verify import random_ic_quasi_measurement  # the harness stays off the other commands

    # one message for both instances, before the sampler reads the sizes
    if l < 2 or n < l:
        raise InvalidInputError(
            f"need n >= l >= 2 for informational completeness, got n={n}, l={l}")
    if trial_seed < 0:
        # negative seed convention: deterministic identity-block instance
        return validate(np.eye(n, l))
    return random_ic_quasi_measurement(n, l, trial_seed)


def cmd_simulate(args) -> int:
    from .verify import inference_round_trip  # the harness stays off the other commands

    if args.trials < 1:
        raise InvalidInputError(f"trials must be positive, got {args.trials}")
    header = ["trial", "seed", "expected_volume_sq", "recovered_volume_sq",
              "relative_gap", "design_deviation"]
    rows = []
    for trial in range(args.trials):
        trial_seed = args.seed + trial if args.seed >= 0 else args.seed
        report = inference_round_trip(_trial_measurement(args.n, args.l, trial_seed))
        rows.append([trial, trial_seed, report.expected_volume_sq,
                     report.recovered_volume_sq, report.relative_gap,
                     report.design_certificate.frame_deviation])
    columns = list(zip(*rows))
    rows.append(["max", "", "", "", *map(max, columns[4:])])
    _write_text(args.output, _csv_text(header, rows))
    return EXIT_OK


def _tolerance(text: str) -> float:
    """Type of ``--tol``: a finite float, at least 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _gap_target(text: str) -> float:
    """Type of ``--eps``: a finite float above 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddi",
        description="Data-driven inference of quasi-measurements from probability data.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--tol": dict(type=_tolerance, default=1e-9,
                      help="validation tolerance, finite and >= 0 (default 1e-9)"),
        "--eps": dict(type=_gap_target, default=1e-9,
                      help="solver duality gap target, finite and > 0 (default 1e-9)"),
        "--max-iter": dict(type=int, default=10 ** 6, help="solver iteration cap (default 1e6)"),
        "--seed": dict(type=int, default=0, help="random seed (default 0)"),
    }

    def add_flags(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])
        p.add_argument("--output", "-o", default=None, help="output path (default: stdout)")

    p_infer = sub.add_parser("infer", help="infer the minimum-volume consistent measurement")
    p_infer.add_argument("input", help="cloud JSON: {n, distributions}")
    add_flags(p_infer, "--tol", "--eps", "--max-iter")
    p_infer.set_defaults(func=cmd_infer)

    p_verify = sub.add_parser("verify-design", help="certify a weighted state set as a 2-design")
    p_verify.add_argument(
        "input", help="state-set JSON: {l, points, weights}, such as the counter_image "
                      "object of an infer result")
    add_flags(p_verify, "--tol")
    p_verify.set_defaults(func=cmd_verify_design)

    p_embed = sub.add_parser("embed", help="embed density matrices into the real formalism")
    p_embed.add_argument("input", help="JSON list of operators: {d, re, im}")
    p_embed.add_argument("--dim", type=int, default=None,
                         help="expected Hilbert dimension (checked against the inputs)")
    p_embed.add_argument("--format", choices=("json", "csv"), default="json",
                         help="output format (default json)")
    add_flags(p_embed, "--tol")
    p_embed.set_defaults(func=cmd_embed)

    p_sim = sub.add_parser(
        "simulate",
        help="round-trip campaign over random measurements, CSV report")
    p_sim.add_argument("n", type=int, help="number of outcomes")
    p_sim.add_argument("l", type=int, help="formalism dimension")
    p_sim.add_argument("trials", type=int, help="number of trials")
    add_flags(p_sim, "--seed")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, our "not converged"
        return EXIT_INVALID_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DdiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
