import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from ddi import StateEmbedding, embed_density, random_ic_quasi_measurement
from ddi.cli import (
    EXIT_INVALID_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    main,
)

from helpers import random_pure_density

SIMPLEX_CLOUD = {"n": 3, "distributions": [[1.0, 0.0, 0.0],
                                           [0.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]]}
HALVES_CLOUD = {"n": 3, "distributions": [[0.5, 0.5, 0.0],
                                          [0.0, 0.5, 0.5],
                                          [0.5, 0.0, 0.5]]}

MIXED_QUBIT = {"d": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
MIXED_QUTRIT = {"d": 3, "re": (np.eye(3) / 3).tolist(), "im": np.zeros((3, 3)).tolist()}
# one layout per command that reads a size; each file is valid with size 2
SIZE_TEMPLATES = [
    ("infer", '{"n": %s, "distributions": [[1, 0], [0, 1]]}'),
    ("verify-design", '{"l": %s, "points": [[1, 0], [0, 1]], "weights": [0.5, 0.5]}'),
    ("embed", '[{"d": %s, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}]'),
]
SIZE_COMMANDS = [command for command, _ in SIZE_TEMPLATES]


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def hard_cloud(tmp_path, m=30, n=4, seed=6):
    rng = np.random.default_rng(seed)
    points = rng.dirichlet(np.ones(n), m)
    return write_json(tmp_path / "hard.json",
                      {"n": n, "distributions": points.tolist()})


def pure_qubit_cloud(tmp_path, m=40, seed=21):
    # pure qubit states through a 6-outcome measurement: a tight optimum
    # whose counter-image certifies only under the solver's dual weights
    rng = np.random.default_rng(seed)
    embedding = StateEmbedding.for_dimension(2)
    states = np.array([embed_density(random_pure_density(2, rng), embedding)
                       for _ in range(m)])
    points = states @ random_ic_quasi_measurement(6, 4, 3).matrix.T
    return write_json(tmp_path / "pure.json", {"n": 6, "distributions": points.tolist()})


class TestInfer:
    def test_simplex_cloud(self, tmp_path):
        inp = write_json(tmp_path / "cloud.json", SIMPLEX_CLOUD)
        out = tmp_path / "result.json"
        assert main(["infer", inp, "--output", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["version"]
        assert result["format_version"] == 2
        assert result["volume_sq"] == pytest.approx(1.0, abs=1e-12)
        assert result["design_certificate"]["is_design"] is True
        matrix = np.asarray(result["measurement"]["matrix"])
        np.testing.assert_allclose(matrix, np.eye(3), atol=1e-12)

    def test_halves_cloud(self, tmp_path):
        inp = write_json(tmp_path / "cloud.json", HALVES_CLOUD)
        out = tmp_path / "result.json"
        assert main(["infer", inp, "--output", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["volume_sq"] == pytest.approx(0.0625, rel=1e-10)
        assert result["design_certificate"]["is_design"] is True

    def test_writes_to_stdout_by_default(self, tmp_path, capsys):
        inp = write_json(tmp_path / "cloud.json", SIMPLEX_CLOUD)
        assert main(["infer", inp]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["volume_sq"] == pytest.approx(1.0, abs=1e-12)

    def test_outputs_are_byte_identical(self, tmp_path):
        inp = hard_cloud(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["infer", inp, "--output", str(out1)]) == EXIT_OK
        assert main(["infer", inp, "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_iteration_cap_yields_partial_result(self, tmp_path):
        inp = hard_cloud(tmp_path)
        out = tmp_path / "partial.json"
        code = main(["infer", inp, "--max-iter", "2", "--output", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        partial = json.loads(out.read_text())
        assert partial["volume_sq"] > 0.0
        assert partial["optimality_gap"] > 1e-9
        assert partial["iterations"] == 2

    def test_rounded_frequencies_are_answered_within_tol(self, tmp_path):
        # frequencies written to 6 decimals miss a row sum of 1 by up to
        # 1e-6; --tol 1e-5 admits them, and the cloud puts them back on the
        # hyperplane, so the later checks at 1e-9 hold
        points = np.round(np.random.default_rng(1010).dirichlet(np.ones(4), 12), 6)
        inp = write_json(tmp_path / "rounded.json", {"n": 4, "distributions": points.tolist()})
        out = tmp_path / "result.json"
        assert main(["infer", inp, "--output", str(out)]) == EXIT_INVALID_INPUT
        assert main(["infer", inp, "--tol", "1e-5", "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["optimality_gap"] <= 1e-9

    def test_counter_image_verifies_as_design(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["infer", pure_qubit_cloud(tmp_path), "--output", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["design_certificate"]["is_design"] is True
        counter = write_json(tmp_path / "counter.json", result["counter_image"])
        assert main(["verify-design", counter, "--tol", "1e-7"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["is_design"] is True

    def test_written_support_of_a_loose_optimum_verifies_as_design(self, tmp_path, capsys):
        # a 12-point cloud in 4 outcomes: 8 support rows on the sphere, 4
        # zero-weight rows inside the ball that the result does not write
        points = np.random.default_rng(3).dirichlet(np.ones(4), 12)
        inp = write_json(tmp_path / "cloud.json", {"n": 4, "distributions": points.tolist()})
        out = tmp_path / "result.json"
        assert main(["infer", inp, "--output", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        counter = result["counter_image"]
        assert len(counter["points"]) == len(counter["weights"]) == 8
        assert min(counter["weights"]) > 0.0
        support = write_json(tmp_path / "support.json", counter)
        assert main(["verify-design", support]) == EXIT_OK
        certificate = json.loads(capsys.readouterr().out)
        assert certificate["is_design"] is True
        assert certificate["sphere_deviation"] <= 1e-9
        # the result's own certificate still covers the rows off the sphere
        assert result["design_certificate"]["is_design"] is False

    def test_loose_gap_target_is_met_in_no_more_iterations(self, tmp_path):
        points = np.random.default_rng(3).dirichlet(np.ones(4), 12)
        inp = write_json(tmp_path / "cloud.json", {"n": 4, "distributions": points.tolist()})
        loose, tight = tmp_path / "loose.json", tmp_path / "tight.json"
        assert main(["infer", inp, "--eps", "1e-3", "--output", str(loose)]) == EXIT_OK
        assert main(["infer", inp, "--output", str(tight)]) == EXIT_OK
        loose, tight = json.loads(loose.read_text()), json.loads(tight.read_text())
        assert loose["optimality_gap"] <= 1e-3
        assert loose["iterations"] <= tight["iterations"]

    def test_collapsed_support_exits_3(self, tmp_path, monkeypatch, capsys):
        # the solver's guard on a singular support inverse, forced by making inv raise
        def singular(matrix):
            raise np.linalg.LinAlgError("Singular matrix")

        points = np.random.default_rng(3).dirichlet(np.ones(4), 12)
        inp = write_json(tmp_path / "cloud.json", {"n": 4, "distributions": points.tolist()})
        monkeypatch.delenv("DDI_LOG", raising=False)
        monkeypatch.setattr(np.linalg, "inv", singular)
        assert main(["infer", inp]) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: support collapsed during the ellipsoid iteration\n"

    def test_debug_log_reports_the_solve(self, tmp_path, monkeypatch, capsys):
        inp = hard_cloud(tmp_path)
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        monkeypatch.delenv("DDI_LOG", raising=False)
        assert main(["infer", inp, "--output", str(quiet)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("DDI_LOG", "debug")
        assert main(["infer", inp, "--output", str(loud)]) == EXIT_OK
        result = json.loads(quiet.read_text())
        support = sum(w > 0.0 for w in result["counter_image"]["weights"])
        expected = (f"solver: {result['iterations']} iterations, support {support} "
                    f"of 30 points, gap {result['optimality_gap']:.3g}")
        assert capsys.readouterr().err.splitlines() == [
            "INFO ddi: inferring over 30 distributions spanning 4 dimensions",
            f"DEBUG ddi: {expected}"]
        assert loud.read_bytes() == quiet.read_bytes()

    @pytest.mark.parametrize("value, shown", [
        (None, ["WARNING"]), ("warning", ["WARNING"]), (" Error ", []),
        ("info", ["INFO", "WARNING"]), ("debug", ["INFO", "WARNING", "DEBUG"]),
        # an unknown value means warning
        ("verbose", ["WARNING"]), ("", ["WARNING"])])
    def test_log_level_names_the_lowest_level_shown(self, tmp_path, monkeypatch, capsys,
                                                     value, shown):
        if value is None:
            monkeypatch.delenv("DDI_LOG", raising=False)
        else:
            monkeypatch.setenv("DDI_LOG", value)
        argv = ["infer", hard_cloud(tmp_path), "--max-iter", "2",
                "--output", str(tmp_path / "partial.json")]
        assert main(argv) == EXIT_NO_CONVERGENCE
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" ddi: ")[0] for line in lines] == shown
        if "WARNING" in shown:
            assert lines[shown.index("WARNING")].startswith("WARNING ddi: no convergence: ")

    def test_malformed_json_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["infer", str(bad)]) == EXIT_INVALID_INPUT
        assert "cannot read JSON" in capsys.readouterr().err

    def test_missing_file_is_invalid_input(self, tmp_path, capsys):
        assert main(["infer", str(tmp_path / "absent.json")]) == EXIT_INVALID_INPUT
        capsys.readouterr()

    def test_whole_float_size_reads_as_int(self, tmp_path):
        outputs = []
        for size in (3, 3.0):
            inp = write_json(tmp_path / "cloud.json", {**HALVES_CLOUD, "n": size})
            out = tmp_path / f"result-{size}.json"
            assert main(["infer", inp, "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_distribution_sums_are_invalid_input(self, tmp_path, capsys):
        inp = write_json(tmp_path / "cloud.json",
                         {"n": 2, "distributions": [[0.9, 0.0], [0.0, 1.0]]})
        assert main(["infer", inp]) == EXIT_INVALID_INPUT
        assert "sum to 1" in capsys.readouterr().err


class TestVerifyDesign:
    def test_simplex_certifies(self, tmp_path, capsys):
        inp = write_json(tmp_path / "set.json", {
            "l": 3,
            "points": np.eye(3).tolist(),
            "weights": [1 / 3, 1 / 3, 1 / 3],
        })
        assert main(["verify-design", inp]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["is_design"] is True
        assert result["frame_deviation"] <= 1e-12

    def test_incomplete_set_is_not_certified(self, tmp_path, capsys):
        inp = write_json(tmp_path / "set.json", {
            "l": 3,
            "points": np.eye(3)[:2].tolist(),
            "weights": [0.5, 0.5],
        })
        assert main(["verify-design", inp]) == EXIT_NOT_CERTIFIED
        result = json.loads(capsys.readouterr().out)
        assert result["is_design"] is False

    def test_union_of_rotated_simplices_certifies(self, tmp_path, capsys):
        from ddi import random_stabilizing_orthogonal, regular_simplex, rotate_set
        rng = np.random.default_rng(21)
        base = regular_simplex(4)
        rotated = rotate_set(base, random_stabilizing_orthogonal(4, rng))
        inp = write_json(tmp_path / "set.json", {
            "l": 4,
            "points": np.vstack([base.points, rotated.points]).tolist(),
            "weights": np.full(8, 1 / 8).tolist(),
        })
        assert main(["verify-design", inp]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["is_design"] is True
        assert result["frame_deviation"] <= 1e-10

    def test_off_sphere_point_is_invalid_input(self, tmp_path, capsys):
        inp = write_json(tmp_path / "set.json", {
            "l": 2,
            "points": [[0.5, 0.5], [1.0, 0.0]],
            "weights": [0.5, 0.5],
        })
        assert main(["verify-design", inp]) == EXIT_INVALID_INPUT
        assert "sphere" in capsys.readouterr().err


class TestEmbed:
    def test_maximally_mixed_qubit(self, tmp_path, capsys):
        inp = write_json(tmp_path / "ops.json", [{
            "d": 2,
            "re": [[0.5, 0.0], [0.0, 0.5]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }])
        assert main(["embed", inp]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["d"] == 2 and result["l"] == 4
        vector = np.asarray(result["vectors"][0])
        np.testing.assert_allclose(vector, np.full(4, 0.25), atol=1e-12)
        assert result["report"][0]["purity"] == pytest.approx(0.5, abs=1e-12)

    def test_csv_format(self, tmp_path):
        inp = write_json(tmp_path / "ops.json", [{
            "d": 2,
            "re": [[1.0, 0.0], [0.0, 0.0]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }])
        out = tmp_path / "embed.csv"
        assert main(["embed", inp, "--format", "csv", "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[:4] == ["index", "purity", "norm_sq",
                                           "hyperplane_residual"]
        cells = lines[1].split(",")
        assert float(cells[2]) == pytest.approx(1.0, abs=1e-12)

    def test_tetrahedron_states_embed_orthonormally(self, tmp_path, capsys):
        bloch = np.array([[1, 1, 1], [1, -1, -1],
                          [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        ops = []
        for bx, by, bz in bloch:
            ops.append({
                "d": 2,
                "re": [[0.5 * (1 + bz), 0.5 * bx], [0.5 * bx, 0.5 * (1 - bz)]],
                "im": [[0.0, -0.5 * by], [0.5 * by, 0.0]],
            })
        inp = write_json(tmp_path / "ops.json", ops)
        assert main(["embed", inp]) == EXIT_OK
        vectors = np.asarray(json.loads(capsys.readouterr().out)["vectors"])
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(4), atol=1e-10)

    def test_non_unit_trace_is_invalid_input(self, tmp_path, capsys):
        inp = write_json(tmp_path / "ops.json", [{
            "d": 2,
            "re": [[0.5, 0.0], [0.0, 0.4]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }])
        assert main(["embed", inp]) == EXIT_INVALID_INPUT
        assert "trace" in capsys.readouterr().err

    def test_non_hermitian_is_invalid_input(self, tmp_path, capsys):
        inp = write_json(tmp_path / "ops.json", [{
            "d": 2,
            "re": [[0.0, 1.0], [0.0, 0.0]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }])
        assert main(["embed", inp]) == EXIT_INVALID_INPUT
        assert "Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("operators, flags, message", [
        ([MIXED_QUBIT], ["--dim", "3"], "operators have dimension 2, expected 3"),
        ([], [], "embed expects a nonempty JSON list of operators"),
        ([MIXED_QUBIT, MIXED_QUTRIT], [], "all operators must share one dimension"),
    ], ids=["dim-flag", "empty-list", "mixed-dimensions"])
    def test_dimension_mismatch_is_invalid_input(self, tmp_path, capsys,
                                                 operators, flags, message):
        inp = write_json(tmp_path / "ops.json", operators)
        assert main(["embed", inp, *flags]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infinite_imaginary_part_is_refused_without_a_warning(self, tmp_path):
        # 1j * inf is nan + inf j, and forming it would print a RuntimeWarning
        inp = tmp_path / "ops.json"
        inp.write_text('[{"d": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, Infinity], [0, 0]]}]',
                       encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "ddi.cli", "embed", str(inp)],
                             capture_output=True, text=True)
        assert run.returncode == EXIT_INVALID_INPUT
        assert run.stdout == ""
        assert run.stderr == "error: malformed operator object: im entries must be finite\n"


class TestSimulate:
    def test_report_shape_and_summary(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["simulate", "4", "3", "3", "--seed", "5",
                     "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 3 trials + max row
        header = lines[0].split(",")
        assert header == ["trial", "seed", "expected_volume_sq",
                          "recovered_volume_sq", "relative_gap",
                          "design_deviation"]
        assert lines[-1].startswith("max,")
        for line in lines[1:4]:
            cells = line.split(",")
            assert float(cells[4]) <= 1e-9

    def test_negative_seed_uses_identity_block(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["simulate", "4", "3", "2", "--seed", "-7",
                     "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[1] == second[1] == "-7"
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
        assert first[2:] == second[2:]

    def test_larger_instances_stay_accurate(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["simulate", "6", "4", "10", "--seed", "3",
                     "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 12  # header + 10 trials + max row
        for line in lines[1:11]:
            assert float(line.split(",")[4]) <= 1e-6

    def test_identity_block_recovery_is_exact(self, tmp_path):
        # no random mixing, so the recovered volume should match to rounding
        out = tmp_path / "report.csv"
        assert main(["simulate", "3", "3", "1", "--seed", "-1",
                     "--output", str(out)]) == EXIT_OK
        assert float(out.read_text().splitlines()[1].split(",")[4]) <= 1e-12

    def test_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "5", "3", "2", "--seed", "11",
                     "--output", str(out1)]) == EXIT_OK
        assert main(["simulate", "5", "3", "2", "--seed", "11",
                     "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_rejects_nonpositive_trials(self, capsys):
        assert main(["simulate", "4", "3", "0"]) == EXIT_INVALID_INPUT
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "0"])
    @pytest.mark.parametrize("n, l", [("2", "3"), ("-1", "3"), ("3", "-2")])
    def test_rejects_sizes_outside_informational_completeness(self, capsys, n, l, seed):
        # the identity block of a negative seed checks the sizes as the sampler does
        assert main(["simulate", n, l, "1", "--seed", seed]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == (
            f"error: need n >= l >= 2 for informational completeness, got n={n}, l={l}\n")


class TestUsageAndOutputErrors:
    def test_usage_errors_are_invalid_input(self, tmp_path, capsys):
        inp = write_json(tmp_path / "cloud.json", HALVES_CLOUD)
        assert main(["infer"]) == EXIT_INVALID_INPUT
        assert "error:" in capsys.readouterr().err
        assert main(["infer", inp, "--bogus"]) == EXIT_INVALID_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["infer", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert "ddi" in capsys.readouterr().out

    @staticmethod
    def valid_inputs(tmp_path):
        """Positional arguments on which each command exits 0."""
        return {
            "infer": [write_json(tmp_path / "cloud.json", HALVES_CLOUD)],
            "verify-design": [write_json(tmp_path / "states.json", {
                "l": 3, "points": np.eye(3).tolist(), "weights": [1 / 3] * 3})],
            "embed": [write_json(tmp_path / "ops.json", [
                {"d": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}])],
            "simulate": ["4", "3", "1"],
        }

    @pytest.mark.parametrize("command, flag, value", [
        ("infer", "--seed", "1"),
        ("verify-design", "--seed", "1"),
        ("verify-design", "--eps", "1e-6"),
        ("verify-design", "--max-iter", "5"),
        ("embed", "--seed", "1"),
        ("embed", "--eps", "1e-6"),
        ("embed", "--max-iter", "5"),
        ("simulate", "--tol", "1e-9"),
        ("simulate", "--eps", "-inf"),
        ("simulate", "--max-iter", "5"),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, capsys,
                                                        command, flag, value):
        out = tmp_path / "out"
        argv = [command, *self.valid_inputs(tmp_path)[command], "--output", str(out)]
        assert main(argv) == EXIT_OK
        assert main([*argv, flag, value]) == EXIT_INVALID_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("infer", "--tol", "nan"),
        ("infer", "--tol", "-1e-9"),
        ("infer", "--eps", "inf"),
        ("infer", "--eps", "nan"),
        ("infer", "--eps", "0"),
        ("verify-design", "--tol", "inf"),
        ("embed", "--tol", "nan"),
        ("embed", "--tol", "1e400"),
    ])
    def test_tolerances_outside_their_range_are_usage_errors(self, tmp_path, capsys,
                                                              command, flag, value):
        # --tol must be finite and >= 0, --eps finite and > 0
        out = tmp_path / "out"
        argv = [command, *self.valid_inputs(tmp_path)[command], f"{flag}={value}",
                "--output", str(out)]
        assert main(argv) == EXIT_INVALID_INPUT
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_invalid_input(self, tmp_path, capsys):
        inp = write_json(tmp_path / "cloud.json", HALVES_CLOUD)
        missing = tmp_path / "missing" / "result.json"
        assert main(["infer", inp, "--output", str(missing)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: cannot write")
        # the staging file is made, then the rename onto a directory fails
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["infer", inp, "--output", str(taken)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert not list(tmp_path.glob(".ddi-*.tmp"))

    @pytest.mark.parametrize("mask", [None, 0o027], ids=["suite-umask", "umask-027"])
    def test_output_gets_the_mode_of_a_new_file(self, tmp_path, mask):
        # 0o666 less the umask, as open(path, "w") gives a new file, also when
        # the output replaces a file of another mode; None keeps the umask
        # the suite runs under
        current = os.umask(0)  # the only way to read it; restored below
        mask = current if mask is None else mask
        os.umask(mask)
        try:
            expected = 0o666 & ~mask
            inp = write_json(tmp_path / "cloud.json", HALVES_CLOUD)
            out = tmp_path / "result.json"
            assert main(["infer", inp, "--output", str(out)]) == EXIT_OK
            assert stat.S_IMODE(out.stat().st_mode) == expected
            out.chmod(0o640)
            assert main(["infer", inp, "--output", str(out)]) == EXIT_OK
            assert stat.S_IMODE(out.stat().st_mode) == expected
        finally:
            os.umask(current)
        assert not list(tmp_path.glob(".ddi-*.tmp"))


class TestSubprocessEntry:
    def test_module_entry_point_matches_in_process(self, tmp_path):
        inp = write_json(tmp_path / "cloud.json", HALVES_CLOUD)
        out_proc = tmp_path / "proc.json"
        run = subprocess.run(
            [sys.executable, "-m", "ddi.cli", "infer", inp,
             "--output", str(out_proc)],
            capture_output=True, text=True)
        assert run.returncode == EXIT_OK, run.stderr
        out_local = tmp_path / "local.json"
        assert main(["infer", inp, "--output", str(out_local)]) == EXIT_OK
        assert out_proc.read_bytes() == out_local.read_bytes()

    @pytest.mark.parametrize("command", ["infer", "verify-design", "embed"])
    @pytest.mark.parametrize("data", [
        # UTF-16 with its byte-order mark, ff fe, which no UTF-8 text starts with
        json.dumps(HALVES_CLOUD).encode("utf-16"),
        # an integer literal longer than Python converts by default (4300 digits)
        b'{"n": ' + b"1" * 5000 + b', "distributions": []}',
        # nested deeper than the JSON decoder recurses
        b"[" * 100000 + b"]" * 100000,
    ], ids=["utf16", "long-integer", "deep-nesting"])
    def test_unreadable_input_is_invalid_input(self, tmp_path, command, data):
        inp = tmp_path / "input.json"
        inp.write_bytes(data)
        run = subprocess.run([sys.executable, "-m", "ddi.cli", command, str(inp)],
                             capture_output=True, text=True)
        assert run.returncode == EXIT_INVALID_INPUT
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith(f"error: cannot read JSON from {inp}: ")
        assert "Traceback" not in run.stderr and run.stdout == ""

    @pytest.mark.parametrize("command, template", SIZE_TEMPLATES, ids=SIZE_COMMANDS)
    @pytest.mark.parametrize("size", ["1e999", "2.5", "true", '"3"', "NaN"])
    def test_malformed_size_is_invalid_input(self, tmp_path, command, template, size):
        # JSON 1e999 parses as inf
        inp = tmp_path / "input.json"
        inp.write_text(template % size, encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "ddi.cli", command, str(inp)],
                             capture_output=True, text=True)
        assert run.returncode == EXIT_INVALID_INPUT
        assert len(run.stderr.splitlines()) == 1
        assert re.match(r"error: malformed [a-z-]+ object: ", run.stderr)
        assert "Traceback" not in run.stderr and run.stdout == ""

    @pytest.mark.parametrize("command, template", SIZE_TEMPLATES, ids=SIZE_COMMANDS)
    def test_a_long_wrong_size_prints_a_short_message(self, tmp_path, command, template):
        # a whole size that matches no shape; its 4000 digits are cut in the message
        inp = tmp_path / "input.json"
        inp.write_text(template % ("9" * 4000), encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "ddi.cli", command, str(inp)],
                             capture_output=True)
        assert run.returncode == EXIT_INVALID_INPUT
        assert len(run.stderr.splitlines()) == 1 and len(run.stderr) < 200
        assert run.stdout == b""

    def test_infer_and_simulate_load_no_scipy(self, tmp_path):
        # a fresh interpreter, since the test helpers import scipy; with
        # sys.modules["scipy"] = None any scipy import there raises
        inp = write_json(tmp_path / "cloud.json", HALVES_CLOUD)
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from ddi import design_weights, inference_round_trip, random_ic_quasi_measurement\n"
            "from ddi.cli import main\n"
            f"assert main(['infer', {inp!r}, '--output', {str(tmp_path / 'r.json')!r}]) == 0\n"
            "assert main(['simulate', '4', '3', '2', "
            f"'--output', {str(tmp_path / 's.csv')!r}]) == 0\n"
            "meas = random_ic_quasi_measurement(12, 9, 1)\n"
            "report = inference_round_trip(meas, perturbations=3)\n"
            "assert report.feasible and len(report.perturbed_excess) == 3\n"
            "assert design_weights(np.eye(4))[1] <= 1e-12\n"
            "print(sorted(name for name, module in sys.modules.items()\n"
            "             if module is not None and name.split('.')[0] == 'scipy'))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_import_leaves_the_harness_unloaded(self):
        # ddi.embedding and ddi.verify each load on first use of one of their
        # names, not with the CLI, which reports without logging; the code
        # that moved to them is gone from the modules the CLI loads
        moved = {
            "ddi.verify": (
                "_haar_orthogonal_batch", "random_stabilizing_orthogonal", "rotate_set",
                "haar_average_estimate", "_nnls", "design_weights",
                "pseudoinverse_closure_check", "det_factorization_check", "_DET_RTOL",
                "random_ic_quasi_measurement", "random_quasi_measurement", "ddi_closed_form",
                "regular_simplex", "is_informationally_complete", "ball_membership",
                "cone_functional"),
            "ddi.embedding": (
                "traceless_hermitian_basis", "_hilbert_dimension", "StateEmbedding",
                "_shared_embedding", "_embed_parts", "embed_density", "embed_effect",
                "hermitian_from_dict", "hermitian_to_dict"),
        }
        script = (
            "import sys\n"
            "import ddi.cli\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name in ('logging', 'ddi.embedding', 'ddi.verify')\n"
            "             or name.split('.')[0] == 'scipy'))\n"
            f"moved = {moved!r}\n"
            "modules = ('geometry', 'designs', 'measurements', 'inference', 'cli')\n"
            "print(sorted(f'{module}.{name}' for names in moved.values() for name in names\n"
            "             for module in modules if hasattr(sys.modules['ddi.' + module], name)))\n"
            "from ddi import StateEmbedding\n"
            "print(StateEmbedding.__module__, 'ddi.verify' in sys.modules)\n"
            "from ddi import inference_round_trip\n"
            "print(inference_round_trip.__module__)\n"
            "public = [(home, name) for home, names in moved.items() for name in names\n"
            "          if not name.startswith('_')]\n"
            "print(sorted(name for home, name in public if name not in ddi.__all__))\n"
            "print(sorted(name for home, name in public if name in ddi.__all__\n"
            "             and getattr(ddi, name).__module__ != home))\n"
            "bound = {}\n"
            "exec('from ddi import *', bound)\n"
            "print(sorted(set(ddi.__all__) - set(bound)))\n"
            "try:\n"
            "    ddi.no_such_name\n"
            "except AttributeError:\n"
            "    print('AttributeError')\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "[]", "[]", "ddi.embedding False", "ddi.verify",
            "['hermitian_from_dict', 'hermitian_to_dict']", "[]", "[]", "AttributeError"]
