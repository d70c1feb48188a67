"""End-to-end tests of the command-line front end.

All commands run in-process through ``main(argv)`` with captured stdout, so
exit codes, report bytes, and error channels are all observable.
"""

import csv
import json
import math

import numpy as np
import pytest

from lplorentz.cli import emit_report, main
from lplorentz.norms import LorentzParams, MeasuredValues, lorentz_norm
from lplorentz.spectral import GridSpec, SampledField, save_field


@pytest.fixture
def cosine_field_path(tmp_path):
    grid = GridSpec(1, 1024, 2.0 * math.pi)
    x = grid.axis_coordinates()
    path = tmp_path / "field.json"
    save_field(SampledField(grid, np.cos(4.0 * x)), path)
    return path


def split_csv(out: str):
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    parsed = list(csv.reader(lines[1:]))
    return config, parsed[0], parsed[1:]


def split_sharpness_output(out: str):
    """Sharpness prints the CSV report followed by the slopes JSON object."""
    lines = out.splitlines()
    json_start = lines.index("{")
    config, columns, rows = split_csv("\n".join(lines[:json_start]) + "\n")
    payload = json.loads("\n".join(lines[json_start:]))
    return config, columns, rows, payload


class TestNormCommand:
    def test_lebesgue_norm(self, cosine_field_path, capsys):
        code = main(["norm", "--space", "lebesgue", "--input", str(cosine_field_path), "--p", "2"])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        # ||cos(4x)||_{L2(0, 2pi)} = sqrt(pi).
        assert record["norm"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert record["params"]["command"] == "norm"
        assert record["params"]["space"] == "lebesgue"
        assert record["params"]["p"] == 2.0

    def test_lorentz_norm_matches_library(self, cosine_field_path, capsys):
        code = main(
            ["norm", "--space", "lorentz", "--input", str(cosine_field_path), "--p", "2", "--r", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        from lplorentz.spectral import load_field

        field = load_field(cosine_field_path)
        expected = lorentz_norm(MeasuredValues.from_field(field), LorentzParams(2.0, 1.0))
        assert json.loads(out)["norm"] == pytest.approx(expected, rel=1e-15)

    def test_besov_closed_form(self, cosine_field_path, capsys):
        # cos(4x) lives in the single block j = 2; with s = 1/2, inner
        # exponent 2 and outer sup the seminorm is 2**(2s) * sqrt(pi).
        code = main(
            [
                "norm",
                "--space",
                "besov",
                "--input",
                str(cosine_field_path),
                "--s",
                "0.5",
                "--p",
                "2",
                "--q",
                "inf",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        assert record["norm"] == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-9)
        # Infinite exponents echo back in flag syntax.
        assert record["params"]["q"] == "inf"

    def test_triebel_equals_besov_for_single_block(self, cosine_field_path, capsys):
        argv = ["--input", str(cosine_field_path), "--s", "0.5", "--p", "2", "--q", "2"]
        assert main(["norm", "--space", "besov", *argv]) == 0
        besov_out = json.loads(capsys.readouterr().out)["norm"]
        assert main(["norm", "--space", "triebel", *argv]) == 0
        triebel_out = json.loads(capsys.readouterr().out)["norm"]
        assert triebel_out == pytest.approx(besov_out, rel=1e-12)

    def test_missing_space_parameter_exits_2(self, cosine_field_path, capsys):
        code = main(["norm", "--space", "lorentz", "--input", str(cosine_field_path), "--p", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_missing_input_file_is_runtime_failure(self, tmp_path, capsys):
        code = main(["norm", "--space", "lebesgue", "--input", str(tmp_path / "no.json"), "--p", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "failure:" in captured.err


class TestVerifyCommand:
    ARGS = [
        "verify",
        "--alpha", "0.25", "--beta", "0.25",
        "--q0", "1", "--q1", "inf",
        "--r0", "2", "--r1", "2",
        "--auto-r-star",
        "--count", "3", "--seed", "7", "--grid", "1024",
    ]

    def test_end_to_end_csv(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        config, columns, rows = split_csv(out)
        assert columns == ["instance_id", "lhs", "rhs", "ratio", "generator_descriptor"]
        assert len(rows) == 3
        assert config["q1"] == "inf"
        assert config["auto_r_star"] is True
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            assert float(row[3]) > 0.0
            assert row[4] == f"multi-block-random[instance={i}, seed=7, grid=1024]"

    def test_byte_stable_reports(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, capsys):
        code = main(self.ARGS + ["--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"header", "records", "summary"}
        assert len(payload["records"]) == 3
        ratios = [rec["ratio"] for rec in payload["records"]]
        assert payload["summary"]["max_ratio"] == max(ratios)
        assert payload["header"]["q1"] == "inf"

    def test_single_block_ratios_are_scale_covariant(self, capsys):
        # Every single-block instance differs only by amplitude, which cancels
        # in the ratio: all reported ratios agree to high precision.
        code = main(
            [
                "verify",
                "--alpha", "0.25", "--beta", "0.25",
                "--q0", "1", "--q1", "inf",
                "--r0", "2", "--r1", "2",
                "--auto-r-star",
                "--generator", "single-block",
                "--count", "5", "--seed", "3", "--grid", "1024",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        _, _, rows = split_csv(out)
        ratios = [float(row[3]) for row in rows]
        assert (max(ratios) - min(ratios)) <= 1e-9 * max(ratios)

    def test_file_output(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code = main(self.ARGS + ["--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == ""
        first = path.read_bytes()
        assert main(self.ARGS + ["--out", str(path)]) == 0
        assert path.read_bytes() == first
        _, columns, rows = split_csv(first.decode())
        assert len(rows) == 3

    def test_invalid_parameters_exit_2(self, capsys):
        bad = [arg if arg != "0.25" else "-1" for arg in self.ARGS]
        code = main(bad)
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_or_negative_count_exits_2(self, count, capsys):
        args = list(self.ARGS)
        args[args.index("--count") + 1] = count
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be >= 1\n"

    def test_missing_r_choice_exits_2(self, capsys):
        args = [arg for arg in self.ARGS if arg != "--auto-r-star"]
        assert main(args) == 2
        capsys.readouterr()

    def test_r_and_auto_r_star_conflict(self, capsys):
        assert main(self.ARGS + ["--r", "2"]) == 2
        capsys.readouterr()


class TestInterpCommand:
    @pytest.mark.parametrize(
        "check", ["k-equivalence", "layer-cake", "partition", "duality", "reiteration"]
    )
    def test_each_check_runs(self, check, capsys):
        code = main(["interp", "--check", check, "--suite-size", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        _, columns, rows = split_csv(out)
        assert columns == ["instance_id", "lhs", "rhs", "ratio"]
        assert len(rows) == 8
        for row in rows:
            assert math.isfinite(float(row[3]))

    def test_deterministic(self, capsys):
        argv = ["interp", "--check", "duality", "--suite-size", "6", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_check_exits_2(self, capsys):
        assert main(["interp", "--check", "fourier-phase"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--check", "k-equivalence", "--p", "1"], "p must lie in (1, inf), got 1.0"),
            (["--check", "duality", "--r", "0.5"], "r must lie in [1, inf], got 0.5"),
        ],
    )
    def test_bad_exponent_names_its_flag(self, flags, message, capsys):
        assert main(["interp", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "check", ["k-equivalence", "layer-cake", "partition", "duality", "reiteration"]
    )
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_or_negative_suite_size_exits_2(self, check, size, capsys):
        assert main(["interp", "--check", check, "--suite-size", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: suite_size must be >= 1\n"


class TestSharpnessCommand:
    CANONICAL = [
        "sharpness",
        "--alpha", "0.25", "--beta", "0.25",
        "--q0", "1", "--q1", "inf",
        "--r0", "2", "--r1", "2",
    ]

    def test_canonical_stdout_report(self, capsys):
        code = main(self.CANONICAL)
        out = capsys.readouterr().out
        assert code == 0
        config, columns, rows, payload = split_sharpness_output(out)
        assert columns == [
            "L", "besov0", "besov1", "pairing",
            "g_dual_norm", "lorentz_lower", "rhs_product", "ratio",
        ]
        assert [int(row[0]) for row in rows] == [8, 12, 16, 24, 32, 48, 64]
        assert payload["slopes"]["pairing"] == pytest.approx(1.0, abs=1e-9)
        assert payload["slopes"]["ratio"] == pytest.approx(0.0, abs=1e-9)
        assert payload["expected"]["lorentz_lower"] == 0.5
        assert config["q1"] == "inf"

    def test_violating_case_slope(self, capsys):
        code = main(
            [
                "sharpness",
                "--alpha", "0.25", "--beta", "0.25",
                "--q0", "1", "--q1", "inf",
                "--r0", "4", "--r1", "4", "--r", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        _, _, _, payload = split_sharpness_output(out)
        assert payload["expected"]["ratio"] == 0.25
        assert payload["slopes"]["ratio"] == pytest.approx(0.25, abs=1e-9)

    def test_file_output_with_slopes_companion(self, tmp_path, capsys):
        path = tmp_path / "growth.csv"
        code = main(self.CANONICAL + ["--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == ""
        assert path.exists()
        companion = tmp_path / "growth.slopes.json"
        assert companion.exists()
        payload = json.loads(companion.read_text())
        assert set(payload) == {"expected", "header", "slopes"}
        _, columns, rows = split_csv(path.read_text())
        assert len(rows) == 7 and len(columns) == 8

    def test_equal_inner_exponents_exit_2(self, capsys):
        args = [arg if arg != "inf" else "2" for arg in self.CANONICAL]
        args = [arg if arg != "1" else "2" for arg in args]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize("flag", ["--r0", "--q0", "--r"])
    def test_bad_exponent_names_its_flag(self, flag, capsys):
        args = list(self.CANONICAL)
        if flag in args:
            args[args.index(flag) + 1] = "0.5"
        else:
            args += [flag, "0.5"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag[2:]} must lie in [1, inf], got 0.5\n"

    def test_bad_level_range_exit_2(self, capsys):
        assert main(self.CANONICAL + ["--Lmin", "0"]) == 2
        capsys.readouterr()

    def test_slow_convergence_surfaces_as_runtime_failure(self, capsys):
        # r0 = 2, r1 = 4 with the composed r needs a dual Lorentz norm whose
        # finite-size transient defeats the default level sweep; the internal
        # slope assertion fails and the CLI reports a runtime failure.
        code = main(
            [
                "sharpness",
                "--alpha", "0.25", "--beta", "0.25",
                "--q0", "1", "--q1", "inf",
                "--r0", "2", "--r1", "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "failure:" in captured.err

    @pytest.mark.parametrize("l_max", ["1024", "8192"])
    def test_equal_exponent_sweep_stays_in_float_range(self, l_max, capsys):
        # alpha = beta = 1/2 with r = p = 2: the coefficients 2**(j/2) square
        # past the float range from scale 1024 on, but the closed-form dual
        # norm is summed in base-2 logs and the sweep completes.
        code = main(
            [
                "sharpness",
                "--alpha", "0.5", "--beta", "0.5",
                "--q0", "1", "--q1", "inf",
                "--r0", "2", "--r1", "2",
                "--Lmin", "8", "--Lmax", l_max,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        _, _, rows, payload = split_sharpness_output(captured.out)
        assert int(rows[-1][0]) == int(l_max)
        assert payload["slopes"]["lorentz_lower"] == pytest.approx(0.5, rel=0.03)

    def test_float_range_exhaustion_is_runtime_failure(self, capsys):
        # At scale 2048 the counts 2**(delta*j) = 2**(j/2) overflow before any
        # norm is evaluated: a runtime failure (exit 1) naming that scale, not
        # a bad flag (exit 2).
        code = main(self.CANONICAL + ["--Lmax", "2048"])
        captured = capsys.readouterr()
        assert code == 1
        failures = [line for line in captured.err.splitlines() if line.startswith("failure:")]
        assert failures and "scale 2048" in failures[0]


class TestEmitReport:
    def test_empty_records_give_header_only_csv(self, capsys):
        emit_report([], ["a", "b"], {"cmd": "t"}, fmt="csv", path=None)
        out = capsys.readouterr().out
        assert out == '# config: {"cmd": "t"}\na,b\n'

    def test_float_cells_round_trip(self, capsys):
        emit_report([{"x": 1.0 / 3.0}], ["x"], {}, fmt="csv", path=None)
        out = capsys.readouterr().out
        cell = out.splitlines()[2]
        assert float(cell) == 1.0 / 3.0

    def test_json_payload_shape(self, capsys):
        emit_report(
            [{"x": math.inf}], ["x"], {"seed": 1}, summary={"max": 2.0}, fmt="json", path=None
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"header": {"seed": 1}, "records": [{"x": "inf"}], "summary": {"max": 2.0}}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], ["a"], {}, fmt="yaml")

    def test_unwritable_path_raises_with_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "report.csv"
        with pytest.raises(RuntimeError, match="report.csv"):
            emit_report([], ["a"], {}, fmt="csv", path=target)
