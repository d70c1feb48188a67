"""End-to-end tests of the command-line front end.

All commands run in-process through ``main(argv)`` with captured stdout, so
exit codes, report bytes, and error channels are all observable.
"""

import csv
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lplorentz
from lplorentz import interpolation
from lplorentz.cli import _json_text, emit_report, main
from lplorentz.interpolation import CHECKS
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
    def test_lebesgue_divergence_prints_only_its_failure(self, tmp_path, capsys):
        # the L^1 norm of 1e308 * cos(x) on (0, 2pi) is 4e308, past the largest float
        grid = GridSpec(1, 1024, 2.0 * math.pi)
        path = save_field(SampledField(grid, 1e308 * np.cos(grid.axis_coordinates())), tmp_path / "big.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--space", "lebesgue", "--input", str(path), "--p", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "failure: Lebesgue integral diverged on these values\n"

    @pytest.mark.parametrize("space", ["besov", "triebel"])
    @pytest.mark.parametrize("q", ["2", "inf"])
    def test_overflowing_weight_prints_only_its_failure(self, cosine_field_path, capsys, space, q):
        # the blocks j = 6..8 hold only FFT noise, below 1e-14, yet their weights
        # 2**(200*j) overflow: the computed seminorm is past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--space", space, "--input", str(cosine_field_path),
                         "--s", "200", "--p", "2", "--q", q])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"failure: l^{q} sum diverged: a power left the float range\n"

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

    @staticmethod
    def unreadable_input(case, tmp_path):
        """An ``--input`` path that ``load_field`` cannot read, and the reason it gives."""
        field = tmp_path / "field.json"
        if case == "missing file":
            return field, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(field)!r}"
        if case == "directory":
            return tmp_path, f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
        save_field(SampledField(GridSpec(1, 8), np.zeros(8)), field, sidecar=True)
        if case == "missing sidecar":
            sidecar = tmp_path / "field.json.bin"
            sidecar.unlink()
            return field, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(sidecar)!r}"
        doc = json.loads(field.read_text())
        if case == "no dim":
            del doc["dim"]
            field.write_text(json.dumps(doc))
            return field, "missing key 'dim'"
        text = json.dumps(doc)[:-5]
        field.write_text(text)
        with pytest.raises(json.JSONDecodeError) as truncated:
            json.loads(text)
        return field, str(truncated.value)

    @pytest.mark.parametrize("case", ["missing file", "directory", "missing sidecar", "truncated json", "no dim"])
    def test_unreadable_input_names_the_flag_and_exits_1(self, case, tmp_path, capsys):
        path, reason = self.unreadable_input(case, tmp_path)
        assert main(["norm", "--space", "besov", "--input", str(path), "--s", "0.5", "--p", "2", "--q", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"failure: cannot read field from --input {str(path)!r}: {reason}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jmin", "5", "--jmax", "3"], "--jmin must be strictly below --jmax, got 5 and 3"),
            (["--jmin", "9"], "--jmin must be strictly below --jmax, got 9 and 8"),
            (["--jmax", "40"], "--jmax must be at most 8: the top block frequency 2**41 exceeds "
                               "the grid Nyquist frequency 512"),
            (["--jmax", "9"], "--jmax must be at most 8: the top block frequency 2**10 exceeds "
                              "the grid Nyquist frequency 512"),
        ],
    )
    def test_bad_scale_range_names_its_flag(self, flags, message, cosine_field_path, capsys):
        argv = ["norm", "--space", "triebel", "--input", str(cosine_field_path), "--s", "0.5", "--p", "2", "--q", "2"]
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("space, p, q", [("besov", "300", "2"), ("triebel", "2", "300")])
    def test_overflowing_power_sum_is_rescaled(self, space, p, q, cosine_field_path, tmp_path, capsys):
        # 50**300 leaves the float range, the seminorm of 50 * cos(4x) does not
        grid = GridSpec(1, 1024, 2.0 * math.pi)
        path = tmp_path / "loud.json"
        save_field(SampledField(grid, 50.0 * np.cos(4.0 * grid.axis_coordinates())), path)
        flags = ["--s", "0.5", "--p", p, "--q", q]
        assert main(["norm", "--space", space, "--input", str(cosine_field_path), *flags]) == 0
        quiet = json.loads(capsys.readouterr().out)["norm"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--space", space, "--input", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["norm"] == pytest.approx(50.0 * quiet, rel=1e-12)

    @pytest.mark.parametrize("amplitude", [1e-200, 1e200])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--space", "lebesgue", "--p", "2"],
            ["--space", "lorentz", "--p", "2", "--r", "2"],
            ["--space", "besov", "--s", "0.5", "--p", "2", "--q", "2"],
            ["--space", "triebel", "--s", "0.5", "--p", "2", "--q", "2"],
        ],
        ids=["lebesgue", "lorentz", "besov", "triebel"],
    )
    def test_edge_amplitudes_scale_the_norm(self, amplitude, flags, cosine_field_path, tmp_path, capsys):
        # the squares of 1e-200 * cos(4x) underflow to zero and those of
        # 1e200 * cos(4x) overflow; the norms are amplitude times the unit ones
        grid = GridSpec(1, 1024, 2.0 * math.pi)
        path = save_field(SampledField(grid, amplitude * np.cos(4.0 * grid.axis_coordinates())), tmp_path / "a.json")
        assert main(["norm", "--input", str(cosine_field_path), *flags]) == 0
        unit = json.loads(capsys.readouterr().out)["norm"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--input", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["norm"] == pytest.approx(amplitude * unit, rel=1e-12)

    def test_jmin_below_the_dc_only_scale_is_rejected(self, cosine_field_path, capsys):
        # on a 2pi period the DC-only scale is 0: block -1 lives at |xi| <= 1,
        # where the only lattice frequency is 0, so it is identically zero
        argv = ["norm", "--space", "besov", "--input", str(cosine_field_path), "--s", "0.5", "--p", "2", "--q", "2"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)["norm"]
        assert main([*argv, "--jmin", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["norm"] == default
        assert main([*argv, "--jmin", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --jmin must be at least 0: the block frequencies up to 2**0 do not exceed "
            "the lowest grid frequency 1\n"
        )


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

    def test_degenerate_composed_integrability_names_its_flags(self, capsys):
        # theta = alpha/(alpha + beta) is 4e-300, so 1/p = 1/q0 = 1
        args = list(self.ARGS)
        args[args.index("--alpha") + 1] = "1e-300"
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: composed integrability 1/p=1.0 leaves (0, 1): --alpha=1e-300 and --beta=0.25 give "
            "theta=4e-300 on --q0=1.0 and --q1=inf; p must be in (1, inf)\n"
        )

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_or_negative_count_exits_2(self, count, capsys):
        args = list(self.ARGS)
        args[args.index("--count") + 1] = count
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be >= 1\n"

    @pytest.mark.parametrize("grid", ["1000", "4", "0"])
    def test_bad_grid_names_its_flag(self, grid, capsys):
        args = list(self.ARGS)
        args[args.index("--grid") + 1] = grid
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid must be a power of two >= 8, got {grid}\n"

    def test_overflowing_power_sums_leave_a_finite_seminorm(self, capsys):
        # q0 = 300 overflows the powers of the inner block sums; rescaled,
        # every right side stays finite and positive (an infinite one used to
        # read as ratio 0, a false pass, then exited 1)
        args = list(self.ARGS)
        args[args.index("--q0") + 1] = "300"
        args += ["--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        records = json.loads(captured.out)["records"]
        assert len(records) == 3
        assert all(0.0 < rec["rhs"] < math.inf and 0.0 < rec["ratio"] < math.inf for rec in records)

    def test_runtime_never_imports_scipy(self, tmp_path):
        # The cutoff's logistic takes libm exp through math.exp, so a whole
        # verify op runs on numpy alone.
        argv = list(self.ARGS)
        argv[argv.index("--count") + 1] = "1"
        argv += ["--out", str(tmp_path / "report.csv")]
        script = (
            "import sys\n"
            "import lplorentz.cli\n"
            f"assert lplorentz.cli.main({argv!r}) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        src = Path(lplorentz.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
        assert (tmp_path / "report.csv").read_text().count("\n") == 3

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

    @pytest.mark.parametrize("check", ["duality", "layer-cake", "reiteration"])
    def test_huge_second_exponent_keeps_the_lorentz_norms_finite(self, check, capsys):
        # at r = 1e300 the powers value**r and S**(r/p) leave the float range
        # on every row; the Lorentz norms come from the weak-type products
        # value * S**(1/p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["interp", "--check", check, "--r", "1e300", "--suite-size", "3"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        _, _, rows = split_csv(captured.out)
        assert len(rows) == 3 and all(math.isfinite(float(row[3])) for row in rows)

    def test_check_choices_keep_their_order(self):
        assert tuple(CHECKS) == ("k-equivalence", "layer-cake", "partition", "duality", "reiteration")

    def test_unresolved_k_norm_prints_only_the_failure_line(self, capsys):
        # at r = 1e300 every term off a peak underflows on the ln 2 panels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["interp", "--check", "k-equivalence", "--r", "1e300", "--suite-size", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "failure: interpolation integral underflows at r=1e+300: the ln 2 panels miss its peak\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--check", "k-equivalence", "--p", "1"], "p must lie in (1, inf), got 1.0"),
            (["--check", "duality", "--r", "0.5"], "r must lie in [1, inf], got 0.5"),
            (["--check", "reiteration", "--q0", "0.5"], "q0 must lie in [1, inf], got 0.5"),
            (["--check", "partition", "--r", "0.5"], "r must lie in [1, inf], got 0.5"),
            (["--check", "partition", "--r", "1"],
             "need q0 < r < q1 for a proper interpolation position, got (1.0, 1.0, inf)"),
            (["--check", "partition", "--q0", "3"],
             "need q0 < r < q1 for a proper interpolation position, got (3.0, 2.0, inf)"),
            (["--check", "partition", "--q1", "1"],
             "need q0 < r < q1 for a proper interpolation position, got (1.0, 2.0, 1.0)"),
        ],
    )
    def test_bad_exponent_names_its_flag(self, flags, message, capsys):
        assert main(["interp", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["k-equivalence", "--p", "1e300"], "--p=1e+300 is too large: theta = 1 - 1/p rounds to 1"),
            (["layer-cake", "--p", "1e300"], "--p=1e+300 is too large: theta = 1 - 1/p rounds to 1"),
            (["duality", "--p", "1e300"], "--p=1e+300 is too large: its conjugate p/(p-1) rounds to 1"),
            (["reiteration", "--theta", "1e-300"],
             "--q0=1.0, --q1=inf, --theta=1e-300 compose p=1.0, outside (1, inf)"),
            (["reiteration", "--q1", "1"], "--q0=1.0, --q1=1.0, --theta=0.5 compose p=1.0, outside (1, inf)"),
            (["reiteration", "--q0", "inf"], "--q0=inf, --q1=inf, --theta=0.5 compose p=inf, outside (1, inf)"),
            (["reiteration", "--q0", "1e300"],
             "--q0=1e+300, --q1=inf, --theta=0.5 leave no bound constant: for the grid base rho=1.0, "
             "rho**theta or rho**(1-theta) rounds to 1"),
            (["reiteration", "--theta", "0.9999999999999999"],
             "--q0=1.0, --q1=inf, --theta=0.9999999999999999 leave no bound constant: for the grid base rho=2.0, "
             "rho**theta or rho**(1-theta) rounds to 1"),
            (["reiteration", "--q1", "1.0000000000000002"],
             "--q0=1.0, --q1=1.0000000000000002, --theta=0.5 leave no bound constant: for the grid base "
             "rho=1.0000000000000002, rho**theta or rho**(1-theta) rounds to 1"),
            (["partition", "--q0", "1", "--q1", "1.0009", "--r", "1.0005"],
             "--q0=1.0 and --q1=1.0009 are too close: sigma = 1/(1/q0 - 1/q1) = 1112.1111111111798 puts the "
             "rank thresholds 2**sigma or the bound constant outside the float range"),
            (["partition", "--q0", "1", "--q1", "1.0000000000000004", "--r", "1.0000000000000002"],
             "--q0=1.0 and --q1=1.0000000000000004 are too close: sigma = 1/(1/q0 - 1/q1) = 2251799813685248.0 "
             "puts the rank thresholds 2**sigma or the bound constant outside the float range"),
        ],
    )
    def test_rounded_parameter_names_its_flag_before_any_draw(self, flags, message, capsys, monkeypatch):
        # each flag is a valid float whose derived parameter rounds onto an end
        # of its range; the check is refused as the suite is built
        def no_draws(*args):
            raise AssertionError("the suite drew an instance")

        monkeypatch.setattr(interpolation, "_run_suite", no_draws)
        assert main(["interp", "--check", *flags, "--suite-size", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "check", ["k-equivalence", "layer-cake", "partition", "duality", "reiteration"]
    )
    @pytest.mark.parametrize("theta, shown", [("2", "2.0"), ("0", "0.0"), ("1", "1.0"), ("nan", "nan")])
    def test_theta_outside_unit_interval_names_its_flag(self, check, theta, shown, capsys):
        assert main(["interp", "--check", check, "--theta", theta, "--suite-size", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --theta must lie in (0, 1), got {shown}\n"

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # theta = alpha/(alpha + beta) rounds to 1, so 1/p = 1/q1 = 0
            ("--beta", "1e-300", "composed integrability 1/p=0.0 leaves (0, 1): --alpha=0.25 and --beta=1e-300 "
             "give theta=1.0 on --q0=1.0 and --q1=inf; p must be in (1, inf)"),
            # 1/q0 - 1/q1 is one ulp, so delta = 1 - (alpha + beta)/ulp
            ("--q1", "1.0000000000000002", "infeasible count exponent delta=-2251799813685247.0 from --alpha=0.25, "
             "--beta=0.25, --q0=1.0 and --q1=1.0000000000000002; need 0 <= delta < n for realizable per-scale counts"),
        ],
    )
    def test_degenerate_exponents_name_their_flags(self, flag, value, message, capsys):
        args = list(self.CANONICAL)
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--r0", "--q0", "--q1", "--r"])
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

    @pytest.mark.parametrize(
        "flags, flag",
        [(["--r0", "1e300", "--r1", "1e300"], "--r0"), (["--r1", "1e300"], "--r1"), (["--r", "1e300"], "--r")],
    )
    def test_slopes_below_the_fit_resolution_name_their_flag(self, flags, flag, capsys):
        # an expected slope 1/r of 1e-300 no fit resolves: exit 2 before any level is formed
        args = list(self.CANONICAL)
        for name, value in zip(flags[::2], flags[1::2]):
            if name in args:
                args[args.index(name) + 1] = value
            else:
                args += [name, value]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag}=1e+300 gives the expected slope 1e-300, below the 1e-14 that the sweep's slope fit "
            "resolves\n"
        )

    def test_smallest_resolvable_slope_still_runs_the_sweep(self, capsys):
        # 1/r0 = 1/r1 = 1e-14 passes the check; the composed sweep then fails its lorentz_lower fit
        args = list(self.CANONICAL)
        args[args.index("--r0") + 1] = args[args.index("--r1") + 1] = "1e14"
        assert main(args + ["--Lmax", "64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("failure: fitted slope for lorentz_lower is ")
        assert captured.err.count("\n") == 1

    def test_unresolvable_moments_name_the_flag(self, capsys):
        assert main(self.CANONICAL + ["--moments", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: moments must be at most 16, the largest order whose moments vanish in float64, got 400\n"
        )

    @pytest.mark.parametrize("moments", ["17", "150"])
    def test_moments_past_the_float64_limit_exit_2(self, moments, capsys):
        # 17 used to fail the moment check (exit 1) and 150 numpy's power cap
        assert main(self.CANONICAL + ["--moments", moments]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: moments must be at most 16, the largest order whose moments vanish in float64, got {moments}\n"
        )

    def test_unwritable_slopes_companion_names_its_path(self, tmp_path, capsys):
        companion = tmp_path / "x.slopes.json"
        companion.mkdir()
        assert main(self.CANONICAL + ["--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(companion)!r}"
        assert captured.err == f"failure: cannot write report to {str(companion)!r}: {reason}\n"

    @pytest.mark.parametrize("flags, shown", [(["--Lmax", "32"], "8 and 32"), (["--Lmin", "9", "--Lmax", "71"], "9 and 71")])
    def test_short_sweep_names_both_flags(self, flags, shown, capsys):
        # the level grid of a range narrower than a factor of 8 is too short for the slope fits
        assert main(self.CANONICAL + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need --Lmax >= 8 * --Lmin for a sweep over three octaves, got {shown}\n"

    def test_shortest_sweep_runs(self, capsys):
        assert main(self.CANONICAL + ["--Lmin", "9", "--Lmax", "72"]) == 0
        _, _, rows, _ = split_sharpness_output(capsys.readouterr().out)
        assert [int(row[0]) for row in rows] == [9, 14, 18, 28, 36, 56, 72]

    @pytest.mark.parametrize("directory", ["x.csv", "x.slopes.json"])
    def test_failed_write_leaves_no_half_pair(self, directory, tmp_path, capsys):
        (tmp_path / directory).mkdir()
        assert main(self.CANONICAL + ["--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"failure: cannot write report to {str(tmp_path / directory)!r}: ")
        # only the directory that blocked the write is left
        assert [path.name for path in tmp_path.iterdir()] == [directory]

    @pytest.mark.parametrize(
        "flags, shown",
        [(["--Lmin", "0"], "0 and 64"), (["--Lmin", "64", "--Lmax", "8"], "64 and 8"), (["--Lmax", "8"], "8 and 8")],
    )
    def test_bad_level_range_exit_2(self, flags, shown, capsys):
        assert main(self.CANONICAL + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need 1 <= --Lmin < --Lmax, got {shown}\n"

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

    @pytest.mark.parametrize(
        "smoothness, l_max", [("0.5", "1024"), ("0.5", "8192"), ("0.25", "2048"), ("0.25", "8192")]
    )
    def test_equal_exponent_sweep_stays_in_float_range(self, smoothness, l_max, capsys):
        # r = p = 2.  At alpha = beta = 1/2 the coefficients 2**(j/2) square
        # past the float range from scale 1024 on; at alpha = beta = 1/4 (the
        # canonical case) the counts 2**(j/2) do from scale 2048 on.  Counts
        # are base-2 exponents and the closed-form dual norm is summed in
        # base-2 logs, so the sweep completes with exact slopes.
        code = main(
            [
                "sharpness",
                "--alpha", smoothness, "--beta", smoothness,
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
        for key in ("besov0", "besov1", "lorentz_lower"):
            assert payload["slopes"][key] == pytest.approx(0.5, rel=0, abs=1e-12)

    def test_masses_absorbed_by_the_running_sum_are_not_bad_input(self, capsys):
        # at r0 = r1 = 1 and q1 = 3 some sorted entries of the sweep carry
        # masses below half an ulp of the running sum; their steps merge into
        # the ones above
        code = main(["sharpness", "--alpha", "0.25", "--beta", "0.25", "--q0", "1", "--q1", "3",
                     "--r0", "1", "--r1", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")

    def test_masses_past_the_float_range_keep_the_dual_norm(self, capsys):
        # r = 2 != p = 3.75: at L = 1024 the merged values reach 2**563 and the
        # first cumulative mass is 2**-778, so the plain Lorentz power sum of
        # g_L is not a normal float; its norm still grows with L
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sharpness", "--alpha", "0.3", "--beta", "0.2", "--q0", "1.5", "--q1", "inf",
                         "--r0", "2", "--r1", "2", "--moments", "3", "--Lmin", "128", "--Lmax", "1024"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        _, _, rows, payload = split_sharpness_output(captured.out)
        dual = [float(row[4]) for row in rows]
        assert dual == sorted(dual)
        assert dual[-1] == pytest.approx(40.05, rel=1e-3)
        assert payload["slopes"]["ratio"] == pytest.approx(payload["expected"]["ratio"], abs=0.005)


# strings that could fool a writer which edits encoded text: raw line breaks,
# the separator between encoded list items, brackets, quotes, backslashes and
# non-ASCII text
_TRICKY = st.sampled_from(
    ["\n", "},\n      {", "},\n    {\n      ", "{", "}", "[", "]", '"', "\\", "\u00e9", "\u2603\U0001f600"]
)
_TEXT = st.one_of(st.text(max_size=8), st.lists(st.one_of(_TRICKY, st.text(max_size=3)), max_size=4).map("".join))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.just(math.nan), st.just("inf"), _TEXT
)
_FLAT = st.dictionaries(_TEXT, _SCALARS, max_size=6)
_NESTED = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=8
)
_VALUES = st.one_of(_FLAT, st.lists(_FLAT, max_size=4), st.just({}), st.just([]), _NESTED)
_REPORTS = st.fixed_dictionaries({"header": _FLAT, "records": st.lists(_FLAT, max_size=4), "summary": _FLAT})


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_REPORTS, st.dictionaries(_TEXT, _VALUES, max_size=4), _VALUES))
    def test_equals_indented_json_dumps(self, payload):
        assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


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

    def test_scalar_cell_texts(self, capsys):
        # one cell of every scalar kind a record may hold
        cells = [True, None, 3, np.int64(3), np.float32(1.5), np.float64(0.1), math.inf, -math.inf, math.nan, "a,b"]
        columns = [f"c{i}" for i in range(len(cells))]
        emit_report([dict(zip(columns, cells))], columns, {}, fmt="csv", path=None)
        assert capsys.readouterr().out.splitlines()[2] == 'True,None,3,3,1.5,0.1,inf,-inf,nan,"a,b"'

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
