"""CLI contract: JSON on every exit path, exit codes, determinism."""

import json

import pytest

from locq import spectral
from locq.spectral import SpectralParams, Tau


def parse(output: str) -> dict:
    return json.loads(output)


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_strict(output: str) -> dict:
    """Parse output that must be strict JSON: no NaN, Infinity or -Infinity."""
    return json.loads(output, parse_constant=_reject_constant)


class TestDhVerify:
    def test_success(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c", "1"])
        payload = parse(out)
        assert code == 0
        assert payload["rel_err"] < 1e-8
        assert payload["config"]["subcommand"] == "dh-verify"
        assert len(payload["fixed_points"]) == 2

    def test_multi_factor(self, run_cli):
        code, out = run_cli(
            ["dh-verify", "--factors", "1:1,2:3,0.5:0.5", "--c", "0.1"]
        )
        assert code == 0
        assert len(parse(out)["fixed_points"]) == 8

    def test_bad_factor_syntax(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "nope", "--c", "1"])
        assert code == 2
        assert "error" in parse(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--factors", "1:1", "--c", "nan"],
            ["--factors", "1:1", "--c", "inf"],
            ["--factors", "1:1", "--c=-inf,1"],
            ["--factors=inf:1", "--c", "1"],
            ["--factors", "1:nan", "--c", "1"],
        ],
    )
    def test_non_finite_input_is_exit_two(self, run_cli, argv):
        code, out = run_cli(["dh-verify", *argv])
        assert code == 2
        assert "finite" in parse_strict(out)["error"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_result_is_exit_two(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c", "1000"])
        assert code == 2
        assert "error" in parse_strict(out)

    def test_unwritable_out_file_is_exit_two(self, run_cli, tmp_path):
        target = tmp_path / "missing-dir" / "result.json"
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c", "1", "--out", str(target)])
        assert code == 2
        assert parse_strict(out)["error"].startswith("FileNotFoundError")

    def test_config_round_trip(self, run_cli):
        code1, out1 = run_cli(["dh-verify", "--factors", "1:1,2:3", "--c", "0.5"])
        options = parse(out1)["config"]["options"]
        argv = [
            "dh-verify",
            "--factors", options["factors"],
            "--c", options["c"],
            "--quad-nodes", options["quad_nodes"],
            "--tol", options["tol"],
        ]
        code2, out2 = run_cli(argv)
        assert (code1, out1) == (code2, out2)


class TestSpectralEval:
    def test_matches_library(self, run_cli):
        code, out = run_cli(
            ["spectral-eval", "--a", "1", "--epsilon", "0", "--ell", "1",
             "--sign", "minus", "--tau", "0,1"]
        )
        payload = parse(out)
        assert code == 0
        expected = spectral.evaluate_product(
            SpectralParams(1.0, 0.0, 1, "minus", Tau(1j))
        )
        assert float(payload["value"][0]) == expected.value.real
        assert float(payload["value"][1]) == expected.value.imag
        assert payload["factors_used"] == expected.factors_used
        assert float(payload["s"][0]) == 1.0

    def test_invalid_tau(self, run_cli):
        code, out = run_cli(["spectral-eval", "--a", "1", "--tau", "0,-1"])
        assert code == 2
        assert "error" in parse(out)


class TestPfaffianCommand:
    def test_inline_matrix(self, run_cli):
        code, out = run_cli(["pfaffian", "--matrix", "[[0, 2], [-2, 0]]"])
        payload = parse(out)
        assert code == 0
        assert payload["pfaffian"] == 2.0
        assert payload["sqrt_det"] == pytest.approx(-2.0)
        assert payload["det"] == pytest.approx(4.0)

    def test_missing_input(self, run_cli):
        code, out = run_cli(["pfaffian"])
        assert code == 2
        assert "error" in parse(out)

    def test_odd_dimension(self, run_cli):
        code, out = run_cli(["pfaffian", "--matrix", "[[0]]"])
        assert code == 2


class TestQhyperCommand:
    def test_pochhammer(self, run_cli):
        code, out = run_cli(
            ["qhyper", "pochhammer", "--a", "1/2", "--q", "1/3", "--n", "-1"]
        )
        assert code == 0
        assert parse(out)["value"] == "-2/1"

    def test_saalschutz_pass(self, run_cli):
        code, out = run_cli(
            ["qhyper", "saalschutz", "--a", "2", "--b", "3", "--c", "5",
             "--n", "1", "--q", "1/2"]
        )
        payload = parse(out)
        assert code == 0
        assert payload["equal"] is True
        assert payload["lhs"] == "-3/2"

    def test_psi_terminating(self, run_cli):
        code, out = run_cli(
            ["qhyper", "psi", "--num", "2;9", "--den", "5;1/3", "--q", "1/3",
             "--z", "1/3", "--window", "8"]
        )
        payload = parse(out)
        assert code == 0
        assert payload["window"] == 8


class TestSeriesCommands:
    def test_macdonald_schema(self, run_cli):
        code, out = run_cli(["macdonald", "--betti", "1,0,1", "--order", "3"])
        payload = parse(out)
        assert code == 0
        assert payload["var"] == "q"
        assert payload["order"] == 3
        assert payload["coeffs"][2] == {"0": 1, "2": 1, "4": 1}
        assert payload["chi"] == 2

    def test_macdonald_y_bound_marker(self, run_cli):
        code, out = run_cli(
            ["macdonald", "--betti", "1,0,1", "--order", "6", "--y-bound", "4"]
        )
        payload = parse(out)
        assert payload["y_truncated"] is True
        assert payload["y_bound"] == 4

    def test_euler_series(self, run_cli):
        code, out = run_cli(["euler-series", "--chi", "1", "--order", "6"])
        payload = parse(out)
        assert payload["coeffs"] == ["1/1", "1/1", "2/1", "3/1", "5/1", "7/1", "11/1"]

    def test_twisted_sym(self, run_cli):
        code, out = run_cli(["twisted-sym", "--chi", "0", "--order", "4"])
        assert parse(out)["coeffs"] == ["2/1", "0/1", "0/1", "0/1", "0/1"]

    def test_orbifold(self, run_cli):
        code, out = run_cli(["orbifold", "--betti", "1,0,1", "--order", "2"])
        assert parse(out)["coeffs"][2] == {"0": 2, "2": 2, "4": 1}


class TestGenusCommands:
    def test_phi_series(self, run_cli):
        code, out = run_cli(["phi", "--tau", "0,1", "--x-order", "4"])
        payload = parse(out)
        assert code == 0
        assert payload["coeffs"][0] == ["0.0", "0.0"]
        assert payload["coeffs"][1] == ["1.0", "0.0"]
        assert payload["coeff_error"] >= 0

    def test_genus_cpm_point(self, run_cli):
        code, out = run_cli(
            ["genus-cpm", "--tau", "0,2", "--N", "2", "--k", "1", "--l", "0", "--m", "0"]
        )
        payload = parse(out)
        assert code == 0
        assert payload["value"] == ["1.0", "0.0"]

    def test_period_scan_pass(self, run_cli):
        code, out = run_cli(
            ["period-scan", "--tau", "0.3,1.1", "--N", "2", "--k", "1", "--l", "0"]
        )
        payload = parse(out)
        assert code == 0
        assert payload["index"] == 2
        assert [0, 0] in payload["periods"]

    def test_period_scan_non_primitive_twist(self, run_cli):
        code, out = run_cli(
            ["period-scan", "--tau", "0,1", "--N", "4", "--k", "2", "--l", "0"]
        )
        payload = parse_strict(out)
        assert code == 0
        assert payload["index"] == 2
        assert payload["level"] == 4

    def test_period_scan_failure_is_exit_one(self, run_cli):
        code, out = run_cli(
            ["period-scan", "--tau", "0.3,1.1", "--N", "2", "--k", "1", "--l", "0",
             "--tol", "1e-30"]
        )
        payload = parse(out)
        assert code == 1
        assert payload["index"] is None


class TestContract:
    def test_unknown_subcommand(self, run_cli):
        code, out = run_cli(["not-a-command"])
        assert code == 2
        assert "error" in parse(out)

    def test_unknown_flag(self, run_cli):
        code, out = run_cli(["euler-series", "--chi", "1", "--bogus", "2"])
        assert code == 2
        assert "error" in parse(out)

    def test_every_error_path_is_json(self, run_cli):
        for argv in (
            [],
            ["qhyper"],
            ["dh-verify", "--factors", "1:1", "--c", "0"],
            ["macdonald", "--betti", "1,-2"],
            ["genus-cpm", "--tau", "0,1", "--N", "2", "--k", "0", "--l", "0", "--m", "0"],
        ):
            code, out = run_cli(argv)
            assert code == 2, argv
            parse(out)

    def test_byte_identical_reruns(self, run_cli):
        argv = ["twisted-sym", "--chi", "3", "--order", "12"]
        assert run_cli(argv) == run_cli(argv)

    def test_out_file(self, run_cli, tmp_path):
        target = tmp_path / "result.json"
        code, out = run_cli(
            ["euler-series", "--chi", "2", "--order", "3", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["coeffs"][0] == "1/1"


class TestScalarParsing:
    def test_decimal_goes_numeric(self, run_cli):
        code, out = run_cli(
            ["qhyper", "psi", "--num", "0.9", "--den", "0.3", "--q", "0.2", "--z", "0.5"]
        )
        payload = parse(out)
        assert code == 0
        assert payload["converged"] is True
        assert float(payload["value"][0]) == pytest.approx(1.929760665808034, rel=1e-12)

    def test_fraction_stays_exact(self, run_cli):
        code, out = run_cli(
            ["qhyper", "pochhammer", "--a", "2", "--q", "1/3", "--n", "2"]
        )
        assert parse(out)["value"] == "-1/3"
