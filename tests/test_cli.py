"""CLI contract: JSON on every exit path, exit codes, determinism."""

import cmath
import itertools
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from locq import cli, localization, spectral, verify
from locq.spectral import SpectralParams, Tau


def parse(output: str) -> dict:
    return json.loads(output)


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_strict(output: str) -> dict:
    """Parse output that must be strict JSON: no NaN, Infinity or -Infinity."""
    return json.loads(output, parse_constant=_reject_constant)


def assert_canonical(output: str) -> None:
    """The output is one line: strict JSON with sorted keys and default separators."""
    assert output == json.dumps(json.loads(output), sort_keys=True, allow_nan=False) + "\n"


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

    def test_overflowing_result_is_exit_two(self, run_cli):
        self._assert_named_overflow(run_cli, "1000")

    @pytest.mark.parametrize("c", ["800", "-800", "1e308", "800,3"])
    def test_overflow_is_named_for_every_c(self, run_cli, c):
        self._assert_named_overflow(run_cli, c)

    @staticmethod
    def _assert_named_overflow(run_cli, c):
        # named before any work: no quadrature runs, so NumPy warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(["dh-verify", "--factors", "1:1", f"--c={c}"])
        assert code == 2
        assert parse_strict(out)["error"].startswith("ValueError: overflow: e^(c H) exceeds")
        assert caught == []

    def test_overflow_bound_is_the_largest_exponent(self, run_cli):
        # |c| * sum |mu_i r_i| = 701 fits a double; 711 does not
        code, out = run_cli(["dh-verify", "--factors", "1:350,2:-0.25", "--c", "2",
                             "--quad-nodes", "128"])
        assert code == 0
        assert parse_strict(out)["rel_err"] < 1e-8
        code, out = run_cli(["dh-verify", "--factors", "1:350,2:-2.75", "--c", "2"])
        assert code == 2
        assert "overflow" in parse_strict(out)["error"]

    @pytest.mark.parametrize("factors,c", [("1:1,2:1,1:3,2:2", "1e-9"), ("1:1", "1e-300")])
    def test_small_c_sums_keep_their_digits(self, run_cli, factors, c):
        # the alternating sum cancels ~-log10(2|c mu r|) digits per factor;
        # at 40 fixed digits these gave rel_err 8e-7 and rhs 0 (a 16-factor
        # case is in test_localization.py, where no 2^16-point JSON is printed)
        code, out = run_cli(["dh-verify", "--factors", factors, "--c", c])
        payload = parse_strict(out)
        assert code == 0
        assert payload["rel_err"] < 1e-8
        assert payload["diagnostics"]["decimal_digits"] > 40

    @pytest.mark.parametrize(
        "factors,c", [("1:1,1:1", "1e-300"), ("1:1", "1e-310"), ("1:1,1:1", "1e-300,1e-300")]
    )
    def test_prefactor_overflow_is_named(self, run_cli, factors, c):
        # before: an unnamed OverflowError, or a NaN that only the JSON encoder refused
        code, out = run_cli(["dh-verify", "--factors", factors, f"--c={c}"])
        assert code == 2
        error = parse_strict(out)["error"]
        assert error.startswith("ValueError: overflow: the prefactor (2 pi / c)^n at c = ")

    def test_precision_cap_is_exit_two(self, run_cli):
        # four factors at c = 1e-300 cancel ~1200 digits
        code, out = run_cli(["dh-verify", "--factors", "1:1,1:1,1:1,1:1", "--c", "1e-300"])
        assert code == 2
        error = parse_strict(out)["error"]
        assert error.startswith("ValueError: the fixed-point sum at c = 1e-300 cancels")
        assert "MAX_DECIMAL_DIGITS = 1000" in error

    def test_diagnostics_real_c(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1,2:3,0.5:0.5", "--c", "0.1",
                             "--quad-nodes", "48", "--tol", "1e-6"])
        payload = parse_strict(out)
        assert code == 0
        assert payload["diagnostics"] == {
            "path": "decimal",
            "decimal_digits": 40,
            "fixed_points": 8,
            "quad_nodes": 48,
            "budget_used": payload["rel_err"] / 1e-6,
        }

    def test_diagnostics_complex_c(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1,2:3", "--c", "0.3,0.7"])
        diagnostics = parse_strict(out)["diagnostics"]
        assert code == 0
        assert diagnostics["path"] == "complex"
        assert diagnostics["decimal_digits"] is None
        assert diagnostics["fixed_points"] == 4
        assert diagnostics["quad_nodes"] == 64
        assert 0 <= diagnostics["budget_used"] < 1

    def test_diagnostics_budget_overflow_is_null(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1,2:3", "--c", "0.5", "--tol=5e-324"])
        payload = parse_strict(out)
        assert code == 1
        assert payload["rel_err"] > 0
        assert payload["diagnostics"]["budget_used"] is None

    @pytest.mark.parametrize("argv", [["--c", "0.5"], ["--c", "0.3,0.7"], ["--c", "1e-9"]])
    def test_diagnostics_rerun_is_byte_identical(self, run_cli, argv):
        command = ["dh-verify", "--factors", "1:1,2:3,1.5:-0.5", *argv]
        first = run_cli(command)
        assert '"diagnostics"' in first[1]
        assert run_cli(command) == first

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


def dict_listing(space, points) -> list[dict]:
    """The fixed-point listing as dicts, for json.dumps: the encoder oracle."""
    return [{"pole_signs": p.pole_signs, "H": p.h_value, "lambdas": p.lambdas} for p in points]


def run_with_dict_listing(run_cli, argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_fixed_point_listing", dict_listing)
        return run_cli(argv)


def assert_same_text(got: str, want: str) -> None:
    """got == want, reported by the first difference: a plain assert has pytest
    diff megabyte documents on every failing example Hypothesis shrinks."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        raise AssertionError(f"differ at {at}: {got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def text_or_error(encode):
    try:
        return encode()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


# magnitudes from subnormal to near the largest double, so that rates mu / r
# and H = sum s mu r also overflow, and reprs take every exponent form
radii = st.floats(min_value=5e-324, max_value=1e300)
weights = st.floats(min_value=-1e300, max_value=1e300).filter(lambda w: w != 0)
moderate = st.one_of(st.floats(1e-12, 1e-3), st.floats(0.1, 10.0), st.floats(1e3, 1e12))
signed_moderate = st.tuples(moderate, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


class TestFixedPointListing:
    """dh-verify's listing text against json.dumps of the per-point dicts."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(moderate, signed_moderate), min_size=1, max_size=12),
        st.one_of(st.none(), st.tuples(radii, weights)),
        st.integers(0, 11),
    )
    def test_listing_matches_dict_encoder(self, pairs, extreme, at):
        if extreme is not None:
            pairs = pairs[:11]
            pairs.insert(at, extreme)
        space = localization.SphereProductSpace.of(*pairs)
        points = localization.enumerate_fixed_points(space)
        listing = text_or_error(lambda: "".join(cli._fixed_point_listing(space, points).chunks))
        oracle = text_or_error(lambda: json.dumps(dict_listing(space, points),
                                                  sort_keys=True, allow_nan=False))
        assert_same_text(listing, oracle)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(moderate, signed_moderate), min_size=1, max_size=12),
        st.floats(1e-3, 5.0),
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        st.sampled_from([1.0, -1.0]),
    )
    def test_cli_bytes_match_dict_encoder(self, run_cli, pairs, size, angle, sign):
        # |c| * sum |mu r| = size keeps e^(c H) finite; angle != 0 is complex c
        c = sign * size / sum(abs(r * mu) for r, mu in pairs) * cmath.exp(1j * angle)
        c_text = repr(c.real) if angle == 0.0 else f"{c.real!r},{c.imag!r}"
        argv = ["dh-verify", "--factors", ",".join(f"{r!r}:{mu!r}" for r, mu in pairs),
                f"--c={c_text}"]
        code, out = run_cli(argv)
        oracle_code, oracle_out = run_with_dict_listing(run_cli, argv)
        assert code == oracle_code
        assert_same_text(out, oracle_out)

    @pytest.mark.parametrize("argv", [
        ["--factors", "1:1,2:-3,0.5:0.5", "--c", "0.5"],
        ["--factors", "1:1,2:3", "--c", "0.3,0.7"],
        ["--factors", ",".join(f"{1 + 0.1 * i}:{0.5 - 0.07 * i}" for i in range(10)),
         "--c", "0.3"],
    ])
    def test_out_file_matches_dict_encoder(self, run_cli, tmp_path, argv):
        code, out = run_cli(["dh-verify", *argv, "--out", str(tmp_path / "new.json")])
        assert out == ""
        oracle = run_with_dict_listing(
            run_cli, ["dh-verify", *argv, "--out", str(tmp_path / "old.json")])
        assert (code, out) == oracle
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert (tmp_path / "new.json").read_bytes() == run_cli(["dh-verify", *argv])[1].encode()

    @pytest.mark.parametrize("factors", ["1e-320:1e10", "1:1,2:3,1e-320:-1e10"])
    def test_non_finite_rate_is_exit_two_before_any_file(self, run_cli, tmp_path, factors):
        argv = ["dh-verify", "--factors", factors, "--c", "1"]
        target = tmp_path / "result.json"
        code, out = run_cli([*argv, "--out", str(target)])
        assert (code, out) == run_cli(argv) == run_with_dict_listing(run_cli, argv)
        assert code == 2
        assert parse_strict(out)["error"] == (
            "ValueError: Out of range float values are not JSON compliant")
        assert not target.exists()

    def test_points_in_enumeration_order(self, run_cli):
        pairs = [(1.5, 0.25), (0.5, -2.0), (2.0, 3.0), (0.75, -0.5)]
        code, out = run_cli(["dh-verify", "--factors", ",".join(f"{r}:{mu}" for r, mu in pairs),
                             "--c", "0.4"])
        assert code == 0
        listing = parse_strict(out)["fixed_points"]
        points = localization.enumerate_fixed_points(localization.SphereProductSpace.of(*pairs))
        assert [p["pole_signs"] for p in listing] == [
            list(signs) for signs in itertools.product((1, -1), repeat=len(pairs))]
        assert [(p["H"], p["lambdas"]) for p in listing] == [
            (p.h_value, list(p.lambdas)) for p in points]


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

    PSI = ["qhyper", "psi", "--den", "0.3", "--q", "0.2", "--z", "0.5"]

    def test_psi_large_window_has_no_spurious_overflow(self, run_cli):
        # convergent 1psi1; q^-600 overflows a double, q^600 does not
        code, out = run_cli([*self.PSI, "--num", "0.9", "--window", "600"])
        wide = parse_strict(out)
        assert code == 0
        assert wide["notes"] == []
        assert wide["lower_tail"] > 0
        code, out = run_cli([*self.PSI, "--num", "0.9"])
        auto = parse_strict(out)
        assert code == 0 and auto["converged"] is True
        assert abs(float(wide["value"][0]) - float(auto["value"][0])) < 1e-12

    def test_psi_term_overflow_is_noted(self, run_cli):
        # two numerator parameters: the upper terms grow like q^(-n^2/2)
        code, out = run_cli([*self.PSI, "--num", "0.9;0.5", "--window", "600"])
        payload = parse_strict(out)
        assert code == 0
        assert payload["notes"] == ["term overflow; series non-convergent here"]
        assert payload["terminated"] == [False, False]

    def test_psi_window_cap_is_exit_two(self, run_cli):
        code, out = run_cli([*self.PSI, "--num", "0.9", "--window", "4097"])
        assert code == 2
        assert parse_strict(out)["error"] == "ValueError: window must be at most 4096, got 4097"

    def test_exact_infinite_pochhammer_is_numeric(self, run_cli):
        # a truncated infinite product is only good to --tol, so exact
        # inputs are multiplied in floats like any others
        code, out = run_cli(["qhyper", "pochhammer", "--a", "1/2", "--q", "29/30", "--infinite"])
        assert code == 0
        re, im = parse_strict(out)["value"]
        direct = 1.0
        for k in range(5000):
            direct *= 1 - 0.5 * (29 / 30) ** k
        assert abs(complex(float(re), float(im)) - direct) < 1e-10

    def test_pochhammer_zero_base_is_exit_two(self, run_cli):
        code, out = run_cli(["qhyper", "pochhammer", "--a", "1", "--q", "0", "--n", "-2"])
        assert code == 2
        error = parse_strict(out)["error"]
        assert error.startswith("DegenerateParametersError") and "q = 0" in error


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["macdonald", "--betti", "1,0,1", "--order", "-3"],
            ["orbifold", "--betti", "1,0,1", "--order", "-2"],
            ["euler-series", "--chi", "1", "--order", "-1"],
            ["twisted-sym", "--chi", "1", "--order", "-1"],
            ["phi", "--tau", "0,1", "--x-order", "-1"],
        ],
    )
    def test_negative_order_is_exit_two(self, run_cli, argv):
        code, out = run_cli(argv)
        assert code == 2
        assert parse_strict(out)["error"] == "ValueError: order must be nonnegative"

    @pytest.mark.parametrize(
        "argv",
        [
            ["macdonald", "--betti", "1,0,1", "--order", "10001"],
            ["orbifold", "--betti", "1,0,1", "--order", "10001"],
            ["euler-series", "--chi", "1", "--order", "10001"],
            ["twisted-sym", "--chi", "1", "--order", "10001"],
            ["phi", "--tau", "0,1", "--x-order", "10001"],
            ["genus-cpm", "--tau", "0,2", "--N", "2", "--k", "1", "--l", "0", "--m", "10000"],
        ],
    )
    def test_order_above_cap_is_exit_two(self, run_cli, argv):
        # the cap is checked first, so these orders allocate nothing
        code, out = run_cli(argv)
        assert code == 2
        assert parse_strict(out)["error"] == "ValueError: order must be at most 10000"

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["macdonald", "--betti", "1001"], "Betti numbers must be at most 1000"),
            (["orbifold", "--betti", "1,1001"], "Betti numbers must be at most 1000"),
            (["dh-verify", "--factors", "1:1", "--c", "0.5", "--quad-nodes", "1025"],
             "quad_points must be at most 1024"),
            (["dh-verify", "--factors", ",".join(["1:1"] * 17), "--c", "0.5"],
             "at most 16 sphere factors (2^16 fixed points), got 17"),
            (["qhyper", "saalschutz", "--a", "2", "--b", "3", "--c", "5", "--n", "4095",
              "--q", "1/2"], "n must be at most 4094, got 4095"),
            (["qhyper", "pochhammer", "--a", "1/2", "--q", "1/3", "--n", "4097"],
             "|n| must be at most 4096, got 4097"),
            (["qhyper", "pochhammer", "--a", "1/2", "--q", "1/3", "--n", "-4097"],
             "|n| must be at most 4096, got -4097"),
            (["period-scan", "--tau", "0.3,1.1", "--N", "3", "--k", "1", "--l", "2",
              "--trial-bound", "65"], "trial_bound must be at most 64, got 65"),
            (["period-scan", "--tau", "0.3,1.1", "--N", "65", "--k", "1", "--l", "0"],
             "trial_bound must be at most 64, got 65"),
            (["euler-series", "--chi", "1000001"], "|chi| must be at most 1000, got 1000001"),
            (["twisted-sym", "--chi=-1001"], "|chi| must be at most 1000, got -1001"),
        ],
    )
    def test_input_above_cap_is_exit_two(self, run_cli, argv, error):
        # every cap is checked before the work it bounds
        code, out = run_cli(argv)
        assert code == 2
        assert parse_strict(out)["error"] == f"ValueError: {error}"

    @pytest.mark.parametrize("subcommand", ["macdonald", "orbifold"])
    def test_negative_y_bound_is_exit_two(self, run_cli, subcommand):
        code, out = run_cli([subcommand, "--betti", "1,0,1", "--order", "3", "--y-bound", "-1"])
        assert code == 2
        assert parse_strict(out)["error"] == "ValueError: y_bound must be nonnegative"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["spectral-eval", "--a", "1", "--tau", "0,1"], "--tol"),
            (["dh-verify", "--factors", "1:1", "--c", "1"], "--tol"),
            (["qhyper", "pochhammer", "--a", "0.5", "--q", "0.3", "--infinite"], "--tol"),
            (["qhyper", "psi", "--num", "0.9", "--den", "0.3", "--q", "0.2", "--z", "0.5"],
             "--tol"),
            (["phi", "--tau", "0,1"], "--q-tol"),
            (["genus-cpm", "--tau", "0,2", "--N", "2", "--k", "1", "--l", "0", "--m", "3"],
             "--q-tol"),
            (["period-scan", "--tau", "0.3,1.1", "--N", "2", "--k", "1", "--l", "0"], "--tol"),
            (["period-scan", "--tau", "0.3,1.1", "--N", "2", "--k", "1", "--l", "0"],
             "--q-tol"),
        ],
    )
    def test_bad_tolerance_is_exit_two(self, run_cli, argv, flag, value):
        # checked before any work: nan used to pass every comparison silently
        code, out = run_cli([*argv, f"{flag}={value}"])
        assert code == 2
        assert "must be positive and finite, got" in parse_strict(out)["error"]

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["qhyper", "pochhammer", "--a", "nan", "--q", "0.5", "--infinite"], "nan"),
            (["qhyper", "pochhammer", "--a", "inf", "--q", "0.5", "--infinite"], "inf"),
            (["spectral-eval", "--a", "1", "--epsilon", "nan", "--tau", "0,1"], "nan"),
        ],
    )
    def test_non_finite_product_scale_is_exit_two(self, run_cli, monkeypatch, argv, value):
        # named before the factor loop: one allowed factor would not be enough
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "1")
        code, out = run_cli(argv)
        assert code == 2
        assert parse_strict(out)["error"] == (
            f"ValueError: a geometric tail needs a finite scale, got {value}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["phi", "--tau", "0,1"],
            ["spectral-eval", "--a", "1", "--tau", "0,1"],
            ["qhyper", "pochhammer", "--a", "0.5", "--q", "0.5", "--infinite"],
        ],
    )
    def test_invalid_factor_cap_is_exit_two(self, run_cli, monkeypatch, argv):
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "1e3")
        code, out = run_cli(argv)
        assert code == 2
        assert "LOCQ_MAX_FACTORS must be a positive integer" in parse_strict(out)["error"]

    def test_factor_cap_exceeded_is_exit_two(self, run_cli, monkeypatch):
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "5")
        code, out = run_cli(["phi", "--tau", "0,0.1"])
        assert code == 2
        assert parse_strict(out)["error"].startswith("ToleranceUnreachableError")

    def test_byte_identical_reruns(self, run_cli):
        argv = ["twisted-sym", "--chi", "3", "--order", "12"]
        assert run_cli(argv) == run_cli(argv)

    def test_verify_all_byte_identical_reruns(self, run_cli, monkeypatch):
        # a few fast suites keep this cheap; all suites share one JSON form
        suites = (verify.suite_pfaffian, verify.suite_qidentities, verify.suite_genus)
        monkeypatch.setattr(verify, "ALL_SUITES", suites)
        first = run_cli(["verify-all"])
        assert first[0] == 0
        assert len(parse_strict(first[1])["suites"]) == 3
        assert run_cli(["verify-all"]) == first

    def test_error_output_is_one_canonical_line(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c", "0"])
        assert code == 2
        assert_canonical(out)

    def test_large_fixed_point_listing(self, run_cli):
        factors = ",".join(f"{1 + 0.1 * i}:{0.5 + 0.07 * i}" for i in range(12))
        code, out = run_cli(["dh-verify", "--factors", factors, "--c", "0.3"])
        assert code == 0
        assert_canonical(out)
        points = parse_strict(out)["fixed_points"]
        assert len(points) == 4096
        for p in points:
            assert isinstance(p["pole_signs"], list) and len(p["pole_signs"]) == 12
            assert isinstance(p["lambdas"], list) and len(p["lambdas"]) == 12

    def test_out_file(self, run_cli, tmp_path):
        argv = ["euler-series", "--chi", "2", "--order", "3"]
        target = tmp_path / "result.json"
        code, out = run_cli([*argv, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["coeffs"][0] == "1/1"
        # the file holds exactly the bytes stdout would
        assert target.read_bytes() == run_cli(argv)[1].encode("utf-8")


def test_repeated_calls_match_fresh_processes(run_cli, tmp_path, monkeypatch):
    """One process: a usage error, a success, a handler error, then --out.

    Each document equals, byte for byte, that of a fresh `python -m locq`
    with the same argv, and the parser is built once for all four calls.
    """
    cli.build_parser.cache_clear()
    monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    cases = [
        (["nope"], 2),
        (["period-scan", "--tau", "0.3,1.1", "--N", "3", "--k", "1", "--l", "2"], 0),
        (["dh-verify", "--factors", "1:1", "--c", "0"], 2),
        (["euler-series", "--chi", "2", "--order", "3", "--out", "OUT"], 0),
    ]
    for argv, status in cases:
        in_process = [str(tmp_path / "in.json") if a == "OUT" else a for a in argv]
        fresh = [str(tmp_path / "fresh.json") if a == "OUT" else a for a in argv]
        code, out = run_cli(in_process)
        proc = subprocess.run([sys.executable, "-m", "locq", *fresh], env=env,
                              capture_output=True, check=False)
        assert (code, proc.returncode) == (status, status), argv
        assert out.encode("utf-8") == proc.stdout, argv
        if "OUT" in argv:
            assert out == ""
            assert (tmp_path / "in.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        else:
            assert_canonical(out)
    assert cli.build_parser.cache_info().misses == 1


def readme_examples() -> list[list[str]]:
    """argv of every `locq ...` line of the README, verify-all excepted."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line, comments=True)[1:]
             for line in text.splitlines() if line.startswith("locq ")]
    return [argv for argv in lines if argv != ["verify-all"]]


def test_readme_examples_found():
    assert len(readme_examples()) >= 10


# verify-all is covered by acceptance criterion 10
@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_runs(run_cli, argv):
    code, out = run_cli(argv)
    assert code == 0
    assert parse_strict(out)["config"]["subcommand"] == argv[0]
    assert_canonical(out)


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
