"""CLI contract: JSON on every exit path, exit codes, determinism."""

import cmath
import hashlib
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import point_sums
from locq import cli, genus, localization, pfaffian, spectral, verify
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
        assert parse_strict(out)["error"].startswith("ValueError: overflow: e^(c mu r) exceeds")
        assert caught == []

    def test_overflow_bound_is_the_largest_exponent(self, run_cli):
        # |c| * max |mu_i r_i| = 700 fits a double, though the sum, 711, does
        # not; 710 does not
        code, out = run_cli(["dh-verify", "--factors", "1:350,2:-2.75", "--c", "2"])
        assert code == 0
        assert parse_strict(out)["rel_err"] < 1e-8
        code, out = run_cli(["dh-verify", "--factors", "1:355,2:-0.25", "--c", "2"])
        assert code == 2
        assert parse_strict(out)["error"] == (
            "ValueError: overflow: e^(c mu r) exceeds the largest double, since |Re c| * "
            f"max |mu_i r_i| = 710.0 > log(sys.float_info.max) = {localization.LOG_FLOAT_MAX!r}")

    @pytest.mark.parametrize("pairs", [
        ((1e-150, 1e-180),),  # mu r = 1e-330 underflows: before, "cancels inf digits"
        ((1e-150, 4e152), (1e-150, 4e152)),  # sum |mu r| = 800: before, the e^(c H) overflow
    ])
    def test_formerly_refused_answers(self, run_cli, pairs):
        factors = ",".join(f"{r!r}:{mu!r}" for r, mu in pairs)
        code, out = run_cli(["dh-verify", "--factors", factors, "--c", "1"])
        with mpmath.workdps(50):
            closed = float(mpmath.fprod(4 * mpmath.pi * r * mpmath.sinh(mpmath.mpf(mu) * r) / mu
                                        for r, mu in pairs))
        payload = parse_strict(out)
        assert code == 0
        assert abs(payload["rhs"] - closed) <= 1e-15 * closed
        assert payload["rel_err"] < 1e-8

    @pytest.mark.parametrize("factors,c", [("1:1,2:1,1:3,2:2", "1e-9"), ("1:1", "1e-300")])
    def test_small_c_sums_keep_their_digits(self, run_cli, factors, c):
        # the alternating sum cancels ~-log10(2|c mu r|) digits per factor;
        # at 40 fixed digits these gave rel_err 8e-7 and rhs 0 (a 16-factor
        # case is in test_localization.py, where no 2^16-point JSON is printed).
        # The product of the pole pairs cancels nothing.
        code, out = run_cli(["dh-verify", "--factors", factors, "--c", c])
        payload = parse_strict(out)
        assert code == 0
        assert payload["rel_err"] < 1e-8
        assert payload["diagnostics"]["rhs_bound"] < 1e-14

    @pytest.mark.parametrize("n,c", [(2, "1e-300"), (1, "1e-310")])
    def test_rhs_fits_where_its_prefactor_does_not(self, run_cli, n, c):
        # before, exit 2: "overflow: the prefactor (2 pi / c)^n at c = ...",
        # a power that each factor's half-terms now carry a share of
        code, out = run_cli(["dh-verify", "--factors", ",".join(["1:1"] * n), f"--c={c}"])
        with mpmath.workdps(50):
            x = mpmath.mpf(float(c))
            closed = float((4 * mpmath.pi * mpmath.sinh(x) / x) ** n)
        assert code == 0
        assert abs(parse_strict(out)["rhs"] - closed) <= 2e-16 * closed

    @staticmethod
    def _assert_the_point_sum(out, factors, c):
        # rhs is the 2^n-term fixed-point sum, in mpmath, within its bound
        payload = parse_strict(out)
        rhs = payload["rhs"]
        rhs = complex(*map(float, rhs)) if isinstance(rhs, list) else rhs
        space = cli.parse_factors(factors)
        assert point_sums.within(rhs, point_sums.point_sum(space, c),
                                 payload["diagnostics"]["rhs_bound"])
        return payload

    def test_tiny_complex_c_is_answered(self, run_cli):
        # the terms cancel 599.7 digits: a sum in doubles refused it, and
        # before that it was nan, for its prefactor (2 pi / c)^2
        code, out = run_cli(["dh-verify", "--factors", "1:1,1:1", "--c=1e-300,1e-300"])
        assert code == 0
        payload = self._assert_the_point_sum(out, "1:1,1:1", complex(1e-300, 1e-300))
        assert payload["rel_err"] < 1e-14

    def test_complex_cancellation_is_answered(self, run_cli):
        # these 12 factors at c = 0.01i cancel 22.7 digits of a double's ~16:
        # as a sum in doubles, rel_err 0.9998 and exit 1, then a refusal
        factors = ",".join(f"{1 + 0.1 * i}:{0.5 + 0.07 * i}" for i in range(12))
        code, out = run_cli(["dh-verify", "--factors", factors, "--c", "0,0.01"])
        assert code == 0
        payload = self._assert_the_point_sum(out, factors, 0.01j)
        assert payload["rel_err"] < 1e-12
        assert 0 < payload["diagnostics"]["rhs_bound"] < 1e-13

    @pytest.mark.parametrize("factors,c,product", [
        ("1e10:1e100", "0,1e200", "1e+200 * 1e+100 * 10000000000.0"),
        ("1e10:1e10", "0,1e300", "1e+300 * 10000000000.0 * 10000000000.0"),
    ])
    def test_overflowing_phase_is_named(self, run_cli, factors, c, product):
        # before: "ValueError: math domain error" from cmath.exp, and "cancels
        # inf digits" for x = nan + inf j
        code, out = run_cli(["dh-verify", "--factors", factors, f"--c={c}"])
        assert code == 2
        assert parse_strict(out)["error"] == (
            f"ValueError: overflow: Im(c mu r) = {product} is not a finite double, got inf")

    def test_non_finite_result_is_named(self, run_cli):
        # the Liouville volume (4 pi r^2)^2 = 1.6e802: before, "Out of range
        # float values are not JSON compliant"
        code, out = run_cli(["dh-verify", "--factors", "1e200:1e-200,1e200:1e-200",
                             "--c", "1e-3"])
        assert code == 2
        assert parse_strict(out)["error"] == ("ValueError: overflow: the Liouville integral's "
                                              "modulus at c = 0.001 is not a finite double, got inf")

    def test_liouville_integral_past_r_squared(self, run_cli):
        # r^2 = 1e400 overflows a double, but the Liouville integral is
        # 2.18e202: before, exit 2 and "overflow: the Liouville integral"
        pairs = ((1e200, 1e-200), (1e-100, 1e100))
        code, out = run_cli(["dh-verify", "--factors", "1e200:1e-200,1e-100:1e100", "--c", "1"])
        with mpmath.workdps(50):
            closed = mpmath.fprod(4 * mpmath.pi * mpmath.mpf(r) * mpmath.sinh(mpmath.mpf(mu) * r)
                                  / mu for r, mu in pairs)
        payload = parse_strict(out)
        assert code == 0
        assert abs(payload["lhs"] - closed) <= 1e-14 * closed
        assert abs(payload["rhs"] - closed) <= 1e-15 * closed
        assert payload["rel_err"] < 1e-10

    @pytest.mark.parametrize("c,nodes", [("0,100", 128), ("0,1000", 1024)])
    def test_oscillatory_integrand_is_sized(self, run_cli, c, nodes):
        # at 64 nodes these gave rel_err 1.7e-5 and 159: true identities
        # reported as failed
        code, out = run_cli(["dh-verify", "--factors", "1:1", f"--c={c}"])
        payload = parse_strict(out)
        assert code == 0
        assert payload["rel_err"] < 1e-10
        assert payload["diagnostics"]["quad_nodes"] == [nodes]

    def test_node_cap_is_named(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c=0,3000"])
        assert code == 2
        assert parse_strict(out)["error"] == (
            "ValueError: the Gauss-Legendre quadrature of the factor (r, mu) = (1.0, 1.0) "
            "at c = 3000j needs more than MAX_QUAD_POINTS = 1024 nodes")

    @pytest.mark.parametrize("c,loss", [("0,3.141592653589", "13.2"), ("0,3.14159265", "9.6")])
    def test_rounding_near_a_zero_of_sinh_is_named(self, run_cli, c, loss):
        # the integral is far below the quadrature's terms there, so its
        # rounding would report an identity that holds as failed
        code, out = run_cli(["dh-verify", "--factors", "1:1", f"--c={c}"])
        assert code == 2
        assert parse_strict(out)["error"] == (
            "ValueError: the Gauss-Legendre quadrature of the factor (r, mu) = (1.0, 1.0) "
            f"at c = {c[2:]}j loses {loss} digits to rounding, more than MAX_QUAD_LOSS = 7")

    def test_rounding_below_the_cap_is_checked(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c=0,3.14159"])
        assert code == 0
        assert parse_strict(out)["rel_err"] < 1e-9

    def test_quad_nodes_is_no_option(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c", "0.5", "--quad-nodes", "64"])
        assert code == 2
        assert parse_strict(out)["error"] == "unrecognized arguments: --quad-nodes 64"

    def test_former_precision_cap_is_answered(self, run_cli):
        # four factors at c = 1e-300 cancel ~1200 digits, past the 1,000 that
        # a Decimal sum was capped at
        code, out = run_cli(["dh-verify", "--factors", "1:1,1:1,1:1,1:1", "--c", "1e-300"])
        assert code == 0
        payload = self._assert_the_point_sum(out, "1:1,1:1,1:1,1:1", 1e-300)
        assert payload["rel_err"] < 1e-14

    def test_diagnostics_real_c(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1,2:3,0.5:0.5", "--c", "0.1",
                             "--tol", "1e-6"])
        payload = parse_strict(out)
        assert code == 0
        space = localization.SphereProductSpace.of((1, 1), (2, 3), (0.5, 0.5))
        assert payload["diagnostics"] == {
            "fixed_points": 8,
            "quad_nodes": [8, 8, 8],
            "rhs_bound": localization.dh_verify(space, 0.1).rhs_bound,
            "budget_used": payload["rel_err"] / 1e-6,
        }
        # 3 pairs of 11 roundings and 2 multiplies, in units of 2^-53
        assert payload["diagnostics"]["rhs_bound"] == pytest.approx(35 * 2.0**-53, rel=1e-6)

    def test_diagnostics_complex_c(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1,2:3", "--c", "0.3,0.7"])
        diagnostics = parse_strict(out)["diagnostics"]
        assert code == 0
        assert set(diagnostics) == {"fixed_points", "quad_nodes", "rhs_bound", "budget_used"}
        # 2 pairs of 24 roundings and a complex multiply of 3
        assert diagnostics["rhs_bound"] == pytest.approx(51 * 2.0**-53, rel=1e-6)
        assert diagnostics["fixed_points"] == 4
        assert diagnostics["quad_nodes"] == [8, 16]
        assert 0 <= diagnostics["budget_used"] < 1

    def test_diagnostics_budget_overflow_is_null(self, run_cli):
        # rel_err 7e-15: the ratio to 5e-324 overflows
        code, out = run_cli(["dh-verify", "--factors", "1:1,2:3", "--c", "2", "--tol=5e-324"])
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
            "--tol", options["tol"],
        ]
        code2, out2 = run_cli(argv)
        assert (code1, out1) == (code2, out2)


def dict_listing(space, h_values) -> list[dict]:
    """The fixed-point listing as dicts, for json.dumps: the encoder oracle.

    Point p has the p-th H, and its signs and lambdas are the p-th
    itertools.product entries of the signs and of the factors' rate pairs.
    """
    signs = itertools.product((1, -1), repeat=space.half_dim)
    lambdas = itertools.product(*((f.rate, -f.rate) for f in space.factors))
    return [{"pole_signs": s, "H": h, "lambdas": lams}
            for s, h, lams in zip(signs, h_values, lambdas)]


def plain_h_values(space) -> list[float]:
    """H at each pole combination, added up left to right from int 0 (sum()
    of floats is compensated from Python 3.12 on)."""
    out = []
    for signs in itertools.product((1, -1), repeat=space.half_dim):
        h = 0
        for s, f in zip(signs, space.factors):
            h = h + s * (f.weight * f.radius)
        out.append(h)
    return out


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


# magnitudes from subnormal to near the largest double, so that H = sum s mu r
# also overflows, and reprs take every exponent form; a SphereFactor refuses
# an infinite rate mu / r
radii = st.floats(min_value=5e-324, max_value=1e300)
weights = st.floats(min_value=-1e300, max_value=1e300).filter(lambda w: w != 0)
extremes = st.tuples(radii, weights).filter(lambda p: math.isfinite(p[1] / p[0]))
moderate = st.one_of(st.floats(1e-12, 1e-3), st.floats(0.1, 10.0), st.floats(1e3, 1e12))
signed_moderate = st.tuples(moderate, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


class TestFixedPointListing:
    """dh-verify's listing text against json.dumps of the per-point dicts."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(moderate, signed_moderate), min_size=1, max_size=12),
        st.one_of(st.none(), extremes),
        st.integers(0, 11),
    )
    def test_listing_matches_dict_encoder(self, pairs, extreme, at):
        if extreme is not None:
            pairs = pairs[:11]
            pairs.insert(at, extreme)
        space = localization.SphereProductSpace.of(*pairs)
        try:
            h_values = localization.enumerate_fixed_points(space)
        except ValueError as exc:
            # refused by name exactly where the encoder refuses the plain sums
            assert str(exc).startswith("overflow: H = ")
            with pytest.raises(ValueError, match="Out of range float values"):
                json.dumps(dict_listing(space, plain_h_values(space)), allow_nan=False)
            return
        listing = "".join(cli._fixed_point_listing(space, h_values).chunks)
        oracle = json.dumps(dict_listing(space, h_values), sort_keys=True, allow_nan=False)
        assert_same_text(listing, oracle)

    @pytest.mark.parametrize("kind", ["cancelling", "subnormal", "huge"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_listing_of_n_factors_matches_dict_encoder(self, n, kind):
        # an even number of factors of mu r = +-0.5 cancel to H = 0.0, whose
        # complements are 0.0 too, not -0.0; a subnormal mu r (1e-320) and a
        # huge one (1e300) give H reprs in exponent form; from 10 factors on
        # the listing takes more than one block
        pairs = [(1.0, 0.5), (2.0, 0.25), (0.5, -1.0), (4.0, -0.125)] * 3
        pairs = pairs[:n]
        if kind != "cancelling":
            pairs[n // 2] = (1e-160, 1e-160) if kind == "subnormal" else (1e150, 1e150)
        space = localization.SphereProductSpace.of(*pairs)
        h_values = localization.enumerate_fixed_points(space)
        if kind == "cancelling" and n % 2 == 0:
            assert 0.0 in h_values
        chunks = list(cli._fixed_point_listing(space, h_values).chunks)
        oracle = json.dumps(dict_listing(space, h_values), sort_keys=True, allow_nan=False)
        assert_same_text("".join(chunks), oracle)
        assert max(chunk.count('"H"') for chunk in chunks) == min(2 ** n, 512)

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
        # before: "Out of range float values are not JSON compliant"
        weight = factors.rsplit(":", 1)[1].replace("1e10", "10000000000.0")
        assert parse_strict(out)["error"] == (
            f"ValueError: overflow: the rate mu / r = {weight} / 1e-320 is not a finite double, "
            f"got {'-' if weight.startswith('-') else ''}inf")
        assert not target.exists()

    def test_points_in_enumeration_order(self, run_cli):
        pairs = [(1.5, 0.25), (0.5, -2.0), (2.0, 3.0), (0.75, -0.5)]
        code, out = run_cli(["dh-verify", "--factors", ",".join(f"{r}:{mu}" for r, mu in pairs),
                             "--c", "0.4"])
        assert code == 0
        listing = parse_strict(out)["fixed_points"]
        space = localization.SphereProductSpace.of(*pairs)
        assert [p["pole_signs"] for p in listing] == [
            list(signs) for signs in itertools.product((1, -1), repeat=len(pairs))]
        rates = itertools.product(*((mu / r, -mu / r) for r, mu in pairs))
        assert [(p["H"], p["lambdas"]) for p in listing] == [
            (h, list(lams)) for h, lams in zip(plain_h_values(space), rates)]

    def test_h_overflow_is_named_before_any_file(self, run_cli, tmp_path):
        # lhs and rhs are finite; H(+, +) = 2e308 is not.  Before: exit 2 with
        # the encoder's "Out of range float values are not JSON compliant"
        target = tmp_path / "result.json"
        code, out = run_cli(["dh-verify", "--factors", "1:1e308,1:1e308", "--c", "1e-306",
                             "--out", str(target)])
        assert code == 2
        assert parse_strict(out)["error"] == (
            "ValueError: overflow: H = sum_i |mu_i r_i| at the fixed point s_i = sign mu_i "
            "is not a finite double, got inf")
        assert not target.exists()


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

    def test_factor_cap_refused_by_name(self, run_cli, monkeypatch):
        # |q| = e^(-2 pi 1e-7) needs about 4.6e7 factors; the count walked
        # 10^6 of them, about 0.2 s, before this refusal, and now evaluates
        # its tail twice (test_spectral.py::test_factor_count_takes_a_few_powers)
        monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
        code, out = run_cli(["spectral-eval", "--a", "1", "--tau", "0,1e-7"])
        assert code == 2
        assert parse_strict(out)["error"] == ("ToleranceUnreachableError: needed more than "
                                              "1000000 factors for a tail below 5e-13")

    def test_invalid_tau(self, run_cli):
        code, out = run_cli(["spectral-eval", "--a", "1", "--tau", "0,-1"])
        assert code == 2
        assert "error" in parse(out)


def fresh_env() -> dict:
    """The environment of a fresh `python -m locq` that imports this locq."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def run_fresh(argv) -> str:
    """Run the CLI in a fresh process that must exit 2 with one strict JSON
    line and nothing on stderr; returns the error it names."""
    proc = subprocess.run([sys.executable, "-m", "locq", *argv], env=fresh_env(),
                          capture_output=True, check=False)
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert proc.stdout.count(b"\n") == 1
    return parse_strict(proc.stdout)["error"]


class TestPfaffianCommand:
    def test_inline_matrix(self, run_cli):
        code, out = run_cli(["pfaffian", "--matrix", "[[0, 2], [-2, 0]]"])
        payload = parse(out)
        assert code == 0
        assert payload["pfaffian"] == 2.0
        assert payload["sqrt_det"] == pytest.approx(-2.0)
        assert payload["det"] == pytest.approx(4.0)

    def test_one_canonical_form_per_request(self, run_cli, monkeypatch):
        # sqrt_det is read off the form that gives the lambdas
        canonicalize, calls = pfaffian.canonicalize, []

        def counted(a):
            calls.append(a)
            return canonicalize(a)

        monkeypatch.setattr(pfaffian, "canonicalize", counted)
        matrix = "[[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]"
        code, out = run_cli(["pfaffian", "--matrix", matrix])
        payload = parse(out)
        assert code == 0
        assert len(calls) == 1
        assert payload["sqrt_det"] == math.prod(payload["lambdas"])

    def test_missing_input(self, run_cli):
        code, out = run_cli(["pfaffian"])
        assert code == 2
        assert "error" in parse(out)

    def test_odd_dimension(self, run_cli):
        code, out = run_cli(["pfaffian", "--matrix", "[[0]]"])
        assert code == 2

    @pytest.mark.parametrize("dim,index,value", [(2, (0, 1), math.inf), (10, (3, 7), math.nan)])
    def test_non_finite_entry_is_named_with_empty_stderr(self, tmp_path, dim, index, value):
        # one matrix per Pfaffian path; a NaN or inf that reaches NumPy prints
        # RuntimeWarnings and fails later with an error that names no entry
        matrix = [[float(j - i) for j in range(dim)] for i in range(dim)]
        row, col = index
        matrix[row][col], matrix[col][row] = value, -value
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix), encoding="utf-8")
        assert run_fresh(["pfaffian", "--matrix-file", str(path)]) == (
            f"ValueError: matrix entries must be finite, got {value!r} "
            f"at (row, col) = ({row}, {col})")

    @pytest.mark.parametrize("dim,scale,named", [
        (4, 1e80, "determinant is not a finite double, got inf"),
        (8, 1e200, "Pfaffian is not a finite double, got nan"),
        (10, 1e200, "Pfaffian is not a finite double, got -inf"),
        (10, 1e80, "Pfaffian is not a finite double, got -inf"),
    ])
    def test_overflow_is_named_with_empty_stderr(self, dim, scale, named):
        # before: NumPy's overflow RuntimeWarnings on stderr, then the JSON
        # encoder's "Out of range float values are not JSON compliant".  At
        # dim 10 the reduction's norms (math.hypot) do not overflow, so the
        # Pfaffian overflows with its sign, as at 1e80
        import numpy as np

        raw = np.random.default_rng(1).normal(size=(dim, dim))
        text = json.dumps(((raw - raw.T) * scale).tolist())
        assert run_fresh(["pfaffian", "--matrix", text]) == f"ValueError: overflow: {named}"

    def test_huge_finite_entries_are_named_with_empty_stderr(self):
        # before: (A - A^T) / 2 overflowed, and canonicalize failed with
        # "LinAlgError: Eigenvalues did not converge"
        text = "[[0, 1.7e308, 1e308, 0], [-1.7e308, 0, 0, 0], [-1e308, 0, 0, 1], [0, 0, -1, 0]]"
        assert run_fresh(["pfaffian", "--matrix", text]) == (
            "ValueError: overflow: rotation rate is not a finite double, got inf")

    @pytest.mark.parametrize("text,named", [
        ('[["0", "2"], ["-2", "0"]]', "got JSON string ('str') at (row, col) = (0, 0)"),
        ("[[false, true], [-1, false]]", "got JSON boolean ('bool') at (row, col) = (0, 0)"),
        ("[[null, 1], [-1, 0]]", "got JSON null ('NoneType') at (row, col) = (0, 0)"),
        ('[[0, 2], [-2, "0"]]', "got JSON string ('str') at (row, col) = (1, 1)"),
        ("[[0, 1], 5]", "row 1 is JSON number ('int'), not an array"),
    ])
    def test_only_json_numbers_are_entries(self, tmp_path, text, named):
        # before: NumPy read "2" as 2.0, true as 1.0 and null as nan, and exited 0
        path = tmp_path / "matrix.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["--matrix", text], ["--matrix-file", str(path)]):
            assert run_fresh(["pfaffian", *argv]) == (
                f"ValueError: matrix entries must be real numbers: {named}")

    @pytest.mark.parametrize("text,named", [
        ("[[0, 1], [-1]]", "got 1 entries in row 1 of 2 rows"),
        ("[[0, 1, 2], [-1, 0, 3]]", "got 3 entries in row 0 of 2 rows"),
    ])
    def test_ragged_rows_are_named_with_empty_stderr(self, text, named):
        # before: NumPy's "inhomogeneous shape" error, which names no row
        assert run_fresh(["pfaffian", "--matrix", text]) == (
            f"ValueError: square matrix required, {named}")

    @pytest.mark.parametrize("text", ["{}", '{"rows": [[0, 1], [-1, 0]]}', "[[0, {}], [{}, 0]]"])
    def test_non_numeric_matrix_is_named_with_empty_stderr(self, tmp_path, text):
        # before: a TypeError traceback from NumPy's float conversion, exit 1
        path = tmp_path / "matrix.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["--matrix", text], ["--matrix-file", str(path)]):
            error = run_fresh(["pfaffian", *argv])
            assert error.startswith("ValueError: matrix entries must be real numbers: ")
            assert "'dict'" in error


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
        assert wide["notes"] == [] and wide["converged"] is True
        assert wide["lower_tail"] > 0
        code, out = run_cli([*self.PSI, "--num", "0.9"])
        auto = parse_strict(out)
        assert code == 0 and auto["converged"] is True
        assert abs(float(wide["value"][0]) - float(auto["value"][0])) < 1e-12

    def test_psi_term_overflow_is_refused(self, run_cli):
        # two numerator parameters: the upper terms grow like q^(-n^2/2).
        # Before: exit 0 with the note "term overflow; series non-convergent
        # here" and a sum that left the overflowed terms out
        code, out = run_cli([*self.PSI, "--num", "0.9;0.5", "--window", "600"])
        assert code == 2
        assert parse_strict(out)["error"] == ("ValueError: overflow: the upper tail's term at "
                                              "n = 31 is not a finite double, got (-inf+0j)")

    def test_psi_tail_past_a_double_is_null(self, run_cli):
        # the exact value is answered; its lower tail size, 2.6e249 at window
        # 400, is not a double at 600.  Before: exit 2 from the JSON encoder
        argv = ["qhyper", "psi", "--num", "1/3", "--den", "1/5", "--q", "1/2", "--z", "1/7"]
        code, out = run_cli([*argv, "--window", "400"])
        assert code == 0 and parse_strict(out)["lower_tail"] == pytest.approx(2.6489e249, 1e-4)
        code, out = run_cli([*argv, "--window", "600"])
        payload = parse_strict(out)
        assert code == 0
        assert (payload["lower_tail"], payload["upper_tail"]) == (None, 0.0)
        assert len(payload["value"]) == 217_386

    @pytest.mark.parametrize("window,lower", [("40", 1.1306e25), ("400", 2.6489e249)])
    def test_psi_growing_window_tail_is_noted(self, run_cli, window, lower):
        # |z| < |q| and the lower terms grow; before, notes [] at an explicit
        # window, while the automatic window noted it
        argv = ["qhyper", "psi", "--num", "1/3", "--den", "1/5", "--q", "1/2", "--z", "1/7"]
        note = ["tail terms fail to decay; series non-convergent here"]
        code, out = run_cli([*argv, "--window", window])
        payload = parse_strict(out)
        assert code == 0
        assert payload["lower_tail"] == pytest.approx(lower, 1e-4)
        assert (payload["notes"], payload["converged"]) == (note, False)
        code, out = run_cli(argv)
        assert code == 0 and parse_strict(out)["notes"] == note

    def test_psi_window_cap_is_exit_two(self, run_cli):
        code, out = run_cli([*self.PSI, "--num", "0.9", "--window", "4097"])
        assert code == 2
        assert parse_strict(out)["error"] == "ValueError: window must be at most 4096, got 4097"

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_psi_window_below_one_is_exit_two(self, run_cli, window):
        code, out = run_cli([*self.PSI, "--num", "0.9", "--window", window])
        assert code == 2
        assert (parse_strict(out)["error"]
                == f"ValueError: window must be a positive integer, got {window}")

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

    @pytest.mark.parametrize("argv,missing", [
        (["pochhammer", "--a", "1/2"], "--q"),
        (["pochhammer", "--n", "3"], "--a, --q"),
        (["psi", "--q", "1/2"], "--z"),
        (["psi", "--num", "2", "--den", "5"], "--q, --z"),
        (["saalschutz", "--a", "1/2", "--b", "1/3", "--c", "1/5", "--n", "2"], "--q"),
        (["saalschutz", "--q", "1/2"], "--a, --b, --c"),
    ])
    def test_missing_option_is_named(self, argv, missing):
        # before: an AttributeError traceback on None, exit 1
        assert run_fresh(["qhyper", *argv]) == f"the following arguments are required: {missing}"

    # the options of the old shared qhyper parser, and what each form reads of them
    OPTIONS = ("--a", "--b", "--c", "--q", "--z", "--n", "--num", "--den", "--window",
               "--infinite", "--tol")
    READS = {
        "pochhammer": (["--a", "1/2", "--q", "1/3"], {"--a", "--q", "--n", "--infinite", "--tol"}),
        "psi": (["--q", "1/3", "--z", "1/3"], {"--num", "--den", "--q", "--z", "--window", "--tol"}),
        "saalschutz": (["--a", "2", "--b", "3", "--c", "5", "--q", "1/2"],
                       {"--a", "--b", "--c", "--n", "--q"}),
    }

    @pytest.mark.parametrize("form", sorted(READS))
    def test_each_form_takes_only_the_options_it_reads(self, run_cli, form):
        # before: every form took all 11 options, and ignored those it does not read
        required, reads = self.READS[form]
        taken = set()
        for option in self.OPTIONS:
            code, out = run_cli(["qhyper", form, *required, option,
                                 *([] if option == "--infinite" else ["1"])])
            error = parse_strict(out).get("error", "")
            if not error.startswith("unrecognized arguments: "):
                taken.add(option)
            else:
                assert (code, error) == (2, f"unrecognized arguments: {option}"
                                         + ("" if option == "--infinite" else " 1"))
        assert taken == reads

    @pytest.mark.parametrize("argv,error", [
        (["--n", "2", "--infinite"], "argument --infinite: not allowed with argument --n"),
        (["--n", "0", "--infinite"], "argument --infinite: not allowed with argument --n"),
        (["--tol", "1e-9"], "argument --tol: not allowed without argument --infinite"),
        (["--n", "3", "--tol", "1e-9"], "argument --tol: not allowed without argument --infinite"),
    ])
    def test_pochhammer_mode_conflict_is_refused(self, run_cli, argv, error):
        # before: --n was dropped with --infinite, and --tol without it
        code, out = run_cli(["qhyper", "pochhammer", "--a", "1/2", "--q", "1/3", *argv])
        assert (code, parse_strict(out)["error"]) == (2, error)

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

    # sha256 of stdout: locks the "v/1" coefficient strings, the key order and
    # every coefficient of the exact series commands, and the documents the
    # CLI writes partly from the request
    PINNED = [
        ("euler-series --chi 3 --order 2000",
         "5088cbc18b1c7f9298a8e9dc882c039aa95267ab596158a62327701943edef55"),
        ("euler-series --chi -24 --order 12",
         "ce663304de1e854ba9ae8d5b700980e0ebfe9b9172588be98587404cbdec9efa"),
        ("euler-series --chi 3 --order 1154",
         "e1776da3a394ae9c838ccd687b4760c6b3867d20d03acc6a67c1707a63bb01c5"),
        ("twisted-sym --chi -3 --order 800",
         "ed68afe1f0b9b98b6ac719251525db35b6dc9844d903af08047f09c2024d2672"),
        ("twisted-sym --chi 3 --order 729",
         "7130657f18dc1f54e8ba64ab7542378faacf0f5c16add648b6258ceaa739ecbf"),
        ("twisted-sym --chi 0 --order 0",
         "409c7a70234365f667cf9d6a3218349b7361b5d3a67ae00106eef02a74c6145b"),
        ("macdonald --betti 1,2,1 --order 30",
         "1cd8a4d2297767bb70e54a46226650f1adf52b7ef5f1235ec1adbc1c05d01a04"),
        ("orbifold --betti 1,2,1 --order 20 --y-bound 40",
         "60096214b08e7685e03cbc614dde1dd43d6669d001606d1dc37f0761f1f68057"),
        # two y-bounds that drop terms
        ("orbifold --betti 1,2,1 --order 20 --y-bound 12",
         "1ee62a04ae79c3a7a39a30bba3fdf18a42faf75ac649197682bcb7ed3868d919"),
        ("macdonald --betti 1,4,6,4,1 --order 30 --y-bound 7",
         "9025e7a5d932abc2781a3daefa8807e597010aca432c75f3c83e6956ea91e21e"),
        # s and branch are written from the request's parameters, level from its N
        ("spectral-eval --a 1.5 --epsilon 0.25,0.5 --ell 2 --tau 0.3,1.1 --sign plus",
         "24da779999aad3c2148f1f7317cddb9ce905c16d50d8eaf0543b1f2a851ae543"),
        ("spectral-eval --a 1.5 --epsilon 0.25,0.5 --ell 2 --tau 0.3,1.1 --sign minus",
         "c6733062264fe519e12aeec82ccdd7265c2f1f7daede620142bdda675d77c19f"),
        ("period-scan --tau 0.3,1.1 --N 3 --k 1 --l 2",
         "762bcced961dd4d857c2ca71d3afc39569d11201b1f0becb5319e25c7b4176a4"),
        ("verify-all",
         "6e77a5acd65e57dd9923deee84ea3ec37d1be1a1e9059788781275ec8e9e9fd2"),
    ]

    @pytest.mark.parametrize("command, digest", PINNED)
    def test_output_bytes_are_pinned(self, run_cli, command, digest):
        code, out = run_cli(command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("argv,what", [
        (["genus-cpm", "--tau", "0,400", "--N", "3", "--k", "1", "--l", "0", "--m", "3"],
         "beta = (-837.7580409572782+0j)"),
        (["period-scan", "--tau", "0,37", "--N", "3", "--k", "1", "--l", "0"],
         "z = (775.2361878854823+0.17j)"),
    ])
    def test_exponent_off_the_doubles_is_exit_two(self, run_cli, monkeypatch, argv, what):
        # before: ZeroDivisionError and OverflowError from the products
        def forbidden(*args):
            raise AssertionError("a product ran before the check")

        monkeypatch.setattr(genus, "_theta_ratio", forbidden)
        monkeypatch.setattr(genus._PointEvaluator, "phi", forbidden)
        code, out = run_cli(argv)
        name = what.split(" ")[0]
        assert code == 2
        assert parse_strict(out)["error"] == (
            f"ValueError: overflow: e^(+-{name}) is not a normal double at {what}")

    @pytest.mark.parametrize("argv,error", [
        # at Im tau = 1e-4 and 1e-3 the coefficient each series divides by,
        # theta'(0) = prod (1 - q^n)^3 or theta_u(0), is far below the
        # rounding of its terms: no digit of it survives
        (["phi", "--tau", "0.1,1e-4", "--x-order", "8"], "theta_u[1]"),
        (["genus-cpm", "--tau", "0.3,1e-3", "--N", "17", "--k", "3", "--l", "16",
          "--m", "100"], "theta_u[0]"),
    ])
    def test_unresolved_theta_series_is_named(self, run_cli, argv, error):
        # before: 0.6 s and 3.4 s, then the encoder's "Out of range float
        # values are not JSON compliant", for a bound that was not finite
        start = time.process_time()
        code, out = run_cli(argv)
        assert time.process_time() - start < 1.0
        assert code == 2
        message = parse_strict(out)["error"]
        assert message.startswith("ValueError: overflow: the x-series bound at tau = ")
        assert f" ({error} = " in message
        assert message.endswith(") is not a finite double, got inf")

    @pytest.mark.parametrize("order,pairs", [("10000", 99), ("8", 111111)])
    def test_theta_pairs_past_the_cap_refused_at_once(self, run_cli, monkeypatch, order, pairs):
        # at Im tau = 1e-6 the tail needs about 318,000 pairs (j, 1 - j), and
        # LOCQ_MAX_FACTORS = 10^6 caps the pairs times (x-order + 1), the
        # products the sums take, before any weight is computed
        monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
        start = time.process_time()
        code, out = run_cli(["phi", "--tau", "0,1e-6", "--x-order", order])
        assert time.process_time() - start < 1.0
        assert code == 2
        assert parse_strict(out)["error"] == ("ToleranceUnreachableError: needed more than "
                                              f"{pairs} theta pairs for a tail below 1.25e-13")

    def test_period_scan_at_the_trial_bound_cap(self, run_cli, monkeypatch):
        # 129^2 = 16,641 translations from at most 7 + 6 (2B + 1) = 781
        # evaluations of Phi, one row of 3 points per m; each translate took
        # 6 before, 99,853 in all and 8.2 s on a 2-core x86-64 machine
        calls = []
        phi = genus._PointEvaluator.phi
        monkeypatch.setattr(genus._PointEvaluator, "phi",
                            lambda self, x: calls.append(x) or phi(self, x))
        code, out = run_cli(["period-scan", "--tau", "0,0.05", "--N", "5", "--k", "1",
                             "--l", "2", "--trial-bound", "64"])
        payload = parse_strict(out)
        assert code == 0
        assert payload["index"] == 5
        assert len(payload["periods"]) == 3329
        assert len(calls) <= 7 + 6 * (2 * 64 + 1)

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

    def test_option_prefix_is_not_the_option(self, run_cli):
        # before: argparse took any unambiguous prefix, so both requests exited 0
        code, out = run_cli(["spectral-eval", "--a", "1", "--tau", "0,1", "--si", "plus"])
        assert (code, parse_strict(out)["error"]) == (2, "unrecognized arguments: --si plus")
        code, out = run_cli(["qhyper", "pochhammer", "--a", "1/2", "--q", "1/3", "--inf"])
        assert (code, parse_strict(out)["error"]) == (2, "unrecognized arguments: --inf")

    @pytest.mark.parametrize("argv,usage", [
        (["--help"], "usage: locq [-h]"),
        (["qhyper", "-h"], "usage: locq qhyper [-h] {pochhammer,psi,saalschutz} ...\n"),
        (["qhyper", "psi", "--help"], "usage: locq qhyper psi [-h] [--num NUM]"),
        (["euler-series", "--chi", "1", "--help"], "usage: locq euler-series [-h] --chi CHI"),
    ])
    def test_help_is_one_json_document(self, run_cli, argv, usage):
        # before: argparse's plain text, and SystemExit(0) out of cli.main
        code, out = run_cli(argv)
        assert code == 0
        assert_canonical(out)
        assert parse_strict(out)["help"].startswith(usage)

    def test_help_bytes_do_not_depend_on_the_terminal(self, run_cli):
        argv = ["qhyper", "pochhammer", "--help"]
        proc = subprocess.run([sys.executable, "-m", "locq", *argv],
                              env=dict(fresh_env(), COLUMNS="40"), capture_output=True,
                              check=False)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == run_cli(argv)[1].encode("utf-8")

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
            (["dh-verify", "--factors", "1:1", "--c", "0,3000"],
             "the Gauss-Legendre quadrature of the factor (r, mu) = (1.0, 1.0) at c = 3000j "
             "needs more than MAX_QUAD_POINTS = 1024 nodes"),
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
             "the level N must be at most MAX_TRIAL_BOUND = 64, got 65"),
            (["euler-series", "--chi", "1000001"], "|chi| must be at most 1000, got 1000001"),
            (["twisted-sym", "--chi=-1001"], "|chi| must be at most 1000, got -1001"),
            # the x-series of f goes to order m + 1
            (["genus-cpm", "--tau", "0,2", "--N", "2", "--k", "1", "--l", "0", "--m", "10000"],
             "m must be at most 9999, got 10000"),
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

    # every option that a handler reads with int() or float(), under the words
    # that name its parser: argparse checks a value as it reads it, before it
    # looks for a missing option
    NUMBER_OPTIONS = {
        ("spectral-eval",): {"--a": "float", "--ell": "int", "--tol": "float"},
        ("dh-verify",): {"--tol": "float"},
        ("qhyper", "pochhammer"): {"--n": "int", "--tol": "float"},
        ("qhyper", "psi"): {"--window": "int", "--tol": "float"},
        ("qhyper", "saalschutz"): {"--n": "int"},
        ("macdonald",): {"--order": "int", "--y-bound": "int"},
        ("orbifold",): {"--order": "int", "--y-bound": "int"},
        ("twisted-sym",): {"--chi": "int", "--order": "int"},
        ("euler-series",): {"--chi": "int", "--order": "int"},
        ("phi",): {"--x-order": "int", "--q-tol": "float"},
        ("genus-cpm",): {"--N": "int", "--k": "int", "--l": "int", "--m": "int",
                         "--q-tol": "float"},
        ("period-scan",): {"--N": "int", "--k": "int", "--l": "int", "--trial-bound": "int",
                           "--tol": "float", "--q-tol": "float"},
    }

    @pytest.mark.parametrize("words,option,kind", [
        pytest.param(words, option, kind, id=f"{words[-1]} {option}")
        for words, options in NUMBER_OPTIONS.items() for option, kind in options.items()])
    def test_malformed_number_names_its_option(self, run_cli, words, option, kind):
        # before: the handler's int() or float() error, which names no option
        text = {"int": "2.5", "float": "abc"}[kind]
        code, out = run_cli([*words, option, text])
        assert code == 2
        assert parse_strict(out) == {"error": f"argument {option}: invalid {kind} value: "
                                              f"{text!r}", "exit": 2}

    @pytest.mark.parametrize("subcommand", ["macdonald", "orbifold"])
    @pytest.mark.parametrize("betti,entry", [("1,x", "x"), ("1,,1", ""), ("0.5", "0.5")])
    def test_malformed_betti_number_is_named(self, run_cli, subcommand, betti, entry):
        code, out = run_cli([subcommand, "--betti", betti])
        assert code == 2
        assert parse_strict(out)["error"] == f"argument --betti: invalid int value: {entry!r}"

    @pytest.mark.parametrize("argv,option", [
        (["qhyper", "psi", "--q", "0.2", "--z", "0.5"], "--window"),
        (["macdonald", "--betti", "1,2,1"], "--y-bound"),
        (["period-scan", "--tau", "0.3,1.1", "--N", "3", "--k", "1", "--l", "2"],
         "--trial-bound"),
    ])
    def test_empty_number_is_the_unset_default(self, run_cli, argv, option):
        assert run_cli([*argv, option, ""]) == run_cli(argv)

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["qhyper", "pochhammer", "--a", "nan", "--q", "0.5", "--infinite"], "nan"),
            (["qhyper", "pochhammer", "--a", "inf", "--q", "0.5", "--infinite"], "inf"),
            (["spectral-eval", "--a", "1", "--epsilon", "nan", "--tau", "0,1"], "nan"),
        ],
    )
    def test_non_finite_product_scale_is_exit_two(self, run_cli, monkeypatch, argv, value):
        # the parameter is named before the factor loop: one allowed factor
        # would not be enough
        monkeypatch.setenv("LOCQ_MAX_FACTORS", "1")
        code, out = run_cli(argv)
        assert code == 2
        name = argv[argv.index(value) - 1].lstrip("-")
        assert parse_strict(out)["error"] == f"ValueError: {name} must be finite, got ({value}+0j)"

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

    @pytest.mark.parametrize("argv", [
        ["qhyper", "pochhammer", "--a", "1e308", "--q", "1e308", "--n", "5"],
        ["qhyper", "pochhammer", "--a", "1e200", "--q", "0.5", "--infinite"],
        ["spectral-eval", "--a", "1", "--tau", "0,1", "--epsilon", "-100"],
    ])
    def test_non_finite_complex_result_is_exit_two(self, run_cli, tmp_path, argv):
        # before: exit 0 with "value": ["nan", "nan"], which strict JSON takes
        target = tmp_path / "result.json"
        # and then "the complex result (nan+nanj) is not finite", which named
        # neither the field nor the product
        code, out = run_cli([*argv, "--out", str(target)])
        assert code == 2
        error = parse_strict(out)["error"]
        assert error.startswith("ValueError: overflow: the product ")
        assert re.search(r" from its factor [kn] = \d+ on is not a finite double, got ", error)
        assert not target.exists()

    @pytest.mark.parametrize("argv,error", [
        (["spectral-eval", "--a", "1", "--tau", "0,1", "--epsilon", "-100"],
         "the product prod_(n>=1) (1 - q^(a n + epsilon)) from its factor n = 2 on is not a "
         "finite double, got (inf-0j)"),
        (["qhyper", "pochhammer", "--a", "1e308", "--q", "1e308", "--n", "5"],
         "the product (a;q)_5 = prod_(k=0..4) (1 - a q^k) from its factor k = 1 on is not a "
         "finite double, got (inf+nanj)"),
        (["qhyper", "pochhammer", "--a", "1e308", "--q", "2", "--n", "40"],
         "the product (a;q)_40 = prod_(k=0..39) (1 - a q^k) from its factor k = 1 on is not a "
         "finite double, got (inf+nanj)"),
        (["spectral-eval", "--a", "0.1", "--tau", "0,3", "--epsilon", "-745", "--ell", "1",
          "--sign", "plus"],
         "|q^epsilon| = |e^(2 pi i tau epsilon)| at tau = 3j, epsilon = (-745+0j) is not a "
         "finite double, got inf"),
        # the partial product at k = 0 is finite, its modulus past the largest double
        (["qhyper", "pochhammer", "--a=-1.5e308,-1.5e308", "--q", "1e-300", "--n", "2"],
         "the product (a;q)_2 = prod_(k=0..1) (1 - a q^k) from its factor k = 1 on is not a "
         "finite double, got (nan+infj)"),
    ])
    def test_overflow_names_the_quantity(self, argv, error):
        # before: "the complex result (nan+nanj) is not finite" for the first
        # three, and a bare "OverflowError: math range error" for the last
        assert run_fresh(argv) == f"ValueError: overflow: {error}"

    @pytest.mark.parametrize("argv,error", [
        (["spectral-eval", "--a", "0.1", "--tau", "1e-9,1e-3", "--epsilon", "-7.05", "--ell", "0"],
         "the product prod_(n>=0) (1 - q^(a n + epsilon)) from its factor n = 185 on is below "
         "the normal doubles, got 0j"),
        (["qhyper", "pochhammer", "--a", "0.999", "--q", "1", "--n", "200"],
         "the product (a;q)_200 = prod_(k=0..199) (1 - a q^k) from its factor k = 102 on is "
         "below the normal doubles, got 0j"),
        (["qhyper", "pochhammer", "--a", "0.999", "--q", "1", "--n", "-200"],
         "the product 1 / (a;q)_-200 = prod_(k=1..200) (1 - a q^-k) from its factor k = 103 on "
         "is below the normal doubles, got 0j"),
        (["qhyper", "pochhammer", "--a", "0.999", "--q", "0.999", "--infinite"],
         "the product (a;q)_inf to its first 35214 factors, prod_(k=0..35213) (1 - a q^k) from "
         "its factor k = 321 on is below the normal doubles, got 0j"),
        # 0.1 * 70 - 7 = 8.9e-16 rounds q^(a n + epsilon) to 1, though a n +
        # epsilon is not 0 at the doubles a and epsilon: factor 70 is not 0
        (["spectral-eval", "--a", "0.1", "--tau", "1e-9,1e-3", "--epsilon", "-7", "--ell", "0"],
         "the product prod_(n>=0) (1 - q^(a n + epsilon)) from its factor n = 70 on is below "
         "the normal doubles, got -0j"),
        # the product is 3.7e-17 at these doubles, a normal double
        (["qhyper", "pochhammer", "--a", "0.3333333333333333", "--q", "3", "--n", "2"],
         "the product (a;q)_2 = prod_(k=0..1) (1 - a q^k) from its factor k = 1 on is below the "
         "normal doubles, got 0j"),
    ])
    def test_underflow_names_the_product(self, argv, error):
        # before: exit 0 with "value": ["0.0", "0.0"], every digit lost,
        # though none of the factors is 0
        assert run_fresh(argv) == f"ValueError: underflow: {error}"

    @pytest.mark.parametrize("argv", [
        ["qhyper", "pochhammer", "--a", "1.0", "--q", "0.5", "--n", "3"],
        # a n + epsilon = 0 at n = 2: q^0 = 1, so factor 2 is exactly 0
        ["spectral-eval", "--a", "1", "--tau", "0,1", "--epsilon", "-2", "--ell", "0"],
    ])
    def test_product_with_a_zero_factor_is_zero(self, run_cli, argv):
        code, out = run_cli(argv)
        assert (code, parse_strict(out)["value"]) == (0, ["0.0", "0.0"])

    def test_finite_product_past_the_largest_modulus_is_answered(self, run_cli):
        # both parts are finite doubles; abs() of the value would raise OverflowError
        code, out = run_cli(["qhyper", "pochhammer", "--a=-1.5e308,-1.5e308", "--q", "0.5",
                             "--n", "1"])
        assert (code, parse_strict(out)["value"]) == (0, ["1.5e+308", "1.5e+308"])

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(1.0, -math.inf),
                                   complex(math.nan, 2.0), math.inf])
    def test_cpx_names_a_non_finite_value(self, z):
        with pytest.raises(ValueError, match=r"^overflow: the complex result is not a finite "
                                             rf"double, got {re.escape(repr(complex(z)))}$"):
            cli.cpx(z)

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
    with the same argv, in each of two rounds of the four calls.
    """
    monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
    env = fresh_env()
    cases = [
        (["nope"], 2),
        (["period-scan", "--tau", "0.3,1.1", "--N", "3", "--k", "1", "--l", "2"], 0),
        (["dh-verify", "--factors", "1:1", "--c", "0"], 2),
        (["euler-series", "--chi", "2", "--order", "3", "--out", "OUT"], 0),
    ]
    fresh = []
    for argv, status in cases:
        proc = subprocess.run([sys.executable, "-m", "locq",
                               *[str(tmp_path / "fresh.json") if a == "OUT" else a for a in argv]],
                              env=env, capture_output=True, check=False)
        assert proc.returncode == status, argv
        fresh.append(proc.stdout)
    for _ in range(2):
        for (argv, status), stdout in zip(cases, fresh):
            code, out = run_cli([str(tmp_path / "in.json") if a == "OUT" else a for a in argv])
            assert code == status, argv
            assert out.encode("utf-8") == stdout, argv
            if "OUT" in argv:
                assert out == ""
                assert (tmp_path / "in.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
            else:
                assert_canonical(out)


# Each leaf of the table: a valid argv after its path, the options that argv
# echoed under "config" when argparse read it, and what the path alone is
# refused for (None where it is a valid request)
LEAF_REQUESTS = {
    ("spectral-eval",): (
        ["--a", "1.5", "--tau", "0.3,1.1"],
        {"a": "1.5", "epsilon": "0", "ell": "1", "sign": "minus", "tau": "0.3,1.1", "tol": "1e-12"},
        "the following arguments are required: --a, --tau"),
    ("pfaffian",): (
        ["--matrix", "[[0, 1], [-1, 0]]"], {"matrix": "[[0, 1], [-1, 0]]"},
        "one of the arguments --matrix --matrix-file is required"),
    ("dh-verify",): (
        ["--factors", "1:1", "--c", "0.3"], {"factors": "1:1", "c": "0.3", "tol": "1e-8"},
        "the following arguments are required: --factors, --c"),
    ("qhyper", "pochhammer"): (
        ["--a", "1/2", "--q", "1/3", "--n", "2"],
        {"form": "pochhammer", "a": "1/2", "q": "1/3", "n": "2", "infinite": False},
        "the following arguments are required: --a, --q"),
    ("qhyper", "psi"): (
        ["--num", "0.5", "--q", "0.2", "--z", "0.5"],
        {"form": "psi", "num": "0.5", "den": "", "q": "0.2", "z": "0.5", "window": "",
         "tol": "1e-12"},
        "the following arguments are required: --q, --z"),
    ("qhyper", "saalschutz"): (
        ["--a", "1/2", "--b", "1/3", "--c", "1/5", "--q", "1/7"],
        {"form": "saalschutz", "a": "1/2", "b": "1/3", "c": "1/5", "n": "0", "q": "1/7"},
        "the following arguments are required: --a, --b, --c, --q"),
    ("macdonald",): (
        ["--betti", "1,2,1"], {"betti": "1,2,1", "order": "8", "y_bound": ""},
        "the following arguments are required: --betti"),
    ("orbifold",): (
        ["--betti", "1,2,1", "--y-bound", "4"], {"betti": "1,2,1", "order": "8", "y_bound": "4"},
        "the following arguments are required: --betti"),
    ("twisted-sym",): (
        ["--chi", "3"], {"chi": "3", "order": "20"},
        "the following arguments are required: --chi"),
    ("euler-series",): (
        ["--chi", "3", "--order", "5"], {"chi": "3", "order": "5"},
        "the following arguments are required: --chi"),
    ("phi",): (
        ["--tau", "0,1"], {"tau": "0,1", "x_order": "8", "q_tol": "1e-12"},
        "the following arguments are required: --tau"),
    ("genus-cpm",): (
        ["--tau", "0,1", "--N", "3", "--k", "1", "--l", "2", "--m", "2"],
        {"tau": "0,1", "N": "3", "k": "1", "l": "2", "m": "2", "q_tol": "1e-12"},
        "the following arguments are required: --tau, --N, --k, --l, --m"),
    ("period-scan",): (
        ["--tau", "0,1", "--N", "3", "--k", "1", "--l", "2"],
        {"tau": "0,1", "N": "3", "k": "1", "l": "2", "trial_bound": "", "tol": "1e-8",
         "q_tol": "1e-12"},
        "the following arguments are required: --tau, --N, --k, --l"),
    ("verify-all",): ([], {}, None),
}


def _refusal(argv) -> str | None:
    """The usage error that argv is refused with, None where it parses."""
    try:
        cli._parse(argv)
    except cli.UsageError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("required", [True, False])
@pytest.mark.parametrize("path", [path for path, entry in cli._TABLE.items() if entry[1]],
                         ids=" ".join)
def test_leaf_parser_answers_as_the_full_tree(run_cli, path, required):
    """Each leaf, read from the table's root like every request: its help, an
    unknown option, the missing options, and a malformed value of each option
    whose reader checks its text (the int and float ones those that a handler
    converts).  With required=True the words follow a valid request, whose
    config echo is checked; with required=False they follow the path alone,
    and each answer still comes before the missing options."""
    valid, echoed, missing = LEAF_REQUESTS[path]
    given = valid if required else []
    code, out = run_cli([*path, *given, "--help"])
    assert code == 0
    assert_canonical(out)
    assert parse_strict(out)["help"].startswith(f"usage: locq {' '.join(path)} [-h]")
    if required:
        assert cli._config_echo(cli._parse([*path, *valid])) == {"subcommand": path[0],
                                                                 "options": echoed}
    assert _refusal([*path, *given, "--bogus", "1"]) == "unrecognized arguments: --bogus 1"
    assert _refusal(list(path)) == missing
    options = cli._TABLE[path][2]
    assert {option: reader.__name__ for option, (reader, *_) in options.items()
            if reader in (int, float)} == TestContract.NUMBER_OPTIONS.get(path, {})
    for option, (reader, *_) in options.items():
        if reader in (int, float):
            text = {int: "2.5", float: "abc"}[reader]
            want = f"argument {option}: invalid {reader.__name__} value: {text!r}"
        elif isinstance(reader, list):
            text, want = "1,x", f"argument {option}: invalid int value: 'x'"
        elif isinstance(reader, tuple):
            text, choices = "nosuch", ", ".join(map(repr, reader))
            want = f"argument {option}: invalid choice: 'nosuch' (choose from {choices})"
        else:
            continue
        assert _refusal([*path, *given, option, text]) == want, option


@pytest.mark.parametrize("argv,error", [
    pytest.param(["euler-series", "--bogus", "--order", "2.5"],
                 "argument --order: invalid int value: '2.5'", id="bad value before stray word"),
    pytest.param(["euler-series", "--order", "x", "--help"],
                 "argument --order: invalid int value: 'x'", id="bad value before help"),
    pytest.param(["euler-series", "--help", "--order", "x"], None, id="help before bad value"),
    pytest.param(["qhyper", "pochhammer", "--bogus", "--n", "1", "--infinite"],
                 "argument --infinite: not allowed with argument --n", id="clash before stray"),
    pytest.param(["qhyper", "pochhammer", "--infinite", "--infinite", "--a", "1", "--q", "1"],
                 None, id="a flag twice is no clash"),
    pytest.param(["euler-series", "--chi", "--order", "3"], "argument --chi: expected one argument",
                 id="option as value"),
    pytest.param(["genus-cpm", "--tau", "0,1", "--m", "1", "extra", "--bogus=2"],
                 "unrecognized arguments: extra --bogus=2", id="stray words before missing"),
    pytest.param(["--bogus", "euler-series", "--chi", "1"], "unrecognized arguments: --bogus",
                 id="stray word before the subcommand"),
])
def test_errors_come_in_argparse_order(argv, error):
    """The first value error, clash or help in word order; then every
    unrecognized word; then the missing options (None: help, or parsed)."""
    try:
        cli._parse(argv)
    except cli.UsageError as exc:
        assert str(exc) == error
    except cli._Help:
        assert error is None and "--help" in argv
    else:
        assert error is None


def test_a_repeated_option_takes_its_last_value():
    args = cli._parse(["euler-series", "--order", "3", "--chi=1", "--order=5", "--chi", "-2"])
    assert cli._config_echo(args) == {"subcommand": "euler-series",
                                      "options": {"chi": "-2", "order": "5"}}


def test_no_request_imports_argparse():
    """A leaf request, root and qhyper help and an unknown subcommand, each in
    a fresh process, leave argparse (and its gettext) unimported."""
    code = """if True:
        import contextlib, io, json, sys
        from locq import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(json.loads(sys.argv[1]))
        sys.exit(any(m in sys.modules for m in ("argparse", "gettext")))
    """
    for argv in (["qhyper", "psi", "--q", "1/2", "--z", "1/3"], ["--help"], ["qhyper", "--help"],
                 ["nope"]):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=fresh_env(),
                              capture_output=True, check=False)
        assert (proc.returncode, proc.stderr) == (0, b""), argv


REQUESTS = Path(__file__).with_name("requests.jsonl")

# an entry's "fields" are [path, operator, operand] triples, tested on the
# value at the dotted path ("diagnostics.rhs_bound", "coeffs.0"); "approx"
# reads a decimal string ("value.0" of a complex) as a float
PREDICATES = {
    "eq": lambda got, want: got == want,
    "lt": lambda got, bound: got < bound,
    "approx": lambda got, want: abs(float(got) - want[0]) <= want[1],
    "len": lambda got, n: len(got) == n,
    "keys": lambda got, keys: sorted(got) == sorted(keys),
}
# at most one of these expects the error text: whole, its start, or a part
ERRORS = {"error": str.__eq__, "error_prefix": str.startswith, "error_has": str.__contains__}


def field(doc, path: str):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def test_request_corpus(run_cli, monkeypatch):
    """Every request of requests.jsonl, in this process: its exit code, one
    canonical line of strict JSON, nothing on stderr (run_cli), and the
    entry's error expectation and field predicates."""
    monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
    lines = REQUESTS.read_text(encoding="utf-8").splitlines()
    for where, line in enumerate(lines, 1):
        entry = json.loads(line)
        expects = [key for key in ERRORS if key in entry]
        assert set(entry) <= {"argv", "exit", "fields", "why", *ERRORS}, where
        assert len(expects) <= 1, where
        code, out = run_cli(entry["argv"])
        assert code == entry["exit"], where
        assert_canonical(out)
        doc = parse_strict(out)
        for key in expects:
            assert ERRORS[key](doc["error"], entry[key]), (where, doc["error"])
        for path, name, operand in entry.get("fields", []):
            assert PREDICATES[name](field(doc, path), operand), (where, path, field(doc, path))


# Python's own texts for errors that locq refuses by name
PYTHON_MESSAGES = ("Exceeds the limit", "Out of range float values are not JSON compliant",
                   "invalid literal for int()", "could not convert string to float",
                   "math domain error", "division by zero")


def test_no_refusal_is_pythons_own_message(run_cli, monkeypatch):
    """Every exit-2 request of requests.jsonl names its cause: its error text
    holds none of PYTHON_MESSAGES and is no bare OverflowError or
    ZeroDivisionError."""
    monkeypatch.delenv("LOCQ_MAX_FACTORS", raising=False)
    entries = map(json.loads, REQUESTS.read_text(encoding="utf-8").splitlines())
    refusals = [(where, entry) for where, entry in enumerate(entries, 1) if entry["exit"] == 2]
    assert refusals
    for where, entry in refusals:
        error = parse_strict(run_cli(entry["argv"])[1])["error"]
        assert not any(text in error for text in PYTHON_MESSAGES), (where, error)
        assert not error.startswith(("OverflowError:", "ZeroDivisionError:")), (where, error)


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


class TestWithoutNumpy:
    """Only pfaffian, dh-verify and verify-all load NumPy, on first use."""

    # Runs each argv of the JSON list argv[1] through cli.main in one process
    # in which any import of NumPy raises ImportError.
    BLOCKED = """if True:
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        from locq import cli
        results = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                results.append([cli.main(argv), buf.getvalue()])
        print(json.dumps(results))
    """

    def test_importing_the_cli_loads_no_numpy(self):
        # nor dataclasses, nor the test-only oracles: each would add to every start
        code = ('import sys, locq.cli; sys.exit(any(m in sys.modules for m in '
                '("numpy", "dataclasses", "locq.oracles")))')
        assert subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                              check=False).returncode == 0

    def test_quadrature_loads_no_numpy_polynomial(self):
        # Gauss-Legendre nodes come from NumPy core (localization._leggauss)
        code = """if True:
            import contextlib, io, sys
            from locq import cli
            for argv in (["dh-verify", "--factors", "1:1,2:0.5", "--c", "0.3"], ["verify-all"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
            assert "numpy" in sys.modules
            sys.exit("numpy.polynomial" in sys.modules)
        """
        proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                              capture_output=True, check=False, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_requests_print_the_same_bytes_without_numpy(self, run_cli):
        requests = [argv for argv in readme_examples()
                    if argv[0] not in ("pfaffian", "dh-verify")]
        assert {argv[0] for argv in requests} >= {
            "euler-series", "twisted-sym", "macdonald", "orbifold", "qhyper",
            "spectral-eval", "phi", "genus-cpm", "period-scan"}
        assert {argv[1] for argv in requests if argv[0] == "qhyper"} == {
            "pochhammer", "psi", "saalschutz"}
        proc = subprocess.run([sys.executable, "-c", self.BLOCKED, json.dumps(requests)],
                              env=fresh_env(), capture_output=True, check=True)
        assert proc.stderr == b""
        blocked = json.loads(proc.stdout)
        for argv, (code, out) in zip(requests, blocked, strict=True):
            assert [code, out] == list(run_cli(argv)), argv


def test_closed_stdout_exits_2_with_empty_stderr():
    # before: a double BrokenPipeError traceback on stderr, exit 1.  The
    # document is about 210 kB, more than a pipe holds, so the write fails.
    proc = subprocess.Popen(
        [sys.executable, "-m", "locq", "euler-series", "--chi", "3", "--order", "3000"],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{"coeffs":'
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (2, b"")


def test_verify_all_bytes_match_across_fresh_processes():
    # no per-process table or memo shows in the output
    runs = [subprocess.run([sys.executable, "-m", "locq", "verify-all"], env=fresh_env(),
                           capture_output=True, check=False, timeout=120) for _ in range(2)]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
    assert runs[0].stdout == runs[1].stdout


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

    @pytest.mark.parametrize("argv", [
        ["qhyper", "pochhammer", "--a", "-1/2", "--q", "1/3", "--n", "2"],
        ["genus-cpm", "--tau", "-0.2,0.4", "--N", "2", "--k", "1", "--l", "0", "--m", "2"],
        ["dh-verify", "--factors", "1:1", "--c", "-0.5,1"],
        ["spectral-eval", "--a", "1", "--tau", "0,1", "--epsilon", "-1e-3"],
    ])
    def test_negative_value_as_its_own_argument(self, run_cli, argv):
        # argparse took each of these values for an option and exited 2
        # with "expected one argument"; it is the --opt=value request
        i = next(i for i, arg in enumerate(argv) if re.match(r"^-[^-]", arg))
        joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
        code, out = run_cli(argv)
        assert code == 0
        assert (code, out) == run_cli(joined)

    @pytest.mark.parametrize("text", ["5", "+5", "-5", "", "+", "+-5", "\u0663", "5.0"])
    def test_integer_words_are_the_regex_words(self, text):
        # parse_scalar reads as exact the words of [+-]?\d+ (\d: any Unicode
        # decimal digit, such as the Arabic-Indic three) and those with a "/"
        def outcome(parse):
            try:
                return parse(text)
            except cli.UsageError as exc:
                return str(exc)

        def by_regex(text):
            exact = "/" in text or re.fullmatch(r"[+-]?\d+", text.strip())
            return (cli.parse_fraction if exact else cli.parse_complex)(text.strip())

        assert outcome(cli.parse_scalar) == outcome(by_regex)

    def test_dash_word_is_still_an_option(self, run_cli):
        code, out = run_cli(["dh-verify", "--factors", "1:1", "--c", "-x"])
        assert code == 2
        assert parse(out)["error"] == "argument --c: expected one argument"
