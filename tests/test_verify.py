"""The row table of verify-all: one pass rule, and errors that cannot pass."""

import itertools
import json
import math

import pytest

from locq import genfunc, verify
from locq.cli import row_json
from locq.verify import Row, exact, within


def parse_strict(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("row,passed", [
    (Row("exact", 3, 0), True),
    (Row("exact, one mismatch", 3, 1), False),
    (Row("exact, no checks", 0, 0), False),
    (Row("tolerance", 2, 0.5e-9, 1e-9), True),
    (Row("tolerance, at the bound", 2, 1e-9, 1e-9), False),
    (Row("tolerance, no checks", 0, 0.0, 1e-9), False),
    (Row("tolerance, NaN", 2, math.nan, 1e-9), False),
    (Row("tolerance, inf", 2, math.inf, 1e-9), False),
])
def test_one_pass_rule(row, passed):
    assert row.passed is passed
    assert row_json(row)["passed"] is passed


def test_builders():
    assert exact("e", [(1, 1), (2, 3), ({0: 1}, {0: 1})]) == Row("e", 3, 1)
    assert exact("e", []) == Row("e", 0, 0)
    assert within("w", [1e-12, 3e-11, 2e-11], 1e-10) == Row("w", 3, 3e-11, 1e-10)


@pytest.mark.parametrize("errors", [
    [math.nan, 1e-12], [1e-12, math.nan], [1e-12, math.nan, 2e-12], [math.inf, math.nan],
])
def test_nan_error_is_the_worst(errors):
    # max(worst, err) keeps the earlier value when err is NaN
    row = within("w", errors, 1e-10)
    assert row.checks == len(errors) and math.isnan(row.worst) and not row.passed


def test_row_json_is_strict():
    assert row_json(Row("w", 4, math.nan, 1e-8)) == {
        "identity": "w", "checks": 4, "worst": None, "tolerance": 1e-8,
        "budget_used": None, "passed": False}
    # a finite worst whose budget overflows
    assert row_json(Row("w", 1, 1e300, 1e-10))["budget_used"] is None
    assert row_json(Row("e", 5, 2)) == {
        "identity": "e", "checks": 5, "worst": 2, "tolerance": None,
        "budget_used": None, "passed": False}


def test_nan_localization_error_fails_verify_all(run_cli, monkeypatch):
    # one NaN rel_err among the 19,376 checks: before, max(worst, nan) kept
    # the old worst and the suite passed with unchanged details
    walk = verify.localization_checks

    def with_nan():
        for i, check in enumerate(walk()):
            yield (*check[:4], math.nan) if i == 1000 else check

    monkeypatch.setattr(verify, "localization_checks", with_nan)
    monkeypatch.setattr(verify, "ALL_SUITES", (verify.suite_localization,))
    code, out = run_cli(["verify-all"])
    assert code == 1
    payload = parse_strict(out)
    assert payload["all_passed"] is False
    (suite,) = payload["suites"]
    assert suite["passed"] is False
    assert suite["details"] == {"checks": 19376, "rows": [{
        "identity": "fixed-point sum = Liouville integral, rel err", "checks": 19376,
        "worst": None, "tolerance": 1e-8, "budget_used": None, "passed": False}]}


def test_oracle_suites_list_each_betti_tuple_once(monkeypatch):
    # one listing of the symmetric powers 0-8 per Betti tuple, where an
    # oracle call per coefficient listed the lower powers again
    listed = genfunc.sym_poincare_oracle_series
    calls = []

    def counted(b, order):
        calls.append((b, order))
        return listed(b, order)

    monkeypatch.setattr(genfunc, "sym_poincare_oracle_series", counted)
    for suite, family in ((verify.suite_macdonald, verify.betti_family(4, 5)),
                          (verify.suite_orbifold,
                           verify.betti_family(3, 3) + [genfunc.BettiData.of(1, 2, 1)])):
        calls.clear()
        (row,) = suite().rows
        assert row.passed and row.checks == 9 * len(family)
        assert calls == [(b, 8) for b in family]


def test_betti_family_is_a_new_list_each_call():
    # a caller may extend its family: a shared list would grow
    first = verify.betti_family(max_total=3, max_degree=3)
    rows = verify.suite_orbifold().rows
    second = verify.betti_family(max_total=3, max_degree=3)
    assert second == first and second is not first
    assert len(second) == rows[0].checks // 9 - 1  # coefficients q^0..q^8 of each, and (1, 2, 1)
    assert verify.suite_orbifold() == verify.suite_orbifold()
    second.append(None)
    assert verify.betti_family(max_total=3, max_degree=3) == first


@pytest.mark.parametrize("max_total,max_degree", [(4, 5), (3, 3), (0, 2), (2, 0), (5, 6)])
def test_betti_family_is_the_filtered_product(max_total, max_degree):
    # every tuple of entries 0..max_total, kept when its sum is 1..max_total
    want = [()] + [combo for length in range(1, max_degree + 2)
                   for combo in itertools.product(range(max_total + 1), repeat=length)
                   if 0 < sum(combo) <= max_total and (length == 1 or combo[-1] > 0)]
    assert [b.betti for b in verify.betti_family(max_total, max_degree)] == want
