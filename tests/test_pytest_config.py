"""The repository's pytest configuration keeps failure reports working."""

import re
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

INNER = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    # the inner session runs under this repository's warning filters
    filters = re.search(r"^filterwarnings = \[.*?^\]", PYPROJECT.read_text(), re.S | re.M)
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\n{filters.group(0)}\n")
    pytester.makepyfile(test_inner=INNER)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
