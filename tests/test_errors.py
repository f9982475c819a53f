"""The one rule by which a computed number is refused: errors.require_double."""

import math
import re
import sys

import pytest

from locq.errors import is_normal, require_double

TINY = 5e-324  # the least subnormal double
MIN = sys.float_info.min  # the least normal double


@pytest.mark.parametrize("value", [MIN, -MIN, 1.0, -sys.float_info.max,
                                   complex(MIN, TINY), complex(TINY, -MIN),
                                   complex(1.5e308, 1.5e308)])
def test_normal_values_are_returned(value):
    assert is_normal(value)
    assert require_double("x", value) is value
    assert require_double("x", value, normal=True) is value


@pytest.mark.parametrize("value", [0.0, -0.0, TINY, -TINY, MIN / 2, 0j, complex(TINY, TINY),
                                   complex(TINY, 0.0), complex(-0.0, MIN / 2)])
def test_values_below_the_normal_doubles_are_refused_when_asked(value):
    # a complex value is normal by its larger part, so both parts are below MIN here
    assert not is_normal(value)
    assert require_double("x", value) is value
    with pytest.raises(ValueError, match=rf"^underflow: x is below the normal doubles, "
                                         rf"got {re.escape(repr(value))}$"):
        require_double("x", value, normal=True)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0),
                                   complex(1.0, -math.inf), complex(math.nan, MIN),
                                   complex(TINY, math.nan)])
@pytest.mark.parametrize("normal", [False, True])
def test_values_that_are_not_finite_are_refused(value, normal):
    assert not is_normal(value)
    with pytest.raises(ValueError, match=rf"^overflow: the sum is not a finite double, "
                                         rf"got {re.escape(repr(value))}$"):
        require_double("the sum", value, normal=normal)
