"""A test-side fixed-point sum over the 2^n points of a sphere product.

The oracle for locq.localization's pole-pair product: the localization
formula written out as a sum, (2 pi / c)^n sum_p e^(c H(p)) / prod_j l_j(p),
term by term in mpmath, at a precision sized to the sum's cancellation.
"""

import itertools

import mpmath

# Digits kept beyond those the terms cancel.
SPARE_DIGITS = 30


def lost_digits(space, c) -> float:
    """Digits the sum's terms cancel: log10 of their absolute sum over the
    sum, prod_j (|e^a_j| + |e^-a_j|) / |e^a_j - e^-a_j| with a_j = c mu_j r_j
    (each factor's pair of terms over its pole pair)."""
    with mpmath.workdps(SPARE_DIGITS):
        cc = mpmath.mpmathify(c)
        return float(sum(
            mpmath.log10((abs(mpmath.exp(a)) + abs(mpmath.exp(-a))) / abs(2 * mpmath.sinh(a)))
            for a in (cc * f.weight * f.radius for f in space.factors)))


def point_sum(space, c, h_values=None):
    """The sum over the points in itertools.product((1, -1), repeat=n)
    order, at SPARE_DIGITS digits more than it cancels (lost_digits).  H(p)
    is h_values[p] where given (enumerate_fixed_points' list), else
    sum_j s_j mu_j r_j exactly; l_j(p) = s_j mu_j / r_j exactly."""
    n = space.half_dim
    with mpmath.workdps(SPARE_DIGITS + max(0, int(lost_digits(space, c)))):
        cc = mpmath.mpmathify(c)
        weights = [mpmath.mpf(f.weight) for f in space.factors]
        radii = [mpmath.mpf(f.radius) for f in space.factors]
        total = mpmath.mpf(0)
        for p, signs in enumerate(itertools.product((1, -1), repeat=n)):
            if h_values is None:
                h = mpmath.fsum(s * w * r for s, w, r in zip(signs, weights, radii))
            else:
                h = mpmath.mpf(h_values[p])
            rates = mpmath.fprod(s * w / r for s, w, r in zip(signs, weights, radii))
            total += mpmath.exp(cc * h) / rates
        return +(total * (2 * mpmath.pi / cc) ** n)


def within(value, want, bound: float) -> bool:
    """|value - want| <= bound |want|, in mpmath at the current precision."""
    with mpmath.workdps(SPARE_DIGITS):
        return abs(mpmath.mpmathify(value) - want) <= bound * abs(want)
