"""locq: cross-verified localization, q-series, and elliptic-genus kernels.

Subpackages by task:

  series        exact truncated power series with integer coefficients
  qhyper        q-Pochhammer symbols and bilateral hypergeometric sums
  spectral      numeric infinite products and their spectral-argument map
  pfaffian      Pfaffians and the square-root-determinant convention
  localization  fixed-point localization checks on sphere products
  genfunc       symmetric-product generating functions and oracles
  genus         level-N elliptic genus pipeline
  cli           one JSON-emitting subcommand per operation
  oracles       closed forms only the tests use (the CLI never imports it)
"""

from .series import BivariateSeries, FormalSeries, IntegerProductSpec, expand_product

__version__ = "0.1.0"

# locq.kernel is the only series kernel; the name stays for callers that
# record which kernel produced a result.
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "FormalSeries",
    "BivariateSeries",
    "IntegerProductSpec",
    "expand_product",
    "__version__",
]
