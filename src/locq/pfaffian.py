"""Pfaffians and the square-root-determinant convention for skew matrices.

Two independent evaluation paths are kept side by side: the combinatorial
expansion along the first row (used for dim <= 8 and as the oracle), each
minor once, by a plan built once per dimension, and for larger matrices
Householder reflections of the even columns only, n/2 - 1 of them at dim
n, each an orthogonal similarity of the trailing block.  canonicalize(A).sqrt_det
fixes the sign of det(A)^(1/2) through the canonical-form convention: an
oriented orthonormal basis in which A consists of 2x2 blocks
[[0, -l_j], [l_j, 0]], whence det(A)^(1/2) = prod_j l_j = (-1)^n Pf(A) for
dim = 2n.  The form comes from one eigendecomposition of the Hermitian
matrix 1j * A, whose eigenvalues are the rates +-l_j themselves.

NumPy is imported inside the functions that use it, so importing this
module (and the CLI) does not load it.
"""

from __future__ import annotations

import contextlib
import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import NotSkewSymmetricError, OddDimensionError, SingularMatrixError, require_double

if TYPE_CHECKING:
    import numpy as np

SKEW_TOL = 1e-12
# canonicalize rejects A when its smallest rotation rate is at most this
# fraction of the largest.  Both are eigenvalues of 1j * A, accurate to a
# few rounding errors of the largest, so the threshold compares true rates.
SINGULAR_TOL = 1e-10


class SkewMatrix:
    """Even-dimensional real skew-symmetric matrix.

    Inputs are antisymmetrized via (A - A^T)/2, or A/2 - A^T/2 where A - A^T
    overflows (A/2 would round subnormal entries); a deviation max|A + A^T|
    / 2 beyond SKEW_TOL = 1e-12 times the largest entry raises, at every
    scale, and a smaller nonzero one sets `adjusted`.
    A NaN or infinite entry (max|A| is not finite) raises a ValueError
    naming the first one, in row-major order, and a non-numeric one its type.
    Entries so large that a result overflows a double are refused where
    that result is computed: the Pfaffian, the determinant, a rate or
    sqrt_det raises a ValueError naming it, and NumPy warns of nothing.
    """

    __slots__ = ("mat", "adjusted")

    def __init__(self, entries):
        import numpy as np

        try:
            a = np.asarray(entries, dtype=float)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be real numbers: {exc}") from exc
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"square matrix required, got shape {a.shape}")
        if a.shape[0] % 2 != 0 or a.shape[0] == 0:
            raise OddDimensionError(
                f"dimension must be a positive even integer, got {a.shape[0]}"
            )
        largest = float(abs(a).max())
        if not math.isfinite(largest):
            row, col = (int(i) for i in np.argwhere(~np.isfinite(a))[0])
            raise ValueError(
                f"matrix entries must be finite, got {float(a[row, col])!r} at "
                f"(row, col) = ({row}, {col})"
            )
        huge = largest > sys.float_info.max / 2  # only then can A + A^T or A - A^T overflow
        with np.errstate(all="ignore") if huge else contextlib.nullcontext():
            deviation = float(abs(a + a.T).max()) / 2.0
            skew = (a - a.T) / 2.0  # its diagonal is x - x = +0.0: finite entries
            if huge:  # where A - A^T overflows, A/2 - A^T/2 is exact
                skew = np.where(np.isfinite(skew), skew, a / 2.0 - a.T / 2.0)
        if deviation > SKEW_TOL * largest:
            raise NotSkewSymmetricError(
                f"matrix deviates from skew symmetry by {deviation:.3e}"
            )
        self.mat = skew
        self.mat.setflags(write=False)
        self.adjusted = deviation > 0.0

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def half_dim(self) -> int:
        return self.mat.shape[0] // 2

    def det(self) -> float:
        """Determinant by LU elimination (numpy), independent of any Pfaffian path."""
        import numpy as np

        with np.errstate(all="ignore"):
            return require_double("determinant", float(np.linalg.det(self.mat)))


def pfaffian(a: SkewMatrix) -> float:
    """Pf(A) with Pf(A)^2 = det(A).

    Dispatches to the exact combinatorial expansion for dim <= 8 and to
    orthogonal tridiagonal reduction beyond.
    """
    if a.dim <= 8:
        return require_double("Pfaffian", pfaffian_combinatorial(a))
    return require_double("Pfaffian", pfaffian_tridiagonal(a))


def pfaffian_combinatorial(a: SkewMatrix) -> float:
    """Perfect-matching expansion along the first row (105 terms at dim 8).

    It runs the dimension's _plan over the entries as Python floats, each
    minor once, in the plain recursion's order of terms, skipping a zero
    entry's term as it does: the result is that recursion's to the bit.
    """
    m, pf = a.mat.tolist(), [1.0]
    for i, terms in _plan(a.dim):
        row, total = m[i], 0.0
        for j, child, sign in terms:
            aij = row[j]
            if aij != 0.0:
                total += sign * aij * pf[child]
        pf.append(total)
    return pf[-1]


@lru_cache(maxsize=8)
def _plan(dim: int) -> tuple:
    """The minors the expansion reaches, children first: the minor on (i, *rest) is (i, terms),
    a term (j, slot of the minor on rest without j, (-1)^pos) for each j = rest[pos].  Slot 0
    holds the empty minor's Pfaffian, 1, and slot s the plan's s-th: 33 minors at dim 8."""
    slots, plan = {(): 0}, []

    def visit(idx: tuple) -> int:
        if idx not in slots:
            plan.append((idx[0], tuple((idx[pos], visit(idx[1:pos] + idx[pos + 1:]),
                                        (-1.0) ** (pos - 1)) for pos in range(1, len(idx)))))
            slots[idx] = len(slots)
        return slots[idx]

    visit(tuple(range(dim)))
    return tuple(plan)


def pfaffian_tridiagonal(a: SkewMatrix) -> float:
    """Householder reduction of the even columns (Wimmer, ACM TOMS 38, 2012).

    Once column k is zero below row k+1, expanding along row k gives
    Pf(A[k:, k:]) = a_k,k+1 Pf(A[k+2:, k+2:]).  So only columns 0, 2, 4,
    ... are reflected, and only the trailing block is updated.  The
    reflector H = I - 2 v v^T on rows and columns k+1.. maps the column x
    = A[k+1:, k] to -copysign(|x|, x_0) e_1 and has det(H) = -1, so
    Pf(A[k:, k:]) = -copysign(|x|, x_0) Pf(B), where B is the trailing
    block of H A H^T = A + 2 (v w^T - w v^T), w = A v, which stays exactly
    skew.  A column already zero below row k+1 is not reflected, so dim n
    takes at most n/2 - 1 reflections.  Norms are taken by math.hypot,
    which neither overflows nor underflows.
    """
    import numpy as np

    t = a.mat.copy()
    d = a.dim
    factors = []
    with np.errstate(all="ignore"):
        for k in range(0, d - 2, 2):
            x = t[k + 1:, k]
            x0, tail = float(x[0]), math.hypot(*x[1:].tolist())
            if tail == 0.0:
                factors.append(float(t[k, k + 1]))
                continue
            norm = math.hypot(x0, tail)
            v = x.copy()
            v[0] = x0 + math.copysign(norm, x0)
            v /= math.hypot(v[0], tail)
            w = t[k + 1:, k + 1:] @ v
            update = v[1:, None] * w[1:]
            t[k + 2:, k + 2:] += 2.0 * (update - update.T)
            factors.append(-math.copysign(norm, x0))
        factors.append(float(t[d - 2, d - 1]))
    return math.prod(factors)


class CanonicalForm(NamedTuple):
    """Block-diagonalizing data: A = basis @ blockdiag(...) @ basis^T."""

    lambdas: tuple[float, ...]
    basis: np.ndarray

    @property
    def sqrt_det(self) -> float:
        """det(A)^(1/2) = prod_j l_j, multiplied left to right."""
        return require_double("sqrt_det", math.prod(self.lambdas))


def canonicalize(a: SkewMatrix) -> CanonicalForm:
    """Orthonormal basis putting A into 2x2 rotation blocks.

    1j * A is Hermitian with eigenvalues +-l_j; the rates are its n largest.
    An eigenvector x + iy of l_j, scaled so that its largest-modulus entry
    is real and positive, has A x = l_j y, |x| = |y| and x orthogonal to y,
    so (x/|x|, y/|y|) carries the block [[0, -l_j], [l_j, 0]], repeated
    rates included.  Orientation convention: the basis determinant is +1,
    rates are sorted by decreasing magnitude, and any sign needed to fix
    the orientation is carried by the last rate, so prod_j l_j is well
    defined.
    """
    import numpy as np

    n = a.half_dim
    with np.errstate(all="ignore"):
        w, v = np.linalg.eigh(1j * a.mat)  # w ascending: -l_1 .. -l_n, l_n .. l_1
    lambdas = [require_double("rotation rate", rate) for rate in w[n:][::-1].tolist()]
    if lambdas[-1] <= SINGULAR_TOL * lambdas[0]:
        raise SingularMatrixError("matrix is singular or nearly singular")
    z = v[:, n:][:, ::-1]
    pivot = z[np.argmax(np.abs(z), axis=0), np.arange(n)]
    z = z * (np.abs(pivot) / pivot)
    basis = np.empty((a.dim, a.dim))
    basis[:, 0::2] = z.real / np.linalg.norm(z.real, axis=0)
    basis[:, 1::2] = z.imag / np.linalg.norm(z.imag, axis=0)
    if np.linalg.det(basis) < 0:
        basis[:, -1] = -basis[:, -1]
        lambdas[-1] = -lambdas[-1]
    return CanonicalForm(lambdas=tuple(lambdas), basis=basis)
