"""Pfaffians and the square-root-determinant convention for skew matrices.

Two independent evaluation paths are kept side by side: the combinatorial
expansion along the first row (exact up to rounding, used for dim <= 8 and
as the oracle) and Householder tridiagonalization with orthogonal
similarity transforms for larger matrices.  sqrt_det fixes the sign of
det(A)^(1/2) through the canonical-form convention: an oriented
orthonormal basis in which A consists of 2x2 blocks [[0, -l_j], [l_j, 0]],
whence sqrt_det(A) = prod_j l_j = (-1)^n Pf(A) for dim = 2n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSkewSymmetricError, OddDimensionError, SingularMatrixError

SKEW_TOL = 1e-12
# canonicalize rejects A when its smallest rotation rate is at most this
# fraction of the largest.
SINGULAR_TOL = 1e-10


class SkewMatrix:
    """Even-dimensional real skew-symmetric matrix.

    Inputs are antisymmetrized via (A - A^T)/2; deviations beyond the
    1e-12 absolute tolerance raise, smaller nonzero ones set `adjusted`.
    """

    __slots__ = ("mat", "adjusted")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"square matrix required, got shape {a.shape}")
        if a.shape[0] % 2 != 0 or a.shape[0] == 0:
            raise OddDimensionError(
                f"dimension must be a positive even integer, got {a.shape[0]}"
            )
        deviation = float(np.max(np.abs(a + a.T))) / 2.0
        if deviation > SKEW_TOL * max(1.0, float(np.max(np.abs(a)))):
            raise NotSkewSymmetricError(
                f"matrix deviates from skew symmetry by {deviation:.3e}"
            )
        skew = (a - a.T) / 2.0
        np.fill_diagonal(skew, 0.0)
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
        return float(np.linalg.det(self.mat))


def pfaffian(a: SkewMatrix) -> float:
    """Pf(A) with Pf(A)^2 = det(A).

    Dispatches to the exact combinatorial expansion for dim <= 8 and to
    orthogonal tridiagonal reduction beyond.
    """
    if a.dim <= 8:
        return pfaffian_combinatorial(a)
    return pfaffian_tridiagonal(a)


def pfaffian_combinatorial(a: SkewMatrix) -> float:
    """Perfect-matching expansion along the first row (105 terms at dim 8)."""
    m = a.mat

    def pf(idx: tuple[int, ...]) -> float:
        if not idx:
            return 1.0
        first = idx[0]
        rest = idx[1:]
        total = 0.0
        sign = 1.0
        for pos, j in enumerate(rest):
            aij = m[first, j]
            if aij != 0.0:
                sub = rest[:pos] + rest[pos + 1:]
                total += sign * aij * pf(sub)
            sign = -sign
        return total

    return float(pf(tuple(range(a.dim))))


def pfaffian_tridiagonal(a: SkewMatrix) -> float:
    """Householder reduction to skew tridiagonal form.

    Each reflector H is orthogonal with det(H) = -1 and Pf(H A H^T) =
    det(H) Pf(A), so the sign is restored by counting reflectors; the
    Pfaffian of the tridiagonal is the product of its odd superdiagonal
    entries T[0,1] T[2,3] ...
    """
    t = a.mat.copy()
    d = a.dim
    det_q = 1.0
    for k in range(d - 2):
        col = t[k + 1:, k].copy()
        norm = np.linalg.norm(col)
        if norm == 0.0:
            continue
        v = col
        v[0] += np.copysign(norm, v[0] if v[0] != 0 else 1.0)
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        # apply H = I - 2 v v^T on rows and columns k+1..
        block = t[k + 1:, :]
        block -= 2.0 * np.outer(v, v @ block)
        block = t[:, k + 1:]
        block -= 2.0 * np.outer(block @ v, v)
        det_q = -det_q
    pf = 1.0
    for i in range(0, d, 2):
        pf *= t[i, i + 1]
    return float(det_q * pf)


@dataclass(frozen=True)
class CanonicalForm:
    """Block-diagonalizing data: A = basis @ blockdiag(...) @ basis^T."""

    lambdas: tuple[float, ...]
    basis: np.ndarray

    def block_matrix(self) -> np.ndarray:
        d = 2 * len(self.lambdas)
        b = np.zeros((d, d))
        for j, lam in enumerate(self.lambdas):
            b[2 * j, 2 * j + 1] = -lam
            b[2 * j + 1, 2 * j] = lam
        return b

    def reassemble(self) -> np.ndarray:
        return self.basis @ self.block_matrix() @ self.basis.T


def canonicalize(a: SkewMatrix) -> CanonicalForm:
    """Orthonormal basis putting A into 2x2 rotation blocks.

    The rotation rates come from the spectral decomposition of the
    symmetric matrix A @ A (eigenvalues -l_j^2).  The basis is completed
    pair by pair as (e, A e / l) inside each eigenspace, which stays
    orthonormal even for repeated rates.  Orientation convention: the
    basis determinant is +1, rates are sorted by decreasing magnitude,
    and any sign needed to fix the orientation is carried by the last
    rate, so prod_j l_j is well defined.
    """
    m = a.mat
    d = a.dim
    w, v = np.linalg.eigh(m @ m)  # w ascending, all <= 0
    lam_all = np.sqrt(np.maximum(-w, 0.0))
    scale = float(np.max(lam_all))
    if scale == 0.0 or float(np.min(lam_all)) <= SINGULAR_TOL * scale:
        raise SingularMatrixError("matrix is singular or nearly singular")

    # split the spectrum into groups of (nearly) equal rotation rates and
    # build invariant 2-planes inside each group by projection
    order = np.argsort(-lam_all)
    lam_sorted = lam_all[order]
    v_sorted = v[:, order]
    lambdas: list[float] = []
    cols: list[np.ndarray] = []
    i = 0
    while i < d:
        j = i + 1
        while j < d and abs(lam_sorted[j] - lam_sorted[i]) <= 1e-7 * scale:
            j += 1
        group = [v_sorted[:, k].copy() for k in range(i, j)]
        planes: list[tuple[np.ndarray, np.ndarray]] = []
        for _ in range((j - i) // 2):
            best_vec, best_norm = None, -1.0
            for cvec in group:
                r = cvec.copy()
                for f1, f2 in planes:
                    r -= (f1 @ r) * f1 + (f2 @ r) * f2
                nr = float(np.linalg.norm(r))
                if nr > best_norm:
                    best_norm, best_vec = nr, r
            if best_vec is None or best_norm < 1e-6:
                raise SingularMatrixError("failed to split the spectrum into 2-planes")
            e1 = best_vec / best_norm
            ae1 = m @ e1
            lam = float(np.linalg.norm(ae1))  # per-plane rate, exact for this plane
            e2 = ae1 / lam
            e2 -= (e1 @ e2) * e1
            e2 /= np.linalg.norm(e2)
            planes.append((e1, e2))
            lambdas.append(lam)
            cols.extend([e1, e2])
        i = j

    if len(lambdas) != a.half_dim:
        raise SingularMatrixError("failed to split the spectrum into 2-planes")
    basis = np.column_stack(cols)
    if np.linalg.det(basis) < 0:
        basis[:, -1] = -basis[:, -1]
        lambdas[-1] = -lambdas[-1]
    return CanonicalForm(lambdas=tuple(float(x) for x in lambdas), basis=basis)


def sqrt_det(a: SkewMatrix) -> float:
    """det(A)^(1/2) = prod_j l_j = (-1)^n Pf(A) in the oriented canonical basis."""
    form = canonicalize(a)
    out = 1.0
    for lam in form.lambdas:
        out *= lam
    return out


def block_diagonal(lambdas) -> SkewMatrix:
    """Assemble the skew matrix with 2x2 blocks [[0, -l], [l, 0]]."""
    lams = list(lambdas)
    d = 2 * len(lams)
    m = np.zeros((d, d))
    for j, lam in enumerate(lams):
        m[2 * j, 2 * j + 1] = -lam
        m[2 * j + 1, 2 * j] = lam
    return SkewMatrix(m)
