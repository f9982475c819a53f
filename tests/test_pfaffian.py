"""Pfaffian identities, canonical forms, and the sign convention."""

import gc
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locq.errors import (
    NotSkewSymmetricError,
    OddDimensionError,
    SingularMatrixError,
)
from locq.pfaffian import (
    SkewMatrix,
    _plan,
    canonicalize,
    pfaffian,
    pfaffian_combinatorial,
    pfaffian_tridiagonal,
)


def block_diagonal(lambdas) -> SkewMatrix:
    """The skew matrix with 2x2 blocks [[0, -l], [l, 0]]."""
    lams = list(lambdas)
    m = np.zeros((2 * len(lams), 2 * len(lams)))
    for j, lam in enumerate(lams):
        m[2 * j, 2 * j + 1] = -lam
        m[2 * j + 1, 2 * j] = lam
    return SkewMatrix(m)


def random_skew(rng, dim):
    raw = rng.normal(size=(dim, dim))
    return SkewMatrix(raw - raw.T)


def random_orthogonal(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def rotated_block(rng, lambdas):
    """block_diagonal(lambdas) in a random orthonormal basis."""
    a = block_diagonal(lambdas)
    q = random_orthogonal(rng, a.dim)
    return SkewMatrix(q @ a.mat @ q.T)


def reassemble(form):
    return form.basis @ block_diagonal(form.lambdas).mat @ form.basis.T


class TestValidation:
    def test_odd_dimension(self):
        with pytest.raises(OddDimensionError):
            SkewMatrix(np.zeros((3, 3)))

    def test_not_skew(self):
        with pytest.raises(NotSkewSymmetricError):
            SkewMatrix([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("dim,entries,named", [
        (2, {(0, 1): np.inf, (1, 0): -np.inf}, "inf at (row, col) = (0, 1)"),
        (2, {(1, 0): np.nan}, "nan at (row, col) = (1, 0)"),
        (10, {(3, 7): np.nan, (7, 3): np.nan}, "nan at (row, col) = (3, 7)"),
        (10, {(9, 2): -np.inf, (2, 9): np.inf}, "inf at (row, col) = (2, 9)"),
    ])
    def test_non_finite_entry_named(self, dim, entries, named):
        # dims 2 and 10 reach the two Pfaffian paths; a NaN or inf that
        # reaches NumPy warns, an error under the test configuration
        raw = np.triu(np.arange(1.0, dim * dim + 1).reshape(dim, dim), 1)
        a = raw - raw.T
        for index, value in entries.items():
            a[index] = value
        message = f"matrix entries must be finite, got {named}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SkewMatrix(a)

    @pytest.mark.parametrize("scale", [1.0, 1e13])
    def test_not_skew_at_any_scale(self, scale):
        # strictly upper triangular: the deviation is half the largest entry
        a = np.zeros((4, 4))
        a[0, 1], a[2, 3] = 2e-13 * scale, 3e-13 * scale
        with pytest.raises(NotSkewSymmetricError):
            SkewMatrix(a)

    def test_small_deviation_is_adjusted(self):
        a = np.array([[0.0, 1.0], [-1.0 + 1e-14, 0.0]])
        m = SkewMatrix(a)
        assert m.adjusted
        assert m.mat[0, 1] == -m.mat[1, 0]

    def test_skew_part_of_huge_entries_is_exact(self):
        # (A - A^T) / 2 overflows to inf at 1.7e308 - -1.7e308; A/2 - A^T/2
        # is exact there, and the subnormal entries keep their last bit
        a = np.array([[0.0, 1.7e308, 1e308, 0.0], [-1.7e308, 0.0, 0.0, 5e-324],
                      [-1e308, 0.0, 0.0, 1.0], [0.0, -5e-324, -1.0, 0.0]])
        m = SkewMatrix(a)
        assert np.array_equal(m.mat, a)
        assert not m.adjusted


def _six_pass_skew(entries):
    """(mat, adjusted) as SkewMatrix made them with six whole-matrix passes:
    a finiteness pass first, then max|A + A^T|, A - A^T, max|A| and an
    explicit zero diagonal.  The reference for its parity test."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    if a.shape[0] % 2 != 0 or a.shape[0] == 0:
        raise OddDimensionError(f"dimension must be a positive even integer, got {a.shape[0]}")
    if not np.isfinite(a).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"matrix entries must be finite, got {float(a[row, col])!r} at "
                         f"(row, col) = ({row}, {col})")
    with np.errstate(all="ignore"):
        deviation = float(abs(a + a.T).max()) / 2.0
        skew = (a - a.T) / 2.0
        largest = float(abs(a).max())
        if largest > sys.float_info.max / 2:
            skew = np.where(np.isfinite(skew), skew, a / 2.0 - a.T / 2.0)
    if deviation > 1e-12 * largest:
        raise NotSkewSymmetricError(f"matrix deviates from skew symmetry by {deviation:.3e}")
    np.fill_diagonal(skew, 0.0)
    return skew, deviation > 0.0


def _skew_parity_corpus():
    """Exact, near and non-skew matrices; NaN and +-inf at several places;
    entries near max/2; subnormal and -0.0 entries."""
    rng = np.random.default_rng(37)
    huge = 1.7e308
    corpus = []
    for dim in (2, 4, 6, 8, 10, 12):
        raw = rng.normal(size=(dim, dim))
        exact = raw - raw.T
        corpus += [exact, exact * 1e-300, exact * 1e300,
                   exact + 1e-14 * rng.normal(size=(dim, dim)),  # near skew: adjusted
                   exact + 1e-3 * rng.normal(size=(dim, dim)),  # not skew
                   raw,
                   exact + np.diag(rng.normal(size=dim) * 1e-13)]  # diagonal only
        for value in (np.nan, np.inf, -np.inf):
            for index in ((0, 0), (0, 1), (1, 0), (dim - 1, dim - 2), (dim - 1, dim - 1)):
                bad = exact.copy()
                bad[index] = value
                corpus.append(bad)
        both = exact.copy()
        both[dim - 1, 0], both[0, dim - 1] = np.inf, np.nan
        corpus.append(both)
        big = exact / abs(exact).max() * huge
        corpus += [big, big * 0.5000001, big + 1e292 * rng.normal(size=(dim, dim)),
                   np.abs(big), big + np.diag(np.full(dim, huge))]
        tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308], size=(dim, dim))
        corpus += [tiny, tiny - tiny.T, np.full((dim, dim), -0.0),
                   np.where(exact > 0, exact, -0.0)]
        faint = exact.copy()
        faint[0, 1], faint[1, 0] = 1e-310, 0.0  # a subnormal deviation: adjusted
        corpus.append(faint)
        mixed = exact.copy()
        mixed[0, 1], mixed[1, 0] = huge, -huge
        mixed[dim - 2, dim - 1], mixed[dim - 1, dim - 2] = 5e-324, -5e-324
        corpus.append(mixed)
    corpus += [[[0, 1], [-1, 0]], [[0.0, -0.0], [0.0, -0.0]], np.zeros((3, 3)),
               np.zeros((0, 0)), np.zeros((2, 3)), [[float("nan")]]]
    return corpus


class TestSkewMatrixParity:
    def test_same_bits_flag_and_refusal_as_six_passes(self):
        def outcome(make, entries):
            try:
                mat, adjusted = make(entries)
            except (ValueError, OddDimensionError, NotSkewSymmetricError) as exc:
                return type(exc), str(exc)
            return mat.dtype, mat.shape, mat.tobytes(), adjusted

        def production(entries):
            m = SkewMatrix(entries)
            return m.mat, m.adjusted

        corpus = _skew_parity_corpus()
        kinds = set()
        for entries in corpus:
            got = outcome(production, entries)
            assert got == outcome(_six_pass_skew, entries)
            kinds.add(got[0] if isinstance(got[0], type) else got[3])
        # every kind of outcome occurs
        assert kinds == {True, False, ValueError, OddDimensionError, NotSkewSymmetricError}


class TestSkewMatrixOverflowEdge:
    """Only a largest entry past max/2 lets A + A^T or A - A^T overflow.  At
    max/2 and at the next double above it, SkewMatrix keeps the six-pass
    bits, flag and refusal, and NumPy warns of nothing."""

    @staticmethod
    def corpus(edge):
        below = np.nextafter(edge, 0.0)
        return [
            [[0.0, edge], [-edge, 0.0]],  # A - A^T is 2 edge: max, or past it
            [[0.0, edge], [-below, 0.0]],  # deviation of an ulp: adjusted
            [[0.0, edge], [edge, 0.0]],  # A + A^T is 2 edge: not skew
            [[edge, 0.0], [0.0, 0.0]],  # on the diagonal: not skew
            [[0.0, edge, 1.0, 0.0], [-edge, 0.0, 0.0, 5e-324],
             [-1.0, 0.0, 0.0, -edge], [0.0, -5e-324, edge, 0.0]],
            [[0.0, -0.0], [edge, 0.0]],
        ]

    @pytest.mark.parametrize("edge", [sys.float_info.max / 2,
                                      np.nextafter(sys.float_info.max / 2, math.inf)])
    def test_same_bits_flag_and_refusal_as_six_passes(self, edge):
        def outcome(make, entries):
            try:
                mat, adjusted = make(entries)
            except NotSkewSymmetricError as exc:
                return type(exc), str(exc)
            return mat.tobytes(), adjusted

        def production(entries):
            m = SkewMatrix(entries)
            return m.mat, m.adjusted

        kinds = set()
        for entries in self.corpus(float(edge)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = outcome(production, entries)
            assert got == outcome(_six_pass_skew, entries), entries
            kinds.add(got[0] if isinstance(got[0], type) else got[1])
        assert kinds == {True, False, NotSkewSymmetricError}


class TestPfaffian:
    def test_two_by_two(self):
        # Pf([[0, l], [-l, 0]]) = l by definition
        assert pfaffian(SkewMatrix([[0.0, 3.5], [-3.5, 0.0]])) == 3.5

    def test_block_multiplicativity(self):
        # direct sum of [[0, l], [-l, 0]] blocks multiplies the Pfaffians
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 2.0, -2.0
        m[2, 3], m[3, 2] = -5.0, 5.0
        assert pfaffian(SkewMatrix(m)) == pytest.approx(2.0 * -5.0, abs=1e-14)
        # canonical-form blocks [[0,-l],[l,0]] give prod(-l_j) instead
        assert pfaffian(block_diagonal([2.0, -5.0])) == pytest.approx(-10.0, abs=1e-14)
        assert pfaffian(block_diagonal([1.0, 3.0])) == pytest.approx(3.0, abs=1e-14)

    def test_square_is_determinant(self):
        rng = np.random.default_rng(1)
        for dim in (2, 4, 6, 8, 10, 12):
            for _ in range(15):
                a = random_skew(rng, dim)
                pf, det = pfaffian(a), a.det()
                assert abs(pf * pf - det) < 1e-9 * max(1.0, abs(det))

    def test_congruence_covariance(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            dim = int(rng.choice([2, 4, 6, 8]))
            a = random_skew(rng, dim)
            b = rng.normal(size=(dim, dim))
            lhs = pfaffian(SkewMatrix(b @ a.mat @ b.T))
            rhs = float(np.linalg.det(b)) * pfaffian(a)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("dim", [4, 10])
    def test_overflow_is_refused_by_name(self, dim):
        # rates 1e200: Pf, det and sqrt_det overflow, the rates do not
        a = block_diagonal([1e200] * (dim // 2))
        assert canonicalize(a).lambdas == (1e200,) * (dim // 2)
        for fn, what in ((pfaffian, "Pfaffian"), (SkewMatrix.det, "determinant"),
                         (lambda m: canonicalize(m).sqrt_det, "sqrt_det")):
            with pytest.raises(ValueError, match=f"^overflow: {what} is not a finite double, got "):
                fn(a)

    def test_paths_agree(self):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 6, 8, 10):
            for _ in range(10):
                a = random_skew(rng, dim)
                assert pfaffian_combinatorial(a) == pytest.approx(
                    pfaffian_tridiagonal(a), rel=1e-10, abs=1e-12
                )


class TestEvenColumnReduction:
    """pfaffian_tridiagonal reflects only the even columns, and none that is
    already zero below its block."""

    @pytest.mark.parametrize("dim", [10, 12, 16, 20])
    def test_block_diagonal_skips_every_reflection(self, dim):
        # nothing to reflect: Pf is the product of the blocks' -l_j, exactly
        rates = np.random.default_rng(dim).uniform(-2.0, 2.0, size=dim // 2).tolist()
        want = 1.0
        for rate in rates:
            want *= -rate
        assert pfaffian_tridiagonal(block_diagonal(rates)) == want

    @pytest.mark.parametrize("dim", [10, 14, 20])
    def test_zero_even_column_gives_zero(self, dim):
        # reflections that reach no entry of the zero row and column leave
        # them zero, so the reduction meets a column with nothing to reflect
        # and a_k,k+1 = 0
        raw = np.random.default_rng(dim).normal(size=(dim, dim))
        for col in range(0, dim, 2):
            a = raw - raw.T
            a[:, col] = a[col, :] = 0.0
            assert pfaffian_tridiagonal(SkewMatrix(a)) == 0.0

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("dim", [10, 12, 20, 40, 60])
    def test_square_is_determinant(self, dim, scale):
        # entries scaled so that |Pf| is near `scale`: Pf and det both stay
        # normal doubles
        rng = np.random.default_rng(dim)
        for _ in range(5):
            a = random_skew(rng, dim)
            factor = (scale / abs(pfaffian_tridiagonal(a))) ** (2 / dim)
            b = SkewMatrix(factor * a.mat)
            pf, det = pfaffian_tridiagonal(b), b.det()
            assert abs(pf) == pytest.approx(scale, rel=1e-6)
            assert abs(pf * pf - det) <= 1e-9 * abs(det)


def _plain_pfaffian(a):
    """The expansion along the first row as a plain recursion: NumPy
    indexing and no memo, so every minor is expanded again where it recurs."""
    m = a.mat

    def pf(idx):
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


@st.composite
def _skew_matrices(draw):
    """Skew matrices of dimension 2-8: exact zeros, which the expansion
    skips, among entries of magnitude 1, 1e-150 or 1e150."""
    dim = draw(st.sampled_from([2, 4, 6, 8]))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    entry = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_subnormal=False))
    upper = draw(st.lists(entry, min_size=dim * (dim - 1) // 2,
                          max_size=dim * (dim - 1) // 2))
    a = np.zeros((dim, dim))
    a[np.triu_indices(dim, 1)] = np.array(upper) * scale
    return SkewMatrix(a - a.T)


class TestCombinatorialMemo:
    @settings(max_examples=200, deadline=None)
    @given(a=_skew_matrices())
    def test_bit_identical_to_plain_recursion(self, a):
        # repr, so that inf and nan (from the 1e150 scale) compare too.
        # Overflow and inf - inf warn in NumPy scalar arithmetic (an error
        # under the test configuration), not in Python floats.
        with np.errstate(over="ignore", invalid="ignore"):
            assert repr(pfaffian_combinatorial(a)) == repr(_plain_pfaffian(a))

    def test_each_minor_expanded_once(self):
        # dim 8, no zero entry: the 33 nonempty minors (1 of size 8, 7 of
        # size 6, 15 of size 4, 10 of size 2) read 7 + 7 * 5 + 15 * 3 + 10 = 97
        # entries; the plain recursion reads 7 + 7 * 5 + 35 * 3 + 105 = 252
        reads = []

        class Row(list):
            def __getitem__(self, j):
                reads.append(j)
                return list.__getitem__(self, j)

        upper = np.triu(np.arange(1.0, 65.0).reshape(8, 8), 1)
        a = SkewMatrix(upper - upper.T)

        class Counted:
            dim = a.dim

            class mat:
                @staticmethod
                def tolist():
                    return [Row(r) for r in a.mat.tolist()]

        assert pfaffian_combinatorial(Counted()) == pfaffian_combinatorial(a) == 125960.0
        assert len(reads) == 97

    def test_plan_built_once_per_dimension_children_first(self):
        plan = _plan(8)
        assert _plan(8) is plan
        assert len(plan) == 33 and sum(len(terms) for _, terms in plan) == 97
        for slot, (i, terms) in enumerate(plan, 1):
            assert all(child < slot for _, child, _ in terms)
            assert [sign for _, _, sign in terms] == [(-1.0) ** pos for pos in range(len(terms))]
            assert all(j > i for j, _, _ in terms)

    def test_memo_freed_without_the_cycle_collector(self):
        # a recursive closure is a reference cycle, which would keep each
        # call's minors and float entries alive until the next collection
        a = random_skew(np.random.default_rng(8), 8)
        gc.collect()
        gc.disable()
        try:
            pfaffian_combinatorial(a)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCanonicalize:
    def test_canonical_block_identity_basis(self):
        form = canonicalize(block_diagonal([3.0]))
        assert form.lambdas == (3.0,)
        assert np.allclose(np.abs(form.basis), np.eye(2))

    def test_rotation_invariance_of_rates(self):
        rng = np.random.default_rng(4)
        a = block_diagonal([2.5, 1.5])
        q = random_orthogonal(rng, 4)
        rotated = SkewMatrix(q @ a.mat @ q.T)
        lams = sorted(abs(x) for x in canonicalize(rotated).lambdas)
        assert np.allclose(lams, [1.5, 2.5], atol=1e-10)

    def test_scaling(self):
        a = block_diagonal([2.0, 1.0])
        doubled = SkewMatrix(2.0 * a.mat)
        lams = sorted(abs(x) for x in canonicalize(doubled).lambdas)
        assert np.allclose(lams, [2.0, 4.0], atol=1e-12)

    def test_reassembly(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4, 6, 10):
            for _ in range(8):
                a = random_skew(rng, dim)
                form = canonicalize(a)
                assert np.max(np.abs(reassemble(form) - a.mat)) < 1e-9
                assert np.allclose(form.basis @ form.basis.T, np.eye(dim), atol=1e-10)
                assert np.linalg.det(form.basis) > 0

    def test_repeated_rates(self):
        a = block_diagonal([2.0, 2.0, 2.0])
        form = canonicalize(a)
        assert np.allclose(sorted(abs(x) for x in form.lambdas), [2.0] * 3)
        assert np.max(np.abs(reassemble(form) - a.mat)) < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            canonicalize(SkewMatrix(np.zeros((4, 4))))

    @pytest.mark.parametrize("small", [1e-8, 1e-9])
    def test_small_rate_above_singular_tol(self, small):
        # a rate above SINGULAR_TOL times the largest is kept, to 1e-6 relative
        rng = np.random.default_rng(7)
        for _ in range(10):
            form = canonicalize(rotated_block(rng, [1.0, small]))
            lams = sorted(abs(x) for x in form.lambdas)
            assert lams == pytest.approx([small, 1.0], rel=1e-6, abs=0.0)

    def test_rate_below_singular_tol_rejected(self):
        with pytest.raises(SingularMatrixError):
            canonicalize(rotated_block(np.random.default_rng(7), [1.0, 3e-11]))

    @pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
    def test_extreme_scales(self, scale):
        a = rotated_block(np.random.default_rng(8), [2.0, 1.0])
        form = canonicalize(SkewMatrix(scale * a.mat))
        lams = sorted(abs(x) / scale for x in form.lambdas)
        assert np.allclose(lams, [1.0, 2.0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 6, 8, 12, 16])
    def test_graded_spectrum_accuracy(self, dim):
        # rates 1 ... 1e-7: every rate within 1e-13 of the largest rate
        rng = np.random.default_rng(dim)
        rates = np.logspace(0, -7, dim // 2)
        for _ in range(5):
            form = canonicalize(rotated_block(rng, rates))
            lams = sorted((abs(x) for x in form.lambdas), reverse=True)
            assert np.max(np.abs(np.array(lams) - rates)) <= 1e-13 * rates[0]


class TestSqrtDet:
    def test_single_block(self):
        assert canonicalize(block_diagonal([2.0])).sqrt_det == pytest.approx(2.0, abs=1e-14)

    def test_signed_product(self):
        assert canonicalize(block_diagonal([1.0, -3.0])).sqrt_det == pytest.approx(-3.0, abs=1e-12)

    def test_square_matches_det_and_sign_matches_pfaffian(self):
        rng = np.random.default_rng(6)
        for dim in (2, 4, 6, 8):
            for _ in range(10):
                a = random_skew(rng, dim)
                sd = canonicalize(a).sqrt_det
                assert abs(sd * sd - a.det()) < 1e-9 * max(1.0, abs(a.det()))
                n = dim // 2
                assert sd == pytest.approx((-1) ** n * pfaffian(a), rel=1e-9)

    def test_direct_sum_multiplicativity(self):
        a = block_diagonal([2.0, 1.0])
        b = block_diagonal([3.0])
        both = block_diagonal([2.0, 1.0, 3.0])
        product = canonicalize(a).sqrt_det * canonicalize(b).sqrt_det
        assert canonicalize(both).sqrt_det == pytest.approx(product, rel=1e-12)
