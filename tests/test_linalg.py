"""Exact integer elimination against a rational row-reduction oracle, and
the SVD split of float spans."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylbilliards.linalg import SPAN_RTOL, integer_nullspace, integer_rref, rational_rank, span_split


def fraction_rref(mat):
    """Reduced row echelon form over Q: nonzero rows and pivot columns."""
    m = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@st.composite
def integer_matrices(draw, cols=None):
    """Small integer matrices, often with rows that are combinations of
    other rows, so that rank deficiency is common."""
    cols = draw(st.integers(1, 7)) if cols is None else cols
    span = draw(st.sampled_from([1, 3, 40]))
    entries = st.integers(-span, span)
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=0, max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows, cols


class TestIntegerElimination:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_rref_and_rank_match_fraction_oracle(self, spec):
        mat, _ = spec
        rows, pivots = integer_rref(mat)
        want_rows, want_pivots = fraction_rref(mat)
        assert pivots == want_pivots
        assert rational_rank(mat) == len(want_pivots)
        if rows:
            scale = rows[0][pivots[0]]
            assert [[Fraction(x, scale) for x in row] for row in rows] == want_rows

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_nullspace_rows_are_the_scaled_rational_null_vectors(self, spec):
        mat, cols = spec
        if not mat:
            return
        want_rows, pivots = fraction_rref(mat)
        free = [c for c in range(cols) if c not in pivots]
        null = integer_nullspace(mat)
        assert len(null) == len(free)
        for vec, fc in zip(null, free):
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in mat)
            # The rational RREF null vector with a 1 at its free column.
            unit = [Fraction(0)] * cols
            unit[fc] = Fraction(1)
            for row, pc in zip(want_rows, pivots):
                unit[pc] = -row[fc]
            assert [Fraction(x, vec[fc]) for x in vec] == unit
            assert vec[fc] > 0 and max(i for i, x in enumerate(vec) if x) == fc
            assert math.gcd(*vec) == 1


def assert_split(rows, complement, d):
    """Orthonormal rows and complement that together fill R^d."""
    assert len(rows) + len(complement) == d
    both = np.vstack([rows, complement])
    assert np.allclose(both @ both.T, np.eye(d), rtol=0, atol=1e-12)
    assert np.allclose(rows @ complement.T, 0.0, rtol=0, atol=1e-12)


class TestSpanSplit:
    @pytest.mark.parametrize("offset, rank", [(1e-13, 2), (1e-6, 3)])
    def test_rank_decided_by_threshold(self, offset, rank):
        # The third row is the sum of the first two plus an offset, which
        # counts only when it stays above SPAN_RTOL relative to s_max.
        a, b = np.random.default_rng(3).normal(size=(2, 5))
        mat = np.array([a, b, a + b + offset * np.eye(5)[0]])
        s = np.linalg.svd(mat, compute_uv=False)
        assert (s[2] > SPAN_RTOL * s[0]) == (rank == 3)
        rows, complement = span_split(mat)
        assert len(rows) == rank
        assert_split(rows, complement, 5)
        assert np.allclose(mat @ complement.T, 0.0, rtol=0, atol=10 * offset)

    def test_rank_override(self):
        mat = np.random.default_rng(4).normal(size=(3, 4))
        rows, complement = span_split(mat, 1)
        assert rows.shape == (1, 4) and complement.shape == (3, 4)
        assert_split(rows, complement, 4)
        full_rows, full_complement = span_split(mat)
        assert np.array_equal(rows, full_rows[:1])
        assert np.array_equal(complement[2:], full_complement)

    def test_empty_input(self):
        rows, complement = span_split(np.zeros((0, 3)))
        assert rows.shape == (0, 3)
        assert np.array_equal(complement, np.eye(3))

    def test_zero_matrix_has_rank_zero(self):
        rows, complement = span_split(np.zeros((2, 3)))
        assert rows.shape == (0, 3)
        assert_split(rows, complement, 3)
