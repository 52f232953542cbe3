"""Real parallel SpGEMM: row parts on threads against the serial run.

A product's rows run as flop-balanced parts on real threads
(:func:`repro.core.threads.run_row_parts`); ESC runs there too, as the
``"esc"`` order of the batched block loop.  The part count is forced
through ``threads._part_count`` (a test seam, not an option).  Also
covers :meth:`CSR.row_block`, the zero-copy row slice the chain executor
streams with.
"""

import numpy as np
import pytest

import repro.core.threads as threads
from repro import ShapeError, csr_from_dense, spgemm
from repro.rmat import er_matrix, g500_matrix

from .test_engine import assert_identical


@pytest.fixture
def parts(monkeypatch):
    """``parts(k)`` forces every threaded call into ``k`` parts."""

    def force(k):
        monkeypatch.setattr(threads, "_part_count", lambda total_flop: k)

    return force


class TestRowBlock:
    def test_slice_matches_dense(self, medium_random):
        blk = medium_random.row_block(10, 25)
        np.testing.assert_allclose(
            blk.to_dense(), medium_random.to_dense()[10:25]
        )
        blk.validate()

    def test_empty_slice(self, medium_random):
        blk = medium_random.row_block(7, 7)
        assert blk.nrows == 0 and blk.nnz == 0


class TestParallelSpgemm:
    def test_matches_serial(self, parts):
        g = g500_matrix(9, 8, seed=1)
        parts(1)
        serial = spgemm(g, g, algorithm="esc")
        parts(4)
        assert_identical(spgemm(g, g, algorithm="esc"), serial)

    def test_various_worker_counts(self, parts):
        a = er_matrix(8, 6, seed=2)
        ref = (a.to_scipy() @ a.to_scipy()).toarray()
        for k in (2, 3, 5):
            parts(k)
            c = spgemm(a, a, algorithm="esc")
            np.testing.assert_allclose(c.to_dense(), ref)

    def test_more_workers_than_rows(self, parts, small_square):
        parts(12)
        c = spgemm(small_square, small_square, algorithm="esc")
        np.testing.assert_allclose(
            c.to_dense(), small_square.to_dense() @ small_square.to_dense()
        )

    def test_hash_kernel_unsorted(self, parts):
        g = g500_matrix(8, 8, seed=3)
        parts(3)
        c = spgemm(g, g, algorithm="hash", engine="fast", sort_output=False)
        ref = (g.to_scipy() @ g.to_scipy()).toarray()
        np.testing.assert_allclose(c.to_dense(), ref)
        assert_identical(c, spgemm(g, g, algorithm="hash", sort_output=False))

    def test_rectangular(self, parts, rectangular_pair):
        a, b = rectangular_pair
        parts(2)
        c = spgemm(a, b, algorithm="esc")
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_semiring(self, parts):
        g = er_matrix(7, 4, seed=4, values="ones")
        parts(2)
        c = spgemm(g, g, algorithm="esc", semiring="or_and")
        expected = ((g.to_dense() @ g.to_dense()) > 0).astype(float)
        np.testing.assert_allclose(c.to_dense(), expected)

    def test_shape_mismatch(self, small_square, rectangular_pair):
        with pytest.raises(ShapeError):
            spgemm(small_square, rectangular_pair[1], algorithm="esc")

    def test_empty_matrix(self, parts):
        # Zero flop: the partition falls back to an even row split.
        z = csr_from_dense(np.zeros((5, 5)))
        parts(3)
        c = spgemm(z, z, algorithm="esc")
        assert c.shape == (5, 5) and c.nnz == 0


class TestRowBlockValidation:
    def test_bad_range_rejected(self, medium_random):
        for start, end in ((-1, 5), (5, 3), (0, medium_random.nrows + 1)):
            with pytest.raises(ShapeError):
                medium_random.row_block(start, end)

    def test_block_of_unsorted_parent_redetects_sortedness(self):
        from repro import CSR

        # row 0 is unsorted, row 1 is sorted: a block of just row 1 should
        # carry sorted_rows=True even though the parent is unsorted.
        m = CSR(
            (2, 4),
            np.array([0, 2, 4]), np.array([3, 1, 0, 2]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        assert not m.sorted_rows
        assert m.row_block(1, 2).sorted_rows
        assert not m.row_block(0, 1).sorted_rows

    def test_block_of_sorted_parent_stays_sorted(self, medium_random):
        parent = medium_random.sort_rows()
        assert parent.row_block(3, 9).sorted_rows


class TestResultSortedness:
    """A product flags its result from the algorithm's table row, at any
    part count."""

    @pytest.mark.parametrize("algorithm", ["kokkos", "mkl_inspector"])
    def test_unsorted_kernels_flag_unsorted(self, parts, algorithm):
        g = er_matrix(8, 8, seed=6)
        parts(2)
        c = spgemm(g, g, algorithm=algorithm, sort_output=True, engine="fast")
        assert not c.sorted_rows
        assert not spgemm(g, g, algorithm=algorithm, sort_output=True).sorted_rows
        c.validate()

    @pytest.mark.parametrize("algorithm", ["merge", "blocked_spa"])
    def test_sorted_kernels_flag_sorted(self, parts, algorithm):
        g = er_matrix(8, 8, seed=6)
        parts(2)
        c = spgemm(g, g, algorithm=algorithm, sort_output=False, engine="fast")
        assert c.sorted_rows
        assert spgemm(g, g, algorithm=algorithm, sort_output=False).sorted_rows
        c.validate()

    def test_downstream_heap_product_matches_serial(self, parts):
        # An unsorted product feeds a sorted-input kernel through the
        # dispatcher's sorted copy of B.
        x = er_matrix(8, 8, seed=6)
        parts(2)
        threaded = spgemm(x, x, algorithm="mkl_inspector", engine="fast")
        serial = spgemm(x, x, algorithm="mkl_inspector")
        assert_identical(
            spgemm(x, threaded, algorithm="heap"),
            spgemm(x, serial, algorithm="heap"),
        )
