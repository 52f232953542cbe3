"""Cross-validation of the batched (``engine="fast"``) execution engine.

The fast engine's contract is *bit-for-bit* equality with the faithful
scalar kernels — same indptr, same indices, and data identical at the
float64 bit level (compared through ``view(uint64)``, so even signed zeros
and accumulation-order effects cannot hide).  Hypothesis drives random CSR
inputs across every registered semiring, both output orderings, several
thread counts and both vector widths; a deterministic corpus adds the
duplicate-heavy G500 / uniform ER matrices and the empty edge cases.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ConfigError, available_engines, csr_from_coo, csr_from_dense, spgemm
from repro.core.engine import ScratchArena, get_thread_arena
from repro.core.hash_batch import batch_hash_spgemm
from repro.core.spgemm import ALGORITHMS
from repro.rmat import er_matrix, g500_matrix
from repro.semiring import SEMIRINGS

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

FAST_KERNELS = tuple(sorted(n for n, info in ALGORITHMS.items() if info.batch_order))


def assert_identical(fast, faithful):
    """Bitwise CSR equality — indptr, indices, and data as raw uint64."""
    assert fast.shape == faithful.shape
    np.testing.assert_array_equal(fast.indptr, faithful.indptr)
    np.testing.assert_array_equal(fast.indices, faithful.indices)
    np.testing.assert_array_equal(
        fast.data.view(np.uint64), faithful.data.view(np.uint64)
    )
    assert fast.sorted_rows == faithful.sorted_rows


@st.composite
def csr_pairs(draw, max_dim=18):
    """Random multiplicable (A, B), mirroring test_kernels_properties."""

    def one(nrows, ncols):
        nnz = draw(st.integers(0, nrows * ncols))
        if nnz:
            rows = draw(arrays(np.int64, nnz, elements=st.integers(0, nrows - 1)))
            cols = draw(arrays(np.int64, nnz, elements=st.integers(0, ncols - 1)))
            vals = draw(
                arrays(
                    np.float64,
                    nnz,
                    elements=st.floats(-8, 8, allow_nan=False, width=32),
                )
            )
        else:
            rows = np.empty(0, np.int64)
            cols = np.empty(0, np.int64)
            vals = np.empty(0, np.float64)
        return csr_from_coo(
            nrows, ncols, rows, cols, vals, sort_rows=draw(st.booleans())
        )

    nrows = draw(st.integers(1, max_dim))
    inner = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return one(nrows, inner), one(inner, ncols)


class TestBitForBitRandom:
    @given(
        pair=csr_pairs(),
        algorithm=st.sampled_from(FAST_KERNELS),
        semiring=st.sampled_from(sorted(SEMIRINGS)),
        sort_output=st.booleans(),
        nthreads=st.integers(1, 5),
    )
    @settings(**COMMON)
    def test_matches_faithful(self, pair, algorithm, semiring, sort_output, nthreads):
        a, b = pair
        fast = spgemm(
            a, b, algorithm=algorithm, semiring=semiring,
            sort_output=sort_output, nthreads=nthreads, engine="fast",
        )
        faithful = spgemm(
            a, b, algorithm=algorithm, semiring=semiring,
            sort_output=sort_output, nthreads=nthreads, engine="faithful",
        )
        assert_identical(fast, faithful)

    @given(pair=csr_pairs(), vector_bits=st.sampled_from([256, 512]))
    @settings(**COMMON)
    def test_hashvec_vector_widths(self, pair, vector_bits):
        a, b = pair
        fast = spgemm(
            a, b, algorithm="hashvec", sort_output=False,
            vector_bits=vector_bits, engine="fast",
        )
        faithful = spgemm(
            a, b, algorithm="hashvec", sort_output=False,
            vector_bits=vector_bits, engine="faithful",
        )
        assert_identical(fast, faithful)

    @given(pair=csr_pairs(max_dim=14), block_flop=st.integers(1, 64))
    @settings(**COMMON)
    def test_block_size_invariance(self, pair, block_flop):
        """Output must not depend on how rows are grouped into blocks."""
        a, b = pair
        tiny = batch_hash_spgemm(a, b, sort_output=False, max_block_flop=block_flop)
        one = batch_hash_spgemm(a, b, sort_output=False)
        assert_identical(tiny, one)


class TestBitForBitCorpus:
    """Deterministic duplicate-heavy and edge-case inputs."""

    CORPUS = {
        "g500": lambda: g500_matrix(7, 8, seed=3),
        "er": lambda: er_matrix(7, 4, seed=5),
    }

    @pytest.mark.parametrize("matrix", sorted(CORPUS))
    @pytest.mark.parametrize("algorithm", FAST_KERNELS)
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_skewed_corpus(self, matrix, algorithm, sort_output):
        m = self.CORPUS[matrix]()
        for semiring in sorted(SEMIRINGS):
            for nthreads in (1, 3):
                fast = spgemm(
                    m, m, algorithm=algorithm, semiring=semiring,
                    sort_output=sort_output, nthreads=nthreads, engine="fast",
                )
                faithful = spgemm(
                    m, m, algorithm=algorithm, semiring=semiring,
                    sort_output=sort_output, nthreads=nthreads, engine="faithful",
                )
                assert_identical(fast, faithful)

    @pytest.mark.parametrize("algorithm", FAST_KERNELS)
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_empty_and_empty_rows(self, algorithm, sort_output):
        cases = [
            csr_from_dense(np.zeros((5, 5))),
            csr_from_dense(np.zeros((1, 1))),
            csr_from_dense(
                np.array([[0, 1, 0], [0, 0, 0], [2, 0, 3.0]])
            ),
        ]
        for m in cases:
            fast = spgemm(
                m, m, algorithm=algorithm, sort_output=sort_output, engine="fast"
            )
            faithful = spgemm(
                m, m, algorithm=algorithm, sort_output=sort_output, engine="faithful"
            )
            assert_identical(fast, faithful)


class TestEngineDispatch:
    def test_available_engines(self):
        assert available_engines() == ["faithful", "fast"]

    def test_unknown_engine_rejected(self, small_square):
        with pytest.raises(ConfigError):
            spgemm(small_square, small_square, engine="warp")

    def test_fallback_algorithms_still_correct(self, small_square):
        """engine="fast" on non-batched algorithms runs the faithful kernel."""
        m = small_square
        expected = m.to_dense() @ m.to_dense()
        for alg in ("heap", "esc", "merge", "kokkos"):
            c = spgemm(m, m, algorithm=alg, engine="fast")
            np.testing.assert_allclose(c.to_dense(), expected, atol=1e-12)

    def test_batch_rejects_unknown_algorithm(self, small_square):
        with pytest.raises(ConfigError):
            batch_hash_spgemm(small_square, small_square, algorithm="heap")

    def test_stats_coarse_ledger(self, small_square):
        from repro.core.instrument import KernelStats
        from repro.matrix.stats import flop_per_row

        m = small_square
        stats = KernelStats()
        c = spgemm(m, m, algorithm="hash", engine="fast", stats=stats)
        assert stats.flops == int(flop_per_row(m, m).sum())
        assert stats.output_nnz == c.nnz
        assert stats.rows == m.nrows


class TestScratchArena:
    def test_views_are_reused_not_reallocated(self):
        arena = ScratchArena()
        v1 = arena.take("k", 100, np.int64)
        base1 = v1.base if v1.base is not None else v1
        v2 = arena.take("k", 80, np.int64)
        base2 = v2.base if v2.base is not None else v2
        assert base1 is base2
        assert len(v2) == 80

    def test_geometric_growth(self):
        arena = ScratchArena()
        arena.take("k", 10, np.int64)
        before = arena.allocated_bytes
        arena.take("k", 5000, np.int64)
        after = arena.allocated_bytes
        assert after > before
        assert after == 8192 * 8  # next power of two above 5000, int64

    def test_dtype_change_reallocates(self):
        arena = ScratchArena()
        arena.take("k", 16, np.int64)
        v = arena.take("k", 16, np.float64)
        assert v.dtype == np.float64

    def test_release(self):
        arena = ScratchArena()
        arena.take("k", 16, np.int64)
        arena.release()
        assert arena.allocated_bytes == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            ScratchArena().take("k", -1, np.int64)

    def test_thread_arena_is_per_thread(self):
        import threading

        mine = get_thread_arena()
        assert get_thread_arena() is mine  # stable within a thread
        other = []
        t = threading.Thread(target=lambda: other.append(get_thread_arena()))
        t.start()
        t.join()
        assert other[0] is not mine
