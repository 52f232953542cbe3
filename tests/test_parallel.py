"""Process-pool SpGEMM tests (real wall-clock parallel path)."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import ConfigError, ShapeError, spgemm
from repro.parallel import parallel_spgemm
from repro.rmat import er_matrix, g500_matrix


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
    def test_matches_serial(self):
        g = g500_matrix(9, 8, seed=1)
        serial = parallel_spgemm(g, g, nworkers=1)
        parallel = parallel_spgemm(g, g, nworkers=4)
        assert parallel.allclose(serial)

    def test_various_worker_counts(self):
        a = er_matrix(8, 6, seed=2)
        ref = (a.to_scipy() @ a.to_scipy()).toarray()
        for nw in (2, 3, 5):
            c = parallel_spgemm(a, a, nworkers=nw)
            np.testing.assert_allclose(c.to_dense(), ref)

    def test_more_workers_than_rows(self, small_square):
        c = parallel_spgemm(small_square, small_square, nworkers=6)
        np.testing.assert_allclose(
            c.to_dense(), small_square.to_dense() @ small_square.to_dense()
        )

    def test_hash_kernel_unsorted(self):
        g = g500_matrix(8, 8, seed=3)
        c = parallel_spgemm(g, g, algorithm="hash", sort_output=False, nworkers=3)
        ref = (g.to_scipy() @ g.to_scipy()).toarray()
        np.testing.assert_allclose(c.to_dense(), ref)

    def test_rectangular(self, rectangular_pair):
        a, b = rectangular_pair
        c = parallel_spgemm(a, b, nworkers=2)
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_semiring(self):
        g = er_matrix(7, 4, seed=4, values="ones")
        c = parallel_spgemm(g, g, semiring="or_and", nworkers=2)
        expected = ((g.to_dense() @ g.to_dense()) > 0).astype(float)
        np.testing.assert_allclose(c.to_dense(), expected)

    def test_shape_mismatch(self, small_square, rectangular_pair):
        with pytest.raises(ShapeError):
            parallel_spgemm(small_square, rectangular_pair[1])

    def test_invalid_workers(self, small_square):
        with pytest.raises(ConfigError):
            parallel_spgemm(small_square, small_square, nworkers=0)

    def test_empty_matrix(self):
        from repro import csr_from_dense

        z = csr_from_dense(np.zeros((5, 5)))
        c = parallel_spgemm(z, z, nworkers=3)
        assert c.nnz == 0


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
    """The pool flags its result from the algorithm's table row, as the
    serial call does."""

    @pytest.mark.parametrize("algorithm", ["kokkos", "mkl_inspector"])
    def test_unsorted_kernels_flag_unsorted(self, algorithm):
        g = er_matrix(8, 8, seed=6)
        c = parallel_spgemm(g, g, algorithm=algorithm, sort_output=True, nworkers=2)
        assert not c.sorted_rows
        assert not spgemm(g, g, algorithm=algorithm, sort_output=True).sorted_rows
        c.validate()

    @pytest.mark.parametrize("algorithm", ["merge", "blocked_spa"])
    def test_sorted_kernels_flag_sorted(self, algorithm):
        g = er_matrix(8, 8, seed=6)
        c = parallel_spgemm(g, g, algorithm=algorithm, sort_output=False, nworkers=2)
        assert c.sorted_rows
        assert spgemm(g, g, algorithm=algorithm, sort_output=False).sorted_rows
        c.validate()

    def test_downstream_heap_product_matches_serial(self):
        x = er_matrix(8, 8, seed=6)
        pooled = parallel_spgemm(x, x, algorithm="kokkos", sort_output=True, nworkers=2)
        serial = spgemm(x, x, algorithm="kokkos", sort_output=True)
        got = spgemm(x, pooled, algorithm="heap")
        want = spgemm(x, serial, algorithm="heap")
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


class TestShareModes:
    def test_all_transports_match_serial(self):
        g = g500_matrix(8, 8, seed=5)
        serial = parallel_spgemm(g, g, algorithm="hash", nworkers=1)
        for share in ("shm", "fork", "pickle", "auto"):
            c = parallel_spgemm(g, g, algorithm="hash", nworkers=3, share=share)
            assert c.allclose(serial), share

    def test_unknown_share_rejected(self, small_square):
        with pytest.raises(ConfigError):
            parallel_spgemm(small_square, small_square, share="telepathy")

    def test_env_override(self, small_square, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_SHARE", "carrier-pigeon")
        with pytest.raises(ConfigError):
            parallel_spgemm(small_square, small_square, nworkers=2)

    def test_fast_engine_parallel_bit_identical(self):
        from repro import spgemm

        g = g500_matrix(8, 8, seed=3)
        ref = spgemm(g, g, algorithm="hash")
        c = parallel_spgemm(g, g, algorithm="hash", nworkers=3, engine="fast")
        np.testing.assert_array_equal(c.indptr, ref.indptr)
        np.testing.assert_array_equal(c.indices, ref.indices)
        np.testing.assert_array_equal(
            c.data.view(np.uint64), ref.data.view(np.uint64)
        )

    def test_worker_clamp_no_empty_blocks(self):
        from repro import csr_from_dense

        m = csr_from_dense(np.eye(3) * 2.0)
        c = parallel_spgemm(m, m, nworkers=64, share="shm")
        np.testing.assert_allclose(c.to_dense(), np.eye(3) * 4.0)

    def test_empty_matrix_all_modes(self):
        from repro import csr_from_dense

        z = csr_from_dense(np.zeros((4, 4)))
        for share in ("shm", "fork", "pickle"):
            c = parallel_spgemm(z, z, nworkers=3, share=share)
            assert c.nnz == 0


class TestResolveShare:
    """The auto-resolution ladder: shm -> fork -> pickle.

    The ladder tests clear ``REPRO_POOL_SHARE`` first — CI's sanitize
    matrix exports it, and an ambient override is exactly what these
    tests must not be measuring.
    """

    def test_auto_prefers_shm(self, monkeypatch):
        from repro.parallel import pool

        monkeypatch.delenv("REPRO_POOL_SHARE", raising=False)
        assert pool._resolve_share("auto") == "shm"

    def test_auto_falls_back_to_fork_without_shm(self, monkeypatch):
        from repro.parallel import pool

        monkeypatch.delenv("REPRO_POOL_SHARE", raising=False)
        monkeypatch.setattr(pool, "_shm_module", None)
        if "fork" in multiprocessing.get_all_start_methods():
            assert pool._resolve_share("auto") == "fork"
        else:  # pragma: no cover - non-fork platform
            assert pool._resolve_share("auto") == "pickle"

    def test_auto_falls_back_to_pickle_without_shm_or_fork(self, monkeypatch):
        from repro.parallel import pool

        monkeypatch.delenv("REPRO_POOL_SHARE", raising=False)
        monkeypatch.setattr(pool, "_shm_module", None)
        monkeypatch.setattr(
            pool.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert pool._resolve_share("auto") == "pickle"

    def test_explicit_shm_without_shm_rejected(self, monkeypatch):
        from repro.parallel import pool

        monkeypatch.setattr(pool, "_shm_module", None)
        with pytest.raises(ConfigError, match="shared_memory is unavailable"):
            pool._resolve_share("shm")

    def test_explicit_fork_without_fork_rejected(self, monkeypatch):
        from repro.parallel import pool

        monkeypatch.setattr(
            pool.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ConfigError, match="fork start method"):
            pool._resolve_share("fork")

    def test_env_override_resolves_transport(self, monkeypatch):
        from repro.parallel import pool

        monkeypatch.setenv("REPRO_POOL_SHARE", "pickle")
        assert pool._resolve_share("auto") == "pickle"
        # an explicit argument is not overridden by the environment
        assert pool._resolve_share("shm") == "shm"


class TestSpawnAndErrors:
    def test_pickle_transport_under_spawn(self, monkeypatch):
        """The pickle transport must work when workers are *spawned*: the
        worker functions live at module level (no fork-inherited state),
        and every task payload round-trips through pickle."""
        from repro.parallel import pool

        spawn_ctx = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            pool,
            "ProcessPoolExecutor",
            lambda max_workers: ProcessPoolExecutor(
                max_workers=max_workers, mp_context=spawn_ctx
            ),
        )
        g = g500_matrix(6, 8, seed=7)
        serial = parallel_spgemm(g, g, nworkers=1)
        c = parallel_spgemm(g, g, nworkers=2, share="pickle")
        np.testing.assert_array_equal(c.indptr, serial.indptr)
        np.testing.assert_array_equal(
            c.data.view(np.uint64), serial.data.view(np.uint64)
        )

    def test_bad_algorithm_rejected_before_any_worker_starts(self):
        """An unknown algorithm is caught by options validation in the
        parent — before packing, before any process forks — with the same
        error type on every transport."""
        g = er_matrix(6, 6, seed=8)
        for share in ("shm", "fork", "pickle"):
            with pytest.raises(ConfigError, match="algorithm"):
                parallel_spgemm(g, g, nworkers=2, share=share, algorithm="nope")

    def test_worker_failure_still_releases_segment(self, monkeypatch):
        """The shm segment must be unlinked even when the pool dies."""
        from repro.parallel import pool

        created = []
        real_shm_cls = pool._shm_module.SharedMemory

        class SpyShm(real_shm_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        class BoomPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                raise RuntimeError("pool died before any task ran")

        monkeypatch.setattr(pool._shm_module, "SharedMemory", SpyShm)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", BoomPool)
        g = er_matrix(6, 6, seed=8)
        with pytest.raises(RuntimeError, match="pool died"):
            parallel_spgemm(g, g, nworkers=2, share="shm")
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real_shm_cls(name=created[0])


class TestReadOnlyOperands:
    def test_unpacked_views_are_read_only(self):
        from repro.parallel import pool

        m = er_matrix(5, 4, seed=9)
        shm, header = pool._pack_shm(m, m)
        try:
            a, b = pool._unpack_shm(shm, header)
            for csr in (a, b):
                assert not csr.indptr.flags.writeable
                assert not csr.indices.flags.writeable
                assert not csr.data.flags.writeable
            with pytest.raises(ValueError):
                a.data[0] = 99.0
            # the paper's row-block cut still works on read-only operands
            # (indptr is rebased into a fresh array; indices/data stay views)
            blk = a.row_block(1, 3)
            np.testing.assert_allclose(blk.to_dense(), m.to_dense()[1:3])
        finally:
            del a, b, blk  # views must die before the segment is released
            pool._release_shm(shm)


class TestHandleCache:
    def test_attach_caches_segment_handle(self):
        """A worker that runs several blocks of one call maps the segment
        once: a second attach returns the cached handle."""
        from repro.parallel import pool

        seg = pool._shm_module.SharedMemory(create=True, size=64)
        saved = dict(pool._SHM_HANDLES)
        pool._SHM_HANDLES.clear()
        try:
            h1 = pool._attach_shm(seg.name)
            assert pool._attach_shm(seg.name) is h1  # cached
        finally:
            for shm in pool._SHM_HANDLES.values():
                shm.close()
            pool._SHM_HANDLES.clear()
            pool._SHM_HANDLES.update(saved)
            pool._release_shm(seg)


class TestThreadedRoute:
    """The threaded batched kernel never runs in worker processes."""

    def test_batched_fast_product_runs_without_the_pool(self, monkeypatch):
        from repro.parallel import pool

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
        g = g500_matrix(9, 8, seed=3)
        ref = spgemm(g, g, algorithm="hash", engine="fast")
        c = parallel_spgemm(g, g, algorithm="hash", engine="fast", nworkers=3)
        assert c.indptr.tobytes() == ref.indptr.tobytes()
        assert c.indices.tobytes() == ref.indices.tobytes()
        assert c.data.tobytes() == ref.data.tobytes()
        assert c.sorted_rows == ref.sorted_rows

    @pytest.mark.parametrize(
        "kwargs",
        [dict(algorithm="hash", engine="faithful"),
         dict(algorithm="esc", engine="fast")],
        ids=["faithful-hash", "esc"],
    )
    def test_unthreaded_kernels_reach_the_pool(self, monkeypatch, kwargs):
        from repro.parallel import pool

        class PoolReached(Exception):
            pass

        def sentinel_pool(*args, **kw):
            raise PoolReached

        monkeypatch.setattr(pool, "ProcessPoolExecutor", sentinel_pool)
        g = g500_matrix(7, 8, seed=3)
        with pytest.raises(PoolReached):
            parallel_spgemm(g, g, nworkers=3, **kwargs)


class TestShmLifecycle:
    def test_pack_failure_unlinks_segment(self, monkeypatch):
        """Regression: a failed copy into a freshly created shared-memory
        segment must unlink it before propagating, or the segment leaks in
        /dev/shm for the life of the machine."""
        from repro.parallel import pool

        created = []
        real_shm_cls = pool._shm_module.SharedMemory

        class SpyShm(real_shm_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        monkeypatch.setattr(pool._shm_module, "SharedMemory", SpyShm)

        real_layout = pool._pack_layout

        def sabotaged_layout(arrays):
            metas, total = real_layout(arrays)
            # claim more elements than the segment holds: the view
            # construction/copy for the first array must fail
            (off, dtype, size) = metas[0]
            return [(off, dtype, size + total)] + metas[1:], total

        monkeypatch.setattr(pool, "_pack_layout", sabotaged_layout)

        a = er_matrix(5, 4, seed=6)
        with pytest.raises(Exception):
            pool._pack_shm(a, a)
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            # attach must fail: the segment was unlinked on the error path
            real_shm_cls(name=created[0])

    def test_release_shm_tolerates_double_release(self):
        from repro.parallel import pool

        shm = pool._shm_module.SharedMemory(create=True, size=64)
        pool._release_shm(shm)
        pool._release_shm(shm)  # second release must be harmless


class TestZeroFlopParallel:
    def test_zero_flop_product_through_pool(self):
        """Regression companion to the scheduler's zero-flop fallback: a
        product with zero flop must still partition, execute and stitch
        correctly through every transport."""
        from repro import csr_from_dense

        n = 12
        a_dense = np.zeros((n, n))
        a_dense[:, n - 1] = 1.0
        b_dense = np.ones((n, n))
        b_dense[n - 1, :] = 0.0
        a = csr_from_dense(a_dense)
        b = csr_from_dense(b_dense)
        for share in ("shm", "fork", "pickle"):
            c = parallel_spgemm(a, b, nworkers=3, share=share)
            assert c.shape == (n, n) and c.nnz == 0, share
