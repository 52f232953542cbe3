"""Fresh batched products on real threads, against the one-part run.

:func:`repro.core.threads.run_row_parts` cuts a product's rows at the
flop-balanced ``rows_to_threads`` offsets and runs the parts at once.
Every row folds its products in the same order whatever part it lands
in, so the result must be byte-identical at any part count — indptr,
indices, and data as raw bits, non-finite values and signed zeros
included.  The part count is forced through the helper's internal
``_part_count`` (a test seam, not an option).
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.hash_batch as hb
import repro.core.symbolic as sym
import repro.core.threads as threads
from repro import CSR, csr_from_dense, random_csr, spgemm
from repro.apps.triangles import count_triangles
from repro.core.engine import ScratchArena, get_thread_arena
from repro.core.hash_batch import batch_hash_spgemm
from repro.core.instrument import EXTRA_SPAN_COUNTERS, KernelStats
from repro.core.masked import masked_spgemm
from repro.core.symbolic import structure_product
from repro.observability import Tracer
from repro.rmat.generator import G500_PARAMS, g500_matrix, rmat

from .test_auto_selection import lexsort_esc
from .test_engine import assert_identical
from .test_first_touch import hub_matrix, with_specials

PART_COUNTS = (1, 2, 4)


@pytest.fixture
def parts(monkeypatch):
    """``parts(k)`` forces every threaded call into ``k`` parts."""

    def force(k):
        monkeypatch.setattr(threads, "_part_count", lambda total_flop: k)

    return force


@pytest.fixture
def part_log(monkeypatch):
    """The row bounds of every threaded call, in call order."""
    seen = []
    real = threads.run_row_parts

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append([(p.lo, p.hi) for p in out])
        return out

    monkeypatch.setattr(hb, "run_row_parts", spy)
    monkeypatch.setattr(sym, "run_row_parts", spy)
    return seen


def at_each_count(parts, call):
    """``call()`` at every part count; the one-part result first."""
    out = []
    for k in PART_COUNTS:
        parts(k)
        out.append(call())
    return out


def hub_heavy(n: int = 60, seed: int = 12) -> CSR:
    """Sparse ``n x n`` whose dense row 0 carries over a third of A·A's
    flop, so a four-way cut leaves some part empty."""
    dense = random_csr(n, n, 0.02, seed=seed).to_dense()
    dense[0, :] = np.arange(1.0, n + 1)
    return csr_from_dense(dense)


def empty_rows(n: int = 30) -> CSR:
    return CSR((n, n), np.zeros(n + 1, np.int64), np.empty(0, np.int64),
               np.empty(0))


def operand_pairs():
    """(name, a, b): specials-laden, hub-row, all-empty and 0-sized."""
    a = with_specials(hub_matrix(), seed=1)
    b = with_specials(random_csr(40, 40, 0.15, seed=4), seed=2)
    yield "specials", a, b
    yield "hub", hub_matrix(60, seed=5), random_csr(60, 50, 0.2, seed=6)
    yield "hub-heavy", hub_heavy(), hub_heavy()
    yield "empty-rows", empty_rows(), random_csr(30, 30, 0.3, seed=7)
    yield "0xn", CSR((0, 30), np.zeros(1, np.int64), np.empty(0, np.int64),
                     np.empty(0)), random_csr(30, 20, 0.3, seed=8)
    nx0 = CSR((30, 0), np.zeros(31, np.int64), np.empty(0, np.int64),
              np.empty(0))
    yield "nx0", random_csr(30, 30, 0.3, seed=9), nx0


PAIRS = list(operand_pairs())
PAIR_IDS = [name for name, _, _ in PAIRS]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestPartCountsIdentical:
    @pytest.mark.parametrize("semiring", ["plus_times", "min_plus", "or_and"])
    @pytest.mark.parametrize(
        "algorithm,sort_output",
        [("hash", True), ("hash", False), ("hashvec", False),
         ("spa", False), ("esc", True)],
        ids=["sorted", "first_touch", "hashvec", "spa-first_touch", "esc"],
    )
    @pytest.mark.parametrize("name,a,b", PAIRS, ids=PAIR_IDS)
    def test_plain(self, parts, name, a, b, algorithm, sort_output, semiring):
        def run():
            stats = KernelStats()
            # A small block cap puts several blocks in each part.
            c = batch_hash_spgemm(
                a, b, algorithm=algorithm, sort_output=sort_output,
                semiring=semiring, nthreads=3, max_block_flop=50,
                stats=stats,
            )
            return c, stats

        (ref, ref_stats), *rest = at_each_count(parts, run)
        for c, stats in rest:
            assert_identical(c, ref)
            assert stats == ref_stats
        if algorithm == "esc":
            # ESC's sort touches every product, and its pairwise fold is
            # the reference ESC's, bit for bit.
            assert ref_stats.sorted_elements == ref_stats.flops
            assert ref.sorted_rows
            if ref_stats.flops:
                assert_identical(ref, lexsort_esc(a, b, semiring, 50))
            else:
                assert ref.nnz == 0

    @pytest.mark.parametrize("semiring", ["plus_times", "min_plus"])
    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_masked(self, parts, sort_output, complement, semiring):
        a = with_specials(hub_matrix(), seed=3)
        b = with_specials(random_csr(40, 40, 0.2, seed=5), seed=4)
        mask = random_csr(40, 40, 0.3, seed=6)
        ref, *rest = at_each_count(parts, lambda: masked_spgemm(
            a, b, mask, engine="fast", sort_output=sort_output,
            complement=complement, semiring=semiring,
        ))
        for c in rest:
            assert_identical(c, ref)

    @pytest.mark.parametrize("name,a,b", PAIRS, ids=PAIR_IDS)
    def test_structure_product(self, parts, name, a, b):
        ref, *rest = at_each_count(
            parts, lambda: structure_product(a, b, max_block_flop=50)
        )
        for c in rest:
            assert_identical(c, ref)

    def test_triangles(self, parts):
        g = rmat(7, 8, G500_PARAMS, seed=11, values="ones", symmetrize=True,
                 drop_diagonal=True)
        counts = at_each_count(
            parts, lambda: count_triangles(g, engine="fast")
        )
        assert counts == [counts[0]] * len(counts)

    def test_parts_really_split(self, parts, part_log):
        a = hub_heavy()
        parts(4)
        spgemm(a, a, algorithm="hash", engine="fast")
        (bounds,) = part_log
        assert len(bounds) == 4
        assert bounds[0][0] == 0 and bounds[-1][1] == a.nrows
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        # row 0 carries more than a quarter of the flop: a part is empty
        assert any(lo == hi for lo, hi in bounds)


class TestStatsAndTracing:
    @pytest.mark.parametrize("masked", [False, True])
    def test_merged_stats_equal_serial(self, parts, masked):
        a = hub_matrix(60, seed=5)
        b = random_csr(60, 60, 0.2, seed=6)

        def run():
            stats = KernelStats()
            if masked:
                masked_spgemm(a, b, random_csr(60, 60, 0.3, seed=7),
                              engine="fast", stats=stats)
            else:
                spgemm(a, b, algorithm="hash", engine="fast", stats=stats)
            return stats

        ref, *rest = at_each_count(parts, run)
        for stats in rest:
            assert stats == ref

    @pytest.mark.parametrize("sort_output", [True, False])
    def test_traced_equals_untraced(self, parts, sort_output):
        a = hub_matrix(60, seed=5)
        for k in PART_COUNTS:
            parts(k)
            plain = spgemm(a, a, algorithm="hash", engine="fast",
                           sort_output=sort_output)
            traced = spgemm(a, a, algorithm="hash", engine="fast",
                            sort_output=sort_output, tracer=Tracer())
            assert_identical(traced, plain)

    def test_spans_sum_to_wall_and_carry_part_counters(self, parts):
        a = hub_matrix(60, seed=5)
        parts(2)
        tracer = Tracer()
        spgemm(a, a, algorithm="hash", engine="fast", tracer=tracer)
        (root,) = tracer.spans
        assert sum(c.duration for c in root.children) <= root.duration
        exclusive = sum(s.exclusive_seconds() for s in root.walk())
        assert exclusive == pytest.approx(root.duration, rel=1e-9)
        assert root.counters["parts"] == 2
        counters = root.counters
        assert counters["part_seconds_max"] <= counters["part_seconds"]
        assert {"parts", "part_seconds", "part_seconds_max"} <= (
            EXTRA_SPAN_COUNTERS
        )

    def test_workers_never_touch_the_tracer(self, parts):
        caller = threading.get_ident()
        touched = []

        class Watched(Tracer):
            def _attach(self, span):
                touched.append(threading.get_ident())
                super()._attach(span)

            def counter(self, name, value):
                touched.append(threading.get_ident())
                super().counter(name, value)

        parts(4)
        a = hub_matrix(60, seed=5)
        masked_spgemm(a, a, a, engine="fast", tracer=Watched())
        assert touched and set(touched) == {caller}


class TestTableRefill:
    """The dense tables are filled only when the arena allocates them; a
    walk that raises must leave them clean for the next product."""

    class _Boom:
        """A numpy stand-in whose table read (the one ``take`` into an
        ``out=`` buffer) raises, cutting a walk short after it stamped
        its table."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def take(*args, **kwargs):
            if "out" in kwargs:
                raise RuntimeError("walk interrupted")
            return np.take(*args, **kwargs)

    def _interrupted_then_fresh(self, monkeypatch, module, call):
        """Interrupt ``call`` on one operand, then run it on another in the
        same arena and in a fresh one (the same operand would read its own
        stale stamps as the right answer)."""
        arena = get_thread_arena()
        first, second = hub_matrix(60, seed=5), random_csr(60, 60, 0.3, seed=8)
        monkeypatch.setattr(module, "np", self._Boom())
        with pytest.raises(RuntimeError, match="walk interrupted"):
            call(first, arena)
        monkeypatch.setattr(module, "np", np)
        return call(second, arena), call(second, ScratchArena())

    def test_touch_table(self, monkeypatch):
        monkeypatch.setattr(hb, "TOUCH_TABLE_MIN_PRODUCTS", 0)
        reused, fresh = self._interrupted_then_fresh(
            monkeypatch, hb, lambda a, arena: batch_hash_spgemm(
                a, a, algorithm="hash", sort_output=False, arena=arena,
            ),
        )
        assert_identical(reused, fresh)

    def test_mask_table(self, monkeypatch):
        monkeypatch.setattr(sym, "MASK_TABLE_MIN_PRODUCTS", 0)

        def call(a, arena):  # A·A gated by A, as in triangle counting
            rows, cols, _, _ = sym.expand_structure(a, a, 0, a.nrows)
            return sym.mask_membership(rows, cols, a, 0, a.nrows, arena)

        reused, fresh = self._interrupted_then_fresh(monkeypatch, sym, call)
        np.testing.assert_array_equal(reused, fresh)


class TestServedConcurrency:
    def test_two_compute_threads_share_one_executor(self, monkeypatch):
        from repro.serve import Client, serve_in_thread

        ops = [g500_matrix(10, 8, seed=s) for s in (41, 42)]
        real_count = threads._part_count
        monkeypatch.setattr(threads, "_part_count", lambda total_flop: 1)
        expected = [
            spgemm(g, g, algorithm="mkl_inspector", engine="fast") for g in ops
        ]
        monkeypatch.setattr(threads, "_part_count", real_count)

        # Both compute threads must be inside a threaded product at once.
        barrier = threading.Barrier(2, timeout=30)
        seen = []
        real_parts = threads.run_row_parts

        def together(*args, **kwargs):
            barrier.wait()
            out = real_parts(*args, **kwargs)
            seen.append(len(out))
            return out

        monkeypatch.setattr(hb, "run_row_parts", together)
        results = [None, None]

        def call(i):
            with Client(handle.host, handle.port, tenant=f"t{i}") as cli:
                results[i] = cli.spgemm(
                    ops[i], ops[i], algorithm="mkl_inspector", engine="fast"
                )

        with serve_in_thread(concurrency=2) as handle:
            clients = [
                threading.Thread(target=call, args=(i,)) for i in (0, 1)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120)
                assert not t.is_alive()
        for got, want in zip(results, expected):
            assert_identical(got, want)
        assert len(seen) == 2
        if threads.usable_cores() > 1:
            assert all(k > 1 for k in seen)
        pool = threads._EXECUTOR._pool
        assert pool is None or len(pool._threads) <= max(
            threads.usable_cores() - 1, 1
        )

    def test_many_callers_stress(self, parts):
        """More callers than cores, four parts each, a short switch
        interval: every result must still be the one-part bytes."""
        a = hub_heavy(80, seed=13)
        parts(1)
        want = spgemm(a, a, algorithm="hash", engine="fast", sort_output=False)
        parts(4)
        got = [None] * 6

        def call(i):
            for _ in range(5):
                got[i] = spgemm(a, a, algorithm="hash", engine="fast",
                                sort_output=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=call, args=(i,)) for i in range(6)
            ]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for c in got:
            assert_identical(c, want)


class TestPartFaults:
    """A part that raises on an executor thread: the caller sees the
    exception, no part outlives the call, and the arenas the failed call
    used give a fresh arena's bytes on the next product."""

    @pytest.mark.parametrize(
        "algorithm,sort_output", [("esc", True), ("hash", False)],
        ids=["esc", "first_touch"],
    )
    def test_worker_part_raises(self, monkeypatch, parts, algorithm,
                                sort_output):
        monkeypatch.setattr(hb, "TOUCH_TABLE_MIN_PRODUCTS", 0)
        caller = threading.get_ident()
        started = threading.Event()
        lock = threading.Lock()
        running = [0]
        real_part = hb._batch_part

        class WorkerBoom(TestTableRefill._Boom):
            """Cuts a part short only off the calling thread, after its
            walk or sort has filled that thread's arena."""

            @staticmethod
            def take(*args, **kwargs):
                if "out" in kwargs and threading.get_ident() != caller:
                    raise RuntimeError("part failed")
                return np.take(*args, **kwargs)

        def part(lo, hi, arena, *args):
            with lock:
                running[0] += 1
            try:
                if threading.get_ident() == caller:
                    # Hold the inline part until a worker has taken one,
                    # so the failing part really runs off this thread.
                    assert started.wait(timeout=60)
                else:
                    started.set()
                return real_part(lo, hi, arena, *args)
            finally:
                with lock:
                    running[0] -= 1

        def run(a, arena=None):
            return batch_hash_spgemm(
                a, a, algorithm=algorithm, sort_output=sort_output,
                arena=arena,
            )

        first, second = hub_matrix(60, seed=5), random_csr(60, 60, 0.3, seed=8)
        parts(4)
        monkeypatch.setattr(hb, "np", WorkerBoom())
        monkeypatch.setattr(hb, "_batch_part", part)
        with pytest.raises(RuntimeError, match="part failed"):
            run(first)
        assert running[0] == 0  # every started part finished in the call
        monkeypatch.setattr(hb, "np", np)
        monkeypatch.setattr(hb, "_batch_part", real_part)

        reused = run(second)  # the caller's and the workers' arenas
        parts(1)
        assert_identical(reused, run(second, ScratchArena()))
