"""Inspector–executor plan layer: bit-for-bit replay and the options surface.

The plan contract is stronger than numerical closeness: ``plan.execute``
against any operands sharing the inspected sparsity pattern must return
*exactly* what a fresh ``spgemm`` call with the same options would — same
indptr, same indices, data identical at the float64 bit level — for every
plan-capable algorithm on both engines, sorted or unsorted, under any
registered semiring (including one substituted at execute time).  Structure
mismatches must be rejected by the fingerprint check *before* any numeric
work touches the cached arrays.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import (
    ConfigError,
    PlanError,
    SpgemmOptions,
    csr_from_coo,
    masked_spgemm,
    multiply_chain,
    plan_chain,
    spgemm,
)
from repro.core import chain as chain_mod
from repro.core import plan as plan_mod
from repro.core.instrument import KernelStats
from repro.core.plan import (
    PlanCache,
    inspect as inspect_plan,
    structure_fingerprint,
)
from repro.core.spgemm import ALGORITHMS
from repro.matrix.csr import CSR
from repro.matrix.ops import transpose
from repro.observability import Tracer
from repro.rmat import er_matrix, g500_matrix
from repro.semiring import MAX_TIMES, SEMIRINGS

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

PLAN_KERNELS = tuple(sorted(n for n, info in ALGORITHMS.items() if info.planned))
PLANLESS_KERNELS = tuple(sorted(set(ALGORITHMS) - set(PLAN_KERNELS)))


def assert_identical(got, want):
    """Bitwise CSR equality — indptr, indices, and data as raw uint64."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(
        got.data.view(np.uint64), want.data.view(np.uint64)
    )
    assert got.sorted_rows == want.sorted_rows


def revalue(m: CSR, seed: int) -> CSR:
    """Same structure, fresh values — the plan-reuse scenario."""
    rng = np.random.default_rng(seed)
    data = np.round(rng.uniform(-8, 8, m.nnz), 3)
    return CSR(m.shape, m.indptr, m.indices, data, sorted_rows=m.sorted_rows)


@st.composite
def csr_pairs(draw, max_dim=18):
    """Random multiplicable (A, B), mirroring test_engine's strategy."""

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


# ---------------------------------------------------------------------------
# bit-for-bit replay
# ---------------------------------------------------------------------------


class TestPlanBitForBit:
    @given(
        pair=csr_pairs(),
        algorithm=st.sampled_from(PLAN_KERNELS),
        engine=st.sampled_from(["faithful", "fast"]),
        semiring=st.sampled_from(sorted(SEMIRINGS)),
        sort_output=st.booleans(),
        nthreads=st.integers(1, 4),
    )
    @settings(**COMMON)
    def test_execute_matches_fresh_spgemm(
        self, pair, algorithm, engine, semiring, sort_output, nthreads
    ):
        a, b = pair
        opts = SpgemmOptions(
            algorithm=algorithm, engine=engine, semiring=semiring,
            sort_output=sort_output, nthreads=nthreads,
        )
        plan = inspect_plan(a, b, opts)
        # Replay against operands with the same structure but new values.
        a2, b2 = revalue(a, 101), revalue(b, 202)
        assert_identical(plan.execute(a2, b2), spgemm(a2, b2, opts))
        # The plan is reusable: the original operands still replay exactly.
        assert_identical(plan.execute(a, b), spgemm(a, b, opts))

    @given(pair=csr_pairs(max_dim=12), algorithm=st.sampled_from(PLAN_KERNELS))
    @settings(**COMMON)
    def test_semiring_substitution_at_execute(self, pair, algorithm):
        a, b = pair
        plan = inspect_plan(a, b, algorithm=algorithm, sort_output=False)
        fresh = spgemm(
            a, b, algorithm=algorithm, sort_output=False, semiring=MAX_TIMES
        )
        assert_identical(plan.execute(a, b, semiring=MAX_TIMES), fresh)
        assert_identical(plan.execute(a, b, semiring="min_plus"),
                         spgemm(a, b, algorithm=algorithm, sort_output=False,
                                semiring="min_plus"))

    @pytest.mark.parametrize("algorithm", PLAN_KERNELS)
    @pytest.mark.parametrize("engine", ["faithful", "fast"])
    def test_skewed_corpus(self, algorithm, engine):
        m = g500_matrix(7, 8, seed=3)
        plan = inspect_plan(m, m, algorithm=algorithm, engine=engine, nthreads=3)
        m2 = revalue(m, 17)
        assert_identical(
            plan.execute(m2, m2),
            spgemm(m2, m2, algorithm=algorithm, engine=engine, nthreads=3),
        )

    @pytest.mark.parametrize("algorithm", PLAN_KERNELS)
    def test_spgemm_plan_kwarg_routes_through_plan(self, algorithm, small_square):
        m = small_square
        plan = inspect_plan(m, m, algorithm=algorithm)
        assert_identical(
            spgemm(m, m, plan=plan),
            spgemm(m, m, algorithm=algorithm),
        )

    def test_auto_resolves_then_plans(self, medium_random):
        m = medium_random
        plan = inspect_plan(m, m, algorithm="auto")
        assert plan.algorithm in PLAN_KERNELS
        assert_identical(
            plan.execute(m, m), spgemm(m, m, algorithm=plan.algorithm)
        )


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


class TestStructureValidation:
    def test_mismatch_raises_before_numerics(self, small_square, medium_random):
        plan = inspect_plan(small_square, small_square, algorithm="hash")
        with pytest.raises(PlanError, match="operand A structure"):
            plan.execute(medium_random, medium_random)

    def test_same_shape_different_pattern_rejected(self):
        a = er_matrix(6, 4, seed=1)
        b = er_matrix(6, 4, seed=2)
        assert a.shape == b.shape
        plan = inspect_plan(a, a, algorithm="hash")
        with pytest.raises(PlanError, match="re-run inspect"):
            plan.execute(a, b)  # B's pattern differs

    def test_fingerprint_ignores_values(self, medium_random):
        m = medium_random
        assert structure_fingerprint(m) == structure_fingerprint(revalue(m, 9))

    def test_fingerprint_separates_patterns(self):
        a = er_matrix(6, 4, seed=1)
        b = er_matrix(6, 4, seed=2)
        assert structure_fingerprint(a) != structure_fingerprint(b)

    def test_planless_algorithm_rejected(self, small_square):
        m = small_square
        for alg in PLANLESS_KERNELS:
            with pytest.raises(ConfigError, match="no inspector–executor split"):
                inspect_plan(m, m, algorithm=alg)


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hit_miss_counters_and_stats(self, medium_random):
        m = medium_random
        cache = PlanCache()
        stats = KernelStats()
        c1 = spgemm(m, m, algorithm="hash", plan_cache=cache, stats=stats)
        c2 = spgemm(revalue(m, 5), revalue(m, 5), algorithm="hash",
                    plan_cache=cache, stats=stats)
        assert (cache.misses, cache.hits) == (1, 1)
        assert (stats.plan_misses, stats.plan_hits) == (1, 1)
        assert stats.inspect_seconds > 0
        assert stats.execute_seconds > 0
        assert len(cache) == 1
        assert_identical(c1, spgemm(m, m, algorithm="hash"))
        assert_identical(
            c2, spgemm(revalue(m, 5), revalue(m, 5), algorithm="hash")
        )

    def test_cached_result_identical_to_fresh(self, skewed_graph):
        m = skewed_graph
        cache = PlanCache()
        for seed in (1, 2, 3):
            m2 = revalue(m, seed)
            assert_identical(
                spgemm(m2, m2, algorithm="hashvec", sort_output=False,
                       engine="fast", plan_cache=cache),
                spgemm(m2, m2, algorithm="hashvec", sort_output=False,
                       engine="fast"),
            )
        assert cache.hits == 2

    def test_option_changes_are_separate_entries(self, medium_random):
        m = medium_random
        cache = PlanCache()
        spgemm(m, m, algorithm="hash", plan_cache=cache)
        spgemm(m, m, algorithm="hash", sort_output=False, plan_cache=cache)
        spgemm(m, m, algorithm="spa", plan_cache=cache)
        assert cache.misses == 3 and cache.hits == 0

    def test_semiring_change_is_a_hit(self, medium_random):
        m = medium_random
        cache = PlanCache()
        spgemm(m, m, algorithm="hash", plan_cache=cache)
        c = spgemm(m, m, algorithm="hash", semiring="max_times",
                   plan_cache=cache)
        assert cache.hits == 1  # plans are semiring-agnostic
        assert_identical(c, spgemm(m, m, algorithm="hash", semiring="max_times"))

    def test_planless_marker_still_computes(self, small_square):
        m = small_square
        cache = PlanCache()
        c1 = spgemm(m, m, algorithm="heap", plan_cache=cache)
        c2 = spgemm(m, m, algorithm="heap", plan_cache=cache)
        assert (cache.misses, cache.hits) == (1, 1)
        assert_identical(c1, c2)
        assert_identical(c1, spgemm(m, m, algorithm="heap"))

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        mats = [er_matrix(5, 3, seed=s) for s in (1, 2, 3)]
        for m in mats:
            spgemm(m, m, algorithm="hash", plan_cache=cache)
        assert len(cache) == 2
        # The oldest entry (mats[0]) was evicted: using it again is a miss.
        spgemm(mats[0], mats[0], algorithm="hash", plan_cache=cache)
        assert cache.misses == 4

    def test_clear_and_bad_maxsize(self, small_square):
        cache = PlanCache()
        spgemm(small_square, small_square, algorithm="hash", plan_cache=cache)
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(ConfigError):
            PlanCache(maxsize=0)


# ---------------------------------------------------------------------------
# One fingerprint per operand, no leaked collectors, memoized chain plans
# ---------------------------------------------------------------------------


@pytest.fixture
def count_fingerprints(monkeypatch):
    """Record every operand :func:`structure_fingerprint` is called on."""
    seen = []

    def counting(m):
        seen.append(m)
        return structure_fingerprint(m)

    monkeypatch.setattr(plan_mod, "structure_fingerprint", counting)
    return seen


class TestCacheFingerprints:
    def test_spgemm_hit_and_miss_fingerprint_each_operand_once(
        self, medium_random, count_fingerprints
    ):
        m = medium_random
        cache = PlanCache()
        for seed in (1, 2):  # a miss, then a hit
            a, b = revalue(m, seed), revalue(m, seed + 10)
            count_fingerprints.clear()
            c = spgemm(a, b, algorithm="hash", engine="fast", plan_cache=cache)
            assert [id(x) for x in count_fingerprints] == [id(a), id(b)]
            assert_identical(c, spgemm(a, b, algorithm="hash", engine="fast"))
        assert (cache.misses, cache.hits) == (1, 1)

    def test_masked_hit_fingerprints_each_operand_once(
        self, medium_random, count_fingerprints
    ):
        m = medium_random
        cache = PlanCache()
        cache.execute_masked(m, m, m)
        a = revalue(m, 3)
        count_fingerprints.clear()
        c = masked_spgemm(a, a, m, plan_cache=cache)
        assert [id(x) for x in count_fingerprints] == [id(a), id(a), id(m)]
        assert cache.hits == 1
        assert_identical(c, masked_spgemm(a, a, m))

    def test_mismatch_raises_direct_and_misses_cached(self, medium_random):
        m = medium_random
        # Same shape, one nonzero fewer.
        other = CSR(m.shape, np.minimum(m.indptr, m.nnz - 1),
                    m.indices[:-1], m.data[:-1])
        assert structure_fingerprint(other) != structure_fingerprint(m)
        plan = inspect_plan(m, m, algorithm="hash", engine="fast")
        with pytest.raises(PlanError):
            plan.execute(other, m)
        masked = plan_mod.inspect_masked(m, m, m)
        with pytest.raises(PlanError, match="mask structure"):
            masked.execute(m, m, other)
        cache = PlanCache()
        spgemm(m, m, algorithm="hash", engine="fast", plan_cache=cache)
        c = spgemm(other, m, algorithm="hash", engine="fast", plan_cache=cache)
        assert (cache.misses, cache.hits) == (2, 0)
        assert_identical(c, spgemm(other, m, algorithm="hash", engine="fast"))
        cache.execute_masked(m, m, m)
        c = cache.execute_masked(m, m, other)
        assert (cache.misses, cache.hits) == (4, 0)
        assert_identical(c, masked_spgemm(m, m, other))


class TestCollectorsNotShared:
    def test_cached_plan_drops_the_inspecting_callers_collectors(
        self, medium_random
    ):
        m = medium_random
        cache = PlanCache()
        stats, tracer = KernelStats(), Tracer()
        spgemm(m, m, algorithm="hash", engine="fast", plan_cache=cache,
               stats=stats, tracer=tracer)
        flops, spans = stats.flops, len(tracer.spans)
        for _ in range(5):
            spgemm(m, m, algorithm="hash", engine="fast", plan_cache=cache)
        assert cache.hits == 5
        assert (stats.flops, len(tracer.spans)) == (flops, spans)

    def test_direct_plan_still_reports_to_its_options(self, medium_random):
        m = medium_random
        stats = KernelStats()
        plan = inspect_plan(m, m, algorithm="hash", engine="fast", stats=stats)
        plan.execute(m, m)
        assert stats.flops > 0

    def test_masked_cache_does_not_leak_collectors(self, medium_random):
        m = medium_random
        cache = PlanCache()
        stats, tracer = KernelStats(), Tracer()
        masked_spgemm(m, m, m, plan_cache=cache, stats=stats, tracer=tracer)
        flops, spans = stats.flops, len(tracer.spans)
        for _ in range(5):
            masked_spgemm(m, m, m, plan_cache=cache)
        assert cache.hits == 5
        assert (stats.flops, len(tracer.spans)) == (flops, spans)


class TestChainPlanMemo:
    @pytest.fixture
    def count_plan_chain(self, monkeypatch):
        calls = []
        real = chain_mod.plan_chain

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(chain_mod, "plan_chain", counting)
        return calls

    def test_planned_once_per_structure(self, count_plan_chain):
        r = er_matrix(6, 3, seed=1)
        a = er_matrix(6, 4, seed=2)
        p = er_matrix(6, 3, seed=3)
        mask = er_matrix(6, 5, seed=4)
        cache = PlanCache()
        runs = [
            ([r, a, p], {}, True),
            ([r, revalue(a, 5), p], {}, False),        # new values only
            ([r, er_matrix(6, 5, seed=7), p], {}, True),  # new structure
            ([r, a, p], dict(mask=mask), True),
            ([r, revalue(a, 6), p], dict(mask=mask), False),
            ([r, a, p], dict(mask=mask, complement=True), True),
            ([r, a, p], dict(mask=revalue(mask, 8)), False),
            ([r, a, p], dict(mask=er_matrix(6, 3, seed=9)), True),
        ]
        for mats, kw, plans in runs:
            before = len(count_plan_chain)
            got = multiply_chain(mats, plan_cache=cache, **kw)
            assert len(count_plan_chain) - before == int(plans)
            assert_identical(got, multiply_chain(mats, **kw))


# ---------------------------------------------------------------------------
# The 64-bit structure hash
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1


def splitmix_weight(counter: int) -> int:
    """One odd hash weight, computed with Python integers."""
    z = (counter * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) | 1


def reference_hash(words) -> int:
    """Word ``j`` weighted by ``w1[j % block] * w2[j // block]``, mod 2**64."""
    block = plan_mod.HASH_BLOCK
    return sum(
        int(w) * splitmix_weight(1 + j % block)
        * splitmix_weight((1 << 32) + j // block)
        for j, w in enumerate(words)
    ) & MASK64


def reference_fingerprint(m: CSR) -> tuple:
    return (m.nrows, m.ncols, m.nnz,
            reference_hash(m.indptr), reference_hash(m.indices))


def hash_base() -> CSR:
    """Two first-level blocks of indices and a partial third."""
    m = er_matrix(9, 18, seed=3)
    assert 2 * plan_mod.HASH_BLOCK < m.nnz < 3 * plan_mod.HASH_BLOCK
    return m


def _changed_index(m: CSR) -> CSR:
    indices = m.indices.copy()
    row = m.indices[m.indptr[7] : m.indptr[8]]
    free = np.setdiff1d(np.arange(m.ncols), row)
    indices[m.indptr[7]] = free[0]
    return CSR(m.shape, m.indptr, indices, m.data, sorted_rows=False)


def _swapped_in_row(m: CSR) -> CSR:
    indices = m.indices.copy()
    i = m.indptr[m.nrows - 12]  # a row in the partial last block
    assert m.indptr[m.nrows - 11] - i >= 2
    indices[i], indices[i + 1] = indices[i + 1], indices[i]
    return CSR(m.shape, m.indptr, indices, m.data, sorted_rows=False)


def _moved_to_next_row(m: CSR) -> CSR:
    # The last nonzero of a row becomes the first of the next: the flat
    # indices stay word for word, only indptr moves.
    for i in range(m.nrows - 1):
        last = m.indptr[i + 1] - 1
        nxt = m.indices[m.indptr[i + 1] : m.indptr[i + 2]]
        if m.indptr[i + 1] > m.indptr[i] and m.indices[last] not in nxt:
            break
    indptr = m.indptr.copy()
    indptr[i + 1] -= 1
    return CSR(m.shape, indptr, m.indices, m.data, sorted_rows=False)


class TestStructureHash:
    """``structure_fingerprint`` keeps ``indptr`` and ``indices`` apart, each
    under the two-level multilinear hash of their 64-bit words."""

    @pytest.mark.parametrize(
        "variant, changed",
        [
            (_changed_index, "indices"),
            (_swapped_in_row, "indices"),
            (_moved_to_next_row, "indptr"),
        ],
        ids=["one-index", "swap-in-row", "moved-to-next-row"],
    )
    def test_structure_change_moves_its_own_hash(self, variant, changed):
        base = hash_base()
        other = variant(base)
        fb, fo = structure_fingerprint(base), structure_fingerprint(other)
        assert fo == reference_fingerprint(other)
        assert fb[:3] == fo[:3]
        moved = {"indptr": fb[3] != fo[3], "indices": fb[4] != fo[4]}
        assert moved == {"indptr": changed == "indptr",
                         "indices": changed == "indices"}

    def test_transposed_shape(self):
        base = hash_base().row_block(0, 100)
        t = transpose(base)
        ft = structure_fingerprint(t)
        assert ft == reference_fingerprint(t)
        assert ft[:2] == (base.ncols, base.nrows)
        assert ft != structure_fingerprint(base)

    def test_revalued_matrix_keeps_its_fingerprint(self):
        base = hash_base()
        fp = structure_fingerprint(revalue(base, 4))
        assert fp == structure_fingerprint(base) == reference_fingerprint(base)

    def test_long_arrays_derive_the_same_block_weights(self, monkeypatch):
        words = np.arange(5 * plan_mod.HASH_BLOCK + 3).view(plan_mod.HASH_DTYPE)
        h = plan_mod._hash64(words)
        # a table too short for six blocks: the per-call weights take over
        monkeypatch.setattr(plan_mod, "_BLOCK_WEIGHTS", plan_mod._BLOCK_WEIGHTS[:2])
        assert plan_mod._hash64(words) == h == reference_hash(words)

    def test_any_single_word_change_is_seen(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 1 << 40, 3 * plan_mod.HASH_BLOCK + 17)
        h = plan_mod._hash64(words.view(plan_mod.HASH_DTYPE))
        for j in rng.integers(0, len(words), 64):
            changed = words.copy()
            changed[j] += int(rng.integers(1, 1 << 20)) << int(rng.integers(0, 40))
            assert plan_mod._hash64(changed.view(plan_mod.HASH_DTYPE)) != h


# ---------------------------------------------------------------------------
# Chain entries: a repeated multiply_chain replays its saved stage plans
# ---------------------------------------------------------------------------


def rap(seed: int = 1):
    """A Galerkin-shaped R·A·P: R aggregates rows, P = Rᵀ."""
    r = er_matrix(6, 3, seed=seed).row_block(0, 24)
    a = er_matrix(6, 6, seed=seed + 1)
    return [r, a, transpose(r)]


def right_deep():
    """(A · B) · v costs more than A · (B · v)."""
    a = er_matrix(6, 8, seed=4)
    b = er_matrix(6, 8, seed=5)
    return [a, b, transpose(er_matrix(6, 2, seed=6).row_block(0, 2))]


def chain_mask(mats, seed: int = 9) -> CSR:
    """A random mask over the chain's output, about a third full."""
    nrows, ncols = mats[0].nrows, mats[-1].ncols
    rng = np.random.default_rng(seed)
    keep = rng.random((nrows, ncols)) < 0.35
    rows, cols = np.nonzero(keep)
    return csr_from_coo(nrows, ncols, rows, cols, np.ones(len(rows)))


CHAIN_CASES = {
    "sandwich-auto": (rap, dict(algorithm="auto", engine="auto")),
    "sandwich-faithful-hash": (rap, dict(algorithm="hash")),
    "sandwich-unfused": (rap, dict(algorithm="auto", engine="auto", fuse="off")),
    "unsorted": (rap, dict(algorithm="hash", engine="fast", sort_output=False)),
    "planless-stages": (rap, dict(algorithm="heap")),
    "masked": (rap, dict(algorithm="auto", engine="auto", mask=True)),
    "masked-unfused": (rap, dict(algorithm="hash", fuse="off", mask=True)),
    "complemented": (
        rap, dict(algorithm="auto", engine="auto", mask=True, complement=True)
    ),
    "right-deep": (right_deep, dict(algorithm="auto", engine="auto")),
    "two-operands": (lambda: rap()[:2], dict(algorithm="hash", engine="fast")),
}


class TestChainEntry:
    def _call(self, mats, kw, **extra):
        kw = dict(kw)
        mask = chain_mask(mats) if kw.pop("mask", False) else None
        return multiply_chain(mats, mask=mask, **kw, **extra), mask

    @pytest.mark.parametrize("case", list(CHAIN_CASES))
    def test_hit_is_one_lookup_and_bit_identical(self, case, count_fingerprints):
        build, kw = CHAIN_CASES[case]
        mats = build()
        cache = PlanCache()
        self._call(mats, kw, plan_cache=cache)
        for seed in (5, 6):
            again = [revalue(m, seed + i) for i, m in enumerate(mats)]
            hits, misses = cache.hits, cache.misses
            count_fingerprints.clear()
            got, mask = self._call(again, kw, plan_cache=cache)
            seen = [id(x) for x in count_fingerprints]
            assert seen == [id(x) for x in again] + ([id(mask)] if mask else [])
            assert (cache.hits, cache.misses) == (hits + 1, misses)
            assert_identical(got, self._call(again, kw)[0])

    def test_right_deep_case_is_right_deep(self):
        assert plan_chain(right_deep()).order == (0, (1, 2))

    def test_multi_block_stream_hits(self, monkeypatch, count_fingerprints):
        from repro.core.symbolic import iter_row_blocks

        walks = []

        def small_blocks(m0, m1, total_flop=None):
            walks.append(list(iter_row_blocks(m0, m1, 8, total_flop=total_flop)))
            return iter(walks[-1])

        monkeypatch.setattr(chain_mod, "iter_row_blocks", small_blocks)
        mats = rap()
        kw = dict(algorithm="auto", engine="auto")
        cache = PlanCache()
        multiply_chain(mats, plan_cache=cache, **kw)
        (spans,) = walks
        nblocks = len(spans)
        assert nblocks > 1
        again = [revalue(m, 3 + i) for i, m in enumerate(mats)]
        count_fingerprints.clear()
        tracer = Tracer()
        got = multiply_chain(again, plan_cache=cache, tracer=tracer, **kw)
        assert len(walks) == 1  # the saved blocks, not a new walk
        assert [id(x) for x in count_fingerprints] == [id(x) for x in again]
        assert [s.name for s in tracer.spans] == ["plan.execute"] * 2 * nblocks
        assert_identical(got, multiply_chain(again, fuse="off", **kw))
        assert_identical(got, multiply_chain(again, **kw))

    @pytest.mark.parametrize("kw", [
        dict(algorithm="auto", engine="auto", fuse="off"),
        dict(algorithm="hash", mask=True),
    ], ids=["unfused", "masked-stream"])
    def test_traced_hit_spans_one_execute_per_stage(self, kw):
        mats = rap()
        cache = PlanCache()
        self._call(mats, kw, plan_cache=cache)
        tracer = Tracer()
        again = [revalue(m, 7 + i) for i, m in enumerate(mats)]
        got, _ = self._call(again, kw, plan_cache=cache, tracer=tracer)
        assert [s.name for s in tracer.spans] == ["plan.execute"] * 2
        assert_identical(got, self._call(again, kw)[0])

    @pytest.mark.parametrize("fuse", ["auto", "off"])
    def test_stats_reach_every_stage(self, fuse):
        mats = rap()
        plan = plan_chain(mats)
        nnz = sum(s.nnz for s in plan.stages)
        fresh = KernelStats()
        multiply_chain(mats, algorithm="hash", fuse=fuse, stats=fresh)
        assert (fresh.flops, fresh.output_nnz) == (plan.flop, nnz)
        cache = PlanCache()
        miss, hit = KernelStats(), KernelStats()
        kw = dict(algorithm="hash", engine="fast", fuse=fuse, plan_cache=cache)
        multiply_chain(mats, stats=miss, **kw)
        multiply_chain([revalue(m, 2) for m in mats], stats=hit, **kw)
        # the miss: the chain entry, then each stage's own lookup
        assert (miss.plan_misses, miss.plan_hits) == (3, 0)
        assert (hit.plan_misses, hit.plan_hits) == (0, 1)
        for ks in (miss, hit):
            assert (ks.flops, ks.output_nnz) == (plan.flop, nnz)
        masked = KernelStats()
        multiply_chain(mats, mask=chain_mask(mats), stats=masked)
        assert masked.flops > 0 and masked.output_nnz > 0


# ---------------------------------------------------------------------------
# SpgemmOptions surface
# ---------------------------------------------------------------------------


class TestOptionsSurface:
    def test_positional_options_equal_kwargs(self, small_square):
        m = small_square
        opts = SpgemmOptions(algorithm="hash", sort_output=False, nthreads=2)
        assert_identical(
            spgemm(m, m, opts),
            spgemm(m, m, algorithm="hash", sort_output=False, nthreads=2),
        )

    def test_kwargs_layer_over_options(self, small_square):
        m = small_square
        opts = SpgemmOptions(algorithm="hash")
        assert_identical(
            spgemm(m, m, opts, semiring="max_times"),
            spgemm(m, m, algorithm="hash", semiring="max_times"),
        )

    def test_semiring_canonicalized(self):
        assert SpgemmOptions(semiring="max_times").semiring is MAX_TIMES

    def test_unknown_kwarg_rejected(self, small_square):
        with pytest.raises(ConfigError, match="unknown spgemm option"):
            spgemm(small_square, small_square, algoritm="hash")

    def test_replace_revalidates(self):
        opts = SpgemmOptions(algorithm="hash")
        assert opts.replace(algorithm="spa").algorithm == "spa"
        with pytest.raises(ConfigError):
            opts.replace(algorithm="warp")

    def test_nthreads_and_partition_validated(self):
        with pytest.raises(ConfigError, match="nthreads"):
            SpgemmOptions(nthreads=0)
        with pytest.raises(ConfigError, match="partition"):
            SpgemmOptions(partition="not-a-partition")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "warp"},
            {"engine": "warp"},
            {"vector_bits": 333},
        ],
        ids=["algorithm", "engine", "vector_bits"],
    )
    def test_invalid_choice_message_shape(self, kwargs):
        with pytest.raises(
            ConfigError,
            match=r"^unknown (algorithm|engine|vector_bits) .*; "
                  r"valid choices: \[.*\]$",
        ):
            SpgemmOptions(**kwargs)
