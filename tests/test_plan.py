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
    spgemm,
)
from repro.core import chain as chain_mod
from repro.core import plan as plan_mod
from repro.core.instrument import KernelStats
from repro.core.plan import (
    PLAN_ALGORITHMS,
    PLANLESS_ALGORITHMS,
    PlanCache,
    inspect as inspect_plan,
    structure_fingerprint,
)
from repro.core.spgemm import ALGORITHMS
from repro.matrix.csr import CSR
from repro.observability import Tracer
from repro.rmat import er_matrix, g500_matrix
from repro.semiring import MAX_TIMES, SEMIRINGS

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

PLAN_KERNELS = tuple(sorted(PLAN_ALGORITHMS))


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
        assert plan.algorithm in PLAN_ALGORITHMS
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
        for alg in sorted(PLANLESS_ALGORITHMS):
            with pytest.raises(ConfigError, match="no inspector–executor split"):
                inspect_plan(m, m, algorithm=alg)

    def test_plan_coverage_partitions_registry(self):
        assert PLAN_ALGORITHMS | PLANLESS_ALGORITHMS == set(ALGORITHMS)
        assert not PLAN_ALGORITHMS & PLANLESS_ALGORITHMS


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
