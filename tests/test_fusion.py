"""Fused chain execution: bit-identity of every fused path vs its unfused pipeline.

The fusion contract is exact, not approximate: a fused masked product must
equal ``pattern_filter(spgemm(a, b), mask)`` bit-for-bit (the mask gates by
output *coordinate*, so every surviving entry still receives all its
products in the same fold order), and a streamed left-deep sandwich must
equal the materialized two-step product bit-for-bit (every kernel is
row-local, so row-block views stack to the unfused sorted result verbatim).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import (
    ConfigError,
    KernelStats,
    PlanCache,
    PlanError,
    ShapeError,
    csr_from_coo,
    inspect_masked,
    masked_spgemm,
    multiply_chain,
    plan_chain,
    spgemm,
)
from repro.apps import amg_setup, count_triangles, triangle_counts_per_vertex
from repro.apps.amg import two_level_solve
from repro.core.chain import StagePlan
from repro.datasets import mesh2d
from repro.matrix.construct import identity
from repro.matrix.csr import CSR
from repro.matrix.ops import add, pattern_filter, transpose
from repro.semiring import SEMIRINGS

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_identical(got, want):
    """Bitwise CSR equality — indptr, indices, and data as raw uint64."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(
        got.data.view(np.uint64), want.data.view(np.uint64)
    )


def revalue(m: CSR, seed: int) -> CSR:
    """Same structure, fresh values — the plan-replay scenario."""
    rng = np.random.default_rng(seed)
    data = np.round(rng.uniform(-8, 8, m.nnz), 3)
    return CSR(m.shape, m.indptr, m.indices, data, sorted_rows=m.sorted_rows)


@st.composite
def masked_triples(draw, max_dim=16):
    """Random (A, B, M) with compatible shapes for ``(A·B) .* M``."""

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
    return one(nrows, inner), one(inner, ncols), one(nrows, ncols)


def random_adjacency(n, p, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < p
    dense = np.triu(dense, 1)
    dense = dense | dense.T
    rows, cols = np.nonzero(dense)
    return csr_from_coo(n, n, rows, cols)


# ---------------------------------------------------------------------------
# fused masked product == unfused multiply-then-filter
# ---------------------------------------------------------------------------


class TestMaskedFusionBitIdentity:
    @given(
        triple=masked_triples(),
        engine=st.sampled_from(["faithful", "fast"]),
        semiring=st.sampled_from(sorted(SEMIRINGS)),
        complement=st.booleans(),
        sort_output=st.booleans(),
    )
    @settings(**COMMON)
    def test_matches_unfused_pipeline(
        self, triple, engine, semiring, complement, sort_output
    ):
        a, b, mask = triple
        fused = masked_spgemm(
            a, b, mask, semiring=semiring, complement=complement,
            sort_output=sort_output, engine=engine,
        )
        # The unfused comparator: full product, then coordinate filter.
        # For unsorted outputs both sides are first-touch ordered only when
        # the product itself is first-touch ordered, so compare sorted.
        full = spgemm(a, b, semiring=semiring, sort_output=sort_output)
        unfused = pattern_filter(full, mask, complement=complement)
        if sort_output:
            assert_identical(fused, unfused)
        else:
            assert_identical(fused.sort_rows(), unfused.sort_rows())

    @given(triple=masked_triples(max_dim=12), complement=st.booleans())
    @settings(**COMMON)
    def test_engines_agree_exactly(self, triple, complement):
        a, b, mask = triple
        for sort_output in (True, False):
            faithful = masked_spgemm(
                a, b, mask, complement=complement, sort_output=sort_output,
                engine="faithful",
            )
            fast = masked_spgemm(
                a, b, mask, complement=complement, sort_output=sort_output,
                engine="fast",
            )
            assert_identical(faithful, fast)


# ---------------------------------------------------------------------------
# plan node: numeric-only replay, k > 1
# ---------------------------------------------------------------------------


class TestMaskedPlanReplay:
    @given(
        triple=masked_triples(max_dim=12),
        engine=st.sampled_from(["faithful", "fast"]),
        sort_output=st.booleans(),
    )
    @settings(**COMMON)
    def test_replay_matches_fresh_k3(self, triple, engine, sort_output):
        a, b, mask = triple
        plan = inspect_masked(a, b, mask, sort_output=sort_output)
        for k in range(3):
            a2, b2 = revalue(a, 11 + k), revalue(b, 77 + k)
            fresh = masked_spgemm(
                a2, b2, mask, sort_output=sort_output, engine=engine,
            )
            assert_identical(plan.execute(a2, b2, mask), fresh)

    def test_fingerprint_mismatch_rejected(self):
        a = csr_from_coo(4, 4, np.array([0, 1]), np.array([1, 2]))
        b = csr_from_coo(4, 4, np.array([1, 2]), np.array([2, 3]))
        mask = csr_from_coo(4, 4, np.array([0]), np.array([2]))
        plan = inspect_masked(a, b, mask)
        other = csr_from_coo(4, 4, np.array([0, 3]), np.array([1, 2]))
        with pytest.raises(PlanError):
            plan.execute(other, b, mask)

    def test_plan_cache_hits_on_repeated_structure(self):
        rng = np.random.default_rng(5)
        a = random_adjacency(30, 0.2, 1)
        b = random_adjacency(30, 0.2, 2)
        mask = random_adjacency(30, 0.3, 3)
        a = CSR(a.shape, a.indptr, a.indices, rng.random(a.nnz), sorted_rows=True)
        cache = PlanCache()
        stats = KernelStats()
        for k in range(4):
            a2 = revalue(a, k)
            got = masked_spgemm(a2, b, mask, plan_cache=cache, stats=stats)
            assert_identical(got, masked_spgemm(a2, b, mask))
        assert (cache.misses, cache.hits) == (1, 3)
        assert stats.plan_misses == 1 and stats.plan_hits == 3


# ---------------------------------------------------------------------------
# fused chains: trailing mask and streamed sandwich
# ---------------------------------------------------------------------------


class TestChainFusion:
    @given(triple=masked_triples(max_dim=12), complement=st.booleans())
    @settings(**COMMON)
    def test_masked_chain_matches_filter(self, triple, complement):
        a, b, mask = triple
        fused = multiply_chain([a, b], mask=mask, complement=complement)
        unfused = pattern_filter(
            multiply_chain([a, b]), mask, complement=complement
        )
        assert_identical(fused, unfused)

    @given(
        seed=st.integers(0, 50),
        engine=st.sampled_from(["faithful", "fast", "auto"]),
    )
    @settings(deadline=None, max_examples=15)
    def test_streamed_sandwich_bit_identical(self, seed, engine):
        rng = np.random.default_rng(seed)
        def rand(m, n, d):
            dense = np.where(rng.random((m, n)) < d,
                             rng.standard_normal((m, n)), 0.0)
            rows, cols = np.nonzero(dense)
            return csr_from_coo(m, n, rows, cols, dense[rows, cols])
        r = rand(12, 40, 0.1)
        a = rand(40, 40, 0.1)
        p = rand(40, 9, 0.1)
        alg = "auto" if engine == "auto" else "hash"
        fused = multiply_chain([r, a, p], algorithm=alg, engine=engine)
        unfused = multiply_chain([r, a, p], algorithm=alg, engine=engine,
                                 fuse="off")
        assert_identical(fused, unfused)
        # masked sandwich: stream + final-stage mask
        mask = rand(12, 9, 0.4)
        got = multiply_chain([r, a, p], mask=mask, algorithm=alg, engine=engine)
        assert_identical(got, pattern_filter(unfused, mask))

    def test_multi_block_stream_bit_identical(self, monkeypatch):
        """A sandwich streamed in several row blocks stacks to the unfused
        product."""
        import repro.core.chain as chain_mod
        from repro.core.symbolic import iter_row_blocks

        r = random_adjacency(30, 0.2, 3).row_block(0, 12)
        a = random_adjacency(30, 0.2, 4)
        p = transpose(r)
        spans = []

        def small_blocks(m0, m1, total_flop=None):
            spans.extend(iter_row_blocks(m0, m1, 8, total_flop=total_flop))
            return iter(spans)

        monkeypatch.setattr(chain_mod, "iter_row_blocks", small_blocks)
        plan = plan_chain([r, a, p])
        assert plan.order == ((0, 1), 2)
        fused = multiply_chain([r, a, p], algorithm="hash", plan=plan)
        assert len(spans) > 1
        unfused = multiply_chain([r, a, p], algorithm="hash", plan=plan, fuse="off")
        assert_identical(fused, unfused)

    def test_plan_carries_stages_and_fusable(self):
        r = random_adjacency(10, 0.3, 1).row_block(0, 4)
        a = random_adjacency(10, 0.3, 2)
        p = transpose(r)
        plan = plan_chain([r, a, p])
        assert len(plan.stages) == 2
        assert all(isinstance(s, StagePlan) for s in plan.stages)
        assert plan.stages[-1].node == plan.order
        assert plan.fusable in (None, "sandwich")
        # masked plan: the final stage records the exact masked output size
        msk = spgemm(r, p, semiring="or_and", sort_output=True)
        mplan = plan_chain([r, a, p], mask=msk)
        assert mplan.fusable in ("masked", "masked-sandwich")
        assert mplan.stages[-1].masked
        got = multiply_chain([r, a, p], mask=msk)
        assert mplan.stages[-1].masked_nnz == got.nnz
        assert ".* M" in mplan.render(["R", "A", "P"])

    def test_errors(self):
        a = random_adjacency(6, 0.4, 0)
        mask_bad = random_adjacency(5, 0.4, 1)
        with pytest.raises(ShapeError):
            multiply_chain([a, a], mask=mask_bad)
        with pytest.raises(ConfigError):
            multiply_chain([a], mask=a)
        with pytest.raises(ConfigError):
            multiply_chain([a, a], fuse="sometimes")


# ---------------------------------------------------------------------------
# apps: triangles and Galerkin through the fused paths
# ---------------------------------------------------------------------------


class TestFusedApps:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triangle_counts_fused_equals_unfused(self, seed):
        a = random_adjacency(60, 0.12, seed)
        fused = count_triangles(a)  # masked=True is the default
        assert fused == count_triangles(a, masked=False)
        assert fused == count_triangles(a, masked=True, engine="fast")

    def test_per_vertex_fused_equals_unfused(self):
        a = random_adjacency(50, 0.15, 4)
        np.testing.assert_array_equal(
            triangle_counts_per_vertex(a),
            triangle_counts_per_vertex(a, masked=False),
        )

    def test_triangles_plan_cache_replays(self):
        a = random_adjacency(40, 0.15, 7)
        cache = PlanCache()
        first = count_triangles(a, plan_cache=cache)
        again = count_triangles(a, plan_cache=cache)
        assert first == again
        assert cache.hits >= 1

    def test_galerkin_fused_hierarchy_still_solves(self):
        a = add(mesh2d(12, 12), identity(144, value=0.05))
        fused = amg_setup(a)  # auto per-stage choices + streaming
        unfused = amg_setup(a, algorithm="hash", engine="faithful")
        # both hierarchies produce the same coarse operator bit-for-bit:
        # streaming is exact and stage choices only pick among kernels that
        # agree at the bit level for sorted outputs
        assert fused.coarse.shape == unfused.coarse.shape
        np.testing.assert_allclose(
            fused.coarse.to_dense(), unfused.coarse.to_dense(),
            rtol=0, atol=1e-12,
        )
        x, history = two_level_solve(fused, np.ones(a.nrows), max_cycles=60)
        assert history[-1] < 1e-6
