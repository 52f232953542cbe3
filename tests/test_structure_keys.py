"""Structure steps of fresh fast-engine calls against two-key references.

The coordinate order sorts one unique ``(row, col, arrival)`` int64 key in
place, the mask gate stamps mask rows into a bounded bool table,
``CSR.sort_rows`` sorts a fused key, and the chain planner builds its
patterns without values.  Each is a pure speed change, so every test here
is differential: the new path against a lexsort, set-membership or ESC
reference, including the forced-overflow fallbacks.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.chain as chain_mod
import repro.core.symbolic as symbolic
from repro import CSR, spgemm
from repro.apps.triangles import count_triangles
from repro.core.chain import plan_chain
from repro.core.engine import ScratchArena
from repro.core.hash_batch import _coordinate_segments
from repro.core.masked import masked_spgemm
from repro.core.symbolic import (
    expand_structure,
    iter_row_blocks,
    mask_membership,
    segment_mask,
    structure_product,
)
from repro.datasets.generators import mesh2d
from repro.matrix.csr import fused_key_fits, stable_coordinate_order
from repro.matrix.ops import pattern, transpose
from repro.rmat import ER_PARAMS, G500_PARAMS, rmat

from .test_engine import assert_identical


def random_csr(nrows, ncols, per_row, seed, *, empty_rows=0.0, shuffle=False):
    """Random CSR with ``per_row`` draws per row (duplicates merged) and a
    fraction ``empty_rows`` of rows left empty."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(nrows), per_row)
    rows = rows[rng.random(len(rows)) >= empty_rows]
    cols = rng.integers(0, ncols, len(rows))
    m = sp.csr_matrix(
        (rng.standard_normal(len(rows)), (rows, cols)), shape=(nrows, ncols)
    )
    m.sum_duplicates()
    m.sort_indices()
    out = CSR(m.shape, m.indptr, m.indices, m.data, sorted_rows=True)
    return out.shuffle_rows(seed=seed + 1) if shuffle else out


def widened(m: CSR, ncols: int) -> CSR:
    """``m`` with ``ncols`` columns and the same entries."""
    return CSR(
        (m.nrows, ncols), m.indptr, m.indices, m.data,
        sorted_rows=m.sorted_rows,
    )


# --------------------------------------------------------------------------
# coordinate order
# --------------------------------------------------------------------------


def stream(n, nrows, ncols, seed, *, sorted_rows=True):
    """A product stream of ``n`` coordinates; few distinct columns make it
    duplicate-heavy."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, n)
    if sorted_rows:
        rows.sort()
    return rows.astype(np.int64), rng.integers(0, ncols, n).astype(np.int64)


class TestCoordinateOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023, 1024, 1025, 4096])
    @pytest.mark.parametrize("sorted_rows", [True, False])
    def test_matches_lexsort(self, n, sorted_rows):
        rows, cols = stream(n, 7, 3, seed=n, sorted_rows=sorted_rows)
        order, keys = stable_coordinate_order(rows, cols, 0, 7, 3)
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))
        np.testing.assert_array_equal(keys, np.sort(rows * 3 + cols))

    def test_block_offset(self):
        rows, cols = stream(5000, 40, 50, seed=3)
        rows += 100
        order, keys = stable_coordinate_order(rows, cols, 100, 40, 50)
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))
        np.testing.assert_array_equal(keys, np.sort((rows - 100) * 50 + cols))

    def test_composite_overflow_takes_lexsort(self):
        # The plain fused key fits but its arrival bits push it past int64.
        rows, cols = stream(1024, 4, 1 << 20, seed=4)
        ncols = 1 << 55
        assert fused_key_fits(4, ncols)
        assert not fused_key_fits(4, ncols, 1024)
        order, keys = stable_coordinate_order(rows, cols, 0, 4, ncols)
        assert keys is None
        np.testing.assert_array_equal(order, np.lexsort((cols, rows)))

    @pytest.mark.parametrize("ncols", [9, 1 << 55])
    def test_segments_match_reference(self, ncols):
        rows, cols = stream(3000, 12, 9, seed=5)
        order, new_run, starts, seg_rows, seg_cols = _coordinate_segments(
            rows, cols, 0, 12, ncols, ScratchArena()
        )
        ref = np.lexsort((cols, rows))
        r, c = rows[ref], cols[ref]
        ref_run = segment_mask(r, c)
        np.testing.assert_array_equal(order, ref)
        np.testing.assert_array_equal(new_run, ref_run)
        np.testing.assert_array_equal(starts, np.flatnonzero(ref_run))
        np.testing.assert_array_equal(seg_rows, r[ref_run])
        np.testing.assert_array_equal(seg_cols, c[ref_run])


# --------------------------------------------------------------------------
# mask gate
# --------------------------------------------------------------------------


def reference_membership(rows, cols, mask: CSR) -> np.ndarray:
    """Set lookup of every coordinate among the mask's stored entries."""
    stored = set()
    for i, mcols, _ in mask.iter_rows():
        stored.update((i, int(c)) for c in mcols)
    return np.array(
        [(int(r), int(c)) in stored for r, c in zip(rows, cols)], dtype=bool
    )


def gated_blocks(a, b, max_block_flop=1 << 23):
    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, _, _ = expand_structure(a, b, r0, r1)
        yield r0, r1, rows, cols


@pytest.fixture(params=["table", "sub-blocks", "search"])
def gate(request, monkeypatch):
    """The gate's three regimes over small operands: one table covering
    the block, a table of a few rows per stamp, and the sorted-key search
    (table narrower than a mask row)."""
    if request.param == "sub-blocks":
        monkeypatch.setattr(symbolic, "MASK_TABLE_ENTRIES", 3 * 64)
        monkeypatch.setattr(symbolic, "MASK_TABLE_MIN_PRODUCTS", 0)
    elif request.param == "search":
        monkeypatch.setattr(symbolic, "MASK_TABLE_ENTRIES", 32)
    return request.param


class TestMaskMembership:
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("max_block_flop", [1 << 23, 300])
    def test_matches_reference(self, gate, shuffle, max_block_flop):
        a = random_csr(50, 40, 4, seed=11)
        b = random_csr(40, 64, 5, seed=12)
        mask = random_csr(50, 64, 9, seed=13, empty_rows=0.3, shuffle=shuffle)
        for r0, r1, rows, cols in gated_blocks(a, b, max_block_flop):
            got = mask_membership(rows, cols, mask, r0, r1)
            np.testing.assert_array_equal(
                got, reference_membership(rows, cols, mask)
            )

    def test_sub_block_edges(self, monkeypatch):
        # Spans of 1, 2, 3 and 7 rows: every row boundary is a stamp edge
        # for some span, and a 50-row block leaves a short last sub-block.
        a = random_csr(50, 30, 3, seed=21)
        b = random_csr(30, 16, 4, seed=22)
        mask = random_csr(50, 16, 6, seed=23, empty_rows=0.2, shuffle=True)
        monkeypatch.setattr(symbolic, "MASK_TABLE_MIN_PRODUCTS", 0)
        for span in (1, 2, 3, 7):
            monkeypatch.setattr(symbolic, "MASK_TABLE_ENTRIES", span * 16)
            for r0, r1, rows, cols in gated_blocks(a, b):
                np.testing.assert_array_equal(
                    mask_membership(rows, cols, mask, r0, r1),
                    reference_membership(rows, cols, mask),
                )

    @pytest.mark.parametrize("ncols", [(1 << 20) + 3, 1 << 62])
    def test_columns_wider_than_table(self, ncols):
        a = random_csr(30, 20, 3, seed=31)
        b = widened(random_csr(20, 50, 4, seed=32), ncols)
        mask = widened(random_csr(30, 50, 10, seed=33, shuffle=True), ncols)
        for r0, r1, rows, cols in gated_blocks(a, b):
            np.testing.assert_array_equal(
                mask_membership(rows, cols, mask, r0, r1),
                reference_membership(rows, cols, mask),
            )

    def test_empty_mask_block(self):
        a = random_csr(10, 10, 3, seed=41)
        mask = CSR((10, 10), np.zeros(11, dtype=np.int64), [], [])
        for r0, r1, rows, cols in gated_blocks(a, a):
            assert not mask_membership(rows, cols, mask, r0, r1).any()

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_masked_product_matches_faithful(self, gate, complement, sort_output):
        a = random_csr(60, 45, 4, seed=51)
        b = random_csr(45, 64, 5, seed=52)
        mask = random_csr(60, 64, 12, seed=53, empty_rows=0.25, shuffle=True)
        kw = dict(complement=complement, sort_output=sort_output)
        fast = masked_spgemm(a, b, mask, engine="fast", max_block_flop=200, **kw)
        faithful = masked_spgemm(a, b, mask, engine="faithful", **kw)
        assert_identical(fast, faithful)


# --------------------------------------------------------------------------
# CSR.sort_rows
# --------------------------------------------------------------------------


def lexsort_sorted(m: CSR) -> CSR:
    rows = np.repeat(np.arange(m.nrows), m.row_nnz())
    order = np.lexsort((m.indices, rows))
    return CSR(
        m.shape, m.indptr, m.indices[order], m.data[order], sorted_rows=True
    )


class TestSortRows:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ncols", [37, 1 << 30, 1 << 62])
    def test_matches_lexsort(self, seed, ncols):
        m = widened(random_csr(80, 37, 6, seed=seed, empty_rows=0.2), ncols)
        m = m.shuffle_rows(seed=seed)
        assert_identical(m.sort_rows(), lexsort_sorted(m))

    def test_overflow_fallback(self):
        # 80 rows x 2^57 columns fits a fused key, not its arrival bits.
        m = widened(random_csr(80, 37, 6, seed=9), 1 << 55).shuffle_rows(seed=1)
        assert fused_key_fits(m.nrows, m.ncols)
        assert not fused_key_fits(m.nrows, m.ncols, m.nnz)
        assert_identical(m.sort_rows(), lexsort_sorted(m))

    def test_inplace(self):
        m = random_csr(40, 40, 5, seed=3).shuffle_rows(seed=3)
        expect = lexsort_sorted(m)
        assert m.sort_rows(inplace=True) is m
        assert_identical(m, expect)


# --------------------------------------------------------------------------
# value-free chain planning
# --------------------------------------------------------------------------


def esc_pattern(lp: CSR, rp: CSR) -> CSR:
    """Reference pattern product: a boolean ESC multiplication."""
    return pattern(spgemm(lp, rp, algorithm="esc", semiring="or_and"))


def mesh_rap(side, seed):
    """``[R, A, P]`` on a perturbed 2-D mesh with 2x2 node aggregates."""
    rng = np.random.default_rng(seed)
    a = mesh2d(side).to_scipy()
    a.data = rng.random(a.nnz) + 0.5
    a.data[rng.random(a.nnz) < 0.1] = 0.0
    a.eliminate_zeros()
    a.sort_indices()
    a = CSR(a.shape, a.indptr, a.indices, a.data)
    half = (side + 1) // 2
    grid = np.arange(side)
    agg = ((grid[:, None] // 2) * half + grid[None, :] // 2).ravel()
    n = side * side
    p = CSR((n, half * half), np.arange(n + 1), agg, np.ones(n))
    return [transpose(p), a, p]


def random_chain(k, seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(15, 70, k + 1)
    return [
        random_csr(int(dims[i]), int(dims[i + 1]), 3, seed=seed * 10 + i,
                   shuffle=bool(i % 2))
        for i in range(k)
    ]


CHAINS = {
    **{f"mesh{side}": (lambda side=side: mesh_rap(side, side)) for side in (8, 17)},
    **{f"random{k}-{s}": (lambda k=k, s=s: random_chain(k, s))
       for k in (3, 4, 5) for s in (1, 2)},
}


class TestStructureProduct:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_matches_esc_pattern(self, name):
        mats = CHAINS[name]()
        for lp, rp in zip(mats, mats[1:]):
            assert_identical(structure_product(lp, rp), esc_pattern(lp, rp))
            assert_identical(
                structure_product(lp, rp, max_block_flop=50),
                esc_pattern(lp, rp),
            )

    def test_overflow_fallback(self):
        a = random_csr(30, 20, 3, seed=61)
        b = widened(random_csr(20, 50, 4, seed=62), 1 << 62)
        assert_identical(structure_product(a, b), esc_pattern(a, b))

    @pytest.mark.parametrize("name", sorted(CHAINS))
    @pytest.mark.parametrize("masked", [False, True])
    def test_plan_chain_matches_esc_planner(self, name, masked, monkeypatch):
        mats = CHAINS[name]()
        kw = {}
        if masked:
            kw["mask"] = random_csr(mats[0].nrows, mats[-1].ncols, 4, seed=7)
        got = plan_chain(mats, **kw)
        monkeypatch.setattr(chain_mod, "structure_product", esc_pattern)
        assert got == plan_chain(mats, **kw)


# --------------------------------------------------------------------------
# triangle counts
# --------------------------------------------------------------------------


def scipy_triangles(adj: CSR) -> int:
    a = adj.to_scipy()
    a.data[:] = 1.0
    return int(round((a @ a).multiply(a).sum() / 6))


@pytest.mark.parametrize("params", [ER_PARAMS, G500_PARAMS], ids=["er", "g500"])
@pytest.mark.parametrize("shuffle", [False, True])
def test_count_triangles_matches_scipy(params, shuffle):
    adj = rmat(
        9, 8, params, seed=71, values="ones", symmetrize=True,
        drop_diagonal=True,
    )
    if shuffle:
        adj = adj.shuffle_rows(seed=3)
    assert count_triangles(adj, engine="fast") == scipy_triangles(adj)
