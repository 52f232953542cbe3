"""``algorithm="auto"``: cheap selection, fast kernels, unchanged results.

The static selector computes the compression ratio only when Table 4
reads it, the exact ``nnz(C)`` count sorts fused coordinate keys in
place, ESC orders its products by the same fused key, and ``mkl_inspector``
runs batched under ``engine="fast"``.  Each of these is a pure speed
change, so every test here is differential: the new path against the
engine-independent or the two-key-sort reference, byte for byte.
"""

import numpy as np
import pytest

from repro import CSR, csr_from_dense, spgemm
from repro.autotune import resolve_auto
from repro.autotune.profile import PROFILE_ENV_VAR, clear_active_profile
from repro.core.esc_spgemm import esc_spgemm
from repro.core.recipe import recommend, table4
from repro.core.symbolic import (
    expand_rows,
    iter_row_blocks,
    mask_membership,
    masked_row_nnz,
    segment_mask,
    symbolic_row_nnz,
)
from repro.datasets.generators import banded_fem, econ_like
from repro.matrix.csr import INDPTR_DTYPE
from repro.rmat import er_matrix, g500_matrix
from repro.semiring import get_semiring

from .test_engine import assert_identical

OPERANDS = {
    "er": lambda: er_matrix(7, 8, seed=21),
    "g500": lambda: g500_matrix(7, 8, seed=22),
    "fem": lambda: banded_fem(120, 18, seed=23),
    "econ": lambda: econ_like(512, 4.0, seed=24),
}


def operand(name: str, sorted_input: bool) -> CSR:
    m = OPERANDS[name]()
    return m if sorted_input else m.shuffle_rows(seed=5)


def huge_columns(m: CSR, ncols: int) -> CSR:
    """``m`` widened to ``ncols`` columns (same entries): fused
    ``row * ncols + col`` keys of any block of two or more rows overflow
    int64, so every fused-key sort must take its two-key fallback."""
    return CSR(
        (m.nrows, ncols), m.indptr, m.indices, m.data,
        sorted_rows=m.sorted_rows,
    )


@pytest.fixture(autouse=True)
def _no_ambient_profile(monkeypatch):
    monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
    clear_active_profile()
    yield
    clear_active_profile()


class TestAutoFastMatchesFaithful:
    @pytest.mark.parametrize("name", sorted(OPERANDS))
    @pytest.mark.parametrize("sorted_input", [True, False])
    @pytest.mark.parametrize("sort_output", [True, False])
    @pytest.mark.parametrize("nthreads", [1, 4])
    def test_bit_identical(self, name, sorted_input, sort_output, nthreads):
        a = operand(name, sorted_input)
        kw = dict(algorithm="auto", sort_output=sort_output, nthreads=nthreads)
        fast = spgemm(a, a, engine="fast", **kw)
        faithful = spgemm(a, a, engine="faithful", **kw)
        assert_identical(fast, faithful)

    def test_corpus_reaches_mkl_inspector(self):
        """The unsorted high-CR verdict is in the differential corpus, so
        the batched ``mkl_inspector`` is what the test above compares."""
        verdicts = {
            resolve_auto(m, m, sort_output=False)[0]
            for m in (f() for f in OPERANDS.values())
        }
        assert "mkl_inspector" in verdicts

    @pytest.mark.parametrize("sort_output", [True, False])
    def test_mkl_inspector_always_unsorted(self, sort_output):
        a = OPERANDS["fem"]()
        kw = dict(algorithm="mkl_inspector", sort_output=sort_output)
        fast = spgemm(a, a, engine="fast", **kw)
        faithful = spgemm(a, a, engine="faithful", **kw)
        assert_identical(fast, faithful)
        assert not fast.sorted_rows


class TestStaticSelection:
    @pytest.mark.parametrize("name", sorted(OPERANDS))
    @pytest.mark.parametrize("sorted_input", [True, False])
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_resolve_auto_is_recommend(self, name, sorted_input, sort_output):
        a = operand(name, sorted_input)
        algorithm, observe = resolve_auto(a, a, sort_output=sort_output)
        assert observe is None
        assert algorithm == recommend(a, a, sort_output=sort_output).algorithm

    @pytest.mark.parametrize("sort_output", [True, False])
    def test_degenerate_product(self, sort_output):
        empty = csr_from_dense(np.zeros((6, 6)))
        algorithm, _ = resolve_auto(empty, empty, sort_output=sort_output)
        assert algorithm == recommend(empty, sort_output=sort_output).algorithm

    @pytest.mark.parametrize("operation", ["square", "lxu", "tallskinny"])
    @pytest.mark.parametrize("synthetic", [False, True])
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_table4_is_recommend(self, operation, synthetic, sort_output):
        for make in OPERANDS.values():
            a = make()
            kw = dict(
                sort_output=sort_output, operation=operation,
                synthetic=synthetic,
            )
            d = recommend(a, **kw)
            assert table4(a, **kw) == (d.algorithm, d.reason)

    def test_sorted_selection_skips_symbolic_pass(self, monkeypatch):
        """Sorted A·A on real data is Hash for any CR: no nnz(C) count."""
        import repro.core.recipe as recipe

        calls = []

        def counting(a, b, *args, **kwargs):
            calls.append(1)
            return symbolic_row_nnz(a, b, *args, **kwargs)

        monkeypatch.setattr(recipe, "symbolic_row_nnz", counting)
        a = OPERANDS["fem"]()
        assert resolve_auto(a, a, sort_output=True)[0] == "hash"
        assert calls == []
        assert resolve_auto(a, a, sort_output=False)[0] == "mkl_inspector"
        assert calls == [1]


def lexsort_row_nnz(a: CSR, b: CSR, max_block_flop: int) -> np.ndarray:
    """Reference count: two-key lexsort and segment boundaries."""
    out = np.zeros(a.nrows, dtype=INDPTR_DTYPE)
    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, _ = expand_rows(a, b, r0, r1, with_values=False)
        if len(rows) == 0:
            continue
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        out[r0:r1] += np.bincount(r[segment_mask(r, c)] - r0, minlength=r1 - r0)
    return out


class TestFusedKeyCount:
    @pytest.mark.parametrize("name", sorted(OPERANDS))
    @pytest.mark.parametrize("max_block_flop", [1 << 23, 97])
    def test_matches_lexsort(self, name, max_block_flop):
        a = operand(name, sorted_input=False)
        np.testing.assert_array_equal(
            symbolic_row_nnz(a, a, max_block_flop),
            lexsort_row_nnz(a, a, max_block_flop),
        )

    def test_overflow_fallback_matches_lexsort(self):
        a = OPERANDS["g500"]()
        wide = huge_columns(a, 1 << 62)
        got = symbolic_row_nnz(a, wide)
        np.testing.assert_array_equal(got, lexsort_row_nnz(a, wide, 1 << 23))
        np.testing.assert_array_equal(got, symbolic_row_nnz(a, a))

    @pytest.mark.parametrize("complement", [False, True])
    def test_masked_count_matches_lexsort(self, complement):
        a = OPERANDS["er"]()
        mask = OPERANDS["g500"]()
        expect = np.zeros(a.nrows, dtype=INDPTR_DTYPE)
        for r0, r1 in iter_row_blocks(a, a):
            rows, cols, _ = expand_rows(a, a, r0, r1, with_values=False)
            keep = mask_membership(rows, cols, mask, r0, r1) != complement
            r, c = rows[keep], cols[keep]
            order = np.lexsort((c, r))
            r, c = r[order], c[order]
            expect[r0:r1] += np.bincount(
                r[segment_mask(r, c)] - r0, minlength=r1 - r0
            )
        np.testing.assert_array_equal(
            masked_row_nnz(a, a, mask, complement=complement), expect
        )


def lexsort_esc(a: CSR, b: CSR, semiring: str, max_block_flop: int) -> CSR:
    """Reference ESC: expand, two-key lexsort, pairwise segment reduce."""
    sr = get_semiring(semiring)
    indices, data = [], []
    row_nnz = np.zeros(a.nrows, dtype=INDPTR_DTYPE)
    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, factors = expand_rows(a, b, r0, r1)
        if len(rows) == 0:
            continue
        vals = np.asarray(sr.mul(factors[0], factors[1]), dtype=np.float64)
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], vals[order]
        starts = np.flatnonzero(segment_mask(r, c))
        indices.append(c[starts])
        data.append(sr.reduce_segments(v, starts))
        row_nnz[r0:r1] += np.bincount(r[starts] - r0, minlength=r1 - r0)
    indptr = np.zeros(a.nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(row_nnz, out=indptr[1:])
    return CSR(
        (a.nrows, b.ncols), indptr,
        np.concatenate(indices).astype(a.indices.dtype), np.concatenate(data),
        sorted_rows=True,
    )


class TestEscUnchanged:
    @pytest.mark.parametrize("name", sorted(OPERANDS))
    @pytest.mark.parametrize("semiring", ["plus_times", "or_and", "min_plus"])
    @pytest.mark.parametrize("max_block_flop", [1 << 23, 97])
    def test_matches_lexsort_esc(self, name, semiring, max_block_flop):
        a = operand(name, sorted_input=False)
        got = esc_spgemm(a, a, semiring=semiring, max_block_flop=max_block_flop)
        assert_identical(got, lexsort_esc(a, a, semiring, max_block_flop))

    def test_overflow_fallback_matches_lexsort_esc(self):
        a = OPERANDS["econ"]()
        wide = huge_columns(a, 1 << 62)
        got = esc_spgemm(a, wide)
        assert_identical(got, lexsort_esc(a, wide, "plus_times", 1 << 23))


@pytest.fixture
def nnz_counts(monkeypatch):
    """Calls of the exact ``nnz(C)`` count from every selector module."""
    import repro.core.recipe as recipe
    import repro.perfmodel.quantities as quantities

    calls = []
    for module in (recipe, quantities):
        def counting(a, b, *args, _real=module.symbolic_row_nnz, **kwargs):
            calls.append(1)
            return _real(a, b, *args, **kwargs)

        monkeypatch.setattr(module, "symbolic_row_nnz", counting)
    return calls


class TestCompressionRatioFromResult:
    """On the fast engine, unsorted ``auto`` runs its one batched kernel
    and reads the compression ratio off the result: no symbolic pass, the
    same bytes and the same verdict as resolving first."""

    @pytest.mark.parametrize("name", sorted(OPERANDS))
    def test_bytes_match_resolved_verdict(self, name, nnz_counts):
        a = OPERANDS[name]()
        got = spgemm(a, a, algorithm="auto", engine="fast", sort_output=False)
        assert nnz_counts == []
        verdict, _ = resolve_auto(a, a, sort_output=False)
        ref = spgemm(a, a, algorithm=verdict, engine="fast", sort_output=False)
        assert_identical(got, ref)

    def test_faithful_engine_still_counts(self, nnz_counts):
        a = OPERANDS["econ"]()
        spgemm(a, a, algorithm="auto", engine="faithful", sort_output=False)
        assert nnz_counts == [1]

    def test_active_profile_still_counts(self, nnz_counts):
        from repro.autotune import set_active_profile

        from .test_autotune import make_profile

        a = OPERANDS["er"]()
        set_active_profile(make_profile())
        spgemm(a, a, algorithm="auto", engine="fast", sort_output=False)
        assert len(nnz_counts) >= 1

    @pytest.mark.parametrize("name", sorted(OPERANDS))
    @pytest.mark.parametrize("sort_output", [True, False])
    def test_traced_span_names_the_verdict(self, name, sort_output):
        from repro.observability import Tracer

        a = OPERANDS[name]()
        tracer = Tracer()
        spgemm(
            a, a, algorithm="auto", engine="fast", sort_output=sort_output,
            tracer=tracer,
        )
        (root,) = tracer.spans
        verdict, _ = resolve_auto(a, a, sort_output=sort_output)
        assert root.meta["algorithm"] == verdict
