"""The first-touch table path of the batched kernels, against the sort path.

Unsorted first-occurrence output (``hash``, ``spa``, ``mkl_inspector`` and
the unsorted masked kernel) groups products through a dense first-touch
table when it pays, and through the stable coordinate sort otherwise.
Both must give the same bytes — indptr, indices, and data as raw bits,
non-finite values and signed zeros included — so every test here runs
one call twice, table forced on and table gated off, and compares.
"""

import numpy as np
import pytest

import repro.core.hash_batch as hb
from repro import CSR, csr_from_dense, random_csr, spgemm
from repro.core.hash_batch import batch_hash_spgemm
from repro.core.masked import masked_spgemm
from repro.semiring import SEMIRINGS

from .test_engine import assert_identical

ALGORITHMS = ("hash", "spa", "mkl_inspector")


@pytest.fixture
def table_blocks(monkeypatch):
    """Per block the kernels grouped: True where the table path ran."""
    seen = []
    real = hb._first_touch_segments

    def spy(*args):
        out = real(*args)
        seen.append(out is not None)
        return out

    monkeypatch.setattr(hb, "_first_touch_segments", spy)
    return seen


def both_paths(monkeypatch, call, entries=None):
    """``call()`` with the table gate open (``entries`` table entries, if
    given), then with a table too narrow for one row, which sorts."""
    monkeypatch.setattr(hb, "TOUCH_TABLE_MIN_PRODUCTS", 0)
    if entries is not None:
        monkeypatch.setattr(hb, "TOUCH_TABLE_ENTRIES", entries)
    table = call()
    monkeypatch.setattr(hb, "TOUCH_TABLE_ENTRIES", 0)
    return table, call()


def with_specials(m: CSR, seed: int) -> CSR:
    """``m`` with a fifth of its values replaced by +-0.0, +-inf and NaN."""
    rng = np.random.default_rng(seed)
    data = m.data.copy()
    pick = rng.permutation(len(data))[: len(data) // 5]
    data[pick] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], len(pick))
    return CSR(m.shape, m.indptr, m.indices, data, sorted_rows=m.sorted_rows)


def hub_matrix(n: int = 40, seed: int = 3) -> CSR:
    """Random ``n x n`` with a dense row 0 (long segments) and empty rows."""
    dense = random_csr(n, n, 0.12, seed=seed).to_dense()
    dense[0, :] = np.arange(1.0, n + 1)
    dense[[5, 17], :] = 0.0
    return csr_from_dense(dense)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestTableEqualsSort:
    @pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_semirings_with_specials(
        self, monkeypatch, table_blocks, semiring, algorithm
    ):
        a = with_specials(hub_matrix(), seed=1)
        b = with_specials(random_csr(40, 40, 0.15, seed=4), seed=2)
        table, ref = both_paths(monkeypatch, lambda: spgemm(
            a, b, algorithm=algorithm, engine="fast", sort_output=False,
            semiring=semiring,
        ))
        assert_identical(table, ref)
        assert True in table_blocks and False in table_blocks
        faithful = spgemm(
            a, b, algorithm=algorithm, engine="faithful", sort_output=False,
            semiring=semiring,
        )
        assert_identical(table, faithful)

    @pytest.mark.parametrize("semiring", ["plus_times", "min_plus", "max_times"])
    @pytest.mark.parametrize("complement", [False, True])
    def test_masked(self, monkeypatch, table_blocks, semiring, complement):
        a = with_specials(hub_matrix(), seed=5)
        mask = random_csr(40, 40, 0.3, seed=6)
        table, ref = both_paths(monkeypatch, lambda: masked_spgemm(
            a, a, mask, engine="fast", sort_output=False,
            semiring=semiring, complement=complement,
        ))
        assert_identical(table, ref)
        assert True in table_blocks
        faithful = masked_spgemm(
            a, a, mask, engine="faithful", sort_output=False,
            semiring=semiring, complement=complement,
        )
        assert_identical(table, faithful)

    @pytest.mark.parametrize("masked", [False, True])
    def test_several_blocks(self, monkeypatch, table_blocks, masked):
        a = with_specials(hub_matrix(), seed=7)
        mask = random_csr(40, 40, 0.3, seed=8)

        def run(max_block_flop):
            if masked:
                return masked_spgemm(
                    a, a, mask, engine="fast", sort_output=False,
                    max_block_flop=max_block_flop,
                )
            return batch_hash_spgemm(
                a, a, sort_output=False, max_block_flop=max_block_flop
            )

        table, ref = both_paths(monkeypatch, lambda: run(60))
        assert table_blocks.count(True) > 2
        assert_identical(table, ref)
        assert_identical(table, run(1 << 23))

    @pytest.mark.parametrize(
        "geometry", ["whole-block", "one-row", "narrower-than-ncols"]
    )
    def test_table_geometry(self, monkeypatch, table_blocks, geometry):
        a = with_specials(hub_matrix(), seed=9)
        entries = {
            "whole-block": 4 * a.nrows * a.ncols,
            "one-row": a.ncols,
            "narrower-than-ncols": a.ncols - 1,
        }[geometry]
        table, ref = both_paths(
            monkeypatch,
            lambda: spgemm(a, a, algorithm="hash", engine="fast", sort_output=False),
            entries=entries,
        )
        assert_identical(table, ref)
        assert (True in table_blocks) == (geometry != "narrower-than-ncols")

    def test_gate_sends_sparse_streams_to_the_sort(self, monkeypatch, table_blocks):
        """With the default gate, a stream averaging fewer products per
        sub-block than ``TOUCH_TABLE_MIN_PRODUCTS`` is sorted instead."""
        a = random_csr(64, 64, 0.05, seed=10)
        monkeypatch.setattr(hb, "TOUCH_TABLE_ENTRIES", 2 * a.ncols)
        got = spgemm(a, a, algorithm="hash", engine="fast", sort_output=False)
        assert table_blocks == [False]
        faithful = spgemm(a, a, algorithm="hash", engine="faithful", sort_output=False)
        assert_identical(got, faithful)

    @pytest.mark.parametrize(
        "shape", ["empty-product", "all-empty-rows", "0xn", "nx0"]
    )
    @pytest.mark.parametrize("masked", [False, True])
    def test_degenerate(self, monkeypatch, shape, masked):
        if shape == "empty-product":
            a = random_csr(12, 12, 0.3, seed=11)
            b = csr_from_dense(np.zeros((12, 12)))
        elif shape == "all-empty-rows":
            a = csr_from_dense(np.zeros((12, 12)))
            b = random_csr(12, 12, 0.3, seed=12)
        elif shape == "0xn":
            a = csr_from_dense(np.zeros((0, 7)))
            b = random_csr(7, 5, 0.5, seed=13)
        else:
            a = random_csr(6, 7, 0.5, seed=14)
            b = csr_from_dense(np.zeros((7, 0)))
        mask = random_csr(a.nrows, b.ncols, 0.5, seed=15)

        def run():
            if masked:
                return masked_spgemm(a, b, mask, engine="fast", sort_output=False)
            return spgemm(a, b, algorithm="hash", engine="fast", sort_output=False)

        table, ref = both_paths(monkeypatch, run)
        assert_identical(table, ref)
        assert table.nnz == 0 and table.shape == (a.nrows, b.ncols)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_dense_hub_row(self, monkeypatch, table_blocks, algorithm):
        """One output row whose every product collides with many others."""
        n = 300
        rng = np.random.default_rng(16)
        a = csr_from_dense(np.ones((1, n)) * rng.random(n))
        b = with_specials(random_csr(n, 50, 0.4, seed=17), seed=18)
        table, ref = both_paths(monkeypatch, lambda: spgemm(
            a, b, algorithm=algorithm, engine="fast", sort_output=False,
        ))
        assert_identical(table, ref)
        assert True in table_blocks
