"""Plan replay's rank-major ordered fold is bit-identical to the fresh call.

A batched plan replays each row block as gather → ``mul`` → rank-major
fold (:meth:`repro.semiring.Semiring.fold_ranks`) → one output gather.
Every output segment still starts from its first product verbatim and
folds the rest in arrival order, so the replayed bits must equal the
fresh kernels' for every semiring and every value — signed zeros,
infinities and NaNs included — whatever the block's segment-length
profile and wherever the per-rank loop hands over to the ``add.at`` tail.
ESC keeps its pairwise compress and must match fresh ESC.
"""

import numpy as np
import pytest

from repro import PlanCache, masked_spgemm, spgemm
from repro.core import plan as plan_mod
from repro.core.plan import inspect as inspect_plan
from repro.core.plan import inspect_masked
from repro.matrix.csr import CSR
from repro.semiring import SEMIRINGS

#: Special values mixed into the operands: none (magnitudes alone make the
#: bits order-sensitive), signed zeros (which an identity seed would lose),
#: and non-finite values.  A NaN that reaches an accumulator sends its
#: block down the ``add.at`` refold, so only the first two exercise the
#: vectorized ranks everywhere.
SPECIALS = {
    "none": np.empty(0),
    "zeros": np.array([0.0, -0.0]),
    "nonfinite": np.array([0.0, -0.0, np.inf, -np.inf, np.nan]),
}

FOLD_ALGORITHMS = ("hash", "hashvec", "spa")

#: The special values make numpy warn about invalid operations; expected here.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def assert_identical(got: CSR, want: CSR) -> None:
    """Bitwise CSR equality — indptr, indices, and data as raw uint64."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(
        got.data.view(np.uint64), want.data.view(np.uint64)
    )
    assert got.sorted_rows == want.sorted_rows


def values(rng, n: int, specials: str = "none") -> np.ndarray:
    """Magnitudes over 16 decades, so any change of fold order shows in
    the low bits; one value in eight is drawn from ``SPECIALS[specials]``."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    if len(SPECIALS[specials]):
        hit = rng.random(n) < 0.125
        v[hit] = rng.choice(SPECIALS[specials], int(hit.sum()))
    return v


def random_csr(rng, nrows, ncols, density, *, specials="none") -> CSR:
    return from_pattern(rng, rng.random((nrows, ncols)) < density, specials)


def from_pattern(rng, keep: np.ndarray, specials="none") -> CSR:
    """CSR with the pattern of the boolean ``keep`` and random values."""
    indptr = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(keep)[1].astype(np.int64)
    return CSR(keep.shape, indptr, indices, values(rng, len(indices), specials))


def revalued(m: CSR, rng, specials: str) -> CSR:
    return CSR(m.shape, m.indptr, m.indices, values(rng, m.nnz, specials),
               sorted_rows=m.sorted_rows)


@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@pytest.mark.parametrize("algorithm", FOLD_ALGORITHMS)
@pytest.mark.parametrize("sort_output", (True, False))
@pytest.mark.parametrize("specials", sorted(SPECIALS))
def test_replay_matches_fresh(semiring, algorithm, sort_output, specials):
    rng = np.random.default_rng(11)
    a = random_csr(rng, 40, 30, 0.3, specials=specials)
    b = random_csr(rng, 30, 50, 0.3, specials=specials)
    opts = dict(algorithm=algorithm, engine="fast", sort_output=sort_output,
                semiring=semiring)
    plan = inspect_plan(a, b, **opts)
    cache = PlanCache()
    spgemm(a, b, plan_cache=cache, **opts)  # the miss
    for _ in range(2):
        a2, b2 = revalued(a, rng, specials), revalued(b, rng, specials)
        want = spgemm(a2, b2, **opts)
        assert_identical(plan.execute(a2, b2), want)
        assert_identical(spgemm(a2, b2, plan_cache=cache, **opts), want)
    assert cache.hits == 2


@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@pytest.mark.parametrize("complement", (False, True))
@pytest.mark.parametrize("sort_output", (True, False))
@pytest.mark.parametrize("specials", sorted(SPECIALS))
def test_masked_replay_matches_fresh(semiring, complement, sort_output,
                                     specials):
    rng = np.random.default_rng(12)
    a = random_csr(rng, 40, 30, 0.3, specials=specials)
    b = random_csr(rng, 30, 40, 0.3, specials=specials)
    mask = random_csr(rng, 40, 40, 0.4)
    opts = dict(semiring=semiring, complement=complement,
                sort_output=sort_output)
    plan = inspect_masked(a, b, mask, **opts)
    cache = PlanCache()
    cache.execute_masked(a, b, mask, **opts)  # the miss
    for _ in range(2):
        a2, b2 = revalued(a, rng, specials), revalued(b, rng, specials)
        want = masked_spgemm(a2, b2, mask, **opts)
        assert_identical(plan.execute(a2, b2, mask), want)
        assert_identical(cache.execute_masked(a2, b2, mask, **opts), want)
    assert cache.hits == 2


@pytest.mark.parametrize("tail", (1, 2, 10**9))
@pytest.mark.parametrize("algorithm", FOLD_ALGORITHMS)
@pytest.mark.parametrize("specials", sorted(SPECIALS))
def test_tail_handover_anywhere(monkeypatch, tail, algorithm, specials):
    """All-ranks loop (1), loop until one segment is left (2), and all
    ``add.at`` after rank 0 (huge) give the same bits; the matrix is big
    enough that the default constant sits mid-block too."""
    monkeypatch.setattr(plan_mod, "FOLD_TAIL", tail)
    rng = np.random.default_rng(13)
    a = random_csr(rng, 300, 200, 0.06, specials=specials)
    b = random_csr(rng, 200, 300, 0.06, specials=specials)
    for sort_output in (True, False):
        opts = dict(algorithm=algorithm, engine="fast",
                    sort_output=sort_output)
        plan = inspect_plan(a, b, **opts)
        a2, b2 = revalued(a, rng, specials), revalued(b, rng, specials)
        assert_identical(plan.execute(a2, b2), spgemm(a2, b2, **opts))


def test_default_tail_has_vectorized_ranks():
    """At the default constant a block with many segments uses both fold
    stages, so the handover is exercised without monkeypatching too."""
    rng = np.random.default_rng(14)
    a = random_csr(rng, 300, 200, 0.06)
    b = random_csr(rng, 200, 300, 0.06)
    plan = inspect_plan(a, b, algorithm="hash", engine="fast")
    assert any(len(r.counts) > 1 and len(r.tail_ids) for r in plan._blocks)


@pytest.mark.parametrize("specials", ("none", "nonfinite"))
def test_hub_segment_longer_than_uint16(specials):
    """Output (0, 0) gathers 70 000 products, past the 16-bit segment
    ordering key, beside many short segments."""
    rng = np.random.default_rng(15)
    k = 70_000
    rows = [np.arange(k)] + [
        np.sort(rng.choice(k, 40, replace=False)) for _ in range(299)
    ]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate(rows).astype(np.int64)
    a = CSR((len(rows), k), indptr, indices,
            values(rng, len(indices), specials))
    keep = rng.random((k, 4)) < 0.3
    keep[:, 0] = True
    b = from_pattern(rng, keep)
    for semiring in ("plus_times", "min_plus"):
        for sort_output in (True, False):
            opts = dict(algorithm="hash", engine="fast", semiring=semiring,
                        sort_output=sort_output)
            plan = inspect_plan(a, b, **opts)
            a2 = revalued(a, rng, specials)
            assert_identical(plan.execute(a2, b), spgemm(a2, b, **opts))


@pytest.mark.parametrize("algorithm", FOLD_ALGORITHMS + ("esc",))
def test_empty_products(algorithm):
    rng = np.random.default_rng(17)
    empty = CSR((6, 5), np.zeros(7, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.empty(0))
    b = random_csr(rng, 5, 4, 0.5)
    # Disjoint inner indices: A's columns meet only B's empty rows.
    a = CSR((3, 5), np.array([0, 1, 2, 2]), np.array([0, 1]),
            np.array([1.0, 2.0]))
    b_gap = CSR((5, 4), np.array([0, 0, 0, 2, 3, 3]),
                np.array([1, 3, 0]), np.array([1.0, 2.0, 3.0]))
    for x, y in ((empty, b), (a, b_gap)):
        plan = inspect_plan(x, y, algorithm=algorithm, engine="fast")
        want = spgemm(x, y, algorithm=algorithm, engine="fast")
        assert want.nnz == 0
        assert_identical(plan.execute(x, y), want)
    mask = random_csr(rng, 6, 4, 0.5)
    assert_identical(inspect_masked(empty, b, mask).execute(empty, b, mask),
                     masked_spgemm(empty, b, mask))


@pytest.mark.parametrize("engine", ("fast", "faithful"))
@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
def test_esc_replay_matches_fresh_esc(engine, semiring):
    rng = np.random.default_rng(18)
    a = random_csr(rng, 40, 30, 0.3, specials="nonfinite")
    b = random_csr(rng, 30, 40, 0.3, specials="nonfinite")
    opts = dict(algorithm="esc", engine=engine, semiring=semiring)
    plan = inspect_plan(a, b, **opts)
    a2, b2 = revalued(a, rng, "nonfinite"), revalued(b, rng, "nonfinite")
    assert_identical(plan.execute(a2, b2), spgemm(a2, b2, **opts))
