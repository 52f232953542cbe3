"""The algorithm table is the one home of every per-algorithm fact.

One table-driven test walks every row x engine x ``sort_output`` and checks
what the code derives from the row: the result's ``sorted_rows`` flag, the
engine that runs, and for plan rows that ``PlanCache`` replay matches the
fresh call byte for byte.
"""

import numpy as np
import pytest

from repro import ConfigError, spgemm
from repro.autotune import candidate_algorithms
from repro.core.engine import available_engines, resolve_engine
from repro.core.plan import PlanCache, SpgemmPlan, inspect
from repro.core.recipe import recommend
from repro.core.spgemm import ALGORITHMS
from repro.rmat import er_matrix


def revalue(m, seed):
    rng = np.random.default_rng(seed)
    return type(m)(
        m.shape, m.indptr, m.indices, rng.random(m.nnz) + 0.5,
        sorted_rows=m.sorted_rows,
    )


def assert_identical(got, want):
    assert got.shape == want.shape
    assert got.sorted_rows == want.sorted_rows
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.fixture(scope="module")
def operands():
    a = er_matrix(7, 6, seed=11)
    # an unsorted B, so "sorted" input rows must sort it first
    b = er_matrix(7, 6, seed=12)
    rng = np.random.default_rng(3)
    indices = b.indices.copy()
    for i in range(b.nrows):
        lo, hi = b.indptr[i], b.indptr[i + 1]
        indices[lo:hi] = rng.permutation(indices[lo:hi])
    b = type(b)(b.shape, b.indptr, indices, b.data)
    assert not b.sorted_rows
    return a, b


@pytest.mark.parametrize("sort_output", [True, False])
@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_row_drives_call(operands, algorithm, engine, sort_output):
    info = ALGORITHMS[algorithm]
    a, b = operands
    c = spgemm(a, b, algorithm=algorithm, engine=engine, sort_output=sort_output)
    assert c.sorted_rows == info.sorts(sort_output)
    c.validate()  # the flag is truthful
    expected = "faithful" if info.fast_kernel is None else engine
    assert resolve_engine(engine, algorithm) == expected
    if not info.planned:
        with pytest.raises(ConfigError, match="no inspector–executor split"):
            inspect(a, b, algorithm=algorithm, engine=engine)
        return
    cache = PlanCache()
    kw = dict(algorithm=algorithm, engine=engine, sort_output=sort_output)
    assert_identical(spgemm(a, b, plan_cache=cache, **kw), c)
    a2, b2 = revalue(a, 1), revalue(b, 2)
    replay = spgemm(a2, b2, plan_cache=cache, **kw)
    assert cache.hits == 1
    assert_identical(replay, spgemm(a2, b2, **kw))


def test_row_fields_take_known_values():
    for name, info in ALGORITHMS.items():
        assert info.name == name
        assert info.input_sorted in ("any", "sorted")
        assert info.output_sorted in ("select", "sorted", "unsorted")
        assert info.selected_by in ("table4", "calibrated", "never")


def test_selectors_read_the_row():
    never = {n for n, i in ALGORITHMS.items() if i.selected_by == "never"}
    assert never == {"mkl", "kokkos"}
    assert set(candidate_algorithms()) == set(ALGORITHMS) - never


def test_plan_cache_auto_keeps_a_plan_at_high_cr():
    """Unsorted high-CR ``auto`` on the fast engine runs the batched kernel
    under either Table-4 verdict; the cache resolves it as a fresh call
    does, to the verdict with a plan, and replays it numeric-only."""
    a = er_matrix(7, 16, seed=5)
    assert recommend(a, sort_output=False).algorithm == "mkl_inspector"
    kw = dict(algorithm="auto", engine="fast", sort_output=False)
    cache = PlanCache()
    assert_identical(spgemm(a, a, plan_cache=cache, **kw), spgemm(a, a, **kw))
    (entry,) = cache._entries.values()
    assert isinstance(entry, SpgemmPlan)
    a2 = revalue(a, 4)
    assert_identical(spgemm(a2, a2, plan_cache=cache, **kw), spgemm(a2, a2, **kw))
    assert cache.hits == 1
