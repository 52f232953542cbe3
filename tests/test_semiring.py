"""Semiring algebra tests: identities, laws on stored values, registry."""

import numpy as np
import pytest

from repro import ConfigError, get_semiring
from repro.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    OR_AND,
    PLUS_FIRST,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
)

ALL = list(SEMIRINGS.values())


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_semiring("plus_times") is PLUS_TIMES
        assert get_semiring("min_plus") is MIN_PLUS

    def test_lookup_passthrough(self):
        assert get_semiring(MIN_PLUS) is MIN_PLUS

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown semiring"):
            get_semiring("frobnicate")

    def test_all_registered(self):
        assert set(SEMIRINGS) >= {
            "plus_times", "or_and", "min_plus", "max_times", "min_times",
        }


def _domain(sr) -> "tuple[float, ...]":
    """Sample values inside each semiring's natural carrier set."""
    if sr.name == "or_and":
        return (0.0, 1.0)  # boolean carrier
    if sr.name in ("min_times", "max_times"):
        return (0.5, 1.0, 7.25)  # positive reals
    return (0.0, 1.0, -2.5, 7.25)


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
class TestLaws:
    def test_add_identity(self, sr):
        for x in _domain(sr):
            assert sr.scalar_add(x, sr.zero) == x
            assert sr.scalar_add(sr.zero, x) == x

    def test_add_commutative(self, sr, rng):
        xs = rng.random(50) * 5
        ys = rng.random(50) * 5
        np.testing.assert_allclose(sr.add(xs, ys), sr.add(ys, xs))

    def test_add_associative(self, sr, rng):
        x, y, z = rng.random(3)
        lhs = sr.scalar_add(sr.scalar_add(x, y), z)
        rhs = sr.scalar_add(x, sr.scalar_add(y, z))
        assert lhs == pytest.approx(rhs)

    def test_mul_identity(self, sr):
        if sr is PLUS_FIRST:
            pytest.skip("first() has no two-sided identity")
        for x in _domain(sr):
            assert sr.scalar_mul(x, sr.one) == pytest.approx(x)


class TestSpecificSemirings:
    def test_min_plus_shortest_path_semantics(self):
        # (min, +): combining paths takes the min, extending adds weights
        assert MIN_PLUS.scalar_mul(2.0, 3.0) == 5.0
        assert MIN_PLUS.scalar_add(5.0, 4.0) == 4.0
        assert MIN_PLUS.zero == float("inf")

    def test_or_and_boolean_closure(self):
        for x in (0.0, 1.0):
            for y in (0.0, 1.0):
                assert OR_AND.scalar_add(x, y) == float(bool(x) or bool(y))
                assert OR_AND.scalar_mul(x, y) == float(bool(x) and bool(y))

    def test_max_times(self):
        assert MAX_TIMES.scalar_add(2.0, 3.0) == 3.0
        assert MAX_TIMES.scalar_mul(2.0, 3.0) == 6.0

    def test_min_times(self):
        assert MIN_TIMES.scalar_add(2.0, 3.0) == 2.0

    def test_reduce_segments(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = np.array([0, 2, 3])
        np.testing.assert_allclose(
            PLUS_TIMES.reduce_segments(v, starts), [3.0, 3.0, 9.0]
        )
        np.testing.assert_allclose(
            MIN_PLUS.reduce_segments(v, starts), [1.0, 3.0, 4.0]
        )

    def test_reduce_segments_empty(self):
        out = PLUS_TIMES.reduce_segments(np.array([]), np.array([], dtype=int))
        assert len(out) == 0

    def test_custom_semiring_usable_in_spgemm(self, small_square):
        from repro import spgemm

        # plus-max: accumulate by +, combine by max — exotic but legal.
        plus_max = Semiring("plus_max", np.add, np.maximum, 0.0, float("-inf"))
        c = spgemm(small_square, small_square, algorithm="hash", semiring=plus_max)
        d = small_square.to_dense()
        n = 8
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    if d[i, k] != 0 and d[k, j] != 0:
                        acc += max(d[i, k], d[k, j])
                expected[i, j] = acc
        np.testing.assert_allclose(c.to_dense(), expected)


def _scalar_fold(sr, values, starts):
    """Each segment folded left to right, one scalar ``add`` at a time."""
    out = []
    bounds = list(starts) + [len(values)]
    for s, e in zip(bounds, bounds[1:]):
        acc = values[s]
        for v in values[s + 1 : e]:
            acc = sr.add(acc, v)
        out.append(acc)
    return np.array(out, dtype=values.dtype)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
class TestAccumulateSegments:
    """The ordered fold equals a scalar left-to-right fold, bit for bit."""

    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25])

    @pytest.mark.parametrize(
        "layout", ["mixed", "singletons", "one-segment", "empty"]
    )
    def test_matches_scalar_fold(self, sr, layout):
        rng = np.random.default_rng(3)
        n = {"mixed": 200, "singletons": 50, "one-segment": 80, "empty": 0}[layout]
        values = rng.normal(size=n)
        special = rng.random(n) < 0.3
        values[special] = rng.choice(self.SPECIALS, int(special.sum()))
        if layout == "mixed":
            new_run = rng.random(n) < 0.2
        else:
            new_run = np.full(n, layout == "singletons")
        if n:
            new_run[0] = True
        starts = np.flatnonzero(new_run)
        got = sr.accumulate_segments(values, new_run)
        np.testing.assert_array_equal(
            got.view(np.uint64), _scalar_fold(sr, values, starts).view(np.uint64)
        )
        np.testing.assert_array_equal(
            sr.accumulate_segments(values, new_run, starts).view(np.uint64),
            got.view(np.uint64),
        )
