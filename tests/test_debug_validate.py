"""Tests for the ``REPRO_DEBUG_VALIDATE=1`` runtime CSR invariant checks.

The flag gates full :meth:`CSR.validate` calls at ``spgemm()`` and
``masked_spgemm()`` entry and exit.  It must be off by default (validation
costs a pass over the arrays, which would distort the complexity model the
benchmarks measure) and, when on, must catch structurally broken operands
*before* a kernel turns them into silently-wrong output.
"""

import numpy as np
import pytest

import repro.core.masked as masked_module
from repro.core.masked import masked_spgemm
from repro.core.spgemm import spgemm
from repro.errors import FormatError
from repro.matrix.csr import CSR


def small_csr():
    """A valid 2x3 CSR: [[1, 0, 2], [0, 3, 0]]."""
    return CSR(
        (2, 3),
        np.array([0, 2, 3]),
        np.array([0, 2, 1]),
        np.array([1.0, 2.0, 3.0]),
    )


def corrupt_csr():
    """Passes the cheap constructor checks but has an out-of-range column.

    ``sorted_rows=True`` is asserted (truthfully — rows are sorted) so no
    code path has a reason to touch the bad index until a kernel consumes
    it; only ``validate()`` notices.
    """
    return CSR(
        (3, 2),
        np.array([0, 1, 2, 2]),
        np.array([0, 5]),  # column 5 >= ncols=2
        np.array([1.0, 1.0]),
        sorted_rows=True,
    )


def test_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG_VALIDATE", raising=False)
    a = small_csr()
    b = CSR((3, 2), np.array([0, 1, 1, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
    c = spgemm(a, b, algorithm="hash")
    assert c.shape == (2, 2)
    # The corrupt operand is *not* caught when the flag is unset: an
    # out-of-range column in `b` flows straight into the output.
    bad = corrupt_csr()
    c_bad = spgemm(small_csr(), bad, algorithm="hash")
    assert c_bad.indices.max() >= bad.ncols  # silently wrong — why the flag exists


def test_catches_corrupt_input_at_entry(monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG_VALIDATE", "1")
    with pytest.raises(FormatError, match="column index out of range"):
        spgemm(small_csr(), corrupt_csr(), algorithm="hash")


def test_valid_inputs_unchanged_by_flag(monkeypatch):
    a = small_csr()
    b = CSR((3, 2), np.array([0, 1, 1, 2]), np.array([0, 1]), np.array([1.0, 1.0]))

    monkeypatch.delenv("REPRO_DEBUG_VALIDATE", raising=False)
    plain = spgemm(a, b, algorithm="hash")
    monkeypatch.setenv("REPRO_DEBUG_VALIDATE", "1")
    checked = spgemm(a, b, algorithm="hash")

    np.testing.assert_array_equal(plain.indptr, checked.indptr)
    np.testing.assert_array_equal(plain.indices, checked.indices)
    np.testing.assert_array_equal(plain.data, checked.data)


def test_flag_read_per_call(monkeypatch):
    """The environment is consulted on every call, not cached at import."""
    monkeypatch.setenv("REPRO_DEBUG_VALIDATE", "1")
    with pytest.raises(FormatError):
        spgemm(small_csr(), corrupt_csr(), algorithm="hash")
    monkeypatch.delenv("REPRO_DEBUG_VALIDATE", raising=False)
    spgemm(small_csr(), corrupt_csr(), algorithm="hash")  # no longer raises


class TestMaskedSpgemmHooks:
    """``masked_spgemm`` validates its three operands at entry and its
    result at exit, like ``spgemm``."""

    @staticmethod
    def square():
        return CSR((3, 3), np.array([0, 1, 2, 3]), np.array([0, 2, 1]),
                   np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", ["a", "b", "mask"])
    def test_catches_corrupt_operand_at_entry(self, monkeypatch, bad):
        ops = {"a": self.square(), "b": self.square(), "mask": self.square()}
        ops[bad] = CSR((3, 3), np.array([0, 1, 2, 2]), np.array([0, 5]),
                       np.array([1.0, 1.0]), sorted_rows=True)
        monkeypatch.setenv("REPRO_DEBUG_VALIDATE", "1")
        with pytest.raises(FormatError, match="column index out of range"):
            masked_spgemm(ops["a"], ops["b"], ops["mask"], engine="fast")

    @pytest.mark.parametrize("engine", ["fast", "faithful"])
    def test_catches_corrupt_result_at_exit(self, monkeypatch, engine):
        broken = CSR((3, 3), np.array([0, 2, 2, 2]), np.array([1, 1]),
                     np.array([1.0, 1.0]), sorted_rows=False)
        monkeypatch.setattr(
            masked_module, "_dispatch_masked", lambda *args, **kw: broken
        )
        m = self.square()
        monkeypatch.delenv("REPRO_DEBUG_VALIDATE", raising=False)
        assert masked_spgemm(m, m, m, engine=engine) is broken
        monkeypatch.setenv("REPRO_DEBUG_VALIDATE", "1")
        with pytest.raises(FormatError, match="duplicate column index"):
            masked_spgemm(m, m, m, engine=engine)

    def test_valid_inputs_unchanged_by_flag(self, monkeypatch):
        m = self.square()
        monkeypatch.delenv("REPRO_DEBUG_VALIDATE", raising=False)
        plain = masked_spgemm(m, m, m)
        monkeypatch.setenv("REPRO_DEBUG_VALIDATE", "1")
        checked = masked_spgemm(m, m, m)
        np.testing.assert_array_equal(plain.indptr, checked.indptr)
        np.testing.assert_array_equal(plain.indices, checked.indices)
        np.testing.assert_array_equal(plain.data, checked.data)
