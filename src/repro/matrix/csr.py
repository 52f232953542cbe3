"""Compressed Sparse Row container with an explicit row-sortedness flag.

The CSR format is three arrays (§2 of the paper):

* ``indptr`` — row pointers, length ``nrows + 1``;
* ``indices`` — column indices, length ``nnz``;
* ``data`` — values, length ``nnz``.

The format "does not specify whether this range should be sorted with
increasing column indices; that decision has been left to the library
implementation" (paper, §2).  The paper shows significant performance wins
from operating on unsorted CSR, so :class:`CSR` tracks sortedness explicitly
in :attr:`CSR.sorted_rows` and all kernels propagate it.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import FormatError, ShapeError
from ..semiring import ACCUM_DTYPE

__all__ = ["CSR", "fused_key_fits", "stable_coordinate_order"]

# The canonical numeric contract.  These three constants (with
# ``semiring.ACCUM_DTYPE``) are the only sanctioned dtype sources in the
# tree: kernels, wire decoders and the traffic model all derive from them,
# and the ``numeric-*`` checker family enforces that statically.
#: dtype used for row pointers (``flop`` counts overflow int32 at scale).
INDPTR_DTYPE = np.int64
#: dtype used for column indices.
INDEX_DTYPE = np.int64
#: dtype used for values.
VALUE_DTYPE = np.float64

if np.dtype(VALUE_DTYPE) != np.dtype(ACCUM_DTYPE):  # pragma: no cover
    raise FormatError(
        "VALUE_DTYPE must match semiring.ACCUM_DTYPE: the stored values and "
        "the semiring accumulator share one numeric domain"
    )


def _arrival_bits(n: int) -> int:
    """Low bits that hold an arrival index ``0 .. n - 1`` below a fused key."""
    return max(n - 1, 0).bit_length()


def fused_key_fits(span: int, ncols: int, n: int = 1) -> bool:
    """Whether composite coordinate keys of a ``span``-row block stay
    inside int64 (and ``ncols`` is nonzero).

    With the default ``n = 1`` the key is the plain fused ``(row - r0) *
    ncols + col``; with ``n`` entries it also carries each entry's arrival
    index in its low bits (:func:`stable_coordinate_order`).  The guard
    every fused-key sort shares; when it fails the caller falls back to a
    two-key ``lexsort``.
    """
    return bool(ncols) and span <= ((2**62) >> _arrival_bits(n)) // ncols


def stable_coordinate_order(
    rows: np.ndarray,
    cols: np.ndarray,
    r0: int,
    span: int,
    ncols: int,
    *,
    key: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Stable permutation grouping entries by (row, col), arrival order kept.

    Entry ``p`` of a ``span``-row block starting at row ``r0`` gets the
    key ``((row - r0) * ncols + col) << bits | p`` with ``bits =
    bit_length(n - 1)``, sorted in place.  The keys are unique, so the
    unstable (SIMD) sort returns exactly the stable permutation: its low
    bits are the permutation, its high bits the sorted fused coordinates.
    ``key`` and ``order`` are optional length-``n`` int64 output buffers
    (``key`` may be ``rows`` itself).

    Returns ``(order, keys)``: ``keys`` are the sorted fused
    ``(row - r0) * ncols + col`` keys, or ``None`` when the composite key
    would overflow int64 and a two-key lexsort (the same permutation)
    produced ``order``.
    """
    n = len(rows)
    if not fused_key_fits(span, ncols, n):
        return np.lexsort((cols, rows)), None
    bits = _arrival_bits(n)
    key = np.subtract(rows, r0, out=key, dtype=INDPTR_DTYPE)
    key *= ncols
    key += cols
    key <<= bits
    key |= np.arange(n, dtype=INDPTR_DTYPE)
    key.sort()
    order = np.bitwise_and(key, (1 << bits) - 1, out=order)
    key >>= bits
    return order, key


class CSR:
    """A sparse matrix in Compressed Sparse Row format.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr, indices, data:
        The three CSR arrays.  They are converted to the canonical dtypes
        (int64/int64/float64) but **not** copied when already canonical.
    sorted_rows:
        Whether every row's column indices are in strictly increasing order.
        Pass ``None`` (default) to have the constructor *detect* sortedness;
        pass ``True``/``False`` when the caller already knows (kernels do,
        and detection costs a pass over ``indices``).
    check:
        If True, run full structural validation (monotone indptr, index
        bounds, no duplicate column within a row).  Duplicate detection
        requires a sort for unsorted matrices, so ``check=True`` is intended
        for tests and input boundaries, not inner loops.

    Notes
    -----
    Instances are *logically immutable*: no public method mutates the arrays
    in place (except :meth:`sort_rows` with ``inplace=True``, which is
    documented loudly).  This keeps sharing safe across the simulated-thread
    execution paths.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "sorted_rows")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        sorted_rows: bool | None = None,
        check: bool = False,
    ) -> None:
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"negative dimension in shape {shape!r}")
        self.nrows = nrows
        self.ncols = ncols
        self.indptr = np.ascontiguousarray(indptr, dtype=INDPTR_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        if self.indptr.ndim != 1 or self.indices.ndim != 1 or self.data.ndim != 1:
            raise FormatError("CSR arrays must be one-dimensional")
        if len(self.indptr) != nrows + 1:
            raise FormatError(
                f"indptr has length {len(self.indptr)}, expected nrows+1={nrows + 1}"
            )
        if len(self.indices) != len(self.data):
            raise FormatError(
                f"indices (len {len(self.indices)}) and data (len {len(self.data)})"
                " must have equal length"
            )
        if sorted_rows is None:
            sorted_rows = self._detect_sorted()
        self.sorted_rows = bool(sorted_rows)
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def density(self) -> float:
        """``nnz / (nrows * ncols)``; 0.0 for an empty shape."""
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    def row_nnz(self) -> np.ndarray:
        """Per-row stored-entry counts, shape ``(nrows,)``."""
        return np.diff(self.indptr)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of row *i*'s ``(column indices, values)``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, cols, vals)`` for every row (views, not copies)."""
        indptr, indices, data = self.indptr, self.indices, self.data
        for i in range(self.nrows):
            lo, hi = indptr[i], indptr[i + 1]
            yield i, indices[lo:hi], data[lo:hi]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _detect_sorted(self) -> bool:
        """True iff every row's indices are strictly increasing."""
        if len(self.indices) < 2:
            return True
        # A row boundary legitimately allows a decrease; mask those positions.
        decreasing = self.indices[1:] <= self.indices[:-1]
        if not decreasing.any():
            return True
        row_starts = self.indptr[1:-1]  # positions where a new row begins
        boundary = np.zeros(len(self.indices) - 1, dtype=bool)
        valid = (row_starts > 0) & (row_starts < len(self.indices))
        boundary[row_starts[valid] - 1] = True
        return bool(~(decreasing & ~boundary).any())

    def validate(self) -> None:
        """Raise :class:`FormatError` if any CSR invariant is violated.

        Checks the canonical dtype contract first: the constructor
        canonicalizes, so a non-canonical array here means someone mutated
        a field after construction — exactly the narrowing bug class the
        ``REPRO_DEBUG_VALIDATE=1`` spgemm entry/exit hooks exist to catch.
        """
        for name, arr, want in (
            ("indptr", self.indptr, INDPTR_DTYPE),
            ("indices", self.indices, INDEX_DTYPE),
            ("data", self.data, VALUE_DTYPE),
        ):
            if arr.dtype != np.dtype(want):
                raise FormatError(
                    f"{name} dtype {arr.dtype} violates the canonical "
                    f"contract ({np.dtype(want)}); CSR fields must not be "
                    "re-bound to non-canonical arrays after construction"
                )
        if self.indptr[0] != 0:
            raise FormatError(f"indptr[0] must be 0, got {self.indptr[0]}")
        if (np.diff(self.indptr) < 0).any():
            raise FormatError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise FormatError(
                f"indptr[-1]={self.indptr[-1]} does not match nnz={len(self.indices)}"
            )
        if self.nnz:
            lo, hi = self.indices.min(), self.indices.max()
            if lo < 0 or hi >= self.ncols:
                raise FormatError(
                    f"column index out of range: found [{lo}, {hi}] for ncols={self.ncols}"
                )
        if self.sorted_rows and not self._detect_sorted():
            raise FormatError("sorted_rows=True but a row is not sorted")
        self._check_no_duplicates()

    def _check_no_duplicates(self) -> None:
        if self.nnz < 2:
            return
        if self.sorted_rows:
            same = self.indices[1:] == self.indices[:-1]
            if not same.any():
                return
            # exclude row boundaries
            boundary = np.zeros(len(self.indices) - 1, dtype=bool)
            row_starts = self.indptr[1:-1]
            valid = (row_starts > 0) & (row_starts < len(self.indices))
            boundary[row_starts[valid] - 1] = True
            if (same & ~boundary).any():
                raise FormatError("duplicate column index within a row")
        else:
            rows = np.repeat(np.arange(self.nrows), self.row_nnz())
            order = np.lexsort((self.indices, rows))
            r, c = rows[order], self.indices[order]
            dup = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
            if dup.any():
                raise FormatError("duplicate column index within a row")

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array (small matrices / tests)."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (copies arrays)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, vals)`` coordinate arrays (copies)."""
        rows = np.repeat(np.arange(self.nrows, dtype=INDEX_DTYPE), self.row_nnz())
        return rows, self.indices.copy(), self.data.copy()

    def copy(self) -> "CSR":
        """Deep copy."""
        return CSR(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sorted_rows=self.sorted_rows,
        )

    def row_block(self, row_start: int, row_end: int) -> "CSR":
        """Rows ``[row_start, row_end)`` as a CSR of shape
        ``(row_end - row_start, ncols)``.

        ``indices``/``data`` are *views* into the receiver (zero copy; only
        the rebased ``indptr`` is allocated), which is what lets the fused
        chain executor stream a product block-by-block without duplicating
        the operand.  The usual immutability contract covers the views.  A
        sorted receiver yields sorted blocks for free; a block of an
        unsorted receiver is re-detected, since its own rows may well be
        sorted.
        """
        if not (0 <= row_start <= row_end <= self.nrows):
            raise ShapeError(
                f"row block [{row_start}, {row_end}) out of range for "
                f"{self.nrows} rows"
            )
        lo = int(self.indptr[row_start])
        hi = int(self.indptr[row_end])
        return CSR(
            (row_end - row_start, self.ncols),
            self.indptr[row_start : row_end + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            sorted_rows=True if self.sorted_rows else None,
        )

    # ------------------------------------------------------------------
    # Sortedness management
    # ------------------------------------------------------------------
    def sort_rows(self, *, inplace: bool = False) -> "CSR":
        """Return a matrix whose rows are sorted by column index.

        With ``inplace=True`` the receiver's own arrays are permuted (this is
        the one mutating operation on CSR; callers own the instance).
        """
        if self.sorted_rows:
            return self if inplace else self.copy()
        rows = np.repeat(
            np.arange(self.nrows, dtype=INDPTR_DTYPE), self.row_nnz()
        )
        order, _ = stable_coordinate_order(
            rows, self.indices, 0, self.nrows, self.ncols, key=rows
        )
        indices = self.indices[order]
        data = self.data[order]
        if inplace:
            self.indices = indices
            self.data = data
            self.sorted_rows = True
            return self
        return CSR(self.shape, self.indptr.copy(), indices, data, sorted_rows=True)

    def shuffle_rows(self, seed: int = 0) -> "CSR":
        """Return a copy with entries *within each row* randomly permuted.

        The paper evaluates unsorted kernels by randomly permuting column
        indices of the inputs (§5.1); this helper produces such inputs while
        keeping the matrix mathematically identical.
        """
        rng = np.random.default_rng(seed)
        perm = np.arange(self.nnz)
        indptr = self.indptr
        for i in range(self.nrows):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            if hi - lo > 1:
                rng.shuffle(perm[lo:hi])
        out = CSR(
            self.shape,
            self.indptr.copy(),
            self.indices[perm],
            self.data[perm],
            sorted_rows=False,
        )
        # A shuffled matrix may coincidentally still be sorted (tiny rows);
        # recompute so the flag stays truthful.
        out.sorted_rows = out._detect_sorted()
        return out

    # ------------------------------------------------------------------
    # Comparison helpers (used heavily by tests)
    # ------------------------------------------------------------------
    def same_pattern(self, other: "CSR") -> bool:
        """True iff both matrices store exactly the same coordinates."""
        if self.shape != other.shape:
            return False
        a = self if self.sorted_rows else self.sort_rows()
        b = other if other.sorted_rows else other.sort_rows()
        return bool(
            np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        )

    def allclose(self, other: "CSR", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """True iff both matrices are numerically equal (pattern + values).

        Sortedness is normalized before comparison, so a sorted and an
        unsorted representation of the same matrix compare equal.
        """
        if self.shape != other.shape:
            return False
        a = self if self.sorted_rows else self.sort_rows()
        b = other if other.sorted_rows else other.sort_rows()
        return bool(
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.allclose(a.data, b.data, rtol=rtol, atol=atol, equal_nan=True)
        )

    def __repr__(self) -> str:
        kind = "sorted" if self.sorted_rows else "unsorted"
        return (
            f"CSR(shape={self.shape}, nnz={self.nnz}, {kind}, "
            f"density={self.density:.3g})"
        )
