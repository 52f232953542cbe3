"""ESC SpGEMM — expand / sort / compress, fully numpy-vectorized.

ESC is the row-by-row *expansion* family from the GPU literature the paper
cites (Dalton/Olson/Bell's cusp, and the binning codes of [21][25] descend
from it): materialize every intermediate product, sort by output coordinate,
and reduce equal coordinates.  We include it for three reasons:

1. it is the only SpGEMM formulation that vectorizes cleanly in numpy, so it
   serves as the **fast oracle** against which the scalar Hash/Heap/SPA
   kernels are validated at non-toy scales;
2. its symbolic half powers :func:`repro.core.symbolic.symbolic_row_nnz`,
   which the performance model needs for exact ``nnz(C)``;
3. it rounds out the algorithm-family comparison in the extended benches.

ESC is the ``"esc"`` order of the batched block loop
(:func:`repro.core.hash_batch._batch_blocks`): the same expansion and
stable coordinate sort as the batched kernels' sorted output, folded
pairwise with :meth:`~repro.semiring.Semiring.reduce_segments` instead of
in arrival order, on the same flop-balanced thread parts.

Memory is ``O(flop)`` per block; row blocks are capped at
``max_block_flop`` intermediate products (default ~8M).
"""

from __future__ import annotations

from ..matrix.csr import CSR
from ..semiring import PLUS_TIMES, Semiring
from .hash_batch import batch_hash_spgemm
from .instrument import KernelStats
from .symbolic import DEFAULT_MAX_BLOCK_FLOP

__all__ = ["esc_spgemm"]


def esc_spgemm(
    a: CSR,
    b: CSR,
    *,
    semiring: "str | Semiring" = PLUS_TIMES,
    sort_output: bool = True,
    stats: KernelStats | None = None,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
    tracer=None,
) -> CSR:
    """Multiply two CSR matrices by expand-sort-compress.

    The compress step inherently sorts every row, so ``sort_output=False``
    costs nothing extra and is ignored (the result's ``sorted_rows`` flag
    stays True because the rows really are sorted).

    Accepts sorted or unsorted inputs and any semiring.  ``stats`` gets
    the flop, the sort volume (every product), the output nnz and the
    rows; a ``tracer`` gets the batched kernels' phase spans.
    """
    return batch_hash_spgemm(
        a, b, algorithm="esc", semiring=semiring, stats=stats,
        max_block_flop=max_block_flop, tracer=tracer,
    )
