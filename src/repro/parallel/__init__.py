"""Real (wall-clock) parallel execution of SpGEMM row blocks in processes.

The simulated-thread path in :mod:`repro.perfmodel` reproduces the paper's
figures, and the batched kernels run on real threads
(:mod:`repro.core.threads`).  This package gives the kernels that do not
thread — the faithful engine and ESC — wall-clock parallelism: the output
row space is partitioned with the paper's flop-balanced scheduler and each
block is computed in a worker process of a per-call pool.
"""

from .pool import parallel_spgemm

__all__ = ["parallel_spgemm"]
