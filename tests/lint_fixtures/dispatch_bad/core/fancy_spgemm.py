"""Fixture: a public kernel entry point that is no row's kernel.

Expected findings in this file (1): ``fancy_spgemm`` matches the
``*_spgemm(a, b, ...)`` entry-point shape but no row of the
``core/spgemm.py`` table names it.
"""


def fancy_spgemm(a, b, nthreads=1):
    return a


def _private_spgemm(a, b):
    # Private helpers are exempt.
    return b


def not_a_kernel(a, b):
    # Wrong name shape: exempt.
    return a
