"""Fixture: a malformed algorithm table for the kernel-dispatch rule.

Expected finding in this file (1): ``'ghost'`` is marked Table-4
selectable, but no Table-4 rule names it (see ``recipe.py`` for the
rules that name rows they should not).
"""


class AlgorithmInfo:
    def __init__(self, name, *, kernel, selected_by):
        self.name = name
        self.kernel = kernel
        self.selected_by = selected_by


def hash_spgemm(a, b):
    return a


def heap_spgemm(a, b):
    return b


ALGORITHMS = {
    "hash": AlgorithmInfo("hash", kernel=hash_spgemm, selected_by="table4"),
    "heap": AlgorithmInfo("heap", kernel=heap_spgemm, selected_by="calibrated"),
    "ghost": AlgorithmInfo("ghost", kernel=hash_spgemm, selected_by="table4"),
}
