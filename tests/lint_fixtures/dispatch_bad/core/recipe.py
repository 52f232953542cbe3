"""Fixture: Table-4 rules that disagree with the algorithm table (2 findings).

* ``'phantom'`` is named by a rule but is not in the table;
* ``'heap'`` is named by a rule but its row is marked ``"calibrated"``.
"""


def decision(algorithm, why):
    return algorithm, why


def recommend(a, b, sort_output):
    if a is None:
        return decision("phantom", "unregistered algorithm")
    if sort_output:
        return decision("heap", "row not marked table4")
    return decision("hash", "compression ratio below threshold")
