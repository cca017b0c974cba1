"""Small random instances of ``R(A, B)`` and ``S(C, D)`` for the
translation tests, which check them against brute-force certain answers.
"""

from repro.algebra import RelationRef, Rename
from repro.data import Database, Null, Relation

R, S = RelationRef("R"), RelationRef("S")
S_AS_R = Rename(S, {"C": "A", "D": "B"})


def random_db(rng, *, domain, max_rows, null_rate):
    """``R`` and ``S`` with 1 to ``max_rows`` rows each, over ``domain``.

    Each cell is a fresh null with probability ``null_rate``, at most 3
    nulls per instance: brute-force ground truth enumerates
    ``|domain|^nulls`` valuations.
    """
    null_budget = 3

    def cell():
        nonlocal null_budget
        if null_budget and rng.random() < null_rate:
            null_budget -= 1
            return Null()
        return rng.choice(domain)

    def rows(n):
        return [(cell(), cell()) for _ in range(n)]

    return Database(
        {
            "R": Relation(("A", "B"), rows(rng.randint(1, max_rows))),
            "S": Relation(("C", "D"), rows(rng.randint(1, max_rows))),
        }
    )
