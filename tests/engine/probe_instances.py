"""Small random nullable instances for the grouped-probe tests, and the
statement runner those tests share.

``random_db`` draws ``r(a, x)``, ``s(c, y, z)`` and optionally
``t(e, f)`` from one ``random.Random(seed)``, in that order, so a seed
gives the same instance to every test that asks for the same shape.
"""

import random

from repro.data import Database, Null, Relation
from repro.engine import Executor
from repro.sql.parser import parse_sql

PARAMS = {"p": 2}


def run(db, sql, marked=False, limits=None):
    """Run *sql* on *db* with :data:`PARAMS`: its result and counters."""
    executor = Executor(db, PARAMS, marked_nulls=marked, limits=limits)
    result = executor.execute(parse_sql(sql))
    return result, executor.ctx


def random_db(seed, repeat_labels, max_outer=14, with_t=True):
    """r(a, x) with 1 to *max_outer* rows, s(c, y, z) and, *with_t*,
    t(e, f) over small domains, a quarter of their cells null; labels
    repeat (equal under marked nulls) or are all distinct."""
    rng = random.Random(seed)
    labels = iter(range(10**6))

    def cell():
        if rng.random() < 0.25:
            return Null(rng.choice("pq")) if repeat_labels else Null(f"u{next(labels)}")
        return rng.randint(1, 4)

    def rows(width, count):
        return [tuple(cell() for _ in range(width)) for _ in range(count)]

    relations = {
        "r": Relation(("a", "x"), rows(2, rng.randint(1, max_outer))),
        "s": Relation(("c", "y", "z"), rows(3, rng.randint(1, 20))),
    }
    if with_t:
        relations["t"] = Relation(("e", "f"), rows(2, rng.randint(1, 8)))
    return Database(relations)
