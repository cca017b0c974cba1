"""Stdlib ``sqlite3`` as the reference engine for standard SQL semantics.

Every null of the :class:`~repro.data.Database` becomes SQL ``NULL``, so
the reference holds for standard three-valued logic, and for marked-null
mode only where no null label repeats.
"""

import sqlite3
from collections import Counter

from repro.data import is_null


def sqlite_rows(db, sql):
    """The bag of rows stdlib sqlite3 returns for ``sql`` on ``db``."""
    con = sqlite3.connect(":memory:")
    try:
        for name, rel in db.relations.items():
            cols = ", ".join(rel.attributes)
            marks = ", ".join("?" * len(rel.attributes))
            con.execute(f"CREATE TABLE {name} ({cols})")
            con.executemany(
                f"INSERT INTO {name} VALUES ({marks})",
                [tuple(None if is_null(v) else v for v in row) for row in rel.rows],
            )
        return Counter(con.execute(sql).fetchall())
    finally:
        con.close()


def engine_bag(rows):
    """Engine result rows as the bag sqlite3 would return: nulls as ``None``."""
    return Counter(tuple(None if is_null(v) else v for v in row) for row in rows)
