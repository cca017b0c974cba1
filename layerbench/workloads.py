"""The four workloads of the layered benchmark.

Each workload builds its inputs from the seed (:meth:`setup`), runs one op
through the program's layers (:meth:`run`, every layer call going through
the tracer), and checks an op's output (:meth:`check`) against reference
results that :meth:`reference` computes from the same inputs in a separate
process.  Op costs are shaped so that each workload is dominated by a
different layer:

* ``tpch-sf1`` -- Figure 4's price of correctness: one op runs Q1..Q4
  and Q1+..Q4+ cold for one parameter draw on a DBGen scale-1 instance
  with 3% nulls.  Engine execution is the whole op.
* ``sql-frontend`` -- the same engine used the other way round: SQL text
  goes through parse, analysis, rewrite, prepare and run on a tiny
  DataFiller instance, so compile-side layers dominate.
* ``oracle-worlds`` -- Theorem 1 on miniature Q2/Q3-shaped instances; the
  brute-force oracle's world phase (1000 or 1296 valuations per op)
  dominates.
* ``oracle-search`` -- deep-junk diagonal instances where the oracle's
  candidate search (8k-18k candidates per op) dominates.

A workload's ``ops`` are one pass; timed runs repeat whole passes, so
every run sees the same mix of ops whatever its length.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import random
import re
import sqlite3
from typing import Dict, List, Sequence, Tuple

from repro.analysis import analyze_query
from repro.certain import bruteforce, certain_answers_with_nulls
from repro.data import Database, Null, Relation
from repro.data.nulls import is_null
from repro.data.schema import DatabaseSchema, make_schema
from repro.engine import Executor
from repro.fp.detectors import count_false_positives
from repro.sql.parser import parse_sql
from repro.sql.printer import to_sql
from repro.sql.rewrite import rewrite_certain
from repro.sql.to_algebra import sql_to_algebra
from repro.tpch import (
    QUERIES,
    generate_instance,
    generate_small_instance,
    inject_nulls,
    sample_parameters,
    tpch_schema,
)

from spans import engine_counters, search_counters
from speed import clock_ns

Row = Tuple[object, ...]


# ---------------------------------------------------------------------------
# Shared helpers: bag digests, parameter inlining, sqlite loading
# ---------------------------------------------------------------------------


def _plain(value: object) -> object:
    """A value as sqlite stores it: NULL for nulls, ISO text for dates."""
    if is_null(value):
        return None
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def bag_digest(rows: Sequence[Sequence[object]]) -> List[object]:
    """``[row count, hash]`` of a bag of rows, independent of row order."""
    plain = [tuple(_plain(v) for v in row) for row in rows]
    try:
        plain.sort()
    except TypeError:  # NULLs or mixed types: any total order will do
        plain.sort(key=repr)
    return [len(plain), hashlib.sha256(repr(plain).encode()).hexdigest()[:16]]


def _literal(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_literal(v) for v in value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def inline_params(sql: str, params: Dict[str, object]) -> str:
    """Replace every ``$name`` in *sql* by its value as a SQL literal."""
    return re.sub(r"\$(\w+)", lambda m: _literal(params[m.group(1)]), sql)


def sqlite_load(db: Database, indexes: Sequence[str] = ()) -> sqlite3.Connection:
    """An in-memory sqlite copy of *db* (NULL for nulls, ISO text for dates)."""
    con = sqlite3.connect(":memory:")
    # The engine's LIKE is case-sensitive; sqlite's is not by default.
    con.execute("PRAGMA case_sensitive_like = ON")
    for name, rel in db.relations.items():
        con.execute(f"CREATE TABLE {name} ({', '.join(rel.attributes)})")
        marks = ", ".join("?" * rel.arity)
        con.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(_plain(v) for v in row) for row in rel.rows],
        )
    for number, index in enumerate(indexes):
        con.execute(f"CREATE INDEX ix{number} ON {index}")
    return con


class Workload:
    """Inputs, op, check and reference of one workload."""

    name = ""
    #: ops in one pass; a timed run repeats whole passes
    pool = 0
    #: ops run and checked before timing starts, not counted in metrics
    warmup = 0
    #: whether :meth:`check` needs :meth:`reference` results
    needs_reference = True

    def __init__(self) -> None:
        #: instance-generation figures for the ``tpch.*`` layer metrics
        self.info: Dict[str, float] = {}
        self.ops: List[tuple] = []

    def setup(self, seed: int, pool: int) -> None:
        raise NotImplementedError

    def run(self, op: tuple, tr):
        raise NotImplementedError

    def check(self, op: tuple, out, ref) -> bool:
        raise NotImplementedError

    def reference(self) -> list:
        raise NotImplementedError

    def _execute(self, tr, db, query, params=None, tags=None):
        prepared = tr.call("engine.prepare", _prepare, db, params, query)
        return tr.call(
            "engine.run",
            prepared.run,
            tags=tags,
            counters=lambda rel: engine_counters(prepared.ctx, rel),
        )

    def _tpch_instance(self, generate, scale, null_rate, rng) -> Database:
        start = clock_ns()
        base = generate(scale=scale, seed=rng.randrange(2**31))
        generated = clock_ns()
        db = inject_nulls(base, null_rate, seed=rng.randrange(2**31))
        self.info = {
            "generate_s": (generated - start) / 1e9,
            "nullify_s": (clock_ns() - generated) / 1e9,
            "rows": db.total_rows(),
            "nulls": len(db.nulls()),
        }
        return db


def _prepare(db, params, query):
    return Executor(db, params).prepare(query)


# ---------------------------------------------------------------------------
# tpch-sf1
# ---------------------------------------------------------------------------

#: sqlite indexes standing in for the engine's hash probes (reference only).
_TPCH_INDEXES = (
    "lineitem(l_orderkey)",
    "orders(o_orderkey)",
    "orders(o_custkey)",
    "supplier(s_suppkey)",
    "part(p_partkey)",
    "nation(n_nationkey)",
)


class Tpch(Workload):
    """One op is one parameter draw of Figure 4: all eight statements.

    Single statements would make a mixture whose run times differ by
    two orders of magnitude (Q2+ is decided in about 0.3 ms, Q1+ takes
    about 35 ms), so its median sits in a gap between clusters and jumps
    from seed to seed.  For the same reason ``$nation`` (Q1, Q4) is drawn
    among the nations that have a supplier: at scale 1, with 10 suppliers,
    most nations have none, and for those Q1 and Q4 finish at once, so
    draws would fall into clusters too.  Per-statement times are the
    ``engine.run.p50_ms.<stmt>`` layer metrics.
    """

    name = "tpch-sf1"
    pool = 12
    warmup = 2

    def setup(self, seed: int, pool: int) -> None:
        rng = random.Random(seed)
        self.db = self._tpch_instance(generate_instance, 1.0, 0.03, rng)
        schema = tpch_schema()
        self.statements = {}
        for qid, (sql, _appendix, _names) in QUERIES.items():
            query = parse_sql(sql)
            self.statements[qid] = query
            self.statements[qid + "plus"] = rewrite_certain(query, schema)
        supplier, nation = self.db["supplier"], self.db["nation"]
        supplied = {row[supplier.index_of("s_nationkey")] for row in supplier.rows}
        nations = sorted(
            row[nation.index_of("n_name")]
            for row in nation.rows
            if row[nation.index_of("n_nationkey")] in supplied
        )
        self.ops = []
        for i in range(pool):
            params = {qid: sample_parameters(qid, self.db, rng=rng) for qid in QUERIES}
            params["Q1"]["nation"] = rng.choice(nations)
            params["Q4"]["nation"] = rng.choice(nations)
            self.ops.append((i, params))

    def run(self, op, tr):
        _i, params = op
        return [
            self._execute(
                tr, self.db, query, params[stmt[:2]], tags={"stmt": stmt}
            ).rows
            for stmt, query in self.statements.items()
        ]

    def check(self, op, results, ref) -> bool:
        return [bag_digest(rows) for rows in results] == ref[op[0]]

    def reference(self) -> list:
        con = sqlite_load(self.db, _TPCH_INDEXES)
        texts = {stmt: to_sql(query) for stmt, query in self.statements.items()}
        out = []
        for _i, params in self.ops:
            sqls = [inline_params(text, params[s[:2]]) for s, text in texts.items()]
            out.append([bag_digest(con.execute(sql).fetchall()) for sql in sqls])
        con.close()
        return out


# ---------------------------------------------------------------------------
# sql-frontend
# ---------------------------------------------------------------------------


class SqlFrontend(Workload):
    """One op takes each of the four paper queries, for one parameter draw,
    from SQL text to checked rows.  As with ``tpch-sf1``, single queries
    would put the median between the clusters of two query kinds."""

    name = "sql-frontend"
    pool = 100
    warmup = 10

    def setup(self, seed: int, pool: int) -> None:
        rng = random.Random(seed)
        self.db = self._tpch_instance(generate_small_instance, 0.05, 0.05, rng)
        self.schema = tpch_schema()
        self.ops = []
        for i in range(pool):
            draw = []
            for qid, (sql, _appendix, _names) in QUERIES.items():
                params = sample_parameters(qid, self.db, rng=rng)
                draw.append((qid, params, inline_params(sql, params)))
            self.ops.append((i, draw))

    def run(self, op, tr):
        return [self._query(qid, params, text, tr) for qid, params, text in op[1]]

    def _query(self, qid, params, text, tr):
        query = tr.call("sql.parser", parse_sql, text)
        tr.call(
            "analysis",
            analyze_query,
            query,
            self.schema,
            counters=lambda report: {report.verdict: 1},
        )
        plus = tr.call("sql.rewrite", rewrite_certain, query, self.schema)
        rows = self._execute(tr, self.db, query, tags={"stmt": qid}).rows
        plus_rows = self._execute(tr, self.db, plus, tags={"stmt": qid + "plus"}).rows
        tr.call(
            "fp.detectors",
            count_false_positives,
            qid,
            params,
            self.db,
            rows,
            counters=lambda flagged: {"flagged_rows": flagged},
        )
        return rows, plus_rows

    def check(self, op, out, ref) -> bool:
        i, draw = op
        return [
            [bag_digest(rows), bag_digest(plus_rows)] for rows, plus_rows in out
        ] == ref[i] and all(
            # Q+ returns certain answers only, so no detector may flag one.
            count_false_positives(qid, params, self.db, plus_rows) == 0
            for (qid, params, _text), (_rows, plus_rows) in zip(draw, out)
        )

    def reference(self) -> list:
        con = sqlite_load(self.db, _TPCH_INDEXES)
        digests: Dict[str, list] = {}
        for _i, draw in self.ops:
            for _qid, _params, text in draw:
                if text not in digests:
                    plus = to_sql(rewrite_certain(parse_sql(text), self.schema))
                    digests[text] = [
                        bag_digest(con.execute(sql).fetchall()) for sql in (text, plus)
                    ]
        con.close()
        return [[digests[text] for _q, _p, text in draw] for _i, draw in self.ops]


# ---------------------------------------------------------------------------
# oracle-worlds
# ---------------------------------------------------------------------------

#: Q3 and Q2 cut down to their NOT EXISTS over a nullable foreign key, as
#: in ``tests/integration/test_theorem1_tpch.py``.
MINI_SQL = {
    "q3": """
SELECT o_orderkey FROM orders
WHERE NOT EXISTS (
  SELECT * FROM lineitem
  WHERE l_orderkey = o_orderkey AND l_suppkey <> $supp_key )
""",
    "q2": """
SELECT c_custkey FROM customer
WHERE NOT EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey)
""",
}

#: (query, keys, suppliers, nulls).  Each shape has 1000 or 1296
#: valuations ((constants + one fresh value per null) ** nulls), so every
#: op costs about the same and the latency distribution does not depend
#: on the seed.
_WORLD_SHAPES = (
    ("q3", 4, 3, 3),
    ("q2", 2, 0, 4),
    ("q3", 1, 1, 4),
    ("q2", 7, 0, 3),
)

#: Values the sampled sqlite worlds may give a null besides the
#: instance's constants.
_FRESH = (9001, 9002, 9003, 9004)
_SAMPLED_WORLDS = 3


def _q3_schema() -> DatabaseSchema:
    schema = DatabaseSchema()
    schema.add(make_schema("orders", [("o_orderkey", "int")], key=["o_orderkey"]))
    schema.add(
        make_schema(
            "lineitem",
            [("l_orderkey", "int"), ("l_suppkey", "int")],
            not_null=["l_orderkey"],
        )
    )
    return schema


def _q2_schema() -> DatabaseSchema:
    schema = DatabaseSchema()
    schema.add(make_schema("customer", [("c_custkey", "int")], key=["c_custkey"]))
    schema.add(make_schema("orders", [("o_custkey", "int")]))
    return schema


def _world_instance(shape, rng: random.Random) -> Tuple[Database, dict]:
    """A miniature instance whose constants are exactly the shape's keys
    and suppliers, so its valuation count is fixed by the shape."""
    kind, keys, supps, nulls = shape
    labels = [Null(f"n{j}") for j in range(nulls)]
    if kind == "q3":
        orders = list(range(100, 100 + keys))
        suppliers = list(range(1, 1 + supps))
        # Every supplier and every order key occurs as a constant.
        rows = [(rng.choice(orders), s) for s in suppliers]
        rows += [(rng.choice(orders), null) for null in labels]
        rng.shuffle(rows)
        db = Database(
            {
                "orders": Relation(("o_orderkey",), [(k,) for k in orders]),
                "lineitem": Relation(("l_orderkey", "l_suppkey"), rows),
            }
        )
        return db, {"supp_key": rng.choice(suppliers)}
    customers = list(range(1, 1 + keys))
    rows = [(rng.choice(customers),) for _ in range(rng.randint(1, 3))]
    rows += [(null,) for null in labels]
    rng.shuffle(rows)
    db = Database(
        {
            "customer": Relation(("c_custkey",), [(k,) for k in customers]),
            "orders": Relation(("o_custkey",), rows),
        }
    )
    return db, {}


def _apply(mapping: Dict[str, object], row: Sequence[object]) -> Row:
    return tuple(mapping[str(v.label)] if is_null(v) else v for v in row)


class OracleWorlds(Workload):
    name = "oracle-worlds"
    pool = 5 * len(_WORLD_SHAPES)
    warmup = len(_WORLD_SHAPES)

    def setup(self, seed: int, pool: int) -> None:
        rng = random.Random(seed)
        schemas = {"q3": _q3_schema(), "q2": _q2_schema()}
        self.queries = {kind: parse_sql(sql) for kind, sql in MINI_SQL.items()}
        self.plus = {
            kind: rewrite_certain(query, schemas[kind])
            for kind, query in self.queries.items()
        }
        self.ops = []
        for i in range(pool):
            shape = _WORLD_SHAPES[i % len(_WORLD_SHAPES)]
            db, params = _world_instance(shape, rng)
            self.ops.append((i, shape[0], db, params))

    def run(self, op, tr):
        _i, kind, db, params = op
        algebra = tr.call("sql.to_algebra", sql_to_algebra, self.queries[kind], db, params)
        cert = tr.call(
            "certain",
            certain_answers_with_nulls,
            algebra,
            db,
            counters=lambda _r: search_counters(bruteforce.LAST_SEARCH),
        )
        plus_rows = self._execute(tr, db, self.plus[kind], params).rows
        return cert.rows, plus_rows

    def check(self, op, out, ref) -> bool:
        cert_rows, plus_rows = out
        expected = ref[op[0]]
        cert = set(cert_rows)
        # Theorem 1 sandwich: Q+(D) ⊆ cert(Q, D) ⊆ Q(v(D)) for every v.
        return (
            bag_digest(plus_rows) == expected["plus"]
            and set(plus_rows) <= cert
            and all(
                {_apply(world["valuation"], row) for row in cert}
                <= {tuple(r) for r in world["rows"]}
                for world in expected["worlds"]
            )
        )

    def reference(self) -> list:
        out = []
        for i, kind, db, params in self.ops:
            rng = random.Random(i)
            nulls = sorted(db.nulls(), key=lambda n: str(n.label))
            domain = sorted(db.constants()) + list(_FRESH)
            q_sql = inline_params(MINI_SQL[kind], params)
            with_nulls = sqlite_load(db)
            plus_sql = inline_params(to_sql(self.plus[kind]), params)
            entry = {
                "plus": bag_digest(with_nulls.execute(plus_sql).fetchall()),
                "worlds": [],
            }
            with_nulls.close()
            for _ in range(_SAMPLED_WORLDS):
                mapping = {str(n.label): rng.choice(domain) for n in nulls}
                world = Database(
                    {
                        name: Relation(
                            rel.attributes, [_apply(mapping, row) for row in rel.rows]
                        )
                        for name, rel in db.relations.items()
                    }
                )
                con = sqlite_load(world)
                entry["worlds"].append(
                    {"valuation": mapping, "rows": con.execute(q_sql).fetchall()}
                )
                con.close()
            out.append(entry)
        return out


# ---------------------------------------------------------------------------
# oracle-search
# ---------------------------------------------------------------------------

_SEARCH_SQL = "SELECT * FROM r WHERE a0 = a1"
_SELECTION_COLUMNS = 5
_TAIL_WIDTH = 6
_EXTRA_CONSTANTS = 3


#: (certain, junk) family counts; one pass holds each pair once, in a
#: seeded order, so op costs have the same spread for every seed.
_FAMILY_COUNTS = tuple(itertools.product(range(6, 13, 2), (2, 4, 6)))


def _search_instance(
    rng: random.Random, cert_families: int, junk_families: int
) -> Tuple[Database, set]:
    """A deep-junk diagonal instance and its certain answers.

    Each family is one row of ``r`` told apart by a constant tail.  A
    certain family repeats one null across the selection columns, so its
    row survives every world; a junk family alternates two nulls, so it is
    never certain, but the world that refutes it comes late in
    enumeration order.  ``z`` pins one more null and the constant 1,
    which widens every candidate pool to four values without touching
    ``r``.  Each row has 4**5 candidates, so 8 to 18 families give about
    8k-18k candidates over 216 valuations, and the search outweighs the
    worlds.
    """
    n1, n2 = Null("a"), Null("b")
    tails = list(itertools.product((5, 6), repeat=_TAIL_WIDTH - 1))
    cert_tails = rng.sample(tails, cert_families)
    junk_tails = rng.sample(tails, junk_families)
    attrs = tuple(f"a{i}" for i in range(_SELECTION_COLUMNS)) + tuple(
        f"b{i}" for i in range(_TAIL_WIDTH)
    )
    junk = [
        tuple((n1, n2)[i % 2] for i in range(_SELECTION_COLUMNS)) + (5,) + tail
        for tail in junk_tails
    ]
    cert = [(n1,) * _SELECTION_COLUMNS + (6,) + tail for tail in cert_tails]
    db = Database(
        {
            "r": Relation(attrs, junk + cert),
            "z": Relation(("z1",), [(Null("c"),), (1,)]),
        }
    )
    return db, set(cert)


class OracleSearch(Workload):
    name = "oracle-search"
    pool = len(_FAMILY_COUNTS)
    warmup = 3
    needs_reference = False

    def setup(self, seed: int, pool: int) -> None:
        rng = random.Random(seed)
        self.query = parse_sql(_SEARCH_SQL)
        counts = rng.sample(_FAMILY_COUNTS, len(_FAMILY_COUNTS))
        self.ops = []
        for i in range(pool):
            db, cert = _search_instance(rng, *counts[i % len(counts)])
            self.ops.append((i, db, cert))

    def run(self, op, tr):
        _i, db, _cert = op
        algebra = tr.call("sql.to_algebra", sql_to_algebra, self.query, db)
        return tr.call(
            "certain",
            certain_answers_with_nulls,
            algebra,
            db,
            extra_constants=_EXTRA_CONSTANTS,
            counters=lambda _r: search_counters(bruteforce.LAST_SEARCH),
        ).rows

    def check(self, op, rows, ref) -> bool:
        # The generator built the certain answers; the search must find
        # exactly those.
        return len(rows) == len(op[2]) and set(rows) == op[2]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Tpch, SqlFrontend, OracleWorlds, OracleSearch)
}


def smoke_pool(cls: type) -> int:
    """About 5% of a workload's ops (at least its warm-up)."""
    return max(cls.warmup, -(-cls.pool // 20))
