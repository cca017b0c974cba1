"""Compiled SELECT blocks: classification, join ordering, evaluation.

A :class:`CompiledBlock` is the engine's unit of execution.  Compiling a
``SELECT`` block:

1. resolves every column reference (recording which outer blocks must
   supply values for correlated references);
2. classifies WHERE conjuncts into *pushed filters* (single table),
   *equi-joins* (plain ``a = b`` across two local tables), *probes*
   (``local = <outer expression>``) and *residuals* (everything else —
   ``OR`` conditions, subquery predicates, …);
3. builds scalar expressions and conditions as an IR that
   :mod:`repro.engine.compile` lowers to closures with SQL's
   three-valued semantics.

At run time the block lazily picks a greedy left-deep join order (hash
joins on available equality keys, Cartesian products otherwise — which
is how an ``OR … IS NULL`` join condition degrades to nested loops, the
Section 7 Q4 effect) and builds hash indexes once.

Every source is read one way: its pushed filters run as passes over the
whole table's rows, one ``row → keep?`` test per conjunct, once per
statement.  What depends only on a relation's rows is built once per
relation and kept in ``Relation.indexes`` for later statements: a
source's rows under *constant-free* pushed filters (no constant,
parameter, subquery or outer column; :func:`_source_key`), their
statistics, and the equi-join and probe indexes over them, all keyed by
the source key (``frozenset()`` for a whole table).

Every block runs step by step (:meth:`CompiledBlock.run`): step 0 lists
its filtered rows (or an index bucket), each later step is one loop
over the previous step's list into its index, and the residuals
attached to a step run as passes over its list, in conjunct order, as
the filter passes do: a ``[NOT] EXISTS``/``[NOT] IN`` as one loop over
the rows into its kept index or probe table
(:meth:`_CorrelatedSubquery.keep_rows`), any other residual as its
closure per row.  The block hands its caller the last list.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.conditions import like_match
from repro.algebra.threevl import FALSE, TRUE, UNKNOWN, ThreeValued, from_bool
from repro.data.nulls import Null, is_null
from repro.engine.limits import EngineError, LimitGovernor, ResourceLimits
from repro.engine.stats import SourceStats, TableBytesMeter, choose_join_order
from repro.sql import ast
from repro.sql.scope import BlockScope, Resolution

__all__ = ["CompiledBlock", "ExecContext"]

Row = Tuple[object, ...]
Key = Tuple[str, str]  # (binding, column)

#: Cursor for conditions with no local columns (pre-join conditions).
_EMPTY_CURSOR: Tuple[Dict[Key, int], Row] = ({}, ())

#: What a block whose pre-join conditions fail returns: no row, so no
#: caller reads its slot map.
_NO_ROWS: Tuple[Dict[Key, int], Sequence[Row]] = ({}, ())

#: Test-only scan instrumentation installed by :mod:`repro.testing.faults`
#: (``(table name, relation) -> relation`` wrapper); ``None`` in production,
#: so the hot path pays one global load.
SCAN_FAULT_HOOK = None


class ExecContext:
    """Shared execution state: database, parameters, materialised CTEs.
    Its limits are fixed for its whole life: lazily-built runtime state
    (probe tables, degradation decisions, hash indexes) bakes them in."""

    def __init__(
        self,
        db,
        params: Optional[Dict[str, object]] = None,
        marked_nulls: bool = False,
        limits: Optional[ResourceLimits] = None,
    ):
        self.db = db
        self.params = dict(params or {})
        self.ctes: Dict[str, "object"] = {}
        #: Section 8's "proper implementation of marked nulls": equality
        #: between two occurrences of the *same* null is TRUE instead of
        #: unknown (and disequality FALSE).  Everything else keeps 3VL.
        self.marked_nulls = marked_nulls
        #: resource governance (deadline / row budgets); ``None`` caps nothing
        self.limits = limits
        self.governor = (
            None if limits is None or limits.unlimited else LimitGovernor(limits)
        )
        #: instrumentation: rows produced by join steps (see explain/tests)
        self.rows_examined = 0
        #: probe-memo cache instrumentation (correlated subqueries)
        self.probe_cache_hits = 0
        self.probe_cache_misses = 0
        #: hash semi-/anti-join decorrelation instrumentation
        self.decorrelated_probes = 0
        self.probe_tables_built = 0
        #: rows consumed building decorrelated probe tables; kept out of
        #: ``rows_examined`` the same way hash-index builds are
        self.probe_build_rows = 0
        #: decorrelations abandoned because a probe-table build exceeded
        #: ``max_probe_build_rows`` — graceful degradation, not an error
        self.degradations = 0
        #: approximate bytes of the probe/equi hash tables this context
        #: built or reused (:class:`~repro.engine.stats.TableBytesMeter`
        #: estimates), used to enforce ``ResourceLimits.max_probe_table_bytes``
        self.table_bytes = 0

    def arm(self) -> None:
        """Restart the wall-clock deadline (top of each prepared run)."""
        if self.governor is not None:
            self.governor.arm()

    def check(self) -> None:
        """Enforce resource limits; called once per row a join step
        lists (under a governor), a hash build reads or a bucket scan
        examines, and once before each filter or residual pass.

        Amortised: with no limits this is a single attribute test, and
        the governor only reads the clock every
        :data:`~repro.engine.limits.CHECK_INTERVAL` calls.
        """
        governor = self.governor
        if governor is not None:
            governor.check(self.rows_examined + self.probe_build_rows)

    def columns_of(self, name: str) -> Optional[Tuple[str, ...]]:
        """The columns of view or table *name*, or ``None`` if there is none."""
        relation = self.ctes.get(name)
        if relation is None:
            if name not in self.db:
                return None
            relation = self.db[name]
        return relation.attributes

    def relation(self, name: str):
        if name in self.ctes:
            relation = self.ctes[name]
        else:
            try:
                relation = self.db[name]
            except KeyError:
                raise EngineError(f"unknown table {name!r}") from None
        if SCAN_FAULT_HOOK is not None:
            relation = SCAN_FAULT_HOOK(name, relation)
        return relation


def _engine_error(message: str, node: object) -> EngineError:
    return EngineError(message)


# ---------------------------------------------------------------------------
# Scalar expressions (IR lowered by repro.engine.compile.compile_expr)
# ---------------------------------------------------------------------------


class _Expr:
    """Scalar expression node."""

    __slots__ = ()
    local_keys: frozenset = frozenset()
    has_outer: bool = False


class _Const(_Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Col(_Expr):
    __slots__ = ("depth", "key", "local_keys", "has_outer")

    def __init__(self, resolution: Resolution):
        self.depth = resolution.depth
        self.key = resolution.key
        self.local_keys = frozenset([self.key]) if resolution.depth == 0 else frozenset()
        self.has_outer = resolution.depth > 0


class _Concat(_Expr):
    __slots__ = ("parts", "local_keys", "has_outer")

    def __init__(self, parts: Sequence[_Expr]):
        self.parts = tuple(parts)
        keys = frozenset()
        for part in parts:
            keys |= part.local_keys
        self.local_keys = keys
        self.has_outer = any(part.has_outer for part in parts)


class _ScalarSubquery(_Expr):
    """Uncorrelated scalar aggregate subquery — evaluated once per
    statement; the compiled closure caches the value in ``value``."""

    __slots__ = ("block", "func", "arg", "value", "computed")

    def __init__(self, block: "CompiledBlock", func: str, arg: Optional[_Expr]):
        if block.external:
            raise EngineError("correlated scalar subqueries are not supported")
        self.block = block
        self.func = func
        self.arg = arg
        self.value: object = None
        self.computed = False


# ---------------------------------------------------------------------------
# Conditions (three-valued IR lowered by repro.engine.compile.compile_cond)
# ---------------------------------------------------------------------------


class _Cond:
    __slots__ = ()
    local_keys: frozenset = frozenset()
    has_outer: bool = False


def _compare(op: str, a, b, marked: bool = False) -> ThreeValued:
    if is_null(a) or is_null(b):
        if marked and is_null(a) and is_null(b) and a == b:
            # The same marked null certainly equals itself.
            if op == "=":
                return TRUE
            if op == "<>":
                return FALSE
        return UNKNOWN
    if op == "=":
        return from_bool(a == b)
    if op == "<>":
        return from_bool(a != b)
    if op == "like":
        return from_bool(like_match(a, b))
    if op == "not like":
        return from_bool(not like_match(a, b))
    if op == "<":
        return from_bool(a < b)
    if op == "<=":
        return from_bool(a <= b)
    if op == ">":
        return from_bool(a > b)
    if op == ">=":
        return from_bool(a >= b)
    raise EngineError(f"unknown comparison operator {op!r}")  # pragma: no cover


class _Cmp(_Cond):
    __slots__ = ("op", "left", "right", "local_keys", "has_outer", "marked")

    def __init__(self, op: str, left: _Expr, right: _Expr, marked: bool = False):
        self.op = op
        self.left = left
        self.right = right
        self.local_keys = left.local_keys | right.local_keys
        self.has_outer = left.has_outer or right.has_outer
        self.marked = marked


class _IsNull(_Cond):
    __slots__ = ("expr", "negated", "local_keys", "has_outer")

    def __init__(self, expr: _Expr, negated: bool):
        self.expr = expr
        self.negated = negated
        self.local_keys = expr.local_keys
        self.has_outer = expr.has_outer


class _Bool(_Cond):
    __slots__ = ("op", "items", "local_keys", "has_outer")

    def __init__(self, op: str, items: Sequence[_Cond]):
        self.op = op
        self.items = tuple(items)
        keys = frozenset()
        for item in items:
            keys |= item.local_keys
        self.local_keys = keys
        self.has_outer = any(item.has_outer for item in items)


class _Not(_Cond):
    __slots__ = ("item", "local_keys", "has_outer")

    def __init__(self, item: _Cond):
        self.item = item
        self.local_keys = item.local_keys
        self.has_outer = item.has_outer


class _BoolConst(_Cond):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = TRUE if value else FALSE


_MISSING = object()

#: ``isinstance``'s second argument for every column of a key.
_NULL_TYPES = repeat(Null)


def _key_stream(rows, positions: Sequence[int]) -> Iterator[Tuple]:
    """Stream the keys of *rows* at *positions*; one column gives 1-tuples."""
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions), rows)


def _keyed(rows, source: "_Source", columns: Sequence[str]) -> Iterator[Tuple]:
    """``(key at columns, row)`` for *source*'s *rows*."""
    return zip(_key_stream(rows, [source.columns.index(c) for c in columns]), rows)


def _hash_group(ctx, meter, pairs, nulls, check=None):
    """Every engine hash table's build: the ``(key, item)`` *pairs*
    grouped by key, streamed.  A bucket holds the items; a ``None`` item
    only creates its bucket.  Keys with a null at a position in *nulls*
    never compare TRUE and are skipped.  *check* (the governor's) runs
    per item.  Returns ``None`` (abandoned) when the byte *meter* (first
    new key, then every 256th) finds the table over
    ``max_probe_table_bytes``; the meter keeps the estimate at its last
    check point."""
    byte_cap = None if ctx.limits is None else ctx.limits.max_probe_table_bytes
    table: Dict[Tuple, List[object]] = {}
    get = table.get
    null_at = nulls[0] if len(nulls) == 1 else None  # the common case
    for key, item in pairs:
        if check is not None:
            check()
        if null_at is not None:
            if isinstance(key[null_at], Null):
                continue
        elif nulls and any(map(isinstance, key, _NULL_TYPES)):
            continue
        bucket = get(key)
        if bucket is None:
            bucket = table[key] = []
            if meter.add(key) and meter.over_budget(ctx.table_bytes, byte_cap):
                return None
        if item is not None:
            bucket.append(item)
    ctx.table_bytes += meter.approx_bytes()
    return table


class _CorrelatedSubquery(_Cond):
    """Probe machinery shared by ``[NOT] EXISTS`` and ``[NOT] IN (SELECT …)``.

    An uncorrelated subquery runs once per statement.  A correlated one
    takes one of three strategies (Section 7's engine story):

    * **bucket**: an inner block with one source, correlated by
      ``local = outer.col`` probes on the immediate parent, reads each
      outer row's bucket from the kept hash index over the source's
      constant-free-filtered rows and runs the remaining checks on the
      bucket's rows (:class:`_Buckets`); its residuals and output may
      read the outer row;
    * **probe table**: a multi-source inner block whose correlation is
      purely such probes runs once, grouped by the correlated key, and
      every outer row becomes a hash semi-/anti-join lookup;
    * **memo**: everything else — and a bucket index or probe table over
      its ``ResourceLimits`` budget — runs the inner block per probe,
      memoized on the tuple of correlated values, so repeated outer
      keys re-execute nothing.

    The outer block runs the predicate as a pass over a step's rows
    (:meth:`keep_rows`); the bucket path and the probe table answer the
    pass in one loop (:meth:`_answers`).  The compiled closure's per-row
    :meth:`answer` is reached only by memo probing, an uncorrelated
    subquery, or a predicate nested under ``AND``/``OR``/``NOT``, and
    runs the same loop over a one-row list.

    Subclasses supply :meth:`_run` (the subquery's result for one binding
    of the correlated values), :meth:`_from_bucket` (that result from a
    bucket's or a probe table's output values, ``None`` for none),
    ``_truth`` (the predicate's value at an outer row given that result;
    ``None`` for ``EXISTS``, whose result is its value) and ``_out``,
    the compiled output expression whose values ``IN`` collects
    (``None``: ``EXISTS`` only asks whether a row exists).
    """

    __slots__ = (
        "block", "negated", "needed", "local_keys", "has_outer", "_out",
        "_out_has_outer", "_cache", "decor", "_buckets", "_table", "_memo",
        "_memo_keys", "_saved_probes",
    )

    def __init__(
        self,
        block: "CompiledBlock",
        negated: bool,
        parent_scope: BlockScope,
        out: Optional[_Expr],
    ):
        self.block = block
        self.negated = negated
        self.needed = tuple(
            res.key for res in block.external if res.scope is parent_scope
        )
        self.local_keys = frozenset(self.needed)
        self.has_outer = any(res.scope is not parent_scope for res in block.external)
        self._cache: object = None
        self.decor = _probe_plan(block, parent_scope, out)
        self._buckets: Optional[_Buckets] = None
        #: the probe table: correlated key → the subquery's answer
        self._table: Optional[Dict[Tuple, object]] = None
        self._memo: Dict[Tuple, object] = {}
        self._memo_keys = tuple(dict.fromkeys(res.key for res in block.external))
        self._saved_probes = None
        from repro.engine.compile import compile_expr

        self._out = None if out is None else compile_expr(out)
        self._out_has_outer = out is not None and out.has_outer

    @property
    def bucketed(self) -> bool:
        """Whether probes take the bucket path (until it degrades)."""
        return self.decor is not None and len(self.block.sources) == 1

    def _decorrelated(self) -> bool:
        """Whether probes take the bucket path or the probe table,
        opening the statement's strategy at its first probe (which may
        degrade it to memo probing)."""
        if self._buckets is None and self._table is None:
            if self.decor is None:
                return False
            self._open()
        return self.decor is not None

    def answer(self, cursor, env):
        """The subquery's result for the outer row at *cursor*: a truth
        value for ``EXISTS``, the output values for ``IN`` (this bound
        method is what the closure compiler calls)."""
        if self._decorrelated():
            slotmap, row = cursor
            return next(self._answers([row], slotmap, env))
        if not self.block.external:
            if self._cache is None:
                self._cache = self._run({})
            return self._cache
        return self._memo_probe(cursor, env)

    def keep_rows(self, rows: Sequence[Row], slotmap: Dict[Key, int], fn, env) -> List[bool]:
        """One pass of this predicate over the outer *rows* (a join
        step's list, laid out by *slotmap*): for each row, whether the
        predicate is TRUE on it, so the row is kept.  *fn* is the
        predicate's compiled closure, called per row under memo probing
        or when the subquery is uncorrelated."""
        if not self._decorrelated():
            return [fn((slotmap, row), env) is TRUE for row in rows]
        answers = self._answers(rows, slotmap, env)
        truth = self._truth
        if truth is None:
            return [answer is TRUE for answer in answers]
        return [
            truth((slotmap, row), env, answer) is TRUE
            for row, answer in zip(rows, answers)
        ]

    def _answers(self, rows: Sequence[Row], slotmap: Dict[Key, int], env) -> Iterator:
        """The subquery's answer for each of the outer *rows*, from the
        bucket path or the probe table: one loop, counting one
        ``decorrelated_probes`` per row.  Neither a kept index nor a
        probe table holds a null key under SQL nulls, so a null outer key
        misses; under marked nulls keys match by label."""
        self.block.ctx.decorrelated_probes += len(rows)
        buckets = self._buckets
        if buckets is not None:
            return buckets.answers(rows, slotmap, env)
        keys = _key_stream(rows, [slotmap[key] for _local, key in self.decor])
        return map(self._table.get, keys, repeat(self._from_bucket(None)))

    def _open(self) -> None:
        """Decide the statement's strategy at its first probe: the bucket
        path for one source, the probe table for several (either may
        degrade to memo probing)."""
        if len(self.block.sources) == 1:
            self._open_buckets()
        else:
            self._build_table()

    def _memo_probe(self, cursor, env):
        """Correlated probing: :meth:`_run` with the outer row's
        correlated values bound, memoized on those values."""
        ctx = self.block.ctx
        slotmap, row = cursor
        env2 = dict(env)
        for key in self.needed:
            env2[key] = row[slotmap[key]]
        try:
            memo_key = tuple(env2[k] for k in self._memo_keys)
            cached = self._memo.get(memo_key, _MISSING)
        except (KeyError, TypeError):  # unresolvable or unhashable key
            return self._run(env2)
        if cached is not _MISSING:
            ctx.probe_cache_hits += 1
            return cached
        ctx.probe_cache_misses += 1
        result = self._memo[memo_key] = self._run(env2)
        return result

    def bucket_keys(self) -> List[Key]:
        """The bucket path's key columns: the local sides of the
        correlated probes, then of the constant probes."""
        return [local for local, _key in self.decor] + [
            local for local, expr in self.block.probes if not expr.has_outer
        ]

    def _open_buckets(self) -> None:
        """The bucket path's state, decided once per statement: the
        uncorrelated pre-join conditions (one that is not TRUE leaves
        every bucket empty), the compiled checks and slot map, and the
        kept index, whose row count is held against
        ``max_probe_build_rows`` and whose bytes against
        ``max_probe_table_bytes``, on build and on reuse alike; over
        either, it degrades to memo probing."""
        block = self.block
        ctx = block.ctx
        (source,) = block.sources.values()
        keys = self.bucket_keys()
        pre = []
        index: Optional[Dict[Tuple, List[Row]]] = {}
        for cond, fn in zip(block._pre, block._pre_fns):
            if cond.has_outer:
                pre.append(fn)
            elif fn(_EMPTY_CURSOR, {}) is not TRUE:
                break  # no probe finds a row
        else:
            kept = _constant_free(source)
            rows = block._kept_source(kept).rows
            cap = None if ctx.limits is None else ctx.limits.max_probe_build_rows
            if cap is not None and len(rows) > cap:
                index = None
            else:
                columns = tuple(col for _binding, col in keys)
                index = block._kept_index(kept, rows, columns, block._null_slots(keys))
        if index is None:
            self._degrade()
            return
        from repro.engine.compile import compile_cond, compile_expr, row_tests

        tests = row_tests(source, [cond for cond in source.filters if _cond_key(cond) is None])
        if len(tests) > 1:
            keep = lambda row: all(test(row) for test in tests)
        else:
            keep = tests[0] if tests else None
        checks = [cond for cond in block.residuals if cond.local_keys]
        reads_outer = self._out_has_outer or any(
            cond.has_outer for cond in checks + block._pre
        )
        self._buckets = _Buckets(
            ctx,
            index,
            tuple(key for _local, key in self.decor),
            tuple(
                compile_expr(expr)(_EMPTY_CURSOR, {})
                for _local, expr in block.probes
                if not expr.has_outer
            ),
            source.slotmap,
            keep,
            [compile_cond(cond) for cond in checks],
            pre,
            self.needed if reads_outer else None,
            self._out,
            self._from_bucket(None),
            self._from_bucket(()),
        )

    def _build_table(self) -> None:
        """One-pass hash semi-join build: the inner block's rows grouped
        by their correlated key, each key mapped to the subquery's
        answer (:meth:`_from_bucket` of its rows' ``_out`` values).  The
        block stops listing once its rows pass ``max_probe_build_rows``,
        which abandons the build."""
        block = self.block
        ctx = block.ctx
        if self._saved_probes is None:  # else a cut-short build stripped them
            self._saved_probes = block.probes
            block.probes = [(k, e) for k, e in block.probes if not e.has_outer]
        cap = None if ctx.limits is None else ctx.limits.max_probe_build_rows
        before = ctx.rows_examined
        listed = block.run({}, cap)
        # Abandoned builds count their rows like finished ones.
        ctx.probe_build_rows += ctx.rows_examined - before
        ctx.rows_examined = before
        table: Optional[Dict[Tuple, List[object]]] = None  # abandoned
        if listed is not None:
            slotmap, rows = listed
            table = {}
            if rows:
                locals_ = tuple(local for local, _key in self.decor)
                out = self._out
                items: Iterable = repeat(None)  # keys only: an EXISTS bucket just exists
                if out is not None:
                    items = [out((slotmap, row), {}) for row in rows]
                table = _hash_group(
                    ctx,
                    TableBytesMeter(),
                    zip(_key_stream(rows, [slotmap[k] for k in locals_]), items),
                    block._null_slots(locals_),
                )
        if table is None:
            self._degrade()
        else:
            ctx.probe_tables_built += 1
            self._table = {key: self._from_bucket(bucket) for key, bucket in table.items()}

    def _degrade(self) -> None:
        """Abandon the bucket path or the probe table for good: the kept
        index or the table would cost more than ``max_probe_build_rows``
        (or ``max_probe_table_bytes``).  The inner block gets its
        correlated shape back and the predicate falls back to memoized
        probing, whose results bit-match by construction."""
        block = self.block
        if self._saved_probes is not None:
            block.probes = self._saved_probes
            self._saved_probes = None
        self.decor = None
        block._reset_runtime()
        block.ctx.degradations += 1


class _Exists(_CorrelatedSubquery):
    """``[NOT] EXISTS`` — two-valued: TRUE when the inner block lists a
    row (a bucket row passes its checks, a probe-table key is found),
    unless negated."""

    __slots__ = ()

    def __init__(self, block: "CompiledBlock", negated: bool, parent_scope: BlockScope):
        super().__init__(block, negated, parent_scope, None)

    def _run(self, env) -> ThreeValued:
        _slotmap, rows = self.block.run(env)
        return from_bool(bool(rows) != self.negated)

    def _from_bucket(self, bucket) -> ThreeValued:
        return TRUE if (bucket is not None) != self.negated else FALSE

    #: a bucket answer is the predicate's truth value
    _truth = None


class _InSubquery(_CorrelatedSubquery):
    """``x [NOT] IN (SELECT …)`` — a bucket or probe-table hit holds the
    inner output values for its key; the membership test is the compiled
    closure's."""

    __slots__ = ("expr", "marked", "_expr_fn")

    def __init__(
        self,
        expr: _Expr,
        block: "CompiledBlock",
        out: _Expr,
        negated: bool,
        parent_scope: BlockScope,
    ):
        super().__init__(block, negated, parent_scope, out)
        self.expr = expr
        self.local_keys |= expr.local_keys
        self.has_outer = self.has_outer or expr.has_outer
        self.marked = block.ctx.marked_nulls
        from repro.engine.compile import compile_expr

        self._expr_fn = compile_expr(expr)

    def _run(self, env) -> List[object]:
        out = self._out
        slotmap, rows = self.block.run(env)
        return [out((slotmap, row), env) for row in rows]

    def _from_bucket(self, bucket) -> Sequence[object]:
        return () if bucket is None else bucket

    def _truth(self, cursor, env, values) -> ThreeValued:
        """The predicate's truth value at the outer row at *cursor*,
        given its bucket answer *values*."""
        found = _membership(self._expr_fn(cursor, env), values, self.marked)
        return ~found if self.negated else found


class _Buckets:
    """The bucket path of one correlated subquery for one statement: one
    loop over the outer rows of a pass (:meth:`answers`), scanning each
    found bucket with :meth:`_scan`.

    A probe's key is the outer row's values at ``outer``, then the values
    of the constant probes (``consts``, computed once); its bucket is
    read from ``index``, the kept index over the source's rows under its
    constant-free filters.  A bucket row must pass the source's filters
    that hold a constant (``keep``, their row tests, the ones the
    block's filter passes run; uncounted, as pushed filters are;
    ``None`` without such a filter), then counts one ``rows_examined``
    and one governor check before the residuals (``checks``) decide it.
    ``pre`` are the conditions without local columns that read the outer
    row, run once per found bucket; ``needed`` the outer keys the checks
    read from the environment, or ``None`` when they read none; ``out``
    the output expression of an ``IN``, ``None`` for an ``EXISTS``;
    ``miss`` and ``hit`` the subquery's answers without a row and, for
    an ``EXISTS``, with one.
    """

    __slots__ = (
        "ctx", "index", "outer", "consts", "slotmap", "keep", "checks",
        "pre", "needed", "out", "miss", "hit",
    )

    def __init__(
        self, ctx, index, outer, consts, slotmap, keep, checks, pre, needed, out, miss, hit
    ):
        self.ctx = ctx
        self.index = index
        self.outer = outer
        self.consts = consts
        self.slotmap = slotmap
        self.keep = keep
        self.checks = checks
        self.pre = pre
        self.needed = needed
        self.out = out
        self.miss = miss
        self.hit = hit

    def answers(self, rows: Sequence[Row], slotmap: Dict[Key, int], env) -> Iterator:
        """The subquery's answer for each of the outer *rows*, laid out
        by *slotmap*.  One environment serves the whole loop, updated in
        place with each row's outer values."""
        keys = _key_stream(rows, [slotmap[k] for k in self.outer])
        consts = self.consts
        if consts:
            keys = (key + consts for key in keys)
        get = self.index.get
        scan = self._scan
        miss = self.miss
        needed = self.needed
        if needed is None:
            for key in keys:
                bucket = get(key)
                yield miss if bucket is None else scan(bucket, env)
            return
        env = dict(env)
        fill = [(k, slotmap[k]) for k in needed]
        for row, key in zip(rows, keys):
            bucket = get(key)
            if bucket is None:
                yield miss
                continue
            for k, p in fill:
                env[k] = row[p]
            yield scan(bucket, env)

    def _scan(self, bucket: List[Row], env):
        """The answer from one found *bucket*: ``hit`` at the first row
        that passes every check (``EXISTS``), the output values of all of
        them (``IN``), or ``miss``."""
        for fn in self.pre:
            if fn(_EMPTY_CURSOR, env) is not TRUE:
                return self.miss
        ctx = self.ctx
        keep = self.keep
        governor = ctx.governor
        inner = self.slotmap
        checks = self.checks
        out = self.out
        values = None
        for item in bucket:
            if keep is not None and not keep(item):
                continue
            ctx.rows_examined += 1
            if governor is not None:
                ctx.check()
            inner_cursor = (inner, item)
            for fn in checks:
                if fn(inner_cursor, env) is not TRUE:
                    break
            else:
                if out is None:
                    return self.hit
                if values is None:
                    values = []
                values.append(out(inner_cursor, env))
        return self.miss if values is None else values


class _InValues(_Cond):
    """``x [NOT] IN (v₁, …)`` with the IN-list pre-partitioned at compile
    time: hashable non-null constants go into a set probed in O(1) per
    row (under marked nulls, null constants join the set too — they hash
    by label); everything else (non-constant expressions, unhashable
    constants) stays a residual compared per evaluation.  The truth
    table matches the linear :func:`_membership` scan exactly."""

    __slots__ = (
        "expr", "values", "negated", "local_keys", "has_outer", "marked",
        "_const_set", "_has_null_const", "_residual",
    )

    def __init__(
        self, expr: _Expr, values: Sequence[_Expr], negated: bool, marked: bool = False
    ):
        self.expr = expr
        self.values = tuple(values)
        self.negated = negated
        self.local_keys = expr.local_keys
        self.has_outer = expr.has_outer or any(v.has_outer for v in self.values)
        self.marked = marked
        const_set: Set[object] = set()
        has_null_const = False
        residual: List[_Expr] = []
        for value_expr in self.values:
            if not isinstance(value_expr, _Const):
                residual.append(value_expr)
                continue
            value = value_expr.value
            items = value if isinstance(value, (list, tuple)) else (value,)
            for item in items:
                if is_null(item):
                    # A null candidate contributes UNKNOWN on any miss
                    # (and, under marked nulls, TRUE on a label match —
                    # caught by the set probe since nulls hash by label).
                    has_null_const = True
                    if marked:
                        const_set.add(item)
                    continue
                try:
                    const_set.add(item)
                except TypeError:  # unhashable constant
                    residual.append(_Const(item))
        self._const_set = const_set
        self._has_null_const = has_null_const
        self._residual = tuple(residual)


def _membership(x, values, marked: bool = False) -> ThreeValued:
    """SQL semantics of ``x IN (values)``."""
    saw_unknown = False
    for value in values:
        cmp = _compare("=", x, value, marked)
        if cmp is TRUE:
            return TRUE
        if cmp is UNKNOWN:
            saw_unknown = True
    return UNKNOWN if saw_unknown else FALSE


# ---------------------------------------------------------------------------
# The compiled block
# ---------------------------------------------------------------------------


class _Source:
    """One FROM entry with its pushed single-table filters and, once they
    are compiled, their key in the relation's store (:func:`_source_key`)
    and their row tests (built at the first filter run).  ``slotmap``
    lays out the source's own rows."""

    __slots__ = ("binding", "table", "columns", "slotmap", "filters", "key", "tests")

    def __init__(self, binding: str, table: str, columns: Tuple[str, ...]):
        self.binding = binding
        self.table = table
        self.columns = columns
        self.slotmap: Dict[Key, int] = {(binding, col): i for i, col in enumerate(columns)}
        self.filters: List[_Cond] = []
        self.key: Optional[frozenset] = None
        self.tests: Optional[List[object]] = None


class CompiledBlock:
    def __init__(self, select: ast.Select, ctx: ExecContext, parent: Optional[BlockScope]):
        self.select = select
        self.ctx = ctx
        self.scope = BlockScope(select.tables, ctx.columns_of, _engine_error, parent)
        self.sources: Dict[str, _Source] = {
            binding: _Source(binding, table, self.scope.columns[binding])
            for binding, table in self.scope.tables.items()
        }
        #: resolutions into enclosing scopes (this block + its subblocks)
        self.external: List[Resolution] = []
        #: (local key, outer expression) equality probes
        self.probes: List[Tuple[Key, _Expr]] = []
        #: plain local equi-joins (key_a, key_b)
        self.equi: List[Tuple[Key, Key]] = []
        #: residual conditions (evaluated 3VL once their tables are bound)
        self.residuals: List[_Cond] = []

        self._compile_where(select.where)
        for source in self.sources.values():
            source.key = _source_key(source.filters)

        # Uncorrelated/outer-only residuals (no local keys): computed
        # eagerly so run() can evaluate them *before* any planning
        # or filtering work — a FALSE short-circuits the whole block
        # without touching base tables (Q+2's win).
        self._pre: List[_Cond] = [c for c in self.residuals if not c.local_keys]
        from repro.engine.compile import compile_cond

        self._pre_fns = [compile_cond(c) for c in self._pre]

        # Runtime state, built lazily on first iteration.
        self._filtered: Optional[Dict[str, SourceStats]] = None
        self._order: Optional[List[Tuple[str, List[Tuple[int, object]]]]] = None
        self._slotmap: Optional[Dict[Key, int]] = None
        self._indexes: Dict[
            Tuple[str, Tuple[str, ...]], Optional[Dict[Tuple, List[Row]]]
        ] = {}
        self._attached: Optional[List[List[_Cond]]] = None
        self._attached_fns: Optional[List[List[object]]] = None
        self._stats: Optional[Dict[str, SourceStats]] = None
        self._order_estimates: Optional[List[float]] = None
        self._step_actual: Optional[List[int]] = None

    def _reset_runtime(self) -> None:
        """Drop lazily-built plan state so the next iteration re-plans
        (used when a degraded probe-table build restores the block's
        probes after planning stripped them)."""
        self._filtered = None
        self._order = None
        self._slotmap = None
        self._indexes = {}
        self._attached = None
        self._attached_fns = None
        self._stats = None
        self._order_estimates = None
        self._step_actual = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile_where(self, where: Optional[ast.SqlCond]) -> None:
        if where is None:
            return
        conjuncts = (
            where.items
            if isinstance(where, ast.BoolOp) and where.op == "and"
            else (where,)
        )
        for cond in conjuncts:
            self._classify(cond)

    def _classify(self, cond: ast.SqlCond) -> None:
        # Plain local equality: equi-join or probe.
        if isinstance(cond, ast.Comparison) and cond.op == "=":
            left = self._try_column(cond.left)
            right = self._try_column(cond.right)
            if left is not None and right is not None:
                if left.depth == 0 and right.depth == 0:
                    if left.binding != right.binding:
                        self.equi.append((left.key, right.key))
                        return
                elif left.depth == 0 or right.depth == 0:
                    local, outer = (left, cond.right) if left.depth == 0 else (right, cond.left)
                    self.probes.append((local.key, self._expr(outer)))
                    return
            elif left is not None and left.depth == 0 and self._is_outer_free(cond.right):
                self.probes.append((left.key, self._expr(cond.right)))
                return
            elif right is not None and right.depth == 0 and self._is_outer_free(cond.left):
                self.probes.append((right.key, self._expr(cond.left)))
                return
        compiled = self._cond(cond)
        keys = compiled.local_keys
        bindings = {binding for binding, _ in keys}
        if (
            len(bindings) == 1
            and not compiled.has_outer
            and not _contains_subquery(compiled)
        ):
            self.sources[next(iter(bindings))].filters.append(compiled)
        else:
            self.residuals.append(compiled)

    def _try_column(self, expr: ast.SqlExpr) -> Optional[Resolution]:
        if not isinstance(expr, ast.ColumnRef):
            return None
        resolution = self.scope.resolve(expr)
        if resolution.depth > 0:
            self.external.append(resolution)
        return resolution

    def _is_outer_free(self, expr: ast.SqlExpr) -> bool:
        """True for literals/params/concats without column references."""
        if isinstance(expr, (ast.Literal, ast.Param)):
            return True
        if isinstance(expr, ast.Concat):
            return all(self._is_outer_free(p) for p in expr.parts)
        return False

    # -- expressions ----------------------------------------------------
    def _expr(self, expr: ast.SqlExpr) -> _Expr:
        if isinstance(expr, ast.ColumnRef):
            resolution = self.scope.resolve(expr)
            if resolution.depth > 0:
                self.external.append(resolution)
            return _Col(resolution)
        if isinstance(expr, ast.Literal):
            return _Const(expr.value)
        if isinstance(expr, ast.Param):
            if expr.name not in self.ctx.params:
                raise EngineError(f"unbound parameter ${expr.name}")
            return _Const(self.ctx.params[expr.name])
        if isinstance(expr, ast.Concat):
            parts = [self._expr(p) for p in expr.parts]
            if all(isinstance(part, _Const) for part in parts):
                from repro.engine.compile import compile_expr

                return _Const(compile_expr(_Concat(parts))(_EMPTY_CURSOR, {}))
            return _Concat(parts)
        if isinstance(expr, ast.ScalarSubquery):
            return self._scalar_subquery(expr.query)
        if isinstance(expr, ast.Aggregate):
            raise EngineError("aggregates are only supported in scalar subqueries")
        raise EngineError(f"cannot compile expression {expr!r}")

    def _scalar_subquery(self, query: ast.Query) -> _ScalarSubquery:
        body = query.body
        if query.ctes or not isinstance(body, ast.Select):
            raise EngineError("scalar subqueries must be plain SELECT blocks")
        if len(body.columns) != 1 or isinstance(body.columns[0], ast.Star):
            raise EngineError("scalar subqueries must select a single value")
        out = body.columns[0]
        assert isinstance(out, ast.OutputColumn)
        if not isinstance(out.expr, ast.Aggregate):
            raise EngineError(
                "only aggregate scalar subqueries are supported (the paper's "
                "black-box case)"
            )
        sub = CompiledBlock(body, self.ctx, self.scope)
        self._absorb_external(sub)
        arg = None if out.expr.arg is None else sub._expr(out.expr.arg)
        return _ScalarSubquery(sub, out.expr.func, arg)

    # -- conditions -----------------------------------------------------
    def _cond(self, cond: ast.SqlCond) -> _Cond:
        if isinstance(cond, ast.Comparison):
            return _Cmp(
                cond.op,
                self._expr(cond.left),
                self._expr(cond.right),
                self.ctx.marked_nulls,
            )
        if isinstance(cond, ast.IsNull):
            return _IsNull(self._expr(cond.expr), cond.negated)
        if isinstance(cond, ast.BoolOp):
            return _Bool(cond.op, [self._cond(item) for item in cond.items])
        if isinstance(cond, ast.NotOp):
            return _Not(self._cond(cond.item))
        if isinstance(cond, ast.BoolLiteral):
            return _BoolConst(cond.value)
        if isinstance(cond, ast.Exists):
            sub = self._subblock(cond.query)
            return _Exists(sub, cond.negated, self.scope)
        if isinstance(cond, ast.InPredicate):
            if cond.values is not None:
                return _InValues(
                    self._expr(cond.expr),
                    [self._expr(v) for v in cond.values],
                    cond.negated,
                    self.ctx.marked_nulls,
                )
            assert cond.query is not None
            sub_body = cond.query.body
            if cond.query.ctes or not isinstance(sub_body, ast.Select):
                raise EngineError("IN subqueries must be plain SELECT blocks")
            if len(sub_body.columns) != 1 or isinstance(sub_body.columns[0], ast.Star):
                raise EngineError("IN subqueries must select one column")
            out = sub_body.columns[0]
            assert isinstance(out, ast.OutputColumn)
            sub = CompiledBlock(sub_body, self.ctx, self.scope)
            self._absorb_external(sub)
            out_expr = sub._expr(out.expr)
            return _InSubquery(
                self._expr(cond.expr), sub, out_expr, cond.negated, self.scope
            )
        raise EngineError(f"cannot compile condition {cond!r}")

    def _subblock(self, query: ast.Query) -> "CompiledBlock":
        body = query.body
        if query.ctes or not isinstance(body, ast.Select):
            raise EngineError("subqueries must be plain SELECT blocks")
        sub = CompiledBlock(body, self.ctx, self.scope)
        self._absorb_external(sub)
        return sub

    def _absorb_external(self, sub: "CompiledBlock") -> None:
        """Resolutions of *sub* pointing above this block become ours."""
        for res in sub.external:
            if res.scope is not self.scope:
                self.external.append(res)

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def _filtered_rows(self, source: _Source) -> List[Row]:
        ctx = self.ctx
        rows = ctx.relation(source.table).rows
        if source.tests is None:  # filters are fixed after compilation
            from repro.engine.compile import row_tests

            source.tests = row_tests(source, source.filters)
        # One pass per pushed conjunct over the surviving rows, so later
        # conjuncts only test rows the earlier ones kept.  Filter passes
        # stay outside the row counters.
        for test in source.tests:
            ctx.check()
            rows = [row for row in rows if test(row)]
            if not rows:
                break
        return rows

    def _store(self, source: _Source) -> Optional[Dict[object, object]]:
        """The store of *source*'s relation if *source*'s filtered rows
        and their indexes may be kept there: its filters hold no constant
        (:func:`_source_key`) and the relation has a store."""
        if source.key is None:
            return None
        return self.ctx.relation(source.table).indexes

    def _kept_source(self, source: _Source) -> SourceStats:
        """*source*'s filtered rows with their statistics.  Rows under
        constant-free filters depend on nothing but the relation's rows,
        so the first statement keeps them in the relation's store under
        the source key, and every later statement reuses them without
        running a pass; passes that a deadline, a cancel or a fault cut
        short keep nothing."""
        store = self._store(source)
        kept = None if store is None else store.get(source.key)
        if kept is None:
            kept = SourceStats(self._filtered_rows(source))
            if store is not None:
                store[source.key] = kept
        return kept

    def _prepare(self, env_available: bool) -> None:
        if self._order is not None:
            return
        self._filtered = {}  # filled lazily by _get_filtered
        self._build_order(env_available)
        self._attach_residuals()

    def _source_stats(self, binding: str) -> SourceStats:
        assert self._filtered is not None
        stats = self._filtered.get(binding)
        if stats is None:
            stats = self._filtered[binding] = self._kept_source(self.sources[binding])
        return stats

    def _get_filtered(self, binding: str) -> List[Row]:
        return self._source_stats(binding).rows

    def _join_model(
        self, probes: Sequence[Tuple[Key, _Expr]], env_available: bool
    ) -> Tuple[List[str], List[float], Dict[str, SourceStats]]:
        """The selectivity-driven join-order model over *probes*: the
        binding order, each step's estimated rows (before attached
        residuals) and the per-source statistics.  Stores no plan; the
        planner and EXPLAIN both read the engine's cardinalities here."""
        # Score each candidate from its *filtered* cardinality and the
        # NDV of its usable equality keys (|R ⋈ S| ≈ |R|·|S| / key NDV).
        # Multi-table blocks materialise their filtered rows for hash
        # indexes anyway, so the statistics pass reuses that work, and
        # a kept source's statistics are kept with its rows.
        stats = {b: self._source_stats(b) for b in self.sources}
        positions = {
            b: {col: i for i, col in enumerate(s.columns)}
            for b, s in self.sources.items()
        }
        order, estimates = choose_join_order(
            stats, positions, probes, self.equi, env_available
        )
        return order, estimates, stats

    def _build_order(self, env_available: bool) -> None:
        if len(self.sources) > 1:
            order, self._order_estimates, self._stats = self._join_model(
                self.probes, env_available
            )
        else:
            # A single table has one order: skip the statistics pass.
            order = list(self.sources)
            self._stats = None
            self._order_estimates = None
        self._step_actual = [0] * len(order)

        # Slot layout follows the join order.
        slotmap: Dict[Key, int] = {}
        offset = 0
        for binding in order:
            for col in self.sources[binding].columns:
                slotmap[(binding, col)] = offset
                offset += 1
        self._slotmap = slotmap

        # For each step, the equality keys usable to probe it; probe
        # expressions from the environment are compiled here, once.
        from repro.engine.compile import compile_expr

        steps: List[Tuple[str, List[Tuple[str, object]]]] = []
        bound = set()
        for binding in order:
            keys: List[Tuple[str, object]] = []
            for key, expr in self.probes:
                if key[0] == binding:
                    keys.append((key[1], ("env", compile_expr(expr))))
            for a, b in self.equi:
                if a[0] == binding and b[0] in bound:
                    keys.append((a[1], ("row", b)))
                elif b[0] == binding and a[0] in bound:
                    keys.append((b[1], ("row", a)))
            steps.append((binding, keys))
            bound.add(binding)
        self._order = steps

    def _attach_residuals(self) -> None:
        assert self._order is not None
        bound_after: List[Set[str]] = []
        bound: Set[str] = set()
        for binding, _keys in self._order:
            bound = bound | {binding}
            bound_after.append(set(bound))
        self._attached = [[] for _ in self._order]
        for cond in self.residuals:
            bindings = {binding for binding, _ in cond.local_keys}
            if not bindings:
                continue  # handled eagerly via self._pre
            for i, have in enumerate(bound_after):
                if bindings <= have:
                    self._attached[i].append(cond)
                    break
            else:  # pragma: no cover - resolution guarantees coverage
                raise EngineError("residual references unbound tables")
        from repro.engine.compile import compile_cond

        self._attached_fns = []
        for conds in self._attached:
            nonnull = self._proven_nonnull({k for c in conds for k in c.local_keys})
            self._attached_fns.append([compile_cond(c, nonnull) for c in conds])

    def _proven_nonnull(self, keys: Iterable[Key]) -> frozenset:
        """Data-driven non-null proofs: the local columns among *keys*
        whose *filtered* rows hold no null.  Compiled conditions drop
        their null checks on them, hash builds their null tests."""
        stats = self._stats or {}
        return frozenset(
            (binding, col)
            for binding, col in keys
            if binding in stats
            and not stats[binding].has_null(self.sources[binding].columns.index(col))
        )

    def _null_slots(self, keys: Sequence[Key]) -> Tuple[int, ...]:
        """Positions in a hash key over local columns *keys* that may
        hold a null; none under marked nulls (null keys index by label)."""
        if self.ctx.marked_nulls:
            return ()
        proven = self._proven_nonnull(keys)
        return tuple(i for i, key in enumerate(keys) if key not in proven)

    def _index(
        self, binding: str, columns: Tuple[str, ...]
    ) -> Optional[Dict[Tuple, List[Row]]]:
        """Hash index over the filtered rows, or ``None`` when building
        it would push ``ExecContext.table_bytes`` past the
        ``max_probe_table_bytes`` budget (the join then degrades to
        linear probing via :meth:`_linear_matches` — results identical,
        counted in ``ctx.degradations``)."""
        cache_key = (binding, columns)
        index = self._indexes.get(cache_key, _MISSING)
        if index is _MISSING:
            index = self._indexes[cache_key] = self._kept_index(
                self.sources[binding],
                self._get_filtered(binding),
                columns,
                self._null_slots([(binding, col) for col in columns]),
            )
            if index is None:
                self.ctx.degradations += 1
        return index

    def _kept_index(
        self,
        source: _Source,
        rows: Sequence[Row],
        columns: Tuple[str, ...],
        nulls: Tuple[int, ...],
    ) -> Optional[Dict[Tuple, List[Row]]]:
        """A hash index over *source*'s filtered *rows* on *columns*,
        skipping null keys at *nulls*, for this statement; ``None`` over
        the byte budget.  An index over rows kept under constant-free
        filters (a whole table has the empty source key) is kept in the
        relation's ``indexes`` under the source key, its key columns and
        null slots (the build's only inputs), so every later statement
        reuses it.  Reuse charges the table's bytes, or gives ``None`` if
        the build would have been abandoned at one of its byte check
        points."""
        ctx = self.ctx
        store = self._store(source)
        key = (source.key, columns, nulls)
        stored = None if store is None else store.get(key)
        if stored is None:
            meter = TableBytesMeter()
            index = _hash_group(
                ctx,
                meter,
                _keyed(rows, source, columns),
                nulls,
                None if ctx.governor is None else ctx.check,
            )
            if index is not None and store is not None:
                store[key] = (index, meter)
            return index
        index, meter = stored
        cap = None if ctx.limits is None else ctx.limits.max_probe_table_bytes
        if meter.over_budget(ctx.table_bytes, cap):
            return None
        ctx.table_bytes += meter.approx_bytes()
        return index

    def _linear_matches(
        self, binding: str, columns: Tuple[str, ...], key: Tuple
    ) -> List[Row]:
        """Degraded equi-join probe (hash index over byte budget): scan
        the filtered rows' keys, extracted as the index extracts them.
        The probe key is null-free under SQL nulls, so the matches are
        the index's; marked nulls compare by label either way."""
        ctx = self.ctx
        matches = []
        rows = self._get_filtered(binding)
        for row_key, row in _keyed(rows, self.sources[binding], columns):
            ctx.check()
            if row_key == key:
                matches.append(row)
        return matches

    def run(
        self, env: Dict[Key, object], cap: Optional[int] = None
    ) -> Optional[Tuple[Dict[Key, int], Sequence[Row]]]:
        """The block's rows for the outer values *env*: its slot map and
        its last step's row list, each row laid out by the slot map.

        Step 0 lists the first source's filtered rows, or the bucket of
        its constant or environment probe.  Each later step is one loop
        over the previous step's list: it lists every row of the step's
        source that joins a partial row (:meth:`_joiner`), with that
        partial row.  After each step, the residuals attached to it run
        as passes over its list in conjunct order, each after one
        ``ctx.check()`` and over the rows earlier passes kept; a
        subquery predicate runs its own pass
        (:meth:`_CorrelatedSubquery.keep_rows`).  A pass that reads only
        the step's source runs over the source's bare rows; the rows are
        joined to their partial rows, ``partial + row``, at the first
        pass that reads an earlier binding or at the end of the step, so
        only rows that such passes keep are joined.  A step with no row
        left ends the block.

        Each listed row counts one ``rows_examined``: a step adds a
        bucket's length at once, or, under a governor, counts and checks
        every row.  With *cap*, the block returns
        ``None`` instead of listing another bucket once its run has
        counted more than *cap* rows, its pre-join conditions included
        (a probe-table build over ``max_probe_build_rows``): it lists at
        most *cap* rows and one bucket."""
        ctx = self.ctx
        limit = None if cap is None else ctx.rows_examined + cap

        # Uncorrelated/outer-only conditions first: a non-TRUE result
        # short-circuits the whole block (Q+2's win) before any
        # planning, filtering or statistics work happens.
        for fn in self._pre_fns:
            if fn(_EMPTY_CURSOR, env) is not TRUE:
                return _NO_ROWS

        self._prepare(env_available=bool(self.external) or bool(env) or bool(self.probes))
        assert self._order is not None and self._slotmap is not None
        assert self._attached_fns is not None and self._step_actual is not None
        slotmap = self._slotmap
        governor = ctx.governor
        rows: Sequence[Row] = ()
        for step, (binding, _keys) in enumerate(self._order):
            join = self._joiner(step, env)
            partials: Optional[List[Row]] = None  # each row's partial row
            if step == 0:
                rows = join(())
                if governor is None:
                    ctx.rows_examined += len(rows)
                else:
                    for _row in rows:
                        ctx.rows_examined += 1
                        ctx.check()
            else:
                partials, listed = [], []
                for partial in rows:
                    if limit is not None and ctx.rows_examined > limit:
                        return None
                    matches = join(partial)
                    if not matches:
                        continue
                    if governor is None:
                        ctx.rows_examined += len(matches)
                    else:
                        for _row in matches:
                            ctx.rows_examined += 1
                            ctx.check()
                    listed += matches
                    partials += repeat(partial, len(matches))
                rows = listed
            self._step_actual[step] += len(rows)
            local = self.sources[binding].slotmap
            for cond, fn in zip(self._attached[step], self._attached_fns[step]):
                if not rows:
                    break
                ctx.check()
                cursors = slotmap
                if partials is not None:
                    if all(b == binding for b, _col in cond.local_keys):
                        cursors = local
                    else:
                        rows, partials = list(map(add, partials, rows)), None
                if isinstance(cond, _CorrelatedSubquery):
                    keep = cond.keep_rows(rows, cursors, fn, env)
                else:
                    keep = [fn((cursors, row), env) is TRUE for row in rows]
                rows = list(compress(rows, keep))
                if partials is not None:
                    partials = list(compress(partials, keep))
            if partials is not None:
                rows = list(map(add, partials, rows))
            if not rows:
                break
        return slotmap, rows

    def _joiner(self, step: int, env) -> Callable[[Row], Sequence[Row]]:
        """``partial row → the rows of step *step* that join it``, for one
        run: the step's filtered rows when it has no equality key, else
        the bucket of its hash index (or, over the byte budget,
        :meth:`_linear_matches`) at the key read from the partial row and,
        for its probes, from *env* (computed once here)."""
        assert self._order is not None and self._slotmap is not None
        binding, keys = self._order[step]
        if not keys:
            rows = self._get_filtered(binding)
            return lambda partial: rows
        columns = tuple(col for col, _src in keys)
        index = self._index(binding, columns)
        slotmap = self._slotmap
        # (slot in the partial row, None) or (None, the probe's value)
        parts = [
            (slotmap[payload], None) if kind == "row" else (None, payload(_EMPTY_CURSOR, env))
            for _col, (kind, payload) in keys
        ]

        def key_of(partial: Row) -> Tuple:
            return tuple(value if slot is None else partial[slot] for slot, value in parts)

        if index is None:  # over the byte budget: linear probe
            marked = self.ctx.marked_nulls

            def linear(partial: Row) -> Sequence[Row]:
                key = key_of(partial)
                if not marked and any(map(isinstance, key, _NULL_TYPES)):
                    return ()  # a null key never compares TRUE
                return self._linear_matches(binding, columns, key)

            return linear
        # The index holds no null key under SQL nulls, so a null key
        # misses; under marked nulls keys match by label.
        get = index.get
        if all(slot is None for slot, _value in parts):  # one bucket per run
            bucket = get(key_of(()), ())
            return lambda partial: bucket
        if len(parts) == 1:
            slot = parts[0][0]
            return lambda partial: get((partial[slot],), ())
        return lambda partial: get(key_of(partial), ())


def _probe_plan(
    block: "CompiledBlock", parent_scope: BlockScope, out: Optional[_Expr]
) -> Optional[Tuple[Tuple[Key, Key], ...]]:
    """``((local key, outer key), …)`` when *block*'s correlated probes
    can be answered without running it per outer row, else ``None``.

    Every outer reference must resolve in the immediate parent scope, and
    every probe that mentions one must be ``local = outer.col``.  A
    single-source block then takes the bucket path, whose residuals and
    output may read the outer row too.  A multi-source block takes the
    probe-table path only if nothing else reads the outer row: no
    residual, no output expression (*out*), and no reference the probes
    do not cover.  Then the subquery's result, as a function of the outer
    row, depends only on the probed key tuple, so a single pass over the
    inner block grouped by the local key columns answers every probe.
    """
    if not block.external:
        return None
    if any(res.scope is not parent_scope for res in block.external):
        return None
    pairs: List[Tuple[Key, Key]] = []
    for local_key, expr in block.probes:
        if expr.has_outer:
            if not isinstance(expr, _Col):
                return None
            pairs.append((local_key, expr.key))
    if not pairs:
        return None
    if len(block.sources) == 1:
        return tuple(pairs)
    if out is not None and out.has_outer:
        return None
    if any(cond.has_outer for cond in block.residuals):
        return None
    covered = {outer for _local, outer in pairs}
    if any(res.key not in covered for res in block.external):
        return None
    return tuple(pairs)


def _constant_free(source: _Source) -> _Source:
    """*source* under only its constant-free filters: the rows the bucket
    path's kept index is built over (the source itself when it has no
    filter with a constant)."""
    if source.key is not None:
        return source
    kept = _Source(source.binding, source.table, source.columns)
    kept.filters = [cond for cond in source.filters if _cond_key(cond) is not None]
    kept.key = _source_key(kept.filters)
    return kept


def _source_key(filters: Sequence[_Cond]) -> Optional[frozenset]:
    """The key of a source's filtered rows in its relation's store: the
    set of its filters' shapes (:func:`_cond_key`; a conjunction's rows
    do not depend on the order of its conjuncts), empty for an
    unfiltered source, and ``None`` when a filter holds a constant."""
    shapes = frozenset(map(_cond_key, filters))
    return None if None in shapes else shapes


def _cond_key(cond: _Cond) -> Optional[Tuple]:
    """A pushed filter's shape over column names, free of bindings (two
    aliases of one table share it), or ``None`` when the filter holds a
    constant, a subquery or an outer column.  A constant may be a
    parameter's value or a literal the SQL text inlined, so a store
    keyed on it would grow with every statement."""
    if isinstance(cond, _Cmp):
        left, right = _expr_key(cond.left), _expr_key(cond.right)
        if left is None or right is None:
            return None
        return ("cmp", cond.op, left, right, cond.marked)
    if isinstance(cond, _IsNull):
        expr = _expr_key(cond.expr)
        return None if expr is None else ("null", expr, cond.negated)
    if isinstance(cond, _InValues):
        keys = tuple(map(_expr_key, (cond.expr, *cond.values)))
        return None if None in keys else ("in", keys, cond.negated, cond.marked)
    if isinstance(cond, _Bool):
        keys = tuple(map(_cond_key, cond.items))
        return None if None in keys else (cond.op, keys)
    if isinstance(cond, _Not):
        key = _cond_key(cond.item)
        return None if key is None else ("not", key)
    return None  # a Boolean constant or a subquery


def _expr_key(expr: _Expr) -> Optional[Tuple]:
    """:func:`_cond_key` of an operand."""
    if isinstance(expr, _Col):
        return None if expr.has_outer else ("col", expr.key[1])
    if isinstance(expr, _Concat):
        keys = tuple(map(_expr_key, expr.parts))
        return None if None in keys else ("||", keys)
    return None  # a constant or a scalar subquery


def _contains_subquery(cond: _Cond) -> bool:
    if isinstance(cond, (_Exists, _InSubquery)):
        return True
    if isinstance(cond, _Bool):
        return any(_contains_subquery(item) for item in cond.items)
    if isinstance(cond, _Not):
        return _contains_subquery(cond.item)
    if isinstance(cond, _Cmp):
        return isinstance(cond.left, _ScalarSubquery) or isinstance(
            cond.right, _ScalarSubquery
        )
    return False
