"""Reference evaluator for relational algebra over incomplete databases.

This is the *specification* evaluator: small, direct, and obviously
faithful to the paper's definitions.  Performance-sensitive execution of
SQL (TPC-H scale) lives in :mod:`repro.engine`; correctness tests check
the two against each other on small instances.

Two semantics are supported (Section 2):

* ``naive`` — marked nulls behave as ordinary domain values
  (Fact 1: computes exactly certain answers with nulls for the
  positive fragment, including division);
* ``sql`` — three-valued ``EvalSQL`` (Fact 2: correctness guarantees
  for the positive fragment only).

Evaluation resolves an expression once, then runs it.  Resolving
(:meth:`Evaluator.resolve`) fixes what depends only on the expression
and the attribute names: each node's output attributes, its projection
and key positions, the equi-key split of its semijoin condition and its
conditions bound to row positions; it raises the structural errors
(attribute clashes, arities, unknown attributes).  The resulting
:class:`Plan` is a tree of closures over plain row lists, and
:meth:`Plan.run` evaluates it on any database with the same relation
names and attributes.  The certain-answer oracle resolves a query once
and runs it on every possible world; a subplan that reads only
relations the worlds share runs once.

An optional row budget turns the Section 5 blow-up of the Figure 2
translation into a catchable :class:`EvaluationBudgetExceeded` instead
of an out-of-memory condition.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.algebra import conditions as C
from repro.algebra.expr import (
    AdomPower,
    AntiJoin,
    Difference,
    Division,
    Expr,
    Intersection,
    Join,
    Literal,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    Union,
    UnifAntiJoin,
    UnifSemiJoin,
)
from repro.algebra.threevl import TRUE
from repro.algebra.unify import positionwise_unifiable, unifiable
from repro.data.database import Database
from repro.data.nulls import is_null
from repro.data.relation import Relation, checked_attributes, position_of

__all__ = ["evaluate", "EvaluationBudgetExceeded", "Evaluator", "Plan"]

SEMANTICS = ("naive", "sql")

Row = Tuple[object, ...]
Rows = List[Row]
#: A resolved node's work: the rows it produces on a database.
Run = Callable[[Database], Rows]


class EvaluationBudgetExceeded(RuntimeError):
    """An intermediate result exceeded the configured row budget."""

    def __init__(self, budget: int, at: str):
        super().__init__(
            f"intermediate result exceeded the budget of {budget} rows at {at}"
        )
        self.budget = budget
        self.at = at


class _Node(NamedTuple):
    """A resolved subplan: output attributes, its run, and whether its
    result is the same on every database the plan runs on."""

    attributes: Tuple[str, ...]
    run: Run
    shared: bool


class Plan:
    """An expression resolved by :meth:`Evaluator.resolve`."""

    __slots__ = ("attributes", "_run")

    def __init__(self, attributes: Tuple[str, ...], run: Run):
        self.attributes = attributes
        self._run = run

    def run(self, db: Database) -> Relation:
        """The expression's rows on *db*, as a set (no duplicates)."""
        return Relation._unchecked(self.attributes, list(self._run(db)))


def _once(run: Run) -> Run:
    """*run*, evaluated on its first call and answered from then on."""
    memo: List[Rows] = []

    def shared(db: Database) -> Rows:
        if not memo:
            memo.append(run(db))
        return memo[0]

    return shared


def _key(positions: Sequence[int]) -> Callable[[Row], Row]:
    """Row → the tuple of its values at *positions*."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    if positions:
        return itemgetter(*positions)
    return lambda row: ()


def _disjoint(left: Tuple[str, ...], right: Tuple[str, ...], op: str) -> None:
    overlap = set(left) & set(right)
    if overlap:
        raise ValueError(f"{op} requires disjoint attributes; shared: {sorted(overlap)}")


def _same_arity(left: _Node, right: _Node, op: str) -> None:
    if len(left.attributes) != len(right.attributes):
        raise ValueError(
            f"{op} requires equal arity, got {len(left.attributes)} "
            f"and {len(right.attributes)}"
        )


class Evaluator:
    """Evaluates algebra expressions against one database."""

    def __init__(
        self,
        db: Database,
        semantics: str = "naive",
        max_rows: Optional[int] = None,
    ):
        if semantics not in SEMANTICS:
            raise ValueError(f"semantics must be one of {SEMANTICS}, got {semantics!r}")
        self.db = db
        self.semantics = semantics
        self.max_rows = max_rows
        self._adom: Tuple[Optional[Database], List[object]] = (None, [])
        self._shared_names: AbstractSet[str] = frozenset()
        # Running count of rows materialised, for the Section 5 budget.
        self.rows_produced = 0
        # Semijoins/antijoins whose condition admitted a hash equi-key
        # (instrumentation for the hash-matching fast path).
        self.hash_semijoins = 0

    # ------------------------------------------------------------------
    def adom(self, db: Optional[Database] = None) -> List[object]:
        """``adom(db)`` sorted by ``repr`` (``db`` defaults to this
        evaluator's database), kept while the same database runs."""
        db = self.db if db is None else db
        owner, values = self._adom
        if owner is not db:
            values = sorted(db.active_domain(), key=repr)
            self._adom = (db, values)
        return values

    def _selected(self, cond: C.Condition, row_ctx: Dict[str, object]) -> bool:
        """Whether one row, given by attribute name, is selected."""
        return self._bind(cond, tuple(row_ctx))(tuple(row_ctx.values()))

    def _bind(self, cond: C.Condition, attributes: Sequence[str]) -> Callable[[Row], bool]:
        """*cond* over rows carrying *attributes*, as a selection test."""
        if self.semantics == "naive":
            return C.bind_naive(cond, attributes)
        test = C.bind_3vl(cond, attributes)
        return lambda row: test(row) is TRUE

    # ------------------------------------------------------------------
    def evaluate(self, expr: Expr) -> Relation:
        return self.resolve(expr).run(self.db)

    def resolve(self, expr: Expr, shared: AbstractSet[str] = frozenset()) -> Plan:
        """Resolve *expr* against this evaluator's database.

        *shared* names relations that are the same object on every
        database the plan will run on.  A subplan that reads only those
        (and ``Literal`` s, and no ``AdomPower``) runs on the plan's
        first run and is answered from then on.  Counters accumulate on
        this evaluator over every run.
        """
        self._shared_names = shared
        node = self._resolve(expr)
        run = _once(node.run) if node.shared else node.run
        return Plan(node.attributes, run)

    def _resolve(self, expr: Expr) -> _Node:
        rule = _RULES.get(type(expr))
        if rule is None:
            raise TypeError(f"no evaluation rule for {type(expr).__name__}")
        children = [self._resolve(child) for child in expr.children()]
        if children:
            shared = all(child.shared for child in children)
            if not shared:
                # Keep each shared operand's rows across runs.
                children = [
                    child._replace(run=_once(child.run)) if child.shared else child
                    for child in children
                ]
        else:
            shared = isinstance(expr, Literal) or (
                isinstance(expr, RelationRef) and expr.name in self._shared_names
            )
        attributes, compute = rule(self, expr, *children)
        return _Node(attributes, self._charged(compute, type(expr).__name__), shared)

    def _charged(self, compute: Run, at: str) -> Run:
        """*compute*, adding its row count to the budget."""
        budget = self.max_rows

        def run(db: Database) -> Rows:
            rows = compute(db)
            self.rows_produced += len(rows)
            if budget is not None and self.rows_produced > budget:
                raise EvaluationBudgetExceeded(budget, at)
            return rows

        return run

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def _relation_ref(self, expr: RelationRef):
        name = expr.name
        return self.db[name].attributes, lambda db: list(dict.fromkeys(db[name].rows))

    def _literal(self, expr: Literal):
        relation = expr.relation
        return relation.attributes, lambda db: list(dict.fromkeys(relation.rows))

    def _adom_power(self, expr: AdomPower):
        k = len(expr.attributes)
        budget = self.max_rows

        def compute(db: Database) -> Rows:
            domain = self.adom(db)
            if budget is not None and len(domain) ** k > budget:
                raise EvaluationBudgetExceeded(budget, f"adom^{k}")
            return list(itertools.product(domain, repeat=k))

        return checked_attributes(expr.attributes), compute

    # ------------------------------------------------------------------
    # Unary operators
    # ------------------------------------------------------------------
    def _selection(self, expr: Selection, child: _Node):
        test = self._bind(expr.condition, child.attributes)
        run = child.run
        return child.attributes, lambda db: list(filter(test, run(db)))

    def _projection(self, expr: Projection, child: _Node):
        attributes = checked_attributes(expr.attributes)
        key = _key([position_of(child.attributes, a) for a in attributes])
        run = child.run
        return attributes, lambda db: list(dict.fromkeys(map(key, run(db))))

    def _rename(self, expr: Rename, child: _Node):
        mapping = expr.mapping_dict()
        attributes = checked_attributes(mapping.get(a, a) for a in child.attributes)
        return attributes, child.run

    # ------------------------------------------------------------------
    # Binary operators
    # ------------------------------------------------------------------
    def _product(self, expr: Product, left: _Node, right: _Node):
        _disjoint(left.attributes, right.attributes, "product")
        budget = self.max_rows
        run_left, run_right = left.run, right.run

        def compute(db: Database) -> Rows:
            lrows = run_left(db)
            rrows = run_right(db)
            if budget is not None and len(lrows) * len(rrows) > budget:
                raise EvaluationBudgetExceeded(budget, "Product")
            return [l + r for l in lrows for r in rrows]

        return left.attributes + right.attributes, compute

    def _join(self, expr: Join, left: _Node, right: _Node):
        _disjoint(left.attributes, right.attributes, "join")
        attributes = left.attributes + right.attributes
        test = self._bind(expr.condition, attributes)
        run_left, run_right = left.run, right.run

        def compute(db: Database) -> Rows:
            lrows = run_left(db)
            rrows = run_right(db)
            return list(filter(test, (l + r for l in lrows for r in rrows)))

        return attributes, compute

    def _union(self, expr: Union, left: _Node, right: _Node):
        _same_arity(left, right, "union")
        run_left, run_right = left.run, right.run
        return left.attributes, lambda db: list(
            dict.fromkeys(run_left(db) + run_right(db))
        )

    def _set_filter(self, expr, left: _Node, right: _Node):
        """``Intersection`` and ``Difference``: the left rows in (not
        in) the right rows, matched by position."""
        keep = isinstance(expr, Intersection)
        _same_arity(left, right, "intersection" if keep else "difference")
        run_left, run_right = left.run, right.run

        def compute(db: Database) -> Rows:
            lrows = run_left(db)
            right_set = set(run_right(db))
            return [r for r in lrows if (r in right_set) == keep]

        return left.attributes, compute

    # ------------------------------------------------------------------
    # Semijoins
    # ------------------------------------------------------------------
    def _semijoin(self, expr, left: _Node, right: _Node):
        """``SemiJoin`` and ``AntiJoin``: the left rows with (without) a
        right row satisfying the condition."""
        _disjoint(left.attributes, right.attributes, "semijoin")
        matcher = self._condition_matcher(expr.condition, left.attributes, right.attributes)
        keep = isinstance(expr, SemiJoin)
        run_left, run_right = left.run, right.run

        def compute(db: Database) -> Rows:
            lrows = run_left(db)
            matches = matcher(run_right(db))
            return [l for l in lrows if matches(l) == keep]

        return left.attributes, compute

    def _condition_matcher(
        self,
        condition: C.Condition,
        left_attrs: Tuple[str, ...],
        right_attrs: Tuple[str, ...],
    ) -> Callable[[Rows], Callable[[Row], bool]]:
        """Right rows → a test of whether a left row has a match.

        With a cross-side ``attr = attr`` conjunct the right side is
        hash-partitioned on the equi-key per run.  Sound under both
        semantics: with ``sql`` 3VL, a null on either side of an ``=``
        makes that conjunct UNKNOWN, so null-keyed rows can never
        satisfy the top-level conjunction and are skipped outright;
        with ``naive`` semantics marked nulls compare (and hash) by
        label, so they participate in the table like ordinary values.
        Residual conjuncts are re-checked per bucket candidate.  An
        unhashable value falls back to scanning with the whole
        condition: for the whole right side when building, for one left
        row when probing.
        """
        test = self._bind(condition, left_attrs + right_attrs)

        def scan(rrows: Rows) -> Callable[[Row], bool]:
            return lambda l_row: any(test(l_row + r_row) for r_row in rrows)

        decomposed = _equi_decompose(condition, left_attrs, right_attrs)
        if decomposed is None:
            return scan
        pairs, residual = decomposed
        left_key = _key([position_of(left_attrs, a) for a, _ in pairs])
        right_key = _key([position_of(right_attrs, b) for _, b in pairs])
        skip_nulls = self.semantics == "sql"
        check = None if residual is None else self._bind(residual, left_attrs + right_attrs)

        def matcher(rrows: Rows) -> Callable[[Row], bool]:
            table: Dict[Row, Rows] = {}
            try:
                for r_row in rrows:
                    key = right_key(r_row)
                    if skip_nulls and any(is_null(v) for v in key):
                        continue
                    table.setdefault(key, []).append(r_row)
            except TypeError:  # unhashable domain value: keep the nested loop
                return scan(rrows)
            self.hash_semijoins += 1
            fallback = scan(rrows)

            def matches(l_row: Row) -> bool:
                key = left_key(l_row)
                if skip_nulls and any(is_null(v) for v in key):
                    return False
                try:
                    bucket = table.get(key, ())
                except TypeError:
                    return fallback(l_row)
                if check is None:
                    return bool(bucket)
                return any(check(l_row + r_row) for r_row in bucket)

            return matches

        return matcher

    def _unif_semijoin(self, expr, left: _Node, right: _Node):
        """``UnifSemiJoin`` and ``UnifAntiJoin`` (Definition 4)."""
        keep = isinstance(expr, UnifSemiJoin)
        _same_arity(
            left, right, "unification semijoin" if keep else "unification anti-semijoin"
        )
        test = positionwise_unifiable if expr.codd else unifiable
        run_left, run_right = left.run, right.run

        def compute(db: Database) -> Rows:
            lrows = run_left(db)
            rrows = run_right(db)
            return [l for l in lrows if any(test(l, r) for r in rrows) == keep]

        return left.attributes, compute

    # ------------------------------------------------------------------
    # Division (derived, Fact 1)
    # ------------------------------------------------------------------
    def _division(self, expr: Division, left: _Node, right: _Node):
        missing = [a for a in right.attributes if a not in left.attributes]
        if missing:
            raise ValueError(f"division: attributes {missing} not in dividend")
        keep = tuple(a for a in left.attributes if a not in right.attributes)
        key_x = _key([position_of(left.attributes, a) for a in keep])
        key_y = _key([position_of(left.attributes, a) for a in right.attributes])
        run_left, run_right = left.run, right.run

        def compute(db: Database) -> Rows:
            lrows = run_left(db)
            groups: Dict[Row, set] = {}
            for row in lrows:
                groups.setdefault(key_x(row), set()).add(key_y(row))
            required = set(run_right(db))
            return [x for x, ys in groups.items() if required <= ys]

        return keep, compute


#: Each node type's resolve rule: ``(evaluator, expr, *resolved children)
#: → (output attributes, compute)``.
_RULES: Dict[type, Callable[..., Tuple[Tuple[str, ...], Run]]] = {
    RelationRef: Evaluator._relation_ref,
    Literal: Evaluator._literal,
    AdomPower: Evaluator._adom_power,
    Selection: Evaluator._selection,
    Projection: Evaluator._projection,
    Rename: Evaluator._rename,
    Product: Evaluator._product,
    Join: Evaluator._join,
    Union: Evaluator._union,
    Intersection: Evaluator._set_filter,
    Difference: Evaluator._set_filter,
    SemiJoin: Evaluator._semijoin,
    AntiJoin: Evaluator._semijoin,
    UnifSemiJoin: Evaluator._unif_semijoin,
    UnifAntiJoin: Evaluator._unif_semijoin,
    Division: Evaluator._division,
}


def _equi_decompose(
    cond: C.Condition,
    left_attrs: Tuple[str, ...],
    right_attrs: Tuple[str, ...],
) -> Optional[Tuple[List[Tuple[str, str]], Optional[C.Condition]]]:
    """Split *cond* into cross-side equality pairs plus a residual.

    Returns ``(pairs, residual)`` where each pair is ``(left_attr,
    right_attr)`` drawn from a top-level ``attr = attr`` conjunct linking
    the two sides, and *residual* is the conjunction of everything else
    (``None`` when nothing remains).  Returns ``None`` when no such pair
    exists, i.e. the condition offers no hash key.
    """
    left_set = set(left_attrs)
    right_set = set(right_attrs)
    conjuncts = list(cond.items) if isinstance(cond, C.And) else [cond]
    pairs: List[Tuple[str, str]] = []
    residual: List[C.Condition] = []
    for item in conjuncts:
        if (
            isinstance(item, C.Comparison)
            and item.op == "="
            and isinstance(item.left, C.Attr)
            and isinstance(item.right, C.Attr)
        ):
            a, b = item.left.name, item.right.name
            if a in left_set and b in right_set:
                pairs.append((a, b))
                continue
            if b in left_set and a in right_set:
                pairs.append((b, a))
                continue
        residual.append(item)
    if not pairs:
        return None
    if not residual:
        return pairs, None
    if len(residual) == 1:
        return pairs, residual[0]
    return pairs, C.And(*residual)


def evaluate(
    expr: Expr,
    db: Database,
    semantics: str = "naive",
    max_rows: Optional[int] = None,
) -> Relation:
    """Evaluate *expr* on *db* under the given semantics (set results)."""
    return Evaluator(db, semantics=semantics, max_rows=max_rows).evaluate(expr)
