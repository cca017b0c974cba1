"""Name resolution and output naming for SQL blocks.

One scoping rule serves the engine, the rewriter and the algebra
translator.  A :class:`BlockScope` holds the ``FROM`` bindings of one
``SELECT`` block and a link to the enclosing block.  A qualified name
checks its binding; an unqualified name finds the one binding that has
the column; failing both, the enclosing block is tried.  Each caller
builds its scopes with its own error factory, so a failure raises the
caller's exception type with the same text.

:func:`output_columns` is the one rule that names a block's output
columns: what the engine's result carries and what a ``WITH`` view
exposes to the rest of the query.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.sql import ast

__all__ = ["BlockScope", "Resolution", "output_columns"]

#: ``error(message, node)`` builds the caller's exception; *node* is the
#: AST node at fault (a ``ColumnRef`` or ``TableRef``).
ErrorFactory = Callable[[str, object], Exception]


class Resolution(NamedTuple):
    """Where a column reference landed: the scope that binds it, the
    binding, the column and how many blocks out it is (0 = this one)."""

    scope: "BlockScope"
    binding: str
    column: str
    depth: int

    @property
    def key(self) -> Tuple[str, str]:
        return (self.binding, self.column)


class BlockScope:
    """The ``FROM`` bindings of one ``SELECT`` block, chained to the
    enclosing block.

    ``columns_of(table)`` gives a table's column names, or ``None`` when
    there is no such table; it is called once per binding.  ``error``
    builds the exception every failure raises.  ``tables``
    maps each binding to its table name, ``columns`` to its columns, both
    in ``FROM`` order.
    """

    def __init__(
        self,
        tables: Sequence[ast.TableRef],
        columns_of: Callable[[str], Optional[Tuple[str, ...]]],
        error: ErrorFactory,
        parent: Optional["BlockScope"] = None,
    ):
        self.parent = parent
        self.error = error
        self.tables: Dict[str, str] = {}
        self.columns: Dict[str, Tuple[str, ...]] = {}
        for ref in tables:
            binding = ref.binding
            if binding in self.tables:
                raise error(f"duplicate table binding {binding!r}", ref)
            columns = columns_of(ref.name)
            if columns is None:
                raise error(f"unknown table {ref.name!r}", ref)
            self.tables[binding] = ref.name
            self.columns[binding] = columns

    def resolve(self, column: ast.ColumnRef) -> Resolution:
        name, qualifier = column.name, column.qualifier
        scope: Optional[BlockScope] = self
        depth = 0
        while scope is not None:
            if qualifier is not None:
                columns = scope.columns.get(qualifier)
                if columns is not None:
                    if name not in columns:
                        raise self.error(
                            f"no column {name!r} in table {scope.tables[qualifier]!r} "
                            f"(binding {qualifier!r})",
                            column,
                        )
                    return Resolution(scope, qualifier, name, depth)
            else:
                owner = None
                for binding, columns in scope.columns.items():
                    if name in columns:
                        if owner is not None:
                            raise self.error(f"ambiguous column {name!r}", column)
                        owner = binding
                if owner is not None:
                    return Resolution(scope, owner, name, depth)
            scope = scope.parent
            depth += 1
        raise self.error(f"cannot resolve column {column.display!r}", column)


def output_columns(
    select: ast.Select, scope: BlockScope
) -> List[Tuple[str, ast.SqlExpr]]:
    """``(name, expression)`` for each output column of *select*.

    ``*`` expands to each binding's columns in ``FROM`` order, as
    qualified references.  Otherwise a column is named by its alias, else
    its bare column name, else ``column{i}`` by 1-based position.  The
    first use of a name keeps it; a repeat becomes ``name_1``,
    ``name_2``, …, skipping any name the list writes or already took.
    Naming needs no resolution: callers resolve the plain column
    references themselves, each with its own error handling.
    """
    named: List[Tuple[str, ast.SqlExpr]] = []
    for col in select.columns:
        if isinstance(col, ast.Star):
            for binding, columns in scope.columns.items():
                named.extend(
                    (name, ast.ColumnRef(name, binding)) for name in columns
                )
        elif col.alias:
            named.append((col.alias, col.expr))
        elif isinstance(col.expr, ast.ColumnRef):
            named.append((col.expr.name, col.expr))
        else:
            named.append((f"column{len(named) + 1}", col.expr))
    reserved = {name for name, _expr in named}
    used: Set[str] = set()
    unique: List[Tuple[str, ast.SqlExpr]] = []
    for name, expr in named:
        if name in used:
            k = 1
            while f"{name}_{k}" in reserved:
                k += 1
            name = f"{name}_{k}"
            reserved.add(name)
        used.add(name)
        unique.append((name, expr))
    return unique
