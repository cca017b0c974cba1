"""Relations: named-attribute tables over ``Const ∪ Null``.

A :class:`Relation` stores tuples positionally and exposes attribute
names for condition evaluation.  The paper works under set semantics
(relational algebra); the engine layer keeps bags and deduplicates where
set semantics is required.  Here deduplication is explicit via
:meth:`Relation.distinct`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.data.nulls import is_null

__all__ = ["Relation"]

Row = Tuple[object, ...]


def position_of(attributes: Sequence[str], attribute: str) -> int:
    """The position of *attribute* among *attributes*, or ``KeyError``."""
    try:
        return list(attributes).index(attribute)
    except ValueError:
        raise KeyError(
            f"no attribute {attribute!r} in relation with {tuple(attributes)}"
        ) from None


def checked_attributes(attributes: Iterable[str]) -> Tuple[str, ...]:
    """*attributes* as a tuple, or ``ValueError`` if a name repeats."""
    names = tuple(attributes)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate attribute names: {names}")
    return names


class Relation:
    """An ordered collection of equal-width tuples with named columns."""

    __slots__ = ("attributes", "rows", "indexes")

    def __init__(self, attributes: Sequence[str], rows: Iterable[Sequence[object]] = ()):
        self.attributes: Tuple[str, ...] = checked_attributes(attributes)
        self.rows: List[Row] = []
        #: What is derived from ``rows`` alone, kept until :meth:`add` or
        #: :meth:`extend` changes them (rows change no other way): the
        #: indexes of :meth:`hash_index` under the attribute name; the
        #: engine's filtered rows with their statistics under a source
        #: key (a frozenset of filter shapes, empty for the whole table),
        #: and its equi-join and probe indexes under ``(source key, key
        #: columns, null slots)``.
        self.indexes: Dict[object, object] = {}
        width = len(self.attributes)
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} does not match arity {width}: {row!r}"
                )
            self.rows.append(row)

    @classmethod
    def _unchecked(cls, attributes: Tuple[str, ...], rows: List[Row]) -> "Relation":
        """Wrap *rows* as is.  For rows that are already tuples of the
        width of *attributes*, under names that are already distinct;
        the checks in ``__init__`` dominate building small relations."""
        relation = cls.__new__(cls)
        relation.attributes = attributes
        relation.rows = rows
        relation.indexes = {}
        return relation

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in set(self.rows)

    def __eq__(self, other: object) -> bool:
        """Set-semantics equality: same attributes, same set of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self.attributes == other.attributes and set(self.rows) == set(other.rows)

    def __repr__(self) -> str:
        head = ", ".join(self.attributes)
        return f"Relation({head}; {len(self.rows)} rows)"

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def index_of(self, attribute: str) -> int:
        return position_of(self.attributes, attribute)

    def column(self, attribute: str) -> List[object]:
        i = self.index_of(attribute)
        return [row[i] for row in self.rows]

    def row_dicts(self) -> Iterator[Dict[str, object]]:
        for row in self.rows:
            yield dict(zip(self.attributes, row))

    # ------------------------------------------------------------------
    # Mutation (used by data generators; algebra never mutates)
    # ------------------------------------------------------------------
    def add(self, row: Sequence[object]) -> None:
        row = tuple(row)
        if len(row) != self.arity:
            raise ValueError(f"row width {len(row)} != arity {self.arity}")
        self.rows.append(row)
        self.indexes.clear()

    def extend(self, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.add(row)

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------
    def distinct(self) -> "Relation":
        """Set-semantics copy (stable order, duplicates removed)."""
        return Relation._unchecked(self.attributes, list(dict.fromkeys(self.rows)))

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        attrs = tuple(mapping.get(a, a) for a in self.attributes)
        return Relation(attrs, self.rows)

    def prefixed(self, prefix: str) -> "Relation":
        """Qualify every attribute as ``prefix.attr`` (FROM-alias style)."""
        return Relation(tuple(f"{prefix}.{a}" for a in self.attributes), self.rows)

    # ------------------------------------------------------------------
    # Incompleteness helpers
    # ------------------------------------------------------------------
    def nulls(self) -> set:
        """The set of distinct nulls occurring in this relation."""
        found = set()
        for row in self.rows:
            for value in row:
                if is_null(value):
                    found.add(value)
        return found

    def constants(self) -> set:
        found = set()
        for row in self.rows:
            for value in row:
                if not is_null(value):
                    found.add(value)
        return found

    def is_complete(self) -> bool:
        return not self.nulls()

    # ------------------------------------------------------------------
    # Hash index over one column; only repro.fp.detectors calls it.
    # ------------------------------------------------------------------
    def hash_index(self, attribute: str) -> Dict[object, List[Row]]:
        """Rows grouped by the value of *attribute* (nulls under ``Null``)."""
        index = self.indexes.get(attribute)
        if index is None:
            i = self.index_of(attribute)
            built: Dict[object, List[Row]] = {}
            for row in self.rows:
                built.setdefault(row[i], []).append(row)
            index = self.indexes[attribute] = built
        return index  # type: ignore[return-value]

    def pretty(self, limit: int = 20) -> str:
        """Small ASCII rendering for examples and docs."""
        header = " | ".join(self.attributes)
        sep = "-" * len(header)
        body = [
            " | ".join("NULL" if is_null(v) else str(v) for v in row)
            for row in self.rows[:limit]
        ]
        if len(self.rows) > limit:
            body.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join([header, sep, *body])
