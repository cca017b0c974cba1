"""The key rule ``R ▷⇑ S → R − S`` and its side conditions."""

import pytest

from repro.algebra import (
    Difference,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Union,
    UnifAntiJoin,
    eq,
    evaluate,
)
from repro.data import Database, Null, Relation
from repro.data.schema import DatabaseSchema, make_schema
from repro.translate.simplify import key_antijoin_to_difference

R = RelationRef("R")
S = RelationRef("S")


@pytest.fixture
def keyed_schema():
    schema = DatabaseSchema()
    schema.add(make_schema("R", [("A", "int"), ("B", "int")], key=["A"]))
    schema.add(make_schema("NoKey", [("A", "int"), ("B", "int")]))
    return schema


class TestKeyRule:
    def test_applies_to_selection_subset(self, keyed_schema):
        expr = UnifAntiJoin(R, Selection(R, eq("A", 1)))
        out = key_antijoin_to_difference(expr, keyed_schema)
        assert isinstance(out, Difference)

    def test_applies_to_projection_of_join(self, keyed_schema):
        # π_{A,B}(σθ(S' × R)) ⊆ R — the Q3 pattern.
        inner = Projection(
            Selection(Product(Rename(S, {"A": "X", "B": "Y"}), R), eq("X", "A")),
            ("A", "B"),
        )
        expr = UnifAntiJoin(R, inner)
        out = key_antijoin_to_difference(expr, keyed_schema)
        assert isinstance(out, Difference)

    def test_requires_key(self, keyed_schema):
        expr = UnifAntiJoin(
            RelationRef("NoKey"), Selection(RelationRef("NoKey"), eq("A", 1))
        )
        assert key_antijoin_to_difference(expr, keyed_schema) is None

    def test_requires_containment(self, keyed_schema):
        expr = UnifAntiJoin(R, Rename(S, {}))
        assert key_antijoin_to_difference(expr, keyed_schema) is None

    def test_projection_onto_other_attributes_not_contained(self, keyed_schema):
        inner = Projection(Product(R, Rename(S, {"A": "X", "B": "Y"})), ("X", "Y"))
        expr = UnifAntiJoin(R, inner)
        assert key_antijoin_to_difference(expr, keyed_schema) is None

    def test_union_requires_both_sides(self, keyed_schema):
        contained = Selection(R, eq("A", 1))
        foreign = Rename(S, {})
        assert (
            key_antijoin_to_difference(UnifAntiJoin(R, Union(contained, foreign)), keyed_schema)
            is None
        )
        out = key_antijoin_to_difference(
            UnifAntiJoin(R, Union(contained, Selection(R, eq("A", 2)))), keyed_schema
        )
        assert isinstance(out, Difference)

    def test_semantics_preserved(self, keyed_schema):
        """R ▷⇑ S = R − S under the key rule's side conditions."""
        n = Null()
        db = Database(
            {
                "R": Relation(("A", "B"), [(1, 2), (2, n), (3, 4)]),
                "S": Relation(("A", "B"), []),
            }
        )
        subset = Selection(R, eq("A", 1))
        anti = UnifAntiJoin(R, subset)
        diff = key_antijoin_to_difference(anti, keyed_schema)
        assert evaluate(anti, db) == evaluate(diff, db)
