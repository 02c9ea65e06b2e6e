"""Set-semantics relations over arbitrary hashable values.

The canonical strategy stores span relations here (values are
:class:`~repro.spans.Span` objects), but the engine is value-agnostic —
the reductions' cross-checks also use it with plain strings.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

from ..errors import SchemaError
from ..spans import SpanRelation, SpanTuple

__all__ = ["Relation"]

Value = Hashable
Row = tuple[Value, ...]


class Relation:
    """An immutable named relation: ordered schema + set of rows.

    Attributes:
        schema: attribute names, in column order.
        rows: a frozenset of value tuples aligned with ``schema``.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Iterable[str], rows: Iterable[Row] = ()):
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(f"duplicate attributes in schema {self.schema}")
        frozen = frozenset(tuple(row) for row in rows)
        for row in frozen:
            if len(row) != len(self.schema):
                raise SchemaError(
                    f"row of width {len(row)} does not fit schema "
                    f"{self.schema}"
                )
        self.rows: frozenset[Row] = frozen

    # -- Constructors -----------------------------------------------------
    @classmethod
    def from_mappings(
        cls, schema: Iterable[str], mappings: Iterable[Mapping[str, Value]]
    ) -> "Relation":
        schema_t = tuple(schema)
        return cls(schema_t, (tuple(m[a] for a in schema_t) for m in mappings))

    @classmethod
    def from_span_relation(cls, relation: SpanRelation) -> "Relation":
        schema = tuple(sorted(relation.variables))
        return cls(schema, (tuple(t[v] for v in schema) for t in relation))

    def to_span_relation(self) -> SpanRelation:
        return SpanRelation(
            self.schema,
            (SpanTuple(dict(zip(self.schema, row))) for row in self.rows),
        )

    # -- Container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema == other.schema:
            return self.rows == other.rows
        if set(self.schema) != set(other.schema):
            return False
        # Same attributes, different column order: compare reordered.
        perm = [other.schema.index(a) for a in self.schema]
        return self.rows == {tuple(row[i] for i in perm) for row in other.rows}

    def __hash__(self) -> int:
        return hash((frozenset(self.schema), len(self.rows)))

    # -- Row access ------------------------------------------------------------
    def mappings(self) -> Iterator[dict[str, Value]]:
        """Rows as attribute dictionaries."""
        for row in self.rows:
            yield dict(zip(self.schema, row))

    def column(self, attribute: str) -> set[Value]:
        idx = self.schema.index(attribute)
        return {row[idx] for row in self.rows}

    def __repr__(self) -> str:
        return f"Relation({self.schema}, {len(self.rows)} rows)"
