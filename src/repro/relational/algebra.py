"""Relational-algebra operators over :class:`Relation`.

Natural join is a hash join on the shared attributes; semijoin reuses
its bucketing.  All operators return new relations (set semantics), and
all are linear-ish in input + output — the properties Yannakakis'
polynomial-total-time guarantee needs.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

from ..errors import SchemaError
from .relation import Relation, Row

__all__ = [
    "natural_join",
    "project",
    "union",
    "select",
    "semijoin",
    "difference",
    "rename",
]

Value = Hashable


def _shared_key(schema: tuple[str, ...], shared: tuple[str, ...]) -> Callable[[Row], tuple]:
    indices = [schema.index(a) for a in shared]
    return lambda row: tuple(row[i] for i in indices)


def natural_join(left: Relation, right: Relation) -> Relation:
    """Hash natural join on the shared attributes.

    Disjoint schemas degrade to a Cartesian product, as in the spanner
    algebra's join of variable-disjoint spanners.
    """
    shared = tuple(a for a in left.schema if a in right.schema)
    out_schema = left.schema + tuple(
        a for a in right.schema if a not in left.schema
    )
    right_extra = [
        right.schema.index(a) for a in right.schema if a not in left.schema
    ]
    left_key = _shared_key(left.schema, shared)
    right_key = _shared_key(right.schema, shared)
    buckets: dict[tuple, list[Row]] = {}
    for row in right.rows:
        buckets.setdefault(right_key(row), []).append(row)
    out_rows = []
    for row in left.rows:
        for other in buckets.get(left_key(row), ()):
            out_rows.append(row + tuple(other[i] for i in right_extra))
    return Relation(out_schema, out_rows)


def semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right``: left rows with a join partner in right."""
    shared = tuple(a for a in left.schema if a in right.schema)
    if not shared:
        return left if right.rows else Relation(left.schema)
    right_key = _shared_key(right.schema, shared)
    keys = {right_key(row) for row in right.rows}
    left_key = _shared_key(left.schema, shared)
    return Relation(
        left.schema, (row for row in left.rows if left_key(row) in keys)
    )


def project(relation: Relation, attributes: Iterable[str]) -> Relation:
    """Projection with duplicate elimination (set semantics)."""
    attrs = tuple(attributes)
    missing = set(attrs) - set(relation.schema)
    if missing:
        raise SchemaError(f"cannot project onto unknown attributes {sorted(missing)}")
    indices = [relation.schema.index(a) for a in attrs]
    return Relation(attrs, (tuple(row[i] for i in indices) for row in relation.rows))


def union(left: Relation, right: Relation) -> Relation:
    """Union; aligns column order when the attribute sets match."""
    if set(left.schema) != set(right.schema):
        raise SchemaError(
            f"union over different schemas: {left.schema} vs {right.schema}"
        )
    if left.schema == right.schema:
        return Relation(left.schema, left.rows | right.rows)
    perm = [right.schema.index(a) for a in left.schema]
    reordered = {tuple(row[i] for i in perm) for row in right.rows}
    return Relation(left.schema, left.rows | reordered)


def difference(left: Relation, right: Relation) -> Relation:
    if set(left.schema) != set(right.schema):
        raise SchemaError("difference over different schemas")
    if left.schema == right.schema:
        return Relation(left.schema, left.rows - right.rows)
    perm = [right.schema.index(a) for a in left.schema]
    reordered = {tuple(row[i] for i in perm) for row in right.rows}
    return Relation(left.schema, left.rows - reordered)


def select(
    relation: Relation, predicate: Callable[[Mapping[str, Value]], bool]
) -> Relation:
    """Row filter; the predicate sees an attribute dictionary."""
    return Relation(
        relation.schema,
        (
            row
            for row in relation.rows
            if predicate(dict(zip(relation.schema, row)))
        ),
    )


def rename(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """Rename attributes per ``mapping`` (identity elsewhere)."""
    new_schema = tuple(mapping.get(a, a) for a in relation.schema)
    return Relation(new_schema, relation.rows)
