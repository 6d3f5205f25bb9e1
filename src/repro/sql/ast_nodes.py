"""Query AST nodes.

The AST is deliberately small: conjunctive SPJ queries plus the
union/group-by combination used by personalized-query construction.
Nodes are immutable; query rewriting builds new trees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple, Union


class Operator(enum.Enum):
    """Comparison operators allowed in WHERE conditions."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def evaluate(self, left: object, right: object) -> bool:
        if left is None or right is None:
            return False  # SQL three-valued logic collapsed to "not satisfied"
        if self is Operator.EQ:
            return left == right
        if self is Operator.NE:
            return left != right
        if self is Operator.LT:
            return left < right  # type: ignore[operator]
        if self is Operator.LE:
            return left <= right  # type: ignore[operator]
        if self is Operator.GT:
            return left > right  # type: ignore[operator]
        return left >= right  # type: ignore[operator]


@dataclass(frozen=True)
class ColumnRef:
    """A possibly-qualified column reference, e.g. ``M.title`` or ``title``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return self.name if self.qualifier is None else "%s.%s" % (self.qualifier, self.name)


@dataclass(frozen=True)
class Literal:
    """A constant: string, int, or float."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'%s'" % self.value.replace("'", "''")
        return str(self.value)


Operand = Union[ColumnRef, Literal]


@dataclass(frozen=True)
class Comparison:
    """One conjunct of a WHERE clause: ``left op right``."""

    left: ColumnRef
    op: Operator
    right: Operand

    @property
    def is_join(self) -> bool:
        return isinstance(self.right, ColumnRef)

    @property
    def is_selection(self) -> bool:
        return isinstance(self.right, Literal)

    def __str__(self) -> str:
        return "%s %s %s" % (self.left, self.op.value, self.right)


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause item: relation name plus optional alias."""

    relation: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        """The name columns are qualified with (alias wins)."""
        return self.alias if self.alias is not None else self.relation

    def __str__(self) -> str:
        return self.relation if self.alias is None else "%s %s" % (self.relation, self.alias)


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: a projected column and a direction."""

    column: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return "%s desc" % self.column if self.descending else str(self.column)


@dataclass(frozen=True)
class SelectQuery:
    """Conjunctive SELECT-PROJECT-JOIN query.

    ``select`` lists projected columns (empty means ``*``). ``where`` is a
    conjunction of :class:`Comparison`. ``order_by``/``limit`` support
    the top-k style queries CQP is contrasted with in related work; both
    default to absent.
    """

    select: Tuple[ColumnRef, ...]
    from_tables: Tuple[TableRef, ...]
    where: Tuple[Comparison, ...] = ()
    distinct: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.from_tables:
            raise ValueError("a query needs at least one FROM table")
        if self.limit is not None and self.limit < 0:
            raise ValueError("LIMIT must be non-negative, got %r" % (self.limit,))

    @cached_property
    def sql(self) -> str:
        """The query's SQL text, rendered once: the node is immutable,
        and the service groups requests and keys its extraction memo on
        this text."""
        from repro.sql.printer import _select_to_sql

        return _select_to_sql(self)

    @property
    def relation_names(self) -> List[str]:
        return [t.relation for t in self.from_tables]

    def binding(self, qualifier: str) -> Optional[TableRef]:
        for table in self.from_tables:
            if table.binding_name == qualifier:
                return table
        return None

    def with_extra(
        self,
        tables: Tuple[TableRef, ...] = (),
        conditions: Tuple[Comparison, ...] = (),
    ) -> "SelectQuery":
        """A copy with additional FROM tables / WHERE conjuncts appended."""
        return SelectQuery(
            select=self.select,
            from_tables=self.from_tables + tables,
            where=self.where + conditions,
            distinct=self.distinct,
            order_by=self.order_by,
            limit=self.limit,
        )

    @property
    def selections(self) -> List[Comparison]:
        return [c for c in self.where if c.is_selection]

    @property
    def joins(self) -> List[Comparison]:
        return [c for c in self.where if c.is_join]


@dataclass(frozen=True)
class UnionAllQuery:
    """``q1 UNION ALL q2 UNION ALL ...`` over union-compatible SPJ queries."""

    subqueries: Tuple[SelectQuery, ...]

    def __post_init__(self) -> None:
        if not self.subqueries:
            raise ValueError("UNION ALL needs at least one sub-query")
        arities = {len(q.select) for q in self.subqueries}
        if len(arities) != 1:
            raise ValueError("UNION ALL sub-queries must project the same arity")


@dataclass(frozen=True)
class GroupByHavingCount:
    """The paper's outer personalization wrapper:

    ``SELECT cols FROM (<union>) GROUP BY cols HAVING COUNT(*) = L``

    Returns one copy of each tuple produced by exactly ``count_equals``
    sub-queries — i.e. the tuples satisfying *all* integrated
    preferences. With ``at_least=True`` the predicate becomes
    ``COUNT(*) >= L`` — the relaxed m-of-L matching used by ranked
    personalization (tuples satisfying at least ``m`` preferences).
    """

    source: UnionAllQuery
    group_by: Tuple[str, ...] = field(default=())
    count_equals: int = 1
    at_least: bool = False

    def __post_init__(self) -> None:
        if self.count_equals < 1:
            raise ValueError("HAVING COUNT(*) = L needs L >= 1")
        if self.count_equals > len(self.source.subqueries):
            raise ValueError(
                "HAVING COUNT(*) = %d cannot be met by %d sub-queries"
                % (self.count_equals, len(self.source.subqueries))
            )


QueryNode = Union[SelectQuery, UnionAllQuery, GroupByHavingCount]
