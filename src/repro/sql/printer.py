"""Render AST nodes back to SQL text.

The printer emits the exact personalized-query shape shown in
Section 4.2 of the paper: sub-queries combined with ``UNION ALL`` inside
a derived table, grouped with ``HAVING COUNT(*) = L``.
"""

from __future__ import annotations

from repro.sql.ast_nodes import (
    GroupByHavingCount,
    QueryNode,
    SelectQuery,
    UnionAllQuery,
)


def _select_to_sql(query: SelectQuery) -> str:
    columns = ", ".join(str(c) for c in query.select) if query.select else "*"
    head = "select distinct" if query.distinct else "select"
    parts = [
        "%s %s" % (head, columns),
        "from %s" % ", ".join(str(t) for t in query.from_tables),
    ]
    if query.where:
        parts.append("where %s" % " and ".join(str(c) for c in query.where))
    if query.order_by:
        parts.append("order by %s" % ", ".join(str(item) for item in query.order_by))
    if query.limit is not None:
        parts.append("limit %d" % query.limit)
    return " ".join(parts)


def _union_to_sql(query: UnionAllQuery) -> str:
    return " union all ".join(_select_to_sql(q) for q in query.subqueries)


def _group_to_sql(query: GroupByHavingCount) -> str:
    columns = ", ".join(query.group_by) if query.group_by else "*"
    comparator = ">=" if query.at_least else "="
    return (
        "select %s from (%s) group by %s having count(*) %s %d"
        % (columns, _union_to_sql(query.source), columns, comparator, query.count_equals)
    )


def to_sql(query: QueryNode) -> str:
    """SQL text for any query node.

    >>> from repro.sql.parser import parse_select
    >>> to_sql(parse_select("select title from MOVIE"))
    'select title from MOVIE'
    """
    if isinstance(query, SelectQuery):
        return query.sql
    if isinstance(query, UnionAllQuery):
        return _union_to_sql(query)
    if isinstance(query, GroupByHavingCount):
        return _group_to_sql(query)
    raise TypeError("cannot print %r" % (query,))
