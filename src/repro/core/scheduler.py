"""Pruning-power scheduling (paper §2.3, insight 1).

"For a query with multiple event patterns, we prioritize the search of
event patterns with higher pruning power, maximizing the reduction of
irrelevant events as early as possible."

Pruning power is scored, not measured: the engine keys each pattern by
(lowered predicates, descending; row bound from the store's event counts,
ascending), so no Spark job runs before the query's own. The scheduler
emits a left-deep join order: start from the pattern with the smallest
key, then always fold in the smallest-keyed pattern that is *connected*
to the already-placed set (shares an entity variable or a temporal
constraint), falling back to the global minimum only when the constraint
graph is disconnected — this both front-loads pruning and avoids
accidental cross joins.
"""
from __future__ import annotations

from typing import Any


def build_adjacency(aliases: list[str],
                    pairs: list[tuple[str, str]]) -> dict[str, set[str]]:
    """Constraint graph over event aliases: an edge for each pair of
    patterns a condition relates (``expr.link_sql``: a shared variable or
    a temporal constraint)."""
    adj: dict[str, set[str]] = {a: set() for a in aliases}
    for a1, a2 in pairs:
        adj[a1].add(a2)
        adj[a2].add(a1)
    return adj


def order_patterns(
    keys: dict[str, Any], adjacency: dict[str, set[str]]
) -> list[str]:
    """Left-deep join order by ascending key (smaller = more pruning),
    preferring patterns connected to the placed set. Deterministic: ties
    break on alias name."""
    if not keys:
        return []
    remaining = dict(keys)
    key = lambda a: (remaining[a], a)  # noqa: E731
    order = [min(remaining, key=key)]
    del remaining[order[0]]
    while remaining:
        connected = [
            a for a in remaining
            if any(a in adjacency.get(p, ()) for p in order)
        ]
        nxt = min(connected or remaining, key=key)
        order.append(nxt)
        del remaining[nxt]
    return order
