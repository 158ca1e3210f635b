"""Dependency-query compilation (paper §2.3).

"For a dependency query, the parser compiles it to a semantically
equivalent multievent query for execution." — a ``forward`` query lists an
event path in causal order (left event occurs earlier, §2.2.2), a
``backward`` query lists it in reverse. Compilation adds the implied
temporal constraints between consecutive events; the chaining constraints
themselves are already expressed by shared entity variables, which the
analyzer turns into uid joins.
"""
from __future__ import annotations

from dataclasses import replace

from repro.core.ast import Query, TemporalConstraint
from repro.core.analyzer import AIQLSemanticError, Analysis, analyze
from repro.core.parser import parse


def _vars_of(ev) -> set[str]:
    return {ev.subject.var, ev.object.var}


def to_multievent(q: Query) -> Query:
    """Compile a forward/backward dependency query to a multievent query.

    Multievent/anomaly queries pass through unchanged. Consecutive events in
    the path must share an entity variable — otherwise the "path" has a gap
    and the query is rejected (a silent cross join would not be a dependency
    track).
    """
    if q.mode not in ("forward", "backward"):
        return q
    if len(q.events) < 2:
        raise AIQLSemanticError("a dependency query needs at least two events")
    for e1, e2 in zip(q.events, q.events[1:]):
        # "The operation connect indicates that the tracking is across
        # different hosts" (paper §2.2.2) — a connect hop may bridge two
        # hosts whose entities cannot share a variable.
        if e1.op == "connect" or e2.op == "connect":
            continue
        if not (_vars_of(e1) & _vars_of(e2)):
            raise AIQLSemanticError(
                f"dependency path breaks between {e1.alias!r} and {e2.alias!r}: "
                "consecutive events must share an entity variable"
            )
    implied = [
        TemporalConstraint(e1.alias, "before", e2.alias)
        if q.mode == "forward"
        else TemporalConstraint(e2.alias, "before", e1.alias)
        for e1, e2 in zip(q.events, q.events[1:])
    ]
    out = replace(q)  # shallow copy; Query is a mutable dataclass
    out.mode = "multievent"
    out.temporal = list(q.temporal) + implied
    return out


def analyze_text(text: str) -> Analysis:
    """The whole front end: parse → dependency compilation → analysis."""
    return analyze(to_multievent(parse(text)))
