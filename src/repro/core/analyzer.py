"""Semantic analysis for parsed AIQL queries.

Binds entity variables to their (event, subject/object) occurrences, derives
the implicit attribute relationships from shared variables (paper §2.2.1 —
"Lines 4-5 specify the same f1 in both events"), validates operations against
the data model, and lowers every bracket/global filter to predicates over the
physical event-table columns. The result (:class:`Analysis`) is the single
source of truth consumed by both the Spark compiler (``compiler.py``) and the
equivalent-SQL synthesizer (``sqlgen.py``), which keeps the two provably
aligned for the correctness oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ast import (
    AttrRef,
    BinOp,
    Comparison,
    EventPattern,
    FuncCall,
    HistRef,
    Literal,
    Query,
    UnaryOp,
)
from repro.monitor.schema import etype_for

#: Default attribute per entity kind (the paper's return shortcuts:
#: ``p1 → p1.exe_name, f1 → f1.name, i1 → i1.dst_ip``).
DEFAULT_ATTR = {"proc": "exe_name", "file": "name", "ip": "dst_ip"}

#: Spelling normalization for attribute names as written in queries.
_ATTR_NORM = {
    "dstip": "dst_ip", "dstport": "dst_port",
    "srcip": "src_ip", "srcport": "src_port",
    "path": "name", "exe": "exe_name",
}

#: (entity kind, role) → {attribute: physical column}.
_ENTITY_COLS = {
    ("proc", "subject"): {"exe_name": "s_name", "name": "s_name",
                          "pid": "s_pid", "uid": "s_uid"},
    ("proc", "object"): {"exe_name": "o_name", "name": "o_name", "uid": "o_uid"},
    ("file", "object"): {"name": "o_name", "uid": "o_uid"},
    ("ip", "object"): {"dst_ip": "o_ip", "dst_port": "o_port",
                       "src_ip": "o_srcip", "src_port": "o_srcport",
                       "uid": "o_uid"},
}

#: Event-level attributes reachable as ``<alias>.<attr>`` or in filters.
EVENT_ATTRS = {"amount": "amount", "ts": "ts", "op": "op",
               "agentid": "agentid", "eid": "eid"}

AGG_FUNCS = ("avg", "sum", "count", "min", "max")


class AIQLSemanticError(ValueError):
    """Query is syntactically valid but semantically ill-formed."""


# ------------------------------------------------------------- predicates
@dataclass(frozen=True)
class Pred:
    """One predicate over a physical event-table column.

    ``op`` is a comparison operator, or ``like`` / ``not like`` (produced
    when a string filter contains ``%``).
    """
    col: str
    op: str
    value: object


@dataclass(frozen=True)
class OrGroup:
    """Disjunction of predicates — several bare default-attribute filters
    in one bracket (``["%a.exe", "%b.exe"]``) match any of the values."""
    preds: tuple  # tuple[Pred, ...]


@dataclass(frozen=True)
class Occurrence:
    """One appearance of an entity variable inside an event pattern."""
    alias: str
    role: str  # 'subject' | 'object'

    @property
    def uid_col(self) -> str:
        return "s_uid" if self.role == "subject" else "o_uid"


@dataclass
class Analysis:
    """Bound and validated query, lowered to physical columns."""
    query: Query
    etypes: dict = field(default_factory=dict)       # var -> entity kind
    occ: dict = field(default_factory=dict)          # var -> [Occurrence]
    event_etype: dict = field(default_factory=dict)  # alias -> event type
    pattern_preds: dict = field(default_factory=dict)  # alias -> [Pred|OrGroup]
    join_conds: list = field(default_factory=list)   # [(alias1,col1,alias2,col2)]
    return_names: list = field(default_factory=list)  # output column names
    agg_aliases: dict = field(default_factory=dict)  # out name -> FuncCall
    hist_ks: list = field(default_factory=list)      # sorted history depths

    # -- resolution helpers (used by compiler and sqlgen) -------------
    def entity_col(self, var: str, attr: str, occurrence: Occurrence | None = None):
        """→ (event alias, physical column) for ``var.attr``.

        Defaults to the variable's first occurrence — any occurrence is
        equivalent because shared variables are joined on entity uid.
        """
        o = occurrence or self.occ[var][0]
        kind = self.etypes[var]
        attr = _ATTR_NORM.get(attr, attr)
        cols = _ENTITY_COLS[(kind, o.role)]
        if attr not in cols:
            raise AIQLSemanticError(
                f"attribute {attr!r} is not defined for {kind} {var!r} "
                f"as {o.role} (have {sorted(cols)})"
            )
        return o.alias, cols[attr]

    def resolve_ref(self, ref: AttrRef):
        """Resolve a return/group-by reference to (alias, column, out_name)."""
        if ref.var is None:
            if ref.attr not in self.etypes:
                raise AIQLSemanticError(f"unknown variable {ref.attr!r}")
            var, attr = ref.attr, DEFAULT_ATTR[self.etypes[ref.attr]]
            a, c = self.entity_col(var, attr)
            return a, c, var
        if ref.var in self.event_etype:  # event attribute: evt.amount
            attr = ref.attr
            if attr not in EVENT_ATTRS:
                raise AIQLSemanticError(f"unknown event attribute {ref.attr!r}")
            return ref.var, EVENT_ATTRS[attr], f"{ref.var}_{attr}"
        if ref.var in self.etypes:
            a, c = self.entity_col(ref.var, ref.attr)
            return a, c, f"{ref.var}_{_ATTR_NORM.get(ref.attr, ref.attr)}"
        raise AIQLSemanticError(f"unknown variable {ref.var!r}")


def _lower_entity_filters(ana: Analysis, ev: EventPattern, ent, role: str) -> list:
    """Bracket filters of one entity occurrence → physical predicates."""
    occ = Occurrence(ev.alias, role)
    out: list = []
    default_group: list[Pred] = []
    for f in ent.filters:
        if f.attr is None:
            attr = DEFAULT_ATTR[ent.etype]
        else:
            attr = _ATTR_NORM.get(f.attr, f.attr)
        if attr in EVENT_ATTRS:  # e.g. [agentid=2] inside a bracket
            col = EVENT_ATTRS[attr]
        else:
            _, col = ana.entity_col(ent.var, attr, occ)
        v = f.value.value
        op = f.op
        if isinstance(v, str) and "%" in v:
            if op == "=":
                op = "like"
            elif op == "!=":
                op = "not like"
            else:
                raise AIQLSemanticError(
                    f"wildcard string only valid with = or != (got {op!r})"
                )
        p = Pred(col, op, v)
        (default_group if f.attr is None else out).append(p)
    if len(default_group) == 1:
        out.insert(0, default_group[0])
    elif default_group:
        out.insert(0, OrGroup(tuple(default_group)))
    return out


def _walk_having(e, ana: Analysis, ks: set) -> None:
    if isinstance(e, HistRef):
        if e.name not in ana.agg_aliases:
            raise AIQLSemanticError(
                f"history access {e.name}[{e.k}] must index an aggregate alias"
            )
        ks.add(e.k)
    elif isinstance(e, AttrRef):
        if e.var is None:
            if e.attr not in ana.agg_aliases and e.attr not in ana.return_names:
                raise AIQLSemanticError(f"unknown name {e.attr!r} in having")
        else:
            raise AIQLSemanticError(
                "having may only reference aggregate aliases "
                f"(got {e.var}.{e.attr})"
            )
    elif isinstance(e, BinOp):
        _walk_having(e.left, ana, ks)
        _walk_having(e.right, ana, ks)
    elif isinstance(e, UnaryOp):
        _walk_having(e.operand, ana, ks)
    elif isinstance(e, (Literal, FuncCall)):
        if isinstance(e, FuncCall):
            raise AIQLSemanticError("aggregate calls in having must be aliased in return")
    else:
        raise AIQLSemanticError(f"unsupported having node {e!r}")


def analyze(q: Query) -> Analysis:
    """Validate and bind ``q`` (must already be multievent or anomaly —
    dependency queries are first compiled by ``repro.core.dependency``)."""
    if q.mode in ("forward", "backward"):
        raise AIQLSemanticError(
            "dependency query must be compiled to multievent before analysis"
        )
    ana = Analysis(query=q)

    # --- events, variables, roles
    seen_alias: set[str] = set()
    for ev in q.events:
        if ev.alias in seen_alias:
            raise AIQLSemanticError(f"duplicate event alias {ev.alias!r}")
        seen_alias.add(ev.alias)
        if ev.subject.etype != "proc":
            raise AIQLSemanticError(
                f"event {ev.alias!r}: subjects are processes in the data "
                f"model, got {ev.subject.etype!r}"
            )
        try:
            ana.event_etype[ev.alias] = etype_for(ev.op, ev.object.etype)
        except ValueError as e:
            raise AIQLSemanticError(f"event {ev.alias!r}: {e}") from None
        for ent, role in ((ev.subject, "subject"), (ev.object, "object")):
            if ent.var in seen_alias or ent.var in ana.event_etype:
                raise AIQLSemanticError(
                    f"variable {ent.var!r} collides with an event alias"
                )
            if ent.var in ana.etypes and ana.etypes[ent.var] != ent.etype:
                raise AIQLSemanticError(
                    f"variable {ent.var!r} used as both "
                    f"{ana.etypes[ent.var]} and {ent.etype}"
                )
            ana.etypes.setdefault(ent.var, ent.etype)
            ana.occ.setdefault(ent.var, []).append(Occurrence(ev.alias, role))

    # --- per-pattern predicates (entity brackets + globals + structure)
    for ev in q.events:
        preds: list = [
            Pred("etype", "=", ana.event_etype[ev.alias]),
            Pred("op", "=", ev.op),
        ]
        if q.time_range is not None:
            preds += [Pred("ts", ">=", q.time_range[0]),
                      Pred("ts", "<", q.time_range[1])]
        if q.agentid is not None:
            preds.append(Pred("agentid", "=", q.agentid))
        preds += _lower_entity_filters(ana, ev, ev.subject, "subject")
        preds += _lower_entity_filters(ana, ev, ev.object, "object")
        ana.pattern_preds[ev.alias] = preds

    # --- implicit attribute relationships: shared vars join on entity uid
    for var, occs in ana.occ.items():
        for o1, o2 in zip(occs, occs[1:]):
            ana.join_conds.append((o1.alias, o1.uid_col, o2.alias, o2.uid_col))

    # --- temporal constraints reference declared aliases
    for tc in q.temporal:
        for side in (tc.left, tc.right):
            if side not in ana.event_etype:
                raise AIQLSemanticError(f"temporal constraint on unknown event {side!r}")
        if tc.left == tc.right:
            raise AIQLSemanticError("temporal constraint relates an event to itself")
        if tc.rel not in ("before", "after"):
            raise AIQLSemanticError(f"unknown temporal relation {tc.rel!r}")

    # --- mode-specific clauses
    if q.mode == "anomaly":
        _analyze_anomaly(ana)
    else:
        if q.window_ms is not None or q.having is not None or q.group_by:
            raise AIQLSemanticError(
                "window/group by/having require an anomaly query"
            )
        _analyze_multievent_return(ana)
    return ana


def _analyze_multievent_return(ana: Analysis) -> None:
    q = ana.query
    for it in q.return_items:
        if not isinstance(it.expr, AttrRef):
            raise AIQLSemanticError(
                "multievent return items must be variables or attributes"
            )
        _, _, default_name = ana.resolve_ref(it.expr)
        name = it.alias or default_name
        if name in ana.return_names:
            raise AIQLSemanticError(f"duplicate output column {name!r}")
        ana.return_names.append(name)


def _analyze_anomaly(ana: Analysis) -> None:
    q = ana.query
    if len(q.events) != 1:
        raise AIQLSemanticError("an anomaly query has exactly one event pattern")
    if q.step_ms is None:
        raise AIQLSemanticError("anomaly query needs 'window = ..., step = ...'")
    if q.time_range is None:
        raise AIQLSemanticError(
            "anomaly query needs a time window: (at \"...\") or (from ... to ...)"
        )
    if q.temporal:
        raise AIQLSemanticError("temporal constraints need a multievent query")
    # Return items: group-key references or aggregate calls.
    group_refs = []
    for g in q.group_by:
        if not isinstance(g, AttrRef):
            raise AIQLSemanticError("group by items must be variables/attributes")
        group_refs.append(ana.resolve_ref(g))  # validates
    agg_i = 0
    for it in q.return_items:
        if isinstance(it.expr, FuncCall):
            if it.expr.name not in AGG_FUNCS:
                raise AIQLSemanticError(f"unknown aggregate {it.expr.name!r}")
            for a in it.expr.args:
                if not isinstance(a, AttrRef):
                    raise AIQLSemanticError("aggregate arguments must be attributes")
                ana.resolve_ref(a)
            name = it.alias or (it.expr.name if agg_i == 0 else f"{it.expr.name}_{agg_i}")
            agg_i += 1
            ana.agg_aliases[name] = it.expr
        elif isinstance(it.expr, AttrRef):
            a, c, default_name = ana.resolve_ref(it.expr)
            keys = {r[:2] for r in group_refs}
            # A bare variable in `group by` also exposes its uid column;
            # membership is checked on the resolved (event, column) pair.
            grouped_vars = {
                g.attr for g in q.group_by
                if isinstance(g, AttrRef) and g.var is None and g.attr in ana.etypes
            }
            bare_var = it.expr.var is None and it.expr.attr in grouped_vars
            if (a, c) not in keys and not bare_var:
                raise AIQLSemanticError(
                    f"return item {default_name!r} is neither grouped nor aggregated"
                )
            name = it.alias or default_name
        else:
            raise AIQLSemanticError("unsupported return item in anomaly query")
        if name in ana.return_names:
            raise AIQLSemanticError(f"duplicate output column {name!r}")
        ana.return_names.append(name)
    if not ana.agg_aliases:
        raise AIQLSemanticError("anomaly query returns no aggregate")
    if q.having is not None:
        ks: set = set()
        _walk_having(q.having, ana, ks)
        ana.hist_ks = sorted(ks)
