"""The AIQL front end: ``analyze(text)`` → :class:`Analysis`.

Parses the text (``repro.core.parser``), compiles a ``forward``/``backward``
dependency query to the equivalent multievent query (paper §2.3), then
binds entity variables to their (event, subject/object) occurrences, derives
the implicit attribute relationships from shared variables (paper §2.2.1 —
"Lines 4-5 specify the same f1 in both events"), validates operations against
the data model, and lowers every bracket/global filter to predicates over the
physical event-table columns. The result (:class:`Analysis`) is the single
source of truth lowered to SQL text once (``expr.py``) and assembled into
one statement (``sqlgen.py``), which the engine (``compiler.py``,
``anomaly.py``), the baseline and the correctness oracle all run, so they
read every predicate alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ast import (
    AttrRef,
    BinOp,
    EventPattern,
    FuncCall,
    HistRef,
    Literal,
    Query,
    TemporalConstraint,
    UnaryOp,
)
from repro.core.parser import parse
from repro.monitor.schema import EVENT_COLUMNS, etype_for

#: Event-table column → its type (``long``, ``int`` or ``string``).
_COL_TYPE = dict(EVENT_COLUMNS)

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

#: Words the synthesized SQL, which the engine runs too, cannot take as an
#: event alias or an output column name (compared ignoring case): DuckDB's
#: 75 reserved keywords (``duckdb_keywords()``), plus the words that Spark's
#: or DuckDB's parser reads as join syntax, an operator or a literal where an
#: alias belongs. ``tests/test_frontend_errors.py`` checks that every
#: other keyword of either parser works in both places.
SQL_RESERVED = frozenset({
    "all", "analyse", "analyze", "and", "anti", "any", "array", "as", "asc",
    "asof", "asymmetric", "authorization", "binary", "both", "case", "cast",
    "check", "collate", "collation", "column", "concurrently", "constraint",
    "create", "cross", "default", "deferrable", "desc", "describe", "distinct",
    "do", "else", "end", "except", "false", "fetch", "for", "foreign",
    "freeze", "from", "full", "glob", "grant", "group", "having", "ilike",
    "in", "initially", "inner", "intersect", "into", "is", "isnull", "join",
    "lateral", "leading", "left", "like", "limit", "minus", "natural", "not",
    "notnull", "null", "offset", "on", "only", "or", "order", "outer",
    "overlaps", "pivot", "pivot_longer", "pivot_wider", "placing",
    "positional", "primary", "qualify", "references", "returning", "right",
    "select", "semi", "show", "similar", "some", "summarize", "symmetric",
    "table", "tablesample", "then", "to", "trailing", "true", "union",
    "unique", "unpivot", "using", "variadic", "verbose", "when", "where",
    "window", "with",
})


class AIQLSemanticError(ValueError):
    """Query is syntactically valid but semantically ill-formed."""


def _check_sql_name(name: str, what: str) -> None:
    if name.lower() in SQL_RESERVED:
        raise AIQLSemanticError(
            f"{what} {name!r} is a reserved word of the synthesized SQL"
        )


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
        if not isinstance(v, str) and _COL_TYPE[col] == "string":
            raise AIQLSemanticError(
                f"filter on {ent.var!r}: the number {v!r} cannot match "
                f"the string attribute {attr!r}")
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
            if e.attr in ana.return_names and e.attr not in ana.agg_aliases:
                raise AIQLSemanticError(
                    f"having may only test aggregates: filter {e.attr!r} "
                    "in its event pattern")
            if e.attr not in ana.agg_aliases:
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


def _compile_path(q: Query) -> None:
    """Compile a forward/backward dependency query to a multievent query,
    in place (paper §2.3: "the parser compiles it to a semantically
    equivalent multievent query").

    A ``forward`` query lists an event path in causal order (left event
    occurs earlier, §2.2.2), a ``backward`` query in reverse; compilation
    adds the implied temporal constraint between consecutive events. The
    chaining itself is expressed by shared entity variables, which become
    uid joins, so consecutive events must share one: a "path" with a gap
    is rejected (a silent cross join would not be a dependency track).
    """
    if len(q.events) < 2:
        raise AIQLSemanticError("a dependency query needs at least two events")
    pairs = list(zip(q.events, q.events[1:]))
    for e1, e2 in pairs:
        # "The operation connect indicates that the tracking is across
        # different hosts" (paper §2.2.2) — a connect hop may bridge two
        # hosts whose entities cannot share a variable.
        if "connect" in (e1.op, e2.op):
            continue
        if not {e1.subject.var, e1.object.var} & {e2.subject.var, e2.object.var}:
            raise AIQLSemanticError(
                f"dependency path breaks between {e1.alias!r} and {e2.alias!r}: "
                "consecutive events must share an entity variable"
            )
    q.temporal += [
        TemporalConstraint(e1.alias, e2.alias) if q.mode == "forward"
        else TemporalConstraint(e2.alias, e1.alias)
        for e1, e2 in pairs
    ]
    q.mode = "multievent"


def analyze(text: str) -> Analysis:
    """The whole front end: parse ``text``, compile a dependency query to
    multievent, then bind and validate. ``Analysis.query`` is the compiled
    query."""
    q = parse(text)
    if q.mode in ("forward", "backward"):
        _compile_path(q)
    ana = Analysis(query=q)

    # --- events, variables, roles
    # SQL folds the case of names: ``e`` and ``E`` are one alias there.
    seen_alias: set[str] = set()
    for ev in q.events:
        if ev.alias.lower() in seen_alias:
            raise AIQLSemanticError(f"duplicate event alias {ev.alias!r}")
        _check_sql_name(ev.alias, "event alias")
        seen_alias.add(ev.alias.lower())
        if ev.subject.etype != "proc":
            raise AIQLSemanticError(
                f"event {ev.alias!r}: subjects are processes in the data "
                f"model, got {ev.subject.etype!r}"
            )
        if ev.subject.var == ev.object.var:
            raise AIQLSemanticError(
                f"event {ev.alias!r}: variable {ev.subject.var!r} is both "
                "its subject and its object"
            )
        try:
            ana.event_etype[ev.alias] = etype_for(ev.op, ev.object.etype)
        except ValueError as e:
            raise AIQLSemanticError(f"event {ev.alias!r}: {e}") from None
        for ent, role in ((ev.subject, "subject"), (ev.object, "object")):
            if ent.var in ana.event_etype:
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


def _add_output_name(ana: Analysis, name: str) -> None:
    _check_sql_name(name, "output column")
    if name.lower() in {n.lower() for n in ana.return_names}:
        raise AIQLSemanticError(f"duplicate output column {name!r}")
    ana.return_names.append(name)


def _analyze_multievent_return(ana: Analysis) -> None:
    q = ana.query
    for it in q.return_items:
        if not isinstance(it.expr, AttrRef):
            raise AIQLSemanticError(
                "multievent return items must be variables or attributes"
            )
        _, _, default_name = ana.resolve_ref(it.expr)
        name = it.alias or default_name
        _add_output_name(ana, name)


def group_cols(ana: Analysis) -> list[str]:
    """Physical grouping columns. A bare entity variable groups by the
    *entity* — its uid — with the default attribute carried alongside for
    projection; an explicit ``var.attr`` groups by that column alone."""
    cols: list[str] = []

    def add(c: str) -> None:
        if c not in cols:
            cols.append(c)

    for g in ana.query.group_by:
        if g.var is None and g.attr in ana.etypes:
            var = g.attr
            _, uid = ana.entity_col(var, "uid")
            _, attr = ana.entity_col(var, DEFAULT_ATTR[ana.etypes[var]])
            add(uid)
            add(attr)
        else:
            _, c, _ = ana.resolve_ref(g)
            add(c)
    return cols


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
    if not all(isinstance(g, AttrRef) for g in q.group_by):
        raise AIQLSemanticError("group by items must be variables/attributes")
    gcols = group_cols(ana)  # resolves, so validates, every group by item
    # Return items: aggregate calls, or attributes whose column is grouped.
    agg_i = 0
    for it in q.return_items:
        if isinstance(it.expr, FuncCall):
            if it.expr.name not in AGG_FUNCS:
                raise AIQLSemanticError(f"unknown aggregate {it.expr.name!r}")
            n_args = len(it.expr.args)
            if n_args > 1 or (n_args == 0 and it.expr.name != "count"):
                raise AIQLSemanticError(f"{it.expr.name}() takes one attribute")
            for a in it.expr.args:
                if not isinstance(a, AttrRef):
                    raise AIQLSemanticError("aggregate arguments must be attributes")
                _, col, _ = ana.resolve_ref(a)
                if it.expr.name in ("sum", "avg") and _COL_TYPE[col] == "string":
                    raise AIQLSemanticError(
                        f"{it.expr.name}() needs a numeric attribute, "
                        f"not the string column {col!r}")
            name = it.alias or (it.expr.name if agg_i == 0 else f"{it.expr.name}_{agg_i}")
            agg_i += 1
            ana.agg_aliases[name] = it.expr
        elif isinstance(it.expr, AttrRef):
            _, c, default_name = ana.resolve_ref(it.expr)
            if c not in gcols:
                raise AIQLSemanticError(
                    f"return item {default_name!r} is neither grouped nor aggregated"
                )
            name = it.alias or default_name
        else:
            raise AIQLSemanticError("unsupported return item in anomaly query")
        _add_output_name(ana, name)
    if not ana.agg_aliases:
        raise AIQLSemanticError("anomaly query returns no aggregate")
    # The per-window aggregate holds ``wid``, the group columns and the
    # aggregates under their aliases: one name cannot be two of them.
    taken = ["wid", *gcols]
    for name in ana.agg_aliases:
        if name.lower() in {c.lower() for c in taken}:
            raise AIQLSemanticError(
                f"aggregate alias {name!r} names a column of the per-window "
                f"aggregate ({', '.join(taken)})")
    if q.having is not None:
        ks: set = set()
        _walk_having(q.having, ana, ks)
        ana.hist_ks = sorted(ks)
