"""The AIQL front end: ``analyze(text)`` → :class:`Analysis`.

Parses the text (``repro.core.parser``), compiles a ``forward``/``backward``
dependency query to the equivalent multievent query (paper §2.3), then
binds entity variables to their (event, subject/object) occurrences, derives
the implicit attribute relationships from shared variables (paper §2.2.1 —
"Lines 4-5 specify the same f1 in both events"), validates operations against
the data model, and lowers the query to physical event-table columns: every
bracket/global filter to predicates, every return item, group item and
aggregate argument to its column. Every name of the text is resolved here,
once, and nowhere else. The result (:class:`Analysis`) is the lowered query:
``expr.py`` and ``sqlgen.py`` only format its fields into one statement,
which the engine (``compiler.py``, ``anomaly.py``), the baseline and the
correctness oracle all run, so they read every predicate alike.
"""
from __future__ import annotations

import re
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
EVENT_ATTRS = ("amount", "ts", "op", "agentid", "eid")

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


@dataclass
class Analysis:
    """The lowered query: bound, validated, every name a physical column.
    ``query`` is the compiled query; past the analyzer only its structure
    is read (events, temporal constraints, windows, ``having``,
    ``distinct``), never its return or group items."""
    query: Query
    event_etype: dict = field(default_factory=dict)  # alias -> event type
    pattern_preds: dict = field(default_factory=dict)  # alias -> [Pred|OrGroup]
    join_conds: list = field(default_factory=list)   # [(alias1,col1,alias2,col2)]
    # One (column, output name) per return item: ``e1.o_name`` in a
    # multievent query; a group column or an aggregate alias in an anomaly
    # query, both columns of its per-window aggregate.
    select: list = field(default_factory=list)
    group_cols: list = field(default_factory=list)   # anomaly grouping columns
    agg_aliases: dict = field(default_factory=dict)  # out name -> (fn, col or "*")
    hist_ks: list = field(default_factory=list)      # sorted history depths

    @property
    def return_names(self) -> list[str]:
        """Output column names, in return-clause order."""
        return [name for _, name in self.select]


@dataclass
class _Bindings:
    """What a name in the query can refer to: each entity variable's kind
    and occurrences, and the event aliases. Only the analyzer reads it."""
    event_etype: dict                                # alias -> event type
    etypes: dict = field(default_factory=dict)       # var -> entity kind
    occ: dict = field(default_factory=dict)          # var -> [(alias, role)]

    def entity_col(self, var: str, attr: str, occurrence: tuple | None = None):
        """→ (event alias, physical column) for ``var.attr`` at one
        (event alias, ``subject``/``object``) occurrence of ``var``.

        Defaults to the variable's first occurrence — any occurrence is
        equivalent because shared variables are joined on entity uid.
        """
        alias, role = occurrence or self.occ[var][0]
        kind = self.etypes[var]
        attr = _ATTR_NORM.get(attr, attr)
        cols = _ENTITY_COLS[(kind, role)]
        if attr not in cols:
            raise AIQLSemanticError(
                f"attribute {attr!r} is not defined for {kind} {var!r} "
                f"as {role} (have {sorted(cols)})"
            )
        return alias, cols[attr]

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
            return ref.var, attr, f"{ref.var}_{attr}"
        if ref.var in self.etypes:
            a, c = self.entity_col(ref.var, ref.attr)
            return a, c, f"{ref.var}_{_ATTR_NORM.get(ref.attr, ref.attr)}"
        raise AIQLSemanticError(f"unknown variable {ref.var!r}")


_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _check_compare(v, typ: str, what: str) -> None:
    """The one rule for a literal ``v`` compared with a column or aggregate
    of type ``typ``, which both SQL engines cast to ``typ`` (Spark at least
    to ``bigint``): a number cannot match a string, and a string matches a
    number only as a signed decimal integer in its range (``int``: 32 bits)."""
    if typ == "string":
        if not isinstance(v, str):
            raise AIQLSemanticError(
                f"{what}: the number {v!r} cannot match a string")
    elif isinstance(v, str):
        bits = 31 if typ == "int" else 63
        if not (_INT_TEXT.fullmatch(v) and -2**bits <= int(v) < 2**bits):
            raise AIQLSemanticError(
                f"{what}: the string {v!r} cannot match a number ({typ})")


def _lower_entity_filters(b: _Bindings, ev: EventPattern, ent, role: str) -> list:
    """Bracket filters of one entity occurrence → physical predicates."""
    occ = (ev.alias, role)
    out: list = []
    default_group: list[Pred] = []
    for f in ent.filters:
        if f.attr is None:
            attr = DEFAULT_ATTR[ent.etype]
        else:
            attr = _ATTR_NORM.get(f.attr, f.attr)
        # An event attribute is its own column: [agentid=2] in a bracket.
        col = attr if attr in EVENT_ATTRS else b.entity_col(ent.var, attr, occ)[1]
        v = f.value.value
        _check_compare(v, _COL_TYPE[col], f"filter {ent.var}.{attr}")
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


def _agg_type(fn: str, col: str) -> str:
    """The type of a lowered aggregate: ``min``/``max`` keep their column's."""
    if fn in ("min", "max"):
        return _COL_TYPE[col]
    return "double" if fn == "avg" else "long"


def _check_operands(types, op: str) -> None:
    """In ``having``, the operands of ``and``/``or``/``not`` are truth
    values and those of arithmetic and comparisons are not: DuckDB would
    cast between the two, Spark rejects the mix."""
    logical = op in ("and", "or", "not")
    if any((t == "bool") != logical for t in types):
        raise AIQLSemanticError(
            f"having: {op!r} needs truth values (comparisons), not numbers or strings"
            if logical else f"having: a truth value cannot be an operand of {op!r}")


def _walk_having(e, ana: Analysis, ks: set) -> str:
    """Validate a ``having`` node, collect its history depths into ``ks``,
    and return its type (``bool`` for a truth value)."""
    if isinstance(e, HistRef):
        if e.name not in ana.agg_aliases:
            raise AIQLSemanticError(
                f"history access {e.name}[{e.k}] must index an aggregate alias"
            )
        ks.add(e.k)
        return _agg_type(*ana.agg_aliases[e.name])
    if isinstance(e, AttrRef):
        if e.var is None:
            if e.attr in ana.return_names and e.attr not in ana.agg_aliases:
                raise AIQLSemanticError(
                    f"having may only test aggregates: filter {e.attr!r} "
                    "in its event pattern")
            if e.attr not in ana.agg_aliases:
                raise AIQLSemanticError(f"unknown name {e.attr!r} in having")
            return _agg_type(*ana.agg_aliases[e.attr])
        raise AIQLSemanticError(
            "having may only reference aggregate aliases "
            f"(got {e.var}.{e.attr})"
        )
    if isinstance(e, BinOp):
        types = (_walk_having(e.left, ana, ks), _walk_having(e.right, ana, ks))
        _check_operands(types, e.op)
        if e.op in ("and", "or"):
            return "bool"
        for side, other in zip((e.left, e.right), reversed(types)):
            if isinstance(side, Literal):
                _check_compare(side.value, other, "having")
        return "double" if e.op in ("+", "-", "*", "/") else "bool"
    if isinstance(e, UnaryOp):
        t = _walk_having(e.operand, ana, ks)
        _check_operands([t], e.op)
        return "bool" if e.op == "not" else t
    if isinstance(e, Literal):
        return "string" if isinstance(e.value, str) else "long"
    if isinstance(e, FuncCall):
        raise AIQLSemanticError("aggregate calls in having must be aliased in return")
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
    b = _Bindings(ana.event_etype)

    # --- events, variables, roles
    # SQL folds the case of names: ``e`` and ``E`` are one alias there.
    for ev in q.events:
        if ev.alias.lower() in {a.lower() for a in ana.event_etype}:
            raise AIQLSemanticError(f"duplicate event alias {ev.alias!r}")
        _check_sql_name(ev.alias, "event alias")
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
            kind = b.etypes.setdefault(ent.var, ent.etype)
            if kind != ent.etype:
                raise AIQLSemanticError(
                    f"variable {ent.var!r} used as both {kind} and {ent.etype}")
            b.occ.setdefault(ent.var, []).append((ev.alias, role))

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
        preds += _lower_entity_filters(b, ev, ev.subject, "subject")
        preds += _lower_entity_filters(b, ev, ev.object, "object")
        ana.pattern_preds[ev.alias] = preds

    # --- implicit attribute relationships: shared vars join on entity uid
    for var, occs in b.occ.items():
        for o1, o2 in zip(occs, occs[1:]):
            ana.join_conds.append((*b.entity_col(var, "uid", o1),
                                   *b.entity_col(var, "uid", o2)))

    # --- temporal constraints reference declared aliases
    for tc in q.temporal:
        for side in (tc.left, tc.right):
            if side not in ana.event_etype:
                raise AIQLSemanticError(f"temporal constraint on unknown event {side!r}")
        if tc.left == tc.right:
            raise AIQLSemanticError("temporal constraint relates an event to itself")

    # --- mode-specific clauses
    if q.mode == "anomaly":
        _analyze_anomaly(ana, b)
    else:
        if q.window_ms is not None or q.having is not None or q.group_by:
            raise AIQLSemanticError(
                "window/group by/having require an anomaly query"
            )
        _analyze_multievent_return(ana, b)
    return ana


def _add_output(ana: Analysis, col: str, name: str) -> None:
    _check_sql_name(name, "output column")
    if name.lower() in {n.lower() for n in ana.return_names}:
        raise AIQLSemanticError(f"duplicate output column {name!r}")
    ana.select.append((col, name))


def _analyze_multievent_return(ana: Analysis, b: _Bindings) -> None:
    for it in ana.query.return_items:
        if not isinstance(it.expr, AttrRef):
            raise AIQLSemanticError(
                "multievent return items must be variables or attributes"
            )
        a, c, default_name = b.resolve_ref(it.expr)
        _add_output(ana, f"{a}.{c}", it.alias or default_name)


def _group_cols(ana: Analysis, b: _Bindings) -> list[str]:
    """Physical grouping columns. A bare entity variable groups by the
    *entity* — its uid — with the default attribute carried alongside for
    projection; an explicit ``var.attr`` groups by that column alone."""
    cols: list[str] = []
    for g in ana.query.group_by:
        if not isinstance(g, AttrRef):
            raise AIQLSemanticError("group by items must be variables/attributes")
        new = [b.resolve_ref(g)[1]]
        if g.var is None and g.attr in b.etypes:  # an entity: its uid first
            new.insert(0, b.entity_col(g.attr, "uid")[1])
        cols += [c for c in new if c not in cols]
    return cols


def _analyze_anomaly(ana: Analysis, b: _Bindings) -> None:
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
    ana.group_cols = _group_cols(ana, b)
    # Return items: aggregate calls, or attributes whose column is grouped;
    # both are columns of the per-window aggregate.
    for it in q.return_items:
        if isinstance(it.expr, FuncCall):
            fn, args = it.expr.name, it.expr.args
            if fn not in AGG_FUNCS:
                raise AIQLSemanticError(f"unknown aggregate {fn!r}")
            if len(args) > 1 or (not args and fn != "count"):
                raise AIQLSemanticError(f"{fn}() takes one attribute")
            arg = "*"
            for a in args:
                if not isinstance(a, AttrRef):
                    raise AIQLSemanticError("aggregate arguments must be attributes")
                arg = b.resolve_ref(a)[1]
                if fn in ("sum", "avg") and _COL_TYPE[arg] == "string":
                    raise AIQLSemanticError(
                        f"{fn}() needs a numeric attribute, "
                        f"not the string column {arg!r}")
            n = len(ana.agg_aliases)
            col = name = it.alias or (f"{fn}_{n}" if n else fn)
            ana.agg_aliases[col] = (fn, arg)
        elif isinstance(it.expr, AttrRef):
            _, col, default_name = b.resolve_ref(it.expr)
            if col not in ana.group_cols:
                raise AIQLSemanticError(
                    f"return item {default_name!r} is neither grouped nor aggregated"
                )
            name = it.alias or default_name
        else:
            raise AIQLSemanticError("unsupported return item in anomaly query")
        _add_output(ana, col, name)
    if not ana.agg_aliases:
        raise AIQLSemanticError("anomaly query returns no aggregate")
    # The per-window aggregate holds ``wid``, the group columns and the
    # aggregates under their aliases: one name cannot be two of them.
    taken = ["wid", *ana.group_cols]
    for name in ana.agg_aliases:
        if name.lower() in {c.lower() for c in taken}:
            raise AIQLSemanticError(
                f"aggregate alias {name!r} names a column of the per-window "
                f"aggregate ({', '.join(taken)})")
    if q.having is not None:
        ks: set = set()
        if _walk_having(q.having, ana, ks) != "bool":
            raise AIQLSemanticError(
                "having needs a truth value (a comparison), not a number or string")
        ana.hist_ks = sorted(ks)
