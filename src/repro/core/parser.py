"""Recursive-descent parser for AIQL (grammar in DESIGN.md §3).

``parse(text)`` → :class:`repro.core.ast.Query`. Purely syntactic, but for
one rewrite: ``a after b`` is parsed as ``b before a``. Name binding, role
checks and dependency→multievent compilation happen in
``repro.core.analyzer.analyze``, the front end's one entry, which calls
``parse``.
"""
from __future__ import annotations

from datetime import datetime, timezone

from repro.core.ast import (
    AttrRef,
    BinOp,
    Comparison,
    EntityPattern,
    EventPattern,
    FuncCall,
    HistRef,
    Literal,
    Query,
    ReturnItem,
    TemporalConstraint,
    UnaryOp,
)
from repro.core.lexer import AIQLSyntaxError, Token, tokenize
from repro.monitor.schema import DAY_MS, ENTITY_ETYPE, OP_ETYPES

_UNIT_MS = {
    "ms": 1, "sec": 1000, "s": 1000, "second": 1000, "seconds": 1000,
    "min": 60_000, "m": 60_000, "minute": 60_000, "minutes": 60_000,
    "hour": 3_600_000, "h": 3_600_000, "hours": 3_600_000,
    "day": 86_400_000, "d": 86_400_000, "days": 86_400_000,
}


def parse_time_ms(s: str) -> int:
    """Parse ``mm/dd/yyyy [HH:MM[:SS]]`` or ISO ``yyyy-mm-dd ...`` to epoch ms
    (UTC)."""
    s = s.strip()
    fmts = (
        "%m/%d/%Y %H:%M:%S", "%m/%d/%Y %H:%M", "%m/%d/%Y",
        "%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d",
    )
    for f in fmts:
        try:
            dt = datetime.strptime(s, f).replace(tzinfo=timezone.utc)
            return int(dt.timestamp()) * 1000
        except ValueError:
            continue
    raise ValueError(f"unrecognized time literal {s!r}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    # -- token helpers -------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, kind: str, value=None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (value is None or t.value == value)

    def at_kw(self, *kws: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.value in kws

    def expect(self, kind: str, value=None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise AIQLSyntaxError(f"expected {want!r}", self.text, t.pos)
        return self.next()

    def err(self, msg: str):
        raise AIQLSyntaxError(msg, self.text, self.peek().pos)

    def comma_list(self, item) -> list:
        """``item (',' item)*``."""
        out = [item()]
        while self.at("OP", ","):
            self.next()
            out.append(item())
        return out

    # -- entry ---------------------------------------------------------
    def parse(self) -> Query:
        q = Query(text=self.text)
        while not self.at("EOF"):
            if self.at("OP", "("):
                self._global_time(q)
            elif self.at_kw("agentid") and self.at("OP", "=", ahead=1):
                self.next()
                self.next()
                t = self.expect("NUMBER")
                if not isinstance(t.value, int):
                    raise AIQLSyntaxError("agentid must be an integer", self.text, t.pos)
                q.agentid = t.value
            elif self.at_kw("window"):
                self._window_spec(q)
            elif self.at_kw("forward", "backward"):
                if q.events:
                    self.err("forward/backward must precede event patterns")
                q.mode = self.next().value
            elif self.at_kw(*ENTITY_ETYPE):
                q.events.append(self._event_decl())
            elif self.at_kw("with"):
                self.next()
                for chain in self.comma_list(self._temporal_chain):
                    q.temporal.extend(chain)
            elif self.at_kw("return"):
                self._return_clause(q)
            elif self.at_kw("group"):
                self.next()
                self.expect("IDENT", "by")
                q.group_by.extend(self.comma_list(self._expr))
            elif self.at_kw("having"):
                self.next()
                q.having = self._expr()
            else:
                self.err("unexpected token")
        if q.window_ms is not None:
            q.mode = "anomaly"
        if not q.events:
            self.err("query declares no event pattern")
        if not q.return_items:
            self.err("query has no return clause")
        return q

    # -- globals -------------------------------------------------------
    def _global_time(self, q: Query) -> None:
        self.expect("OP", "(")
        kw = self.expect("IDENT")
        if kw.value == "at":
            lo = self._time()
            lo = lo - lo % DAY_MS  # snap to day start
            q.time_range = (lo, lo + DAY_MS)
        elif kw.value == "from":
            lo = self._time()
            self.expect("IDENT", "to")
            hi = self._time()
            if hi <= lo:
                self.err("empty time range")
            q.time_range = (lo, hi)
        else:
            self.err("expected 'at' or 'from'")
        self.expect("OP", ")")

    def _time(self) -> int:
        t = self.expect("STRING")
        try:
            return parse_time_ms(t.value)
        except ValueError as e:
            raise AIQLSyntaxError(str(e), self.text, t.pos) from None

    def _duration_ms(self) -> int:
        v = self.expect("NUMBER").value
        unit = self.expect("IDENT").value
        if unit not in _UNIT_MS:
            self.err(f"unknown time unit {unit!r}")
        return int(v * _UNIT_MS[unit])

    def _window_spec(self, q: Query) -> None:
        self.next()  # window
        self.expect("OP", "=")
        q.window_ms = self._duration_ms()
        self.expect("OP", ",")
        self.expect("IDENT", "step")
        self.expect("OP", "=")
        q.step_ms = self._duration_ms()
        if q.step_ms <= 0 or q.window_ms <= 0:
            self.err("window and step must be positive")

    # -- event patterns ------------------------------------------------
    def _entity(self) -> EntityPattern:
        if not self.at_kw(*ENTITY_ETYPE):
            self.err(f"expected an entity type {tuple(ENTITY_ETYPE)}")
        etype = self.next().value
        var = self.expect("IDENT").value
        filters: list[Comparison] = []
        if self.at("OP", "["):
            self.next()
            filters = self.comma_list(self._filter)
            self.expect("OP", "]")
        return EntityPattern(etype, var, tuple(filters))

    def _filter(self) -> Comparison:
        if self.at("STRING") or self.at("NUMBER"):
            return Comparison(None, "=", Literal(self.next().value))
        attr = self.expect("IDENT").value
        t = self.peek()
        if not (t.kind == "OP" and t.value in ("=", "!=", "<", "<=", ">", ">=")):
            self.err("expected comparison operator in filter")
        op = self.next().value
        v = self.peek()
        if v.kind not in ("STRING", "NUMBER"):
            self.err("expected literal in filter")
        return Comparison(attr, op, Literal(self.next().value))

    def _event_decl(self) -> EventPattern:
        subj = self._entity()
        if not self.at_kw(*OP_ETYPES):
            self.err(f"expected an operation {tuple(OP_ETYPES)}")
        op = self.next().value
        obj = self._entity()
        self.expect("IDENT", "as")
        alias = self.expect("IDENT").value
        return EventPattern(subj, op, obj, alias)

    # -- temporal ------------------------------------------------------
    def _temporal_chain(self) -> list[TemporalConstraint]:
        out: list[TemporalConstraint] = []
        left = self.expect("IDENT").value
        while self.at_kw("before", "after"):
            after = self.next().value == "after"
            within = None
            if self.at("OP", "["):
                self.next()
                within = self._duration_ms()
                self.expect("OP", "]")
            right = self.expect("IDENT").value
            out.append(TemporalConstraint(right, left, within) if after
                       else TemporalConstraint(left, right, within))
            left = right
        if not out:
            self.err("expected 'before' or 'after'")
        return out

    # -- return --------------------------------------------------------
    def _return_clause(self, q: Query) -> None:
        self.next()  # return
        if self.at_kw("distinct"):
            self.next()
            q.distinct = True
        q.return_items.extend(self.comma_list(self._return_item))

    def _return_item(self) -> ReturnItem:
        e = self._expr()
        alias = None
        if self.at_kw("as"):
            self.next()
            alias = self.expect("IDENT").value
        return ReturnItem(e, alias)

    # -- expressions ---------------------------------------------------
    def _expr(self):
        return self._or()

    def _or(self):
        e = self._and()
        while self.at_kw("or"):
            self.next()
            e = BinOp("or", e, self._and())
        return e

    def _and(self):
        e = self._not()
        while self.at_kw("and"):
            self.next()
            e = BinOp("and", e, self._not())
        return e

    def _not(self):
        if self.at_kw("not"):
            self.next()
            return UnaryOp("not", self._not())
        return self._cmp()

    def _cmp(self):
        e = self._add()
        if self.at("OP") and self.peek().value in ("=", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            return BinOp(op, e, self._add())
        return e

    def _add(self):
        e = self._mul()
        while self.at("OP") and self.peek().value in ("+", "-"):
            e = BinOp(self.next().value, e, self._mul())
        return e

    def _mul(self):
        e = self._unary()
        while self.at("OP") and self.peek().value in ("*", "/"):
            e = BinOp(self.next().value, e, self._unary())
        return e

    def _unary(self):
        if self.at("OP", "-"):
            self.next()
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self):
        t = self.peek()
        if t.kind == "NUMBER" or t.kind == "STRING":
            self.next()
            return Literal(t.value)
        if t.kind == "OP" and t.value == "(":
            self.next()
            e = self._expr()
            self.expect("OP", ")")
            return e
        if t.kind == "IDENT":
            name = self.next().value
            if self.at("OP", "("):  # function call
                self.next()
                args = [] if self.at("OP", ")") else self.comma_list(self._expr)
                self.expect("OP", ")")
                return FuncCall(name.lower(), tuple(args))
            if self.at("OP", "["):  # historical aggregate access: amt[1]
                self.next()
                k = self.expect("NUMBER").value
                self.expect("OP", "]")
                if not isinstance(k, int) or k < 1:
                    self.err("history index must be a positive integer")
                return HistRef(name, k)
            if self.at("OP", "."):
                self.next()
                attr = self.expect("IDENT").value
                return AttrRef(name, attr)
            return AttrRef(None, name)
        self.err("expected expression")


def parse(text: str) -> Query:
    """Parse AIQL source text into a :class:`Query` (syntax only)."""
    return _Parser(text).parse()
