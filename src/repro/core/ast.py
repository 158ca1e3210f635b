"""AST for the AIQL language (grammar in DESIGN.md §3).

Two layers of nodes:

* *query structure* — :class:`Query`, :class:`EventPattern`,
  :class:`EntityPattern`, :class:`TemporalConstraint`, :class:`ReturnItem`;
* *expressions* — used in entity filters (:class:`Comparison`) and in the
  ``having`` clause (:class:`BinOp` trees over :class:`AttrRef` /
  :class:`HistRef` / :class:`Literal`), rendered as SQL text by
  ``repro.core.expr``.
"""
from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------- expressions
@dataclass(frozen=True)
class Literal:
    """A string or numeric constant."""
    value: object  # str | int | float


@dataclass(frozen=True)
class AttrRef:
    """``var.attr``; ``var=None`` means a bare name (an output alias in
    ``having``, or a bare variable in ``return``/``group by``)."""
    var: str | None
    attr: str


@dataclass(frozen=True)
class HistRef:
    """``name[k]`` — the value of aggregate alias ``name`` k windows earlier
    (paper §2.2.3). Only meaningful in an anomaly ``having`` clause."""
    name: str
    k: int


@dataclass(frozen=True)
class FuncCall:
    """Aggregate call such as ``avg(evt.amount)``."""
    name: str
    args: tuple  # tuple[Expr, ...]


@dataclass(frozen=True)
class BinOp:
    """Binary operation; ``op`` ∈ {or, and, =, !=, <, <=, >, >=, +, -, *, /}."""
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class UnaryOp:
    """``-x`` or ``not x``."""
    op: str
    operand: object


# ------------------------------------------------------------ query structure
@dataclass(frozen=True)
class Comparison:
    """One bracket filter: ``attr op value``. ``attr=None`` targets the
    entity's default attribute; a string value containing ``%`` means SQL
    LIKE, otherwise equality."""
    attr: str | None
    op: str  # '=', '!=', '<', '<=', '>', '>=' ('=' on a %-string → LIKE)
    value: Literal


@dataclass(frozen=True)
class EntityPattern:
    """``proc p1["%cmd.exe"]`` — an entity occurrence inside an event."""
    etype: str  # 'proc' | 'file' | 'ip'
    var: str
    filters: tuple  # tuple[Comparison, ...]


@dataclass(frozen=True)
class EventPattern:
    """``<subject> <op> <object> as <alias>`` — one event pattern."""
    subject: EntityPattern
    op: str
    object: EntityPattern
    alias: str


@dataclass(frozen=True)
class TemporalConstraint:
    """``with a before b`` (optionally ``before[5 min]`` = within 5 min)."""
    left: str
    rel: str  # 'before' | 'after'
    right: str
    within_ms: int | None = None


@dataclass(frozen=True)
class ReturnItem:
    """One projection item; ``alias`` is the output column name (defaulted
    by the analyzer when not written)."""
    expr: object  # Expr
    alias: str | None = None


@dataclass
class Query:
    """A parsed AIQL query.

    ``mode`` is 'multievent', 'forward', 'backward' (dependency queries —
    compiled to multievent by ``repro.core.dependency``), or 'anomaly'
    (implied by a ``window =`` global).
    """
    mode: str = "multievent"
    time_range: tuple[int, int] | None = None  # [lo, hi) epoch ms
    agentid: int | None = None
    window_ms: int | None = None
    step_ms: int | None = None
    events: list[EventPattern] = field(default_factory=list)
    temporal: list[TemporalConstraint] = field(default_factory=list)
    return_items: list[ReturnItem] = field(default_factory=list)
    distinct: bool = False
    group_by: list[object] = field(default_factory=list)  # list[AttrRef]
    having: object | None = None  # Expr
    text: str = ""
