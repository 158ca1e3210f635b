"""Parser unit tests — syntax → AST."""
import pytest

from repro.core.ast import (
    AttrRef, BinOp, Comparison, FuncCall, HistRef, Literal, TemporalConstraint,
)
from repro.core.lexer import AIQLSyntaxError
from repro.core.parser import parse, parse_time_ms

DAY0 = 1523318400000  # 2018-04-10 UTC

MINIMAL = 'proc p read file f as e1\nreturn p'


class TestTimeLiterals:
    def test_us_date(self):
        assert parse_time_ms("04/10/2018") == DAY0

    def test_iso_date(self):
        assert parse_time_ms("2018-04-10") == DAY0

    def test_with_time(self):
        assert parse_time_ms("04/10/2018 01:30") == DAY0 + 90 * 60_000

    def test_with_seconds(self):
        assert parse_time_ms("04/10/2018 00:00:05") == DAY0 + 5_000

    def test_bad_raises(self):
        with pytest.raises(ValueError):
            parse_time_ms("not a date")


class TestGlobals:
    def test_at_day_window(self):
        q = parse(f'(at "04/10/2018")\n{MINIMAL}')
        assert q.time_range == (DAY0, DAY0 + 86_400_000)

    def test_at_snaps_to_day_start(self):
        q = parse(f'(at "04/10/2018 13:45")\n{MINIMAL}')
        assert q.time_range == (DAY0, DAY0 + 86_400_000)

    def test_from_to(self):
        q = parse(f'(from "04/10/2018" to "04/12/2018")\n{MINIMAL}')
        assert q.time_range == (DAY0, DAY0 + 2 * 86_400_000)

    def test_from_to_empty_raises(self):
        with pytest.raises(AIQLSyntaxError, match="empty time range"):
            parse(f'(from "04/12/2018" to "04/10/2018")\n{MINIMAL}')

    def test_agentid(self):
        q = parse(f'agentid = 5\n{MINIMAL}')
        assert q.agentid == 5

    def test_no_globals(self):
        q = parse(MINIMAL)
        assert q.time_range is None and q.agentid is None

    def test_window_step(self):
        q = parse(f'(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n{MINIMAL}')
        assert q.window_ms == 60_000 and q.step_ms == 10_000
        assert q.mode == "anomaly"

    @pytest.mark.parametrize("txt,ms", [
        ("500 ms", 500), ("10 sec", 10_000), ("2 min", 120_000),
        ("1 hour", 3_600_000), ("1 day", 86_400_000),
    ])
    def test_duration_units(self, txt, ms):
        q = parse(f'window = {txt}, step = {txt}\n{MINIMAL}')
        assert q.window_ms == ms

    def test_unknown_unit_raises(self):
        with pytest.raises(AIQLSyntaxError, match="unknown time unit"):
            parse(f'window = 1 fortnight, step = 1 sec\n{MINIMAL}')


class TestEventDecl:
    def test_simple(self):
        q = parse(MINIMAL)
        ev = q.events[0]
        assert ev.subject.etype == "proc" and ev.subject.var == "p"
        assert ev.op == "read"
        assert ev.object.etype == "file" and ev.object.var == "f"
        assert ev.alias == "e1"

    def test_default_attr_filter(self):
        q = parse('proc p["%cmd.exe"] read file f as e1\nreturn p')
        assert q.events[0].subject.filters == (
            Comparison(None, "=", Literal("%cmd.exe")),)

    def test_multiple_default_filters(self):
        q = parse('proc p["%a", "%b"] read file f as e1\nreturn p')
        assert len(q.events[0].subject.filters) == 2

    def test_named_filter(self):
        q = parse('proc p write ip i[dstip="1.2.3.4"] as e1\nreturn p')
        assert q.events[0].object.filters == (
            Comparison("dstip", "=", Literal("1.2.3.4")),)

    def test_numeric_filter(self):
        q = parse('proc p write ip i[dstport=443] as e1\nreturn p')
        assert q.events[0].object.filters == (
            Comparison("dstport", "=", Literal(443)),)

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_filter_operators(self, op):
        q = parse(f'proc p write ip i[dstport {op} 10] as e1\nreturn p')
        assert q.events[0].object.filters[0].op == op

    def test_mixed_filters(self):
        q = parse('proc p["%x", agentid=2] read file f as e1\nreturn p')
        f = q.events[0].subject.filters
        assert f[0] == Comparison(None, "=", Literal("%x"))
        assert f[1] == Comparison("agentid", "=", Literal(2))

    def test_multiple_events(self):
        q = parse('proc p start proc q as e1\nproc q read file f as e2\nreturn p')
        assert [e.alias for e in q.events] == ["e1", "e2"]

    @pytest.mark.parametrize("op", ["start", "execute", "read", "write",
                                    "delete", "connect"])
    def test_all_operations(self, op):
        obj = "ip i" if op == "connect" else "file f"
        q = parse(f'proc p {op} {obj} as e1\nreturn p')
        assert q.events[0].op == op

    def test_bad_operation_raises(self):
        with pytest.raises(AIQLSyntaxError, match="expected an operation"):
            parse('proc p frobs file f as e1\nreturn p')

    def test_missing_as_raises(self):
        with pytest.raises(AIQLSyntaxError):
            parse('proc p read file f\nreturn p')


class TestDependencyMode:
    def test_forward(self):
        q = parse('forward\nproc p read file f as e1\nproc q read file f as e2\nreturn p')
        assert q.mode == "forward"

    def test_backward(self):
        q = parse('backward\nproc p read file f as e1\nproc q read file f as e2\nreturn p')
        assert q.mode == "backward"

    def test_mode_after_events_raises(self):
        with pytest.raises(AIQLSyntaxError, match="must precede"):
            parse('proc p read file f as e1\nforward\nreturn p')


class TestTemporal:
    def test_before(self):
        q = parse('proc p read file f as e1\nproc q read file f as e2\n'
                  'with e1 before e2\nreturn p')
        assert q.temporal == [TemporalConstraint("e1", "e2")]

    def test_after(self):
        """``a after b`` is parsed as ``b before a``, within bound kept."""
        q = parse('proc p read file f as e1\nproc q read file f as e2\n'
                  'proc r read file f as e3\n'
                  'with e1 after e2 after[5 min] e3\nreturn p')
        assert q.temporal == [TemporalConstraint("e2", "e1"),
                              TemporalConstraint("e3", "e2", 300_000)]

    def test_within(self):
        q = parse('proc p read file f as e1\nproc q read file f as e2\n'
                  'with e1 before[5 min] e2\nreturn p')
        assert q.temporal[0].within_ms == 300_000

    def test_comma_list(self):
        q = parse('proc p read file f as e1\nproc q read file f as e2\n'
                  'proc r read file f as e3\n'
                  'with e1 before e2, e2 before e3\nreturn p')
        assert len(q.temporal) == 2

    def test_chain(self):
        q = parse('proc p read file f as e1\nproc q read file f as e2\n'
                  'proc r read file f as e3\n'
                  'with e1 before e2 before e3\nreturn p')
        assert q.temporal == [TemporalConstraint("e1", "e2"),
                              TemporalConstraint("e2", "e3")]

    def test_bare_with_raises(self):
        with pytest.raises(AIQLSyntaxError, match="before"):
            parse('proc p read file f as e1\nwith e1\nreturn p')


class TestReturn:
    def test_bare_var(self):
        q = parse(MINIMAL)
        assert q.return_items[0].expr == AttrRef(None, "p")

    def test_attr(self):
        q = parse('proc p read file f as e1\nreturn p.exe_name')
        assert q.return_items[0].expr == AttrRef("p", "exe_name")

    def test_alias(self):
        q = parse('proc p read file f as e1\nreturn p.pid as thepid')
        assert q.return_items[0].alias == "thepid"

    def test_distinct(self):
        q = parse('proc p read file f as e1\nreturn distinct p, f')
        assert q.distinct and len(q.return_items) == 2

    def test_agg_call(self):
        q = parse('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                  'proc p write ip i as e\nreturn avg(e.amount) as amt\ngroup by p')
        assert q.return_items[0].expr == FuncCall("avg", (AttrRef("e", "amount"),))

    def test_missing_return_raises(self):
        with pytest.raises(AIQLSyntaxError, match="no return"):
            parse('proc p read file f as e1')

    def test_no_events_raises(self):
        with pytest.raises(AIQLSyntaxError, match="no event pattern"):
            parse('return p')


class TestGroupHaving:
    Q = ('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
         'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p\n')

    def test_group_by(self):
        q = parse(self.Q)
        assert q.group_by == [AttrRef(None, "p")]

    def test_having_history(self):
        q = parse(self.Q + 'having amt > 2 * (amt + amt[1] + amt[2]) / 3')
        h = q.having
        assert isinstance(h, BinOp) and h.op == ">"
        assert h.left == AttrRef(None, "amt")

    def test_hist_ref_node(self):
        q = parse(self.Q + 'having amt[2] < 5')
        assert q.having.left == HistRef("amt", 2)

    def test_hist_zero_raises(self):
        with pytest.raises(AIQLSyntaxError, match="positive"):
            parse(self.Q + 'having amt[0] < 5')

    def test_having_precedence(self):
        q = parse(self.Q + 'having amt > 1 + 2 * 3')
        rhs = q.having.right
        assert rhs.op == "+" and rhs.right.op == "*"

    def test_having_and_or(self):
        q = parse(self.Q + 'having amt > 1 and amt < 9 or amt = 5')
        assert q.having.op == "or" and q.having.left.op == "and"

    def test_having_not(self):
        q = parse(self.Q + 'having not (amt > 1)')
        assert q.having.op == "not"


class TestPaperQueries:
    def test_query1_shape(self):
        from repro.workload.queries import query_by_name
        q = parse(query_by_name("q05_exfil_chain").aiql)
        assert len(q.events) == 4 and len(q.temporal) == 3 and q.distinct

    def test_query2_shape(self):
        from repro.workload.queries import query_by_name
        q = parse(query_by_name("q16_forward_ramification").aiql)
        assert q.mode == "forward" and len(q.events) == 3

    def test_query3_shape(self):
        from repro.workload.queries import query_by_name
        q = parse(query_by_name("q01_anomaly_exfil").aiql)
        assert q.mode == "anomaly" and q.window_ms == 60_000 and q.step_ms == 10_000

    def test_comments_tolerated(self):
        q = parse('(at "04/10/2018") // time window\nagentid = 5 // db server\n'
                  + MINIMAL)
        assert q.agentid == 5

    def test_text_preserved(self):
        src = f'(at "04/10/2018")\n{MINIMAL}'
        assert parse(src).text == src
