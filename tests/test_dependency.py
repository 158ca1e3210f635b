"""Dependency→multievent compilation tests (paper §2.3): ``analyze`` compiles
a ``forward``/``backward`` path, and ``Analysis.query`` is the result."""
import pytest

from repro.core.analyzer import AIQLSemanticError, analyze
from repro.core.ast import TemporalConstraint
from repro.core.parser import parse
from repro.core.sqlgen import equivalent_sql

FWD = ('forward\n'
       'proc p write file f as e1\n'
       'proc q read file f as e2\n'
       'proc q write file g as e3\n'
       'return p')


def compiled(text):
    return analyze(text).query


class TestForward:
    def test_mode_becomes_multievent(self):
        assert compiled(FWD).mode == "multievent"

    def test_implied_temporal_order(self):
        assert compiled(FWD).temporal == [TemporalConstraint("e1", "e2"),
                                          TemporalConstraint("e2", "e3")]


class TestBackward:
    def test_reversed_temporal(self):
        q = compiled(FWD.replace("forward", "backward"))
        assert q.temporal == [TemporalConstraint("e2", "e1"),
                              TemporalConstraint("e3", "e2")]


class TestChaining:
    def test_gap_raises(self):
        bad = ('forward\n'
               'proc p write file f as e1\n'
               'proc q read file g as e2\n'  # shares nothing with e1
               'return p')
        with pytest.raises(AIQLSemanticError, match="path breaks"):
            analyze(bad)

    def test_connect_bridges_hosts(self):
        ok = ('forward\n'
              'proc p connect ip i as e1\n'
              'proc q write file f as e2\n'  # no shared var, but e1 is connect
              'return p')
        assert compiled(ok).temporal == [TemporalConstraint("e1", "e2")]

    def test_single_event_raises(self):
        with pytest.raises(AIQLSemanticError, match="at least two"):
            analyze('forward\nproc p write file f as e1\nreturn p')


class TestPassthrough:
    def test_multievent_unchanged(self):
        text = 'proc p read file f as e1\nproc q read file f as e2\nreturn p'
        assert compiled(text) == parse(text)

    def test_existing_temporal_preserved(self):
        src = ('forward\n'
               'proc p write file f as e1\n'
               'proc q read file f as e2\n'
               'with e1 before[1 min] e2\n'
               'return p')
        q = compiled(src)
        assert len(q.temporal) == 2
        assert q.temporal[0].within_ms == 60_000


class TestSameTextAsMultievent:
    """A dependency query synthesizes the text of the multievent query an
    analyst would write for it, with the path's order spelled out."""
    PATH = ('(at "04/10/2018")\nagentid = 5\n'
            'proc p["%cmd.exe"] start proc q as e1\n'
            'proc q write file f["%.dmp"] as e2\n'
            'proc r read file f as e3\n')

    @pytest.mark.parametrize("mode, with_", [
        ("forward", "with e1 before e2, e2 before e3"),
        ("backward", "with e2 before e1, e3 before e2"),
    ], ids=["forward", "backward"])
    def test_same_sql(self, mode, with_):
        dep = analyze(f"{mode}\n{self.PATH}return distinct p, q, f, r")
        hand = analyze(f"{self.PATH}{with_}\nreturn distinct p, q, f, r")
        for dialect in ("spark", "duckdb", "postgres"):
            assert equivalent_sql(dep, dialect) == equivalent_sql(hand, dialect)
