"""Semantic-analysis unit tests — binding, roles, predicate lowering."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.analyzer import AIQLSemanticError, OrGroup, Pred
from repro.core.analyzer import analyze as ana

DAY0 = 1523318400000


class TestBinding:
    def test_occurrences(self):
        """``q`` is the object of e1 and the subject of e2: its columns
        there are ``o_*`` and ``s_*``, and its uid links the two."""
        a = ana('proc p start proc q as e1\nproc q read file f as e2\n'
                'return q, q.uid as u')
        assert a.select == [("e1.o_name", "q"), ("e1.o_uid", "u")]
        assert a.join_conds == [("e1", "o_uid", "e2", "s_uid")]

    def test_etypes(self):
        """A bare variable returns its kind's default attribute."""
        a = ana('proc p write ip i as e1\nreturn p, i')
        assert a.select == [("e1.s_name", "p"), ("e1.o_ip", "i")]

    def test_event_etype_from_object(self):
        a = ana('proc p read file f as e1\nproc p read ip i as e2\nreturn p')
        assert a.event_etype == {"e1": "file", "e2": "network"}

    def test_join_conds_on_uid(self):
        a = ana('proc p start proc q as e1\nproc q read file f as e2\nreturn p')
        assert a.join_conds == [("e1", "o_uid", "e2", "s_uid")]

    def test_three_occurrence_chain(self):
        a = ana('proc p read file f as e1\nproc q read file f as e2\n'
                'proc r read file f as e3\nreturn p')
        assert a.join_conds == [("e1", "o_uid", "e2", "o_uid"),
                                ("e2", "o_uid", "e3", "o_uid")]

    def test_var_etype_conflict_raises(self):
        with pytest.raises(AIQLSemanticError, match="both"):
            ana('proc p read file x as e1\nproc p start proc x as e2\nreturn p')

    def test_duplicate_alias_raises(self):
        with pytest.raises(AIQLSemanticError, match="duplicate event alias"):
            ana('proc p read file f as e1\nproc q read file f as e1\nreturn p')

    @pytest.mark.parametrize("alias", ["select", "JOIN", "on", "null"])
    def test_reserved_alias_raises(self, alias):
        with pytest.raises(AIQLSemanticError, match="reserved"):
            ana(f'proc p read file f as {alias}\nreturn p')

    def test_var_alias_collision_raises(self):
        with pytest.raises(AIQLSemanticError, match="collides"):
            ana('proc p read file f as e1\nproc e1 read file f as e2\nreturn p')

    def test_file_subject_raises(self):
        with pytest.raises(AIQLSemanticError, match="subjects are processes"):
            ana('file f read file g as e1\nreturn f')

    def test_bad_op_object_combo_raises(self):
        with pytest.raises(ValueError, match="cannot target|targets"):
            ana('proc p start file f as e1\nreturn p')

    def test_connect_needs_ip(self):
        with pytest.raises(ValueError):
            ana('proc p connect file f as e1\nreturn p')


class TestPredicateLowering:
    def test_structural_preds(self):
        a = ana('proc p read file f as e1\nreturn p')
        assert Pred("etype", "=", "file") in a.pattern_preds["e1"]
        assert Pred("op", "=", "read") in a.pattern_preds["e1"]

    def test_global_time_preds(self):
        a = ana(f'(at "04/10/2018")\nproc p read file f as e1\nreturn p')
        p = a.pattern_preds["e1"]
        assert Pred("ts", ">=", DAY0) in p
        assert Pred("ts", "<", DAY0 + 86_400_000) in p

    def test_global_agent_pred(self):
        a = ana('agentid = 7\nproc p read file f as e1\nreturn p')
        assert Pred("agentid", "=", 7) in a.pattern_preds["e1"]

    def test_like_from_percent(self):
        a = ana('proc p["%cmd.exe"] read file f as e1\nreturn p')
        assert Pred("s_name", "like", "%cmd.exe") in a.pattern_preds["e1"]

    def test_equality_without_percent(self):
        a = ana('proc p["bash"] read file f as e1\nreturn p')
        assert Pred("s_name", "=", "bash") in a.pattern_preds["e1"]

    def test_not_like(self):
        a = ana('proc p[exe_name != "%cmd%"] read file f as e1\nreturn p')
        assert Pred("s_name", "not like", "%cmd%") in a.pattern_preds["e1"]

    def test_or_group_for_multi_default(self):
        a = ana('proc p["%a", "b"] read file f as e1\nreturn p')
        og = [p for p in a.pattern_preds["e1"] if isinstance(p, OrGroup)]
        assert og and og[0].preds == (Pred("s_name", "like", "%a"),
                                      Pred("s_name", "=", "b"))

    def test_object_proc_name_col(self):
        a = ana('proc p start proc q["%osql.exe"] as e1\nreturn q')
        assert Pred("o_name", "like", "%osql.exe") in a.pattern_preds["e1"]

    def test_ip_attr_cols(self):
        a = ana('proc p write ip i[dstip="1.2.3.4", dstport=80, '
                'srcip="5.6.7.8", srcport=9] as e1\nreturn p')
        p = a.pattern_preds["e1"]
        for pred in (Pred("o_ip", "=", "1.2.3.4"), Pred("o_port", "=", 80),
                     Pred("o_srcip", "=", "5.6.7.8"), Pred("o_srcport", "=", 9)):
            assert pred in p

    def test_string_against_number_column(self):
        """A quoted number against a number column runs on every backend."""
        a = ana('proc p write ip i[dstport="443"] as e1\nreturn p')
        assert Pred("o_port", "=", "443") in a.pattern_preds["e1"]

    def test_per_event_agentid_bracket(self):
        a = ana('proc p[agentid=2] read file f as e1\nreturn p')
        assert Pred("agentid", "=", 2) in a.pattern_preds["e1"]

    def test_wildcard_with_lt_raises(self):
        with pytest.raises(AIQLSemanticError, match="wildcard"):
            ana('proc p[exe_name < "%x"] read file f as e1\nreturn p')

    def test_unknown_attr_raises(self):
        with pytest.raises(AIQLSemanticError, match="not defined"):
            ana('proc p[bogus="x"] read file f as e1\nreturn p')

    def test_file_has_no_dstip(self):
        with pytest.raises(AIQLSemanticError, match="not defined"):
            ana('proc p read file f[dstip="1.1.1.1"] as e1\nreturn p')


class TestTemporalValidation:
    def test_unknown_alias_raises(self):
        with pytest.raises(AIQLSemanticError, match="unknown event"):
            ana('proc p read file f as e1\nwith e1 before e9\nreturn p')

    def test_self_reference_raises(self):
        with pytest.raises(AIQLSemanticError, match="itself"):
            ana('proc p read file f as e1\nwith e1 before e1\nreturn p')


class TestReturnResolution:
    def test_bare_var_default_attr(self):
        a = ana('proc p read file f as e1\nreturn p, f')
        assert a.return_names == ["p", "f"]

    def test_attr_name(self):
        a = ana('proc p write ip i as e1\nreturn i.dst_port')
        assert a.return_names == ["i_dst_port"]

    def test_attr_norm_spelling(self):
        a = ana('proc p write ip i as e1\nreturn i.dstport')
        assert a.return_names == ["i_dst_port"]

    def test_explicit_alias(self):
        a = ana('proc p read file f as e1\nreturn p.pid as thepid')
        assert a.return_names == ["thepid"]

    def test_event_attr(self):
        a = ana('proc p read file f as e1\nreturn p, e1.agentid as host')
        assert a.return_names == ["p", "host"]

    def test_unknown_var_raises(self):
        with pytest.raises(AIQLSemanticError, match="unknown variable"):
            ana('proc p read file f as e1\nreturn z')

    def test_duplicate_output_raises(self):
        with pytest.raises(AIQLSemanticError, match="duplicate output"):
            ana('proc p read file f as e1\nreturn p, f as p')

    def test_reserved_output_name_raises(self):
        with pytest.raises(AIQLSemanticError, match="reserved"):
            ana('proc p read file f as e1\nreturn p as true')

    def test_object_pid_not_recorded(self):
        with pytest.raises(AIQLSemanticError, match="not defined"):
            ana('proc p start proc q as e1\nreturn q.pid')

    def test_select_at_first_occurrence(self):
        a = ana('proc p start proc q as e1\nproc q read file f as e2\nreturn q')
        # q resolves at its first occurrence: object of e1
        assert a.select == [("e1.o_name", "q")]

    def test_anomaly_lowered(self):
        """Group items, aggregates and return items of an anomaly query,
        each lowered to a column of the per-window aggregate."""
        a = ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\n'
                'return p, i.dstport, avg(e.amount) as amt, count()\n'
                'group by p, i.dst_port')
        assert a.group_cols == ["s_uid", "s_name", "o_port"]
        assert a.agg_aliases == {"amt": ("avg", "amount"), "count_1": ("count", "*")}
        assert a.select == [("s_name", "p"), ("o_port", "i_dst_port"),
                            ("amt", "amt"), ("count_1", "count_1")]


class TestAnomalyValidation:
    GOOD = ('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
            'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p\n')

    def test_good(self):
        a = ana(self.GOOD + 'having amt > 1')
        assert a.agg_aliases.keys() == {"amt"} and a.hist_ks == []

    def test_hist_ks_collected(self):
        a = ana(self.GOOD + 'having amt > amt[1] + amt[3]')
        assert a.hist_ks == [1, 3]

    def test_two_events_raise(self):
        with pytest.raises(AIQLSemanticError, match="exactly one"):
            ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nproc p read file f as e2\n'
                'return p, avg(e.amount) as amt\ngroup by p')

    def test_needs_time_window(self):
        with pytest.raises(AIQLSemanticError, match="time window"):
            ana('window = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p')

    def test_no_aggregate_raises(self):
        with pytest.raises(AIQLSemanticError, match="no aggregate"):
            ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nreturn p\ngroup by p')

    def test_ungrouped_return_raises(self):
        with pytest.raises(AIQLSemanticError, match="neither grouped"):
            ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nreturn i, avg(e.amount) as amt\ngroup by p')

    def test_unknown_agg_raises(self):
        with pytest.raises(AIQLSemanticError, match="unknown aggregate"):
            ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nreturn p, median(e.amount) as m\ngroup by p')

    def test_aggregate_arity(self):
        a = ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nreturn count() as n')
        assert a.return_names == ["n"]
        with pytest.raises(AIQLSemanticError, match="takes one attribute"):
            ana('(at "04/10/2018")\nwindow = 1 min, step = 10 sec\n'
                'proc p write ip i as e\nreturn sum(e.amount, e.ts) as s')

    def test_hist_on_non_agg_raises(self):
        with pytest.raises(AIQLSemanticError, match="aggregate alias"):
            ana(self.GOOD + 'having nope[1] > 1')

    def test_having_unknown_name_raises(self):
        with pytest.raises(AIQLSemanticError, match="unknown name"):
            ana(self.GOOD + 'having zzz > 1')

    def test_having_grouped_name_raises(self):
        """The per-window aggregate has no column ``p``; a test of ``p``
        belongs in its event pattern."""
        with pytest.raises(AIQLSemanticError, match="filter 'p' in its event pattern"):
            ana(self.GOOD + 'having amt > 1 and p = "powershell.exe"')

    def test_having_in_multievent_raises(self):
        with pytest.raises(AIQLSemanticError, match="anomaly"):
            ana('proc p read file f as e1\nreturn p\nhaving p > 1')

    def test_group_by_in_multievent_raises(self):
        with pytest.raises(AIQLSemanticError, match="anomaly"):
            ana('proc p read file f as e1\nreturn p\ngroup by p')


def test_front_end_loads_no_pandas():
    """The front end, parser included, reads time literals with the
    standard library, so importing it loads no pandas."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.core.analyzer; "
         "print('repro.core.parser' in sys.modules, 'pandas' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"]
