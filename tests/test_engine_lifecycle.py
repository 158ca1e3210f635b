"""Engine resource lifecycle: a multievent query's persisted pattern scans
are pinned and released on the next query; anomaly queries (history is a
window-frame lookup) and single-pattern queries pin nothing."""
from repro.core.engine import AIQLEngine

AT = '(at "04/10/2018")\n'

TWO_PATTERN = (AT + 'proc p read file f as e1\n'
                    'proc q["python"] write file f as e2\n'
                    'with e1 before e2\nreturn p, q, f')
ANOMALY = (AT + 'window = 1 min, step = 10 sec\n'
                'proc p write ip i as e\n'
                'return p, avg(e.amount) as amt\ngroup by p\n'
                'having amt > amt[1]')


class TestPinning:
    def test_multievent_pins_patterns(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        eng.execute(TWO_PATTERN).count()
        assert len(eng._pinned) == 2

    def test_anomaly_pins_nothing(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        eng.execute(ANOMALY).count()
        assert eng._pinned == []

    def test_anomaly_without_history_pins_nothing(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        eng.execute(AT + 'window = 1 min, step = 10 sec\n'
                         'proc p write ip i as e\n'
                         'return p, avg(e.amount) as amt\ngroup by p').count()
        assert eng._pinned == []

    def test_next_query_releases_previous(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        eng.execute(TWO_PATTERN).count()
        first = list(eng._pinned)
        eng.execute(ANOMALY).count()
        assert len(first) == 2
        assert eng._pinned == []

    def test_single_pattern_pins_nothing(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        eng.execute(AT + 'proc p read file f as e1\nreturn p').count()
        assert eng._pinned == []

    def test_results_correct_across_sequential_queries(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        a = {tuple(r) for r in eng.execute(TWO_PATTERN).collect()}
        eng.execute(ANOMALY).count()
        b = {tuple(r) for r in eng.execute(TWO_PATTERN).collect()}
        assert a == b
