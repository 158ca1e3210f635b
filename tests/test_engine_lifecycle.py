"""Engine resource lifecycle, counted in Spark's persistent RDDs: a
multievent query's probed pattern scans stay cached exactly as long as the
DataFrame ``execute`` returned (or the plan ``plan`` returned) is alive;
anomaly queries (history is a window-frame lookup) and single-pattern
queries cache nothing."""
import gc
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import AIQLEngine

AT = '(at "04/10/2018")\n'

TWO_PATTERN = (AT + 'proc p read file f as e1\n'
                    'proc q["python"] write file f as e2\n'
                    'with e1 before e2\nreturn p, q, f')
# No pattern scan in common with TWO_PATTERN: Spark shares one cache entry
# between identical plans.
OTHER_TWO_PATTERN = (AT + 'proc p start proc c as e1\n'
                          'proc c write file f as e2\n'
                          'with e1 before e2\nreturn p, c, f')
ANOMALY = (AT + 'window = 1 min, step = 10 sec\n'
                'proc p write ip i as e\n'
                'return p, avg(e.amount) as amt\ngroup by p\n'
                'having amt > amt[1]')


def persisted(spark) -> int:
    """Number of RDDs Spark currently holds persisted."""
    return spark.sparkContext._jsc.getPersistentRDDs().size()


@pytest.fixture
def cached(spark):
    """Persistent RDDs added since the test started (earlier tests' results
    are collected first, so their releases do not land mid-test)."""
    gc.collect()
    before = persisted(spark)
    return lambda: persisted(spark) - before


class TestPinning:
    def test_multievent_pins_patterns(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        r = eng.execute(TWO_PATTERN)
        r.count()
        assert cached() == 2

    def test_anomaly_pins_nothing(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        eng.execute(ANOMALY).count()
        assert cached() == 0

    def test_anomaly_without_history_pins_nothing(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        r = eng.execute(AT + 'window = 1 min, step = 10 sec\n'
                             'proc p write ip i as e\n'
                             'return p, avg(e.amount) as amt\ngroup by p')
        r.count()
        assert cached() == 0

    def test_dropped_result_releases_patterns(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        r = eng.execute(TWO_PATTERN)
        r.count()
        assert cached() == 2
        del r
        assert cached() == 0

    def test_live_results_keep_their_patterns(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        r1 = eng.execute(TWO_PATTERN)
        r1.count()
        r2 = eng.execute(OTHER_TWO_PATTERN)
        r2.count()
        eng.execute(ANOMALY).count()
        assert cached() == 4  # both queries' scans, while both are alive
        del r1
        assert cached() == 2
        del r2
        assert cached() == 0

    def test_threads_share_one_engine(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        queries = [TWO_PATTERN, OTHER_TWO_PATTERN]
        want = [{tuple(r) for r in eng.execute(q).collect()} for q in queries]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(eng.execute, queries, timeout=300))
        assert cached() == 4
        assert [{tuple(r) for r in df.collect()} for df in results] == want

    def test_plan_owns_its_probes(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        p = eng.plan(TWO_PATTERN)
        assert cached() == 2
        del p
        assert cached() == 0

    def test_single_pattern_pins_nothing(self, spark, tiny, cached):
        eng = AIQLEngine(spark, events=tiny)
        r = eng.execute(AT + 'proc p read file f as e1\nreturn p')
        r.count()
        assert cached() == 0

    def test_results_correct_across_sequential_queries(self, spark, tiny):
        eng = AIQLEngine(spark, events=tiny)
        a = {tuple(r) for r in eng.execute(TWO_PATTERN).collect()}
        eng.execute(ANOMALY).count()
        b = {tuple(r) for r in eng.execute(TWO_PATTERN).collect()}
        assert a == b
