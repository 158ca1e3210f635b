import sys

import pytest

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session."""
    s = get_spark("repro")
    # One line in the test output recording what the JVM was given.
    sc = s.sparkContext
    print(
        f"[conftest] driver memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
