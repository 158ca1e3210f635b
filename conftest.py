import os
import sys

# Make `import repro` work even when the editable install is absent (the
# offline container lacks `wheel`, which PEP 517 editable installs need).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))

import pytest  # noqa: E402

from repro.session import get_spark  # noqa: E402


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
