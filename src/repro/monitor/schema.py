"""Flat SVO event schema for system monitoring data.

The paper's data model (§2.1): a system event is an interaction
⟨subject, operation, object⟩ between two system entities, stamped with the
host it occurred on (``agentid``) and a timestamp. Subjects are always
processes; objects are processes, files, or network connections, which
partitions events into process/file/network events.

One flat table holds all three event types (the per-type object attributes
are nullable); this mirrors the paper's relational storage and makes the
"one big SQL" baseline natural to synthesize.
"""
from datetime import datetime, timedelta, timezone

import pyarrow as pa
from pyspark.sql import types as T

# Epoch-milliseconds timestamps throughout: pure integer arithmetic is
# portable across Spark SQL, DuckDB (oracle), and the PostgreSQL-style
# baseline text without dialect-specific date functions.
EVENT_COLUMNS = [
    ("eid", "long"),          # unique event id
    ("agentid", "int"),       # host the event occurred on (spatial dim)
    ("ts", "long"),           # epoch ms (temporal dim)
    ("day", "string"),        # yyyy-mm-dd, derived from ts (partition col)
    ("etype", "string"),      # 'process' | 'file' | 'network'
    ("op", "string"),         # see OP_ETYPE
    ("s_uid", "string"),      # subject process instance id
    ("s_name", "string"),     # subject executable name
    ("s_pid", "int"),         # subject os pid
    ("o_uid", "string"),      # object entity id
    ("o_name", "string"),     # object exe name (process) / file path (file)
    ("o_ip", "string"),       # network object: destination ip
    ("o_port", "int"),        # network object: destination port
    ("o_srcip", "string"),    # network object: source ip
    ("o_srcport", "int"),     # network object: source port
    ("amount", "long"),       # bytes moved (read/write/connect payloads)
]

# Operation → object entity type. The operation alone determines which kind
# of event it is, which is how AIQL event patterns (`proc p write ip i`) are
# validated and how scans are pruned by `etype`.
OP_ETYPE = {
    "start": "process",
    "execute": "process",
    "read": None,       # file or network — disambiguated by the object type
    "write": None,      # file or network
    "delete": "file",
    "connect": "network",
}

_SPARK_TYPES = {
    "long": T.LongType(),
    "int": T.IntegerType(),
    "string": T.StringType(),
}
_ARROW_TYPES = {"long": pa.int64(), "int": pa.int32(), "string": pa.string()}


def event_spark_schema() -> T.StructType:
    """Spark schema for the flat event table (all columns nullable)."""
    return T.StructType(
        [T.StructField(n, _SPARK_TYPES[t], True) for n, t in EVENT_COLUMNS]
    )


def event_arrow_schema() -> pa.Schema:
    """Arrow schema for the flat event table (all columns nullable)."""
    return pa.schema([(n, _ARROW_TYPES[t]) for n, t in EVENT_COLUMNS])


# The ``day`` partition key. The generator labels rows with it and the
# store prunes partitions by it, so both must derive it the same way: a
# row whose label the pruning does not list is silently dropped.
DAY_MS = 86_400_000
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def day_label(ts_ms: int) -> str:
    """The ``day`` label (``yyyy-mm-dd``, UTC) of an epoch-ms timestamp."""
    return (_EPOCH + timedelta(milliseconds=ts_ms)).strftime("%Y-%m-%d")


def day_labels(lo: int, hi: int) -> list[str]:
    """The ``day`` labels of every row a ``ts`` range ``[lo, hi)`` can hold."""
    return [day_label(d * DAY_MS) for d in range(lo // DAY_MS, (hi - 1) // DAY_MS + 1)]


def etype_for(op: str, object_type: str) -> str:
    """Resolve the event type for an (operation, object entity type) pair.

    ``object_type`` is the AIQL entity keyword: 'proc' | 'file' | 'ip'.
    Raises ``ValueError`` for combinations the data model does not contain
    (e.g. ``proc p start file f``) so malformed queries fail at analysis
    time rather than silently matching nothing.
    """
    obj_etype = {"proc": "process", "file": "file", "ip": "network"}[object_type]
    fixed = OP_ETYPE.get(op)
    if fixed is None and op in ("read", "write"):
        if obj_etype not in ("file", "network"):
            raise ValueError(f"operation {op!r} cannot target a {object_type} entity")
        return obj_etype
    if fixed is None:
        raise ValueError(f"unknown operation {op!r}")
    if fixed != obj_etype:
        raise ValueError(
            f"operation {op!r} targets {fixed} objects, not {object_type}"
        )
    return fixed
