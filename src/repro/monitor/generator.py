"""Synthetic enterprise system-monitoring trace with an injected APT attack.

Substitute for the paper's 150-host NEC Labs deployment (DESIGN.md §4):
a deterministic mass of background system activity — process starts, file
I/O, network flows with Zipf-like executable popularity and lognormal byte
counts — plus an explicitly scripted APT kill-chain reproducing the paper's
demo scenario a1–a5 (§3), using the artifact names from the paper's
narrative (``osql.exe``, ``backup1.dmp``, ``sbblv.exe``, ``powershell.exe``,
``db.bak``, ``mimikatz.exe``, ``PwDump7.exe``, ``WCE.exe``,
``info_stealer``, the UnrealIRCd exploit, attacker IP ``202.87.66.129``).

Scale: ``_N_EVENTS_PER_SF`` background events per unit scale factor —
SF 0.1 ≈ 2M events (benchmarks), SF 0.01 ≈ 200k (integration tests),
SF 0.001 ≈ 20k (unit tests). Attack events (a fixed ~90) are injected at
every SF so ground-truth assertions always hold.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession

from repro.monitor.schema import (
    DAY_MS,
    day_label,
    event_arrow_schema,
    event_spark_schema,
)

_N_EVENTS_PER_SF = 20_000_000

#: External attacker host — "XXX.129" in the paper's obfuscated queries.
ATTACKER_IP = "202.87.66.129"

# Benign executable pool. Attack-only artifacts (sbblv.exe, mimikatz.exe,
# info_stealer, ...) are deliberately absent so attack predicates are highly
# selective — the property pruning-power scheduling exploits.
_NAME_POOL = [
    "svchost.exe", "explorer.exe", "chrome.exe", "firefox.exe", "outlook.exe",
    "winword.exe", "excel.exe", "cmd.exe", "powershell.exe", "python.exe",
    "java.exe", "bash", "sshd", "cron", "systemd", "nginx", "httpd",
    "mysqld", "sqlservr.exe", "postgres", "node", "taskhost.exe",
    "conhost.exe", "wget", "curl", "rsync", "backup.exe", "av_scan.exe",
    "update.exe", "dropbox.exe",
]
_FILE_TEMPLATES = [
    "/usr/lib/lib{i}.so", "/home/user/doc{i}.txt", "/var/log/app{i}.log",
    "/etc/conf{i}.cfg", "/windows/system32/dll{i}.dll",
    "/users/u/file{i}.dat",
]
_EXT_IPS = [f"203.0.113.{i}" for i in range(1, 21)] + [
    f"198.51.100.{i}" for i in range(1, 21)
]
_PORTS = [80, 443, 22, 53, 8080, 8443, 3306, 5432]

_P_PER_HOST = 120   # process instances per host
_F_PER_HOST = 400   # file entities per host

#: Columns of a row before it is finished: everything but ``eid`` and
#: ``day``, which :func:`_finish` derives.
_RAW_SCHEMA = pa.schema(
    [f for f in event_arrow_schema() if f.name not in ("eid", "day")])


def host_ip(agentid: int) -> str:
    """Intranet IP of a host — how cross-host `connect` events are chained."""
    return f"10.0.0.{agentid}"


#: Midnight (UTC) that starts the trace: 04/10/2018, the day the
#: workload queries name.
_DAY0 = int(pd.Timestamp("2018-04-10", tz="UTC").timestamp() * 1000)


def _ms(day0: int, hh: int, mm: int, ss: int = 0) -> int:
    return day0 + ((hh * 60 + mm) * 60 + ss) * 1000


def _background(
    n: int, n_hosts: int, day0: int, days: int, g: np.random.Generator
) -> pa.Table:
    """Vectorized benign activity: ~50% file, ~15% process, ~35% network.

    Returns the raw rows (unsorted, no ``eid``/``day``) as an Arrow table
    built from numpy columns: strings are numpy unicode arrays converted
    in C — no per-element Python string objects, which is what makes
    generation fast at large SF (tens of millions of boxed strings cost
    minutes of allocator/GC time)."""
    agent = g.integers(1, n_hosts + 1, n)
    ts = day0 + g.integers(0, days * DAY_MS, n)

    # Every composite string comes from a small domain, so strings are
    # built once into lookup tables and rows fancy-index into them — pure C
    # copies, no per-row formatting.
    names = np.array(_NAME_POOL)
    proc_uid_tab = np.array(
        [f"{a}-p{s}" for a in range(n_hosts + 1) for s in range(_P_PER_HOST)]
    )
    file_uid_tab = np.array(
        [f"{a}-f{s}" for a in range(n_hosts + 1) for s in range(_F_PER_HOST)]
    )
    fpath_tab = np.array(
        [_FILE_TEMPLATES[s % len(_FILE_TEMPLATES)].format(i=s)
         for s in range(_F_PER_HOST)]
    )
    ip_tab = np.array(_EXT_IPS + [host_ip(a) for a in range(1, n_hosts + 1)])
    net_uid_tab = np.array(
        [f"{ip}:{p}" for ip in ip_tab for p in _PORTS]
    )
    srcip_tab = np.array([host_ip(a) for a in range(n_hosts + 1)])
    port_tab = np.array(_PORTS)

    # Zipf-weighted executable popularity per process instance slot.
    zipf_w = 1.0 / np.arange(1, len(_NAME_POOL) + 1) ** 1.05
    zipf_w /= zipf_w.sum()
    # name of instance slot j on any host: fixed per (host, slot)
    slot_names = g.choice(len(_NAME_POOL), size=(n_hosts + 1, _P_PER_HOST), p=zipf_w)

    s_slot = g.integers(0, _P_PER_HOST, n)
    s_name = names[slot_names[agent, s_slot]]
    s_uid = proc_uid_tab[agent * _P_PER_HOST + s_slot]
    s_pid = 1000 + s_slot

    r = g.random(n)
    is_file = r < 0.50
    is_proc = (r >= 0.50) & (r < 0.65)
    is_net = r >= 0.65

    # Filled per event type below; a value the type does not have is
    # masked to NULL on conversion. np.zeros on a unicode dtype is calloc,
    # much faster than np.full(n, "").
    op = np.zeros(n, dtype="U8")
    etype = np.zeros(n, dtype="U8")
    o_uid = np.zeros(n, dtype="U24")
    o_name = np.zeros(n, dtype="U32")
    o_ip = np.zeros(n, dtype="U16")
    o_port = np.zeros(n, dtype=np.int32)
    o_srcip = np.zeros(n, dtype="U16")
    o_srcport = np.zeros(n, dtype=np.int32)
    amount = np.zeros(n, dtype=np.int64)

    # --- file events
    nf = int(is_file.sum())
    fop = g.choice(["read", "write", "delete"], nf, p=[0.62, 0.34, 0.04])
    fslot = g.integers(0, _F_PER_HOST, nf)
    etype[is_file] = "file"
    op[is_file] = fop
    o_uid[is_file] = file_uid_tab[agent[is_file] * _F_PER_HOST + fslot]
    o_name[is_file] = fpath_tab[fslot]
    famt = np.exp(g.normal(7.5, 1.5, nf)).astype(np.int64) + 64
    famt[fop == "delete"] = -1  # sentinel → NULL in _finish
    amount[is_file] = famt

    # --- process events
    npr = int(is_proc.sum())
    pop = g.choice(["start", "execute"], npr, p=[0.7, 0.3])
    oslot = g.integers(0, _P_PER_HOST, npr)
    etype[is_proc] = "process"
    op[is_proc] = pop
    o_uid[is_proc] = proc_uid_tab[agent[is_proc] * _P_PER_HOST + oslot]
    o_name[is_proc] = names[slot_names[agent[is_proc], oslot]]

    # --- network events
    nn = int(is_net.sum())
    nop = g.choice(["connect", "read", "write"], nn, p=[0.15, 0.30, 0.55])
    ext = g.random(nn) < 0.7
    ip_idx = np.where(
        ext,
        g.integers(0, len(_EXT_IPS), nn),
        len(_EXT_IPS) + g.integers(0, n_hosts, nn),
    )
    port_idx = g.integers(0, len(_PORTS), nn)
    etype[is_net] = "network"
    op[is_net] = nop
    o_ip[is_net] = ip_tab[ip_idx]
    o_port[is_net] = port_tab[port_idx]
    o_uid[is_net] = net_uid_tab[ip_idx * len(_PORTS) + port_idx]
    o_srcip[is_net] = srcip_tab[agent[is_net]]
    o_srcport[is_net] = g.integers(32768, 61000, nn)
    namt = np.exp(g.normal(6.5, 1.8, nn)).astype(np.int64) + 40
    namt[nop == "connect"] = np.minimum(namt[nop == "connect"], 400)
    amount[is_net] = namt

    not_net = ~is_net
    return pa.table({
        "agentid": agent,
        "ts": ts,
        "etype": etype,
        "op": op,
        "s_uid": s_uid,
        "s_name": s_name,
        "s_pid": s_pid,
        "o_uid": o_uid,
        "o_name": pa.array(o_name, mask=is_net),
        "o_ip": pa.array(o_ip, mask=not_net),
        "o_port": pa.array(o_port, mask=not_net),
        "o_srcip": pa.array(o_srcip, mask=not_net),
        "o_srcport": pa.array(o_srcport, mask=not_net),
        "amount": pa.array(amount, mask=is_proc),
    }, schema=_RAW_SCHEMA)


def _attack_rows(day0: int) -> list[dict]:
    """The scripted a1–a5 kill-chain (paper §3, Figure 2).

    Entity uids use an ``-atk`` suffix so they can never collide with
    background instance slots.
    """
    A = ATTACKER_IP
    rows: list[dict] = []

    def ev(ts, agent, op, etype, s_uid, s_name, o_uid=None, o_name=None,
           o_ip=None, o_port=None, amount=None, s_pid=9000):
        rows.append(
            dict(agentid=agent, ts=ts, etype=etype, op=op, s_uid=s_uid,
                 s_name=s_name, s_pid=s_pid, o_uid=o_uid, o_name=o_name,
                 o_ip=o_ip, o_port=o_port,
                 o_srcip=host_ip(agent) if etype == "network" else None,
                 o_srcport=55000 if etype == "network" else None,
                 amount=amount)
        )

    def net(ip, port):
        return dict(o_uid=f"{ip}:{port}", o_ip=ip, o_port=port)

    # ---- a1: initial compromise of the UnrealIRCd server (host 1)
    t = _ms(day0, 9, 0)
    ev(t, 1, "start", "process", "1-ircd-atk", "unrealircd",
       o_uid="1-sh-atk", o_name="bash")
    ev(t + 5_000, 1, "connect", "network", "1-sh-atk", "bash",
       amount=120, **net(A, 31337))

    # ---- a2: malware infection + propagation to host 2
    t = _ms(day0, 9, 20)
    ev(t, 1, "read", "network", "1-sh-atk", "bash", amount=80_000,
       **net(A, 31337))
    ev(t + 10_000, 1, "write", "file", "1-sh-atk", "bash",
       o_uid="1-fmal-atk", o_name="/tmp/info_stealer", amount=80_000)
    ev(t + 20_000, 1, "start", "process", "1-sh-atk", "bash",
       o_uid="1-mal-atk", o_name="info_stealer")
    ev(t + 300_000, 1, "connect", "network", "1-mal-atk", "info_stealer",
       amount=4_000, **net(host_ip(2), 80))
    t2 = _ms(day0, 9, 30)
    ev(t2, 2, "connect", "network", "2-wget-atk", "wget", amount=2_000,
       **net(host_ip(1), 8000))
    ev(t2 + 15_000, 2, "write", "file", "2-wget-atk", "wget",
       o_uid="2-fmal-atk", o_name="/tmp/info_stealer", amount=80_000)
    ev(t2 + 120_000, 2, "start", "process", "2-sh-atk", "bash",
       o_uid="2-mal-atk", o_name="info_stealer")
    ev(t2 + 125_000, 2, "read", "file", "2-mal-atk", "info_stealer",
       o_uid="2-fmal-atk", o_name="/tmp/info_stealer", amount=80_000)

    # ---- a3: privilege escalation + credential dumping (host 3)
    t = _ms(day0, 10, 0)
    ev(t, 2, "connect", "network", "2-mal-atk", "info_stealer",
       amount=10_000, **net(host_ip(3), 445))
    ev(t + 60_000, 3, "start", "process", "3-svc-atk", "services.exe",
       o_uid="3-expl-atk", o_name="cve-2015-1701.exe")
    ev(t + 90_000, 3, "start", "process", "3-expl-atk", "cve-2015-1701.exe",
       o_uid="3-cmd-atk", o_name="cmd.exe")
    ev(t + 120_000, 3, "start", "process", "3-cmd-atk", "cmd.exe",
       o_uid="3-mimi-atk", o_name="mimikatz.exe")
    ev(t + 150_000, 3, "start", "process", "3-cmd-atk", "cmd.exe",
       o_uid="3-kiwi-atk", o_name="kiwi.exe")
    ev(t + 240_000, 3, "write", "file", "3-mimi-atk", "mimikatz.exe",
       o_uid="3-fcred-atk", o_name="/windows/tmp/creds.txt", amount=2_048)

    # ---- a4: obtain user credentials on the domain controller (host 4)
    t = _ms(day0, 10, 30)
    ev(t, 3, "connect", "network", "3-cmd-atk", "cmd.exe", amount=5_000,
       **net(host_ip(4), 3389))
    ev(t + 30_000, 4, "start", "process", "4-svc-atk", "services.exe",
       o_uid="4-cmd-atk", o_name="cmd.exe")
    ev(t + 60_000, 4, "start", "process", "4-cmd-atk", "cmd.exe",
       o_uid="4-pwd-atk", o_name="PwDump7.exe")
    ev(t + 90_000, 4, "start", "process", "4-cmd-atk", "cmd.exe",
       o_uid="4-wce-atk", o_name="WCE.exe")
    ev(t + 150_000, 4, "write", "file", "4-pwd-atk", "PwDump7.exe",
       o_uid="4-fdump-atk", o_name="/windows/temp/passdump.txt",
       amount=16_384)
    ev(t + 180_000, 4, "write", "file", "4-wce-atk", "WCE.exe",
       o_uid="4-fdump-atk", o_name="/windows/temp/passdump.txt",
       amount=8_192)
    ev(t + 300_000, 4, "read", "file", "4-nc-atk", "nc.exe",
       o_uid="4-fdump-atk", o_name="/windows/temp/passdump.txt",
       amount=24_576)
    ev(t + 330_000, 4, "connect", "network", "4-nc-atk", "nc.exe",
       amount=300, **net(A, 443))
    ev(t + 360_000, 4, "write", "network", "4-nc-atk", "nc.exe",
       amount=24_576, **net(A, 443))

    # ---- a5: data exfiltration from the database server (host 5)
    t = _ms(day0, 11, 0)
    ev(t, 5, "start", "process", "5-cmd-atk", "cmd.exe",
       o_uid="5-osql-atk", o_name="osql.exe")
    ev(t + 120_000, 5, "write", "file", "5-osql-atk", "osql.exe",
       o_uid="5-fdmp-atk", o_name="/db/backup1.dmp", amount=500_000_000)
    ev(t + 180_000, 5, "write", "file", "5-sqls-atk", "sqlservr.exe",
       o_uid="5-fbak-atk", o_name="/db/db.bak", amount=300_000_000)
    ev(t + 240_000, 5, "read", "file", "5-ps-atk", "powershell.exe",
       o_uid="5-fbak-atk", o_name="/db/db.bak", amount=300_000_000)
    ev(t + 250_000, 5, "connect", "network", "5-ps-atk", "powershell.exe",
       amount=200, **net(A, 443))
    ev(t + 540_000, 5, "read", "file", "5-sbb-atk", "sbblv.exe",
       o_uid="5-fdmp-atk", o_name="/db/backup1.dmp", amount=500_000_000)

    # Exfiltration bursts drive the anomaly query: a few minutes of small
    # writes (quiet history windows), then a >2x moving-average spike.
    for s_uid, s_name, t_small, t_burst in [
        ("5-ps-atk", "powershell.exe", _ms(day0, 11, 5), _ms(day0, 11, 9)),
        ("5-sbb-atk", "sbblv.exe", _ms(day0, 11, 10), _ms(day0, 11, 14)),
    ]:
        for k in range(24):  # 4 min of 1 KB trickle every 10 s, gap-free up
            # to the burst so the history windows amt[1]/amt[2] exist
            ev(t_small + k * 10_000, 5, "write", "network", s_uid, s_name,
               amount=1_000, **net(A, 443))
        for k in range(6):  # 1 min burst of 50 MB writes
            ev(t_burst + k * 10_000, 5, "write", "network", s_uid, s_name,
               amount=50_000_000, **net(A, 443))

    # A steady-rate writer to the same IP that must NOT satisfy the
    # moving-average spike condition (exercises the `having` filter).
    for k in range(120):  # 20 min of constant 1 KB every 10 s
        ev(_ms(day0, 11, 0) + k * 10_000, 5, "write", "network",
           "5-tel-atk", "telemetry.exe", amount=1_000, **net(A, 443))

    return rows


def _finish(raw: pa.Table) -> pa.Table:
    """Raw rows → the event table: stably sorted by timestamp, ``eid``
    assigned after the sort (time-ordered), the delete sentinel
    (``amount`` < 0) set to NULL, and ``day`` derived from ``ts``."""
    tbl = raw.take(pc.sort_indices(raw, [("ts", "ascending")]))
    amount = tbl["amount"]
    # Day labels via the (few) unique day indices: no per-row strftime.
    days, idx = np.unique(tbl["ts"].to_numpy() // DAY_MS, return_inverse=True)
    cols = {
        **{c: tbl[c] for c in tbl.column_names},
        "eid": np.arange(1, tbl.num_rows + 1),
        "day": pa.array([day_label(int(d) * DAY_MS) for d in days]).take(idx),
        "amount": pc.if_else(pc.less(amount, 0), None, amount),
    }
    return pa.table(cols, schema=event_arrow_schema())


def _to_pandas(tbl: pa.Table) -> pd.DataFrame:
    """The pandas conversion of the event table: nullable ``Int32``/``Int64``
    for the ints that may be missing, NumPy ints for the never-missing
    ``eid``/``agentid``/``ts``, strings as objects with None."""
    nullable = {pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype()}
    return tbl.to_pandas(types_mapper=nullable.get).astype(
        {c: tbl.schema.field(c).type.to_pandas_dtype()
         for c in ("eid", "agentid", "ts")})


def as_event_frame(rows: list[dict]) -> pd.DataFrame:
    """Hand-made rows → the schema-exact pandas event frame. Each row needs
    at least agentid/ts/etype/op/s_uid/s_name; ``s_pid`` defaults to 1000,
    other omitted columns to NULL."""
    raw = pa.Table.from_pylist([{"s_pid": 1000, **r} for r in rows],
                               schema=_RAW_SCHEMA)
    return _to_pandas(_finish(raw))


def _event_table(*, sf, n_hosts, seed, days, attack) -> pa.Table:
    """Background + attack rows as one finished event table."""
    if n_hosts < 5 and attack:
        raise ValueError("the attack scenario spans hosts 1-5; need n_hosts >= 5")
    n = max(1, int(_N_EVENTS_PER_SF * sf))
    raw = _background(n, n_hosts, _DAY0, days, np.random.default_rng(seed))
    if attack:
        atk = pa.Table.from_pylist(_attack_rows(_DAY0), schema=_RAW_SCHEMA)
        raw = pa.concat_tables([raw, atk])
    return _finish(raw)


def gen_events_pdf(
    *, sf: float = 0.01, n_hosts: int = 10, seed: int = 0,
    days: int = 1, attack: bool = True,
) -> pd.DataFrame:
    """Full trace as a pandas frame (background + attack), schema-typed:
    the pandas conversion of the table :func:`gen_events` loads.

    Deterministic in ``seed``; sorted by timestamp with ``eid`` assigned
    after the sort so event ids are time-ordered.
    """
    return _to_pandas(_event_table(
        sf=sf, n_hosts=n_hosts, seed=seed, days=days, attack=attack,
    ))


def gen_events(
    spark: SparkSession, *, sf: float = 0.01, n_hosts: int = 10, seed: int = 0,
    days: int = 1, attack: bool = True,
) -> DataFrame:
    """Spark DataFrame of the trace, with the exact event schema.

    Goes through Arrow (never pandas), so generation stays numpy-vectorized
    end to end — the SF 0.5 benchmark dataset builds in tens of seconds.
    """
    tbl = _event_table(
        sf=sf, n_hosts=n_hosts, seed=seed, days=days, attack=attack,
    )
    return spark.createDataFrame(tbl, schema=event_spark_schema())
