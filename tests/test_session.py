"""The Spark session factory's driver-memory rule (no JVM is launched)."""
import pytest

from repro.session import driver_memory


@pytest.fixture()
def meminfo(tmp_path, monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)

    def write(kib: int) -> str:
        p = tmp_path / "meminfo"
        p.write_text(f"MemTotal:       {kib} kB\nMemFree:        1024 kB\n")
        return str(p)
    return write


def test_env_wins(meminfo, monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory(meminfo(64 << 20)) == "3g"


@pytest.mark.parametrize("gib, want", [
    (1, "2g"),    # half is below the 2g floor
    (6, "3g"),
    (16, "8g"),
    (64, "8g"),   # half is above the 8g ceiling
])
def test_half_of_memtotal_clamped(meminfo, gib, want):
    assert driver_memory(meminfo(gib << 20)) == want


def test_unreadable_meminfo(meminfo, tmp_path):
    assert driver_memory(str(tmp_path / "missing")) == "2g"
