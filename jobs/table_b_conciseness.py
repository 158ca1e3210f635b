"""Table B — query conciseness: AIQL vs semantically-equivalent SQL
(reproduces the paper's ">=3.0x constraints, 3.5x words, 5.2x chars").

Pure metadata computation (no Spark execution needed beyond imports).

Usage: python jobs/table_b_conciseness.py
"""
from __future__ import annotations

import os as _os, sys as _sys
_ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
_sys.path[:0] = [_ROOT, _os.path.join(_ROOT, "src")]


def measure_all():
    """Per-query conciseness rows + aggregate ratios for the workload."""
    from repro.core.baseline import baseline_sql
    from repro.core.dependency import analyze_text
    from repro.workload.conciseness import aggregate_ratios, measure
    from repro.workload.queries import QUERIES

    rows = [
        measure(q.name, analyze_text(q.aiql), baseline_sql(q.aiql, "postgres"))
        for q in QUERIES
    ]
    return rows, aggregate_ratios(rows)


def render(rows, ratios) -> str:
    out = [
        "Table B — query conciseness (AIQL vs equivalent SQL)",
        f"{'query':<28}{'constraints':>16}{'words':>14}{'chars':>15}",
        f"{'':<28}{'AIQL':>8}{'SQL':>8}{'AIQL':>7}{'SQL':>7}{'AIQL':>7}{'SQL':>8}",
    ]
    for r in rows:
        out.append(
            f"{r.name:<28}{r.aiql_constraints:>8}{r.sql_constraints:>8}"
            f"{r.aiql_words:>7}{r.sql_words:>7}{r.aiql_chars:>7}{r.sql_chars:>8}"
        )
    out.append(
        f"{'RATIO (SQL / AIQL)':<28}"
        f"{ratios['constraints']:>15.1f}x{ratios['words']:>13.1f}x"
        f"{ratios['chars']:>14.1f}x"
    )
    out.append("paper: >=3.0x constraints, 3.5x words, 5.2x chars")
    return "\n".join(out)


def main() -> None:
    rows, ratios = measure_all()
    print(render(rows, ratios))


if __name__ == "__main__":
    main()
