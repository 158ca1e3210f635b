"""The end-to-end APT investigation workload (paper §3): 19 multievent
queries (three written as dependency queries) + 1 anomaly query covering
attack steps a1–a5, plus the conciseness metrics for Table B.
"""
