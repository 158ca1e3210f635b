"""System-monitoring substrate: event data model, synthetic enterprise
trace generator (with injected APT kill-chain), and the time/space
partitioned Parquet store — the AIQL paper's "data collection and storage"
layer, rebuilt synthetically (see DESIGN.md §4).
"""
