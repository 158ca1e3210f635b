"""The AIQL core: language (lexer/parser/AST/analyzer), query compiler,
pruning-power scheduler, anomaly engine, equivalent-SQL synthesis, and the
big-SQL baseline — the paper's primary contribution (DESIGN.md §2).
"""
