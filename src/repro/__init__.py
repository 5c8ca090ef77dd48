"""Reproduction of "Factor Windows: Cost-based Query Rewriting for
Optimizing Correlated Window Aggregates" (ICDE 2022) on PySpark.

Subpackages: ``core`` (window algebra, WCG, cost-based optimizer,
factor windows; its min-cost forest is the rewritten plan), ``slicing``
(paned/paired baselines and Table-1 costs), ``engine`` (Spark
batch/streaming execution of the plans), ``workloads`` (the paper's
synthetic window-set generators), ``evalfw`` (the §5 evaluation
harness). ``synth_data`` and ``oracle`` are the provided TPC-H-lite
``lineitem`` generator and DuckDB equality checker.
"""
