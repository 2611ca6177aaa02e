"""The repository's benchmark: workloads, ledgers and the comparison tool.

Run it with ``python3 bench/run.py``; compare two ledgers with
``python3 bench/compare.py A.json B.json``.  See ``bench/README.md``.
"""
