"""The repo's one perf ledger: four battle workloads, end-to-end and
per-layer metrics, traced runs.  See ``README.md`` in this directory.

    python3 benchmarks/ledger/run.py --workload battle_uniform --seed 0 \
        --seconds 20 --trace 0                      # one run (the driver's command)
    PYTHONPATH=src:. python -m benchmarks.ledger          # every workload, both runs
    PYTHONPATH=src:. python -m benchmarks.ledger.compare A.json B.json
"""
