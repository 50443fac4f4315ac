"""The repository benchmark: two seeded workloads, one command.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and how they relate to the layers of ``repro``.
"""
