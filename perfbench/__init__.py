"""Whole-tick benchmark: host time per simulated 50 ms tick window, put on
a reference host's scale by a host-speed probe.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and their bounds.
"""
