"""Set up one workload in a fresh process and exit: what a run does before its first job.

    python3 perfbench/setup_probe.py graph_core

It imports cmgiant, parses the workload's configs and builds its offspring
specs and giant limits. run.py times it from spawn to exit for setup_s.
"""
import sys

from run import import_program

import_program()

from workloads import WORKLOADS  # noqa: E402  (needs cmgiant on sys.path)

WORKLOADS[sys.argv[1]]()
