"""Set-up probe: a fresh interpreter that imports suvsim, resolves the
``suvsim`` command-line arguments it is given (reading their config file)
and prints ``ready``. run.py times it from spawn to that line as setup_s,
the cost a command-line user pays on every call before any simulation.

    python3 perfbench/setup_probe.py run EXPERIMENT --config FILE --out DIR
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import resolve_config  # noqa: E402

resolve_config(sys.argv[1:])
print("ready", flush=True)
