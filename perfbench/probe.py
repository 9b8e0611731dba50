"""Set-up probe: CPU time of importing braidinv plus one warm-up item, in a fresh process.

Usage: python3 perfbench/probe.py <workload>
Prints the elapsed seconds.  The item's checks are left to the timed pass,
which counts its failures.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
start = time.process_time()
import workloads  # noqa: E402  (imports braidinv and braidinv.cli)

workloads.WORKLOADS[sys.argv[1]].warmup().run()
print(repr(time.process_time() - start))
