"""Cold-start probe, run in a fresh interpreter: ``import repro`` plus
building one workload's inputs, timed by ``gauge.HostClock``.

Usage: ``python cold.py <workload> <seed>``; prints ``{"setup_s": ...,
"host_s": ...}`` (rescaled and host seconds). Run it under
``-X importtime`` to also get the per-module import cost on standard
error.
"""

import json
import sys

from gauge import HostClock

with HostClock() as clock:
    import repro  # noqa: F401  (the import is what is being timed)
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(json.dumps({"setup_s": clock.seconds, "host_s": clock.host_s}))
