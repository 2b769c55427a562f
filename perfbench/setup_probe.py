"""Set-up time of one fresh interpreter, printed in seconds:

    python3 perfbench/setup_probe.py SRC_DIR LEVEL...

imports cdalg from SRC_DIR and multiplies once at each level, which pays any
lazy per-level set-up.  Nothing else is imported before the clock starts.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import cdalg  # noqa: E402

for level in map(int, sys.argv[2:]):
    cdalg.Element.basis(level, 1) * cdalg.Element.basis(level, 2)
print(time.perf_counter() - t0)
