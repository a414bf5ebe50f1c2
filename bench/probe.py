"""Time the package's lazy set-up in this fresh process.

Prints one JSON line: the seconds taken by ``import stanley`` plus the
first ``load_appendix()``, as measured (``wall_s``) and at the reference
pace of ``pace.py`` (``setup_s``), with the pace taken from kernel samples
just before and after; and the file the package was imported from.
Interpreter start-up is not included.
"""

import json
import statistics
import time

from pace import REFERENCE_KERNEL_S, time_kernel

#: Kernel samples on each side of the timed set-up; the first is a warm-up.
SAMPLES = 10

before = [time_kernel() for _ in range(SAMPLES + 1)][1:]
t0 = time.perf_counter()
import stanley  # noqa: E402  (the import is what is being timed)

stanley.load_appendix()
elapsed = time.perf_counter() - t0
after = [time_kernel() for _ in range(SAMPLES)]
scale = REFERENCE_KERNEL_S / statistics.median(before + after)
print(json.dumps({"setup_s": elapsed * scale, "wall_s": elapsed, "package": stanley.__file__}))
