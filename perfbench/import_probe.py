"""Cold import times in this fresh interpreter, one module after another.

Each time is what that import adds on top of the ones before it, so the
four add up to the cost of `import gaugelab.cli` from nothing.  Prints one
JSON object.
"""

import json
import time

clock = time.perf_counter
times = {}
t0 = clock()
import numpy  # noqa: E402,F401

times["numpy"] = clock() - t0
t0 = clock()
import scipy.special  # noqa: E402,F401

times["scipy_special"] = clock() - t0
t0 = clock()
import gaugelab  # noqa: E402,F401

times["gaugelab"] = clock() - t0
t0 = clock()
import gaugelab.cli  # noqa: E402,F401

times["gaugelab_cli"] = clock() - t0
print(json.dumps(times))
