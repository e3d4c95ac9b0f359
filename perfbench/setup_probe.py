"""One set-up sample in a fresh process, with ``src`` on PYTHONPATH:

    python3 perfbench/setup_probe.py PLAN       # import wlansim, parse PLAN
    python3 perfbench/setup_probe.py --numpy    # import numpy alone

It imports only ``sys`` and ``time`` before it starts the clock, so that the
import of wlansim pays for every module it pulls in, as ``wlansim run`` does.
The first form times ``import wlansim.cli`` and ``cli.parse_config(PLAN)``;
the second times the import of numpy, the one dependency, which the launcher
uses as a reference for the host's speed at set-up work. It prints its times
as one JSON line.
"""
import sys
import time

if sys.argv[1] == "--numpy":
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    times = {"numpy_s": t1 - t0}
else:
    t0 = time.perf_counter()
    import wlansim.cli

    t1 = time.perf_counter()
    wlansim.cli.parse_config(sys.argv[1])
    t2 = time.perf_counter()
    times = {"import_s": t1 - t0, "parse_s": t2 - t1,
             "source": wlansim.cli.__file__}

import json  # noqa: E402

print(json.dumps(times))
