"""Set-up cost of a one-shot flustab call, as a fresh interpreter pays it:
import the CLI, then read, parse and validate every config named on the
command line. Prints one JSON line with the two times and the path of the
module it imported.

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG...
"""
import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from flustab import cli  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        cli.parse_config(json.load(fh))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "module": cli.__file__}))
