"""Set-up probe, run in a fresh interpreter by run.py.

Usage: setup_probe.py SRC_DIR INPUT_FILE...

Imports polynormal from SRC_DIR, reads every input file with read_polytope,
and prints one JSON line with the import and read times.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import polynormal  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[2:]:
    polynormal.read_polytope(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "read_s": t2 - t1}), flush=True)
