"""Set-up of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SMOKE ARGV_JSON

Imports ``storagebalance.cli`` from the checkout's ``src``, loads and
validates the workload's config, builds every allocation the workload uses,
then prints one JSON line with the time of each step and exits.  The caller
times the whole process up to that line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from storagebalance import cli

    import_s = perf_counter() - t0
    import workloads

    name, smoke, argv = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    config_s, build_s = workloads.get(name, smoke).setup(cli, argv)
    print(json.dumps({"import_s": import_s, "config_s": config_s, "build_s": build_s}), flush=True)
