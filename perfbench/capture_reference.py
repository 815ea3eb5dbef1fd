#!/usr/bin/env python3
"""Write the reference outputs the benchmark compares against.

Usage, from the root of a checkout: python3 perfbench/capture_reference.py

Runs every workload once at ``workloads.REFERENCE_SEED``, at full and smoke
size, and stores the deterministic part of its output under
``perfbench/reference/``.  Re-run it only in a change that means to alter
the outputs, and say why in that change.
"""

import sys
import tempfile
from pathlib import Path

import workloads

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from storagebalance import cli

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for smoke in (False, True):
            wl = workloads.get(name, smoke)
            with tempfile.TemporaryDirectory(dir=workloads.REFERENCE_DIR.parent) as tmp:
                if cli.main(wl.prepare(workloads.REFERENCE_SEED, Path(tmp))) != 0:
                    sys.exit(f"{name}: the command failed")
                text = (Path(tmp) / wl.output_name).read_text()
            wl.reference_path().write_text(wl.canonical(text))
            print(f"wrote {wl.reference_path().name}")
