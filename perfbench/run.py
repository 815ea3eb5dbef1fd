#!/usr/bin/env python3
"""Benchmark of the ``storagebalance`` CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads and metrics are listed in ``BENCHMARK.json``.  One run:

1. times ``setup_probe.py`` in fresh interpreters (import, config, builds);
2. calls ``cli.main`` once at the reference seed, which warms the process up
   and compares the output with ``reference/``;
3. calls ``cli.main`` at ``--seed`` for ``--seconds`` seconds.  Each call is
   preceded by ``calibrate()``, and times are reported relative to it,
   scaled by ``CALIBRATION_S`` (see ``scaled``).  With
   ``--trace 1`` the calls alternate between plain and traced (see
   ``spans.py``), and per-layer metrics come from the traced ones;
4. makes one more traced call that keeps a few demand rows, and checks the
   output against independent routes (see ``workloads.py``).

The package is imported from the checkout's ``src`` in one process with
``workers=1``.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``perfbench/out/`` and the spans of the last
traced call beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import workloads
from spans import COUNTS, Tracer, summarise, sweep_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Calls timed at least, however short ``--seconds`` is.
MIN_CALLS = 3

#: A fixed time for ``calibrate()``; reported times are scaled to a host on
#: which it takes this long.  On the host the benchmark was built on (2 vCPUs
#: of an Intel Xeon, Python 3.11) its median in one run ranged over
#: 0.07-0.13 s.
CALIBRATION_S = 0.1


def calibrate() -> float:
    """Time a fixed mix of pure-Python and numpy work that uses nothing of
    the package.

    The host is shared: the same call runs up to twice as slow for stretches
    of seconds to minutes, and this kernel slows with it.  Dividing a call's
    time by the kernel's time just before it takes most of that out.
    """
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(200_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + 3 * i
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.exponential(size=200_000)
        np.cumsum(x, out=x)
        x.max()
    return perf_counter() - t0


def scaled(times: list[float], calibrations: list[float]) -> float:
    """Median of time / calibration, in seconds at the speed of the host
    where ``calibrate()`` took ``CALIBRATION_S``."""
    return CALIBRATION_S * statistics.median(t / c for t, c in zip(times, calibrations))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc, level = None, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            lvl = int((index / "level").read_text())
            if lvl > level:
                level, llc = lvl, f"L{lvl} {(index / 'size').read_text().strip()}"
        except (OSError, ValueError):
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": 1,
    }


def probe_setup(wl, argv: list[str]) -> dict:
    """Time a fresh interpreter from spawn until the workload is ready to run
    its first trial."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, "1" if wl.smoke else "0",
           json.dumps(argv)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return dict(json.loads(line), setup_s=ready)


class Runner:
    """Calls ``cli.main`` in this process and checks each output."""

    def __init__(self, wl, sb, workdir: Path):
        self.wl, self.sb = wl, sb
        self.out_path = workdir / wl.output_name
        self.attempted = 0
        self.failures: list[dict] = []

    def call(self, argv: list[str], tracer=None) -> tuple[float, str | None]:
        self.out_path.unlink(missing_ok=True)
        gc.collect()
        sb = self.sb
        main = (lambda args: tracer.call(sb.cli.main, args)) if tracer else sb.cli.main
        patches = tracer.patched(sb.cli, sb.metrics, sb.loadsolver, sb.limitlaws) if tracer else nullcontext()
        t0 = perf_counter()
        try:
            with patches:
                t0 = perf_counter()
                code = main(argv)
                wall = perf_counter() - t0
        except Exception:
            sys.stderr.write(traceback.format_exc())
            return perf_counter() - t0, None
        if code != 0 or not self.out_path.exists():
            return wall, None
        return wall, self.out_path.read_text()

    def parse(self, text: str | None) -> dict | None:
        try:
            return self.wl.operations(self.wl.canonical(text)) if text is not None else None
        except (ValueError, KeyError):
            return None

    def check(self, label: str, text: str | None, seed: int, baseline: dict | None,
              rel: float, extra: dict | None = None) -> dict | None:
        """Count the operations of one output; return them parsed.

        ``extra`` maps operations to failures found by other checks."""
        wl = self.wl
        expected = wl.expected()
        ops = self.parse(text)
        if ops is None:
            reason = "call failed" if text is None else "unreadable output"
            reasons = {key: reason for key in expected}
        else:
            reasons = {key: "unexpected operation" for key in ops.keys() - set(expected)}
            for key in expected:
                if key not in ops:
                    reasons[key] = "missing from the output"
                    continue
                reason = wl.invariants(key, ops[key], seed)
                if reason is None and baseline is not None and workloads.differs(ops[key], baseline.get(key), rel):
                    reason = "differs from the reference" if rel else "differs from the first call"
                reason = reason or (extra or {}).get(key)
                if reason:
                    reasons[key] = reason
        self.attempted += len(expected) + len(reasons.keys() - set(expected))
        self.failures += [{"call": label, "operation": k, "reason": r} for k, r in reasons.items()]
        return ops


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2],
            "min": min(values), "max": max(values)}


def run(args) -> dict:
    from storagebalance import allocation, cli, limitlaws, loadsolver, metrics, spacings

    sb = argparse.Namespace(allocation=allocation, cli=cli, limitlaws=limitlaws,
                            loadsolver=loadsolver, metrics=metrics, spacings=spacings)
    wl = workloads.get(args.workload, args.smoke)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        argv = wl.prepare(args.seed, workdir)
        runner = Runner(wl, sb, workdir)
        problems: list[str] = []

        # Warm-up at the reference seed, compared with the stored reference.
        ref_path = wl.reference_path()
        reference = ref_path.read_text() if ref_path.exists() else None
        if reference is None:
            problems.append(f"no reference output {ref_path.name}")
        ref_argv = wl.prepare(workloads.REFERENCE_SEED, workdir)
        _, text = runner.call(ref_argv)
        ref_ops = wl.operations(reference) if reference is not None else None
        runner.check("reference", text, workloads.REFERENCE_SEED, ref_ops, workloads.REL_TOL)
        identical = text is not None and reference is not None and wl.canonical(text) == reference

        # Timed calls at the run's seed; with tracing, plain and traced calls
        # alternate.  Set-up probes are spread through the window so that
        # they meet the machine in different states; their time extends it.
        n_probes = 1 if args.smoke else 7
        probes, walls, cals, traced, first = [], [], [], [], None
        start = perf_counter()
        deadline = start + args.seconds
        pair = 0
        while perf_counter() < deadline or len(walls) < MIN_CALLS or len(probes) < n_probes:
            if len(probes) < n_probes and perf_counter() >= start + len(probes) * args.seconds / n_probes:
                t0 = perf_counter()
                probes.append(probe_setup(wl, argv))
                deadline += perf_counter() - t0
                continue
            order = (False,) if not args.trace else ((False, True) if pair % 2 == 0 else (True, False))
            for with_trace in order:
                tracer = Tracer() if with_trace else None
                cal = calibrate()
                wall, text = runner.call(argv, tracer)
                ops = runner.check(f"timed {len(walls) + len(traced)}", text, args.seed, first, 0.0)
                first = first if first is not None else ops
                if tracer is None:
                    walls.append(wall)
                    cals.append(cal)
                else:
                    traced.append((wall, cal, tracer))
            pair += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # One more traced call keeps demand rows for the independent checks.
        tracer = Tracer(capture_rows=workloads.CROSS_CHECK_ROWS)
        _, text = runner.call(argv, tracer)
        points = sweep_points(tracer.spans)
        ops = runner.parse(text)
        report = {"operations": ops, "sweep_points": points}
        bad = wl.cross_check(sb, tracer.captured, report, args.seed) if ops is not None else {}
        runner.check("cross-check", text, args.seed, first, 0.0, extra=bad)

        # Times relative to the calibration kernel: raw wall times of one run
        # vary with the load of the shared host (see README.md).
        wall_s = scaled(walls, cals)
        fastest_probe = min(probes, key=lambda p: p["setup_s"])
        values = {
            "wall_s": wall_s,
            "trials_per_s": wl.work / wall_s,
            # A probe runs in another process, and one calibration beside it
            # adds more noise than it removes; the run's median calibration
            # still takes out a host that is slower for the whole run.
            "setup_s": CALIBRATION_S * statistics.median(p["setup_s"] for p in probes)
            / statistics.median(cals),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
            "cli.import_s": fastest_probe["import_s"],
            "cli.config_s": fastest_probe["config_s"],
            "allocation.build_s": fastest_probe["build_s"],
        }
        if traced:
            summaries = [summarise(t.spans, w) for w, _, t in traced]
            for name in COUNTS:
                if any(s[name] != summaries[0][name] for s in summaries):
                    problems.append(f"count {name} differs between traced calls")
            fastest = min(range(len(traced)), key=lambda i: traced[i][0])
            values.update(summaries[fastest])
            traced_s = scaled([w for w, _, _ in traced], [c for _, c, _ in traced])
            values["trace.overhead_frac"] = traced_s / wall_s - 1.0
            tracer = traced[fastest][2]
        checks = (first or {}).values() if isinstance(wl, workloads.LimitChecks) else ()
        values["limitlaws.checks_passed"] = sum(1 for c in checks if c["passed"] is True)
        values["cli.csv_identical"] = 1 if identical else 0

        return {
            "workload": wl.name,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(),
            "work_per_call": wl.work,
            "wall_s": quartiles(walls),
            "walls": walls,
            "calibrations": cals,
            "traced_walls": [w for w, _, _ in traced],
            "traced_calibrations": [c for _, c, _ in traced],
            "setup_s": quartiles([p["setup_s"] for p in probes]),
            "setup_probes": probes,
            "sweep_points": points,
            "attempted": runner.attempted,
            "failures": runner.failures,
            "problems": problems,
            "values": values,
            "spans": tracer.dump(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "storagebalance" / "cli.py").is_file():
        sys.stderr.write(f"no storagebalance sources under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, str(SRC))

    record = run(args)
    names = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]} for m in names}
    failed = len(record["failures"])
    result = {
        "correct": failed == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    spans = record.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(dict(record, result=result), indent=1) + "\n")
    (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    env = record["environment"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['wall_s']['n']} timed calls of {record['work_per_call']} work items; "
          f"{env['nproc']} CPUs ({env['cpu_model']}, {env['llc']}), Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, workers=1")
    print(f"  raw wall time: median {record['wall_s']['median']:.4g} s, "
          f"quartiles {record['wall_s']['q1']:.4g}-{record['wall_s']['q3']:.4g} s; "
          f"calibration median {statistics.median(record['calibrations']):.4g} s "
          f"(reference {CALIBRATION_S} s)")
    for point in record["sweep_points"]:
        print(f"  sweep point {point['kind']} d={point['d']}: route {point['route']}, "
              f"{point['lp_solves']} LP solves")
    for f in record["failures"][:20]:
        print(f"  FAILED {f['call']} {f['operation']}: {f['reason']}")
    for p in record["problems"]:
        print(f"  PROBLEM {p}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
