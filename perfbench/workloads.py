"""The benchmark's workloads: inputs made from a seed, and checks on outputs.

Each workload is one ``storagebalance`` command.  Its output is split into
operations (a sweep point of ``simulate``, a check of ``limit-checks``, a
field of ``inspect``); each operation is checked on its own, so a failure
counts against the number attempted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

REFERENCE_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance within which a number in an operation matches the
#: reference output captured at ``REFERENCE_SEED``.
REL_TOL = 1e-9

#: Trials of every sweep point re-solved through an independent route.
CROSS_CHECK_ROWS = 3


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def differs(a, b, rel: float) -> bool:
    """True if two parsed outputs differ beyond relative tolerance ``rel``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() != b.keys() or any(differs(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(differs(x, y, rel) for x, y in zip(a, b))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool):
        return abs(a - b) > rel * max(abs(a), abs(b))
    return a != b


class Workload:
    """Base: one CLI call whose output file is parsed into operations."""

    name: str
    output_name: str

    def __init__(self, name: str, smoke: bool):
        self.name = name
        self.smoke = smoke

    def reference_path(self) -> Path:
        suffix = ".smoke" if self.smoke else ""
        return REFERENCE_DIR / f"{self.name}{suffix}{Path(self.output_name).suffix}"

    def canonical(self, text: str) -> str:
        """The part of the output that is deterministic for a seed."""
        return text

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        raise NotImplementedError

    def operations(self, canonical: str) -> dict:
        raise NotImplementedError

    def expected(self) -> list[str]:
        raise NotImplementedError

    def invariants(self, key: str, value, seed: int) -> str | None:
        return None


class Simulate(Workload):
    output_name = "sweep.csv"

    def __init__(self, name, smoke, kinds, n, d_values, r, trials):
        super().__init__(name, smoke)
        self.kinds, self.n, self.d_values, self.r, self.trials = kinds, n, d_values, r, trials

    @property
    def work(self) -> int:
        """Trial-solves per call."""
        return self.trials * len(self.kinds) * len(self.d_values)

    def prepare(self, seed, workdir):
        config = {
            "kind": self.kinds,
            "n": self.n,
            "d": self.d_values,
            "r": self.r,
            "sigma": {"fraction_of_n": 0.8},
            "trials": self.trials,
            "master_seed": seed,
            "workers": 1,
            "outputs": [{"format": "csv", "path": str(workdir / self.output_name)}],
        }
        path = workdir / f"simulate-{seed}.json"
        path.write_text(json.dumps(config))
        return ["simulate", "--config", str(path)]

    def setup(self, cli, argv):
        t0 = perf_counter()
        with open(argv[2]) as fh:
            config = cli.ExperimentConfig.from_dict(json.load(fh))
        t1 = perf_counter()
        for kind in config.kinds:
            for d in config.d_values:
                cli.build_allocation(kind, config.n, d=d, r=config.r, m=config.m)
        return t1 - t0, perf_counter() - t1

    def expected(self):
        return [f"{kind}/d{d}" for kind in self.kinds for d in self.d_values]

    def operations(self, canonical):
        rows = [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(canonical))]
        return {f"{row['kind']}/d{row['d']}": row for row in rows}

    def invariants(self, key, row, seed):
        if row["trials"] != self.trials or row["seed"] != seed:
            return "trials or seed column does not echo the input"
        if not row["i_q05"] >= 1 - 1e-9:
            return f"i_q05 {row['i_q05']!r} below 1"
        if not row["p_lo"] <= row["p_sigma"] <= row["p_hi"]:
            return "p_sigma outside its Wilson interval"
        return None

    def cross_check(self, sb, captured, report, seed) -> dict[str, str]:
        """Re-solve captured trials by an independent route.

        block_design goes to the max-flow oracle, cyclic to the LP.  The
        package has no independent oracle for cyclic_xor, so its t* is held
        between the perfect-balance lower bound and the load of the feasible
        split that serves every object by its first recovery set.
        """
        bad: dict[str, str] = {}
        for cap in captured:
            alloc, key = cap["alloc"], f"{cap['alloc'].kind}/d{cap['alloc'].d}"
            for row, t in zip(cap["rows"], cap["t_star"]):
                first = np.zeros(alloc.n)
                for i, sets in enumerate(alloc.recovery_sets):
                    first[list(sets[0])] += row[i]
                scale = max(1.0, float(t))
                if not row.sum() / alloc.n - 1e-9 * scale <= t <= first.max() + 1e-9 * scale:
                    bad[key] = f"t* {t!r} outside its balance bounds"
                if alloc.kind == "cyclic":
                    ref = sb.loadsolver.min_max_load(sb.allocation.to_matrices(alloc), row).max_load
                elif alloc.r == 1 and alloc.kind != "single_choice":
                    ref = sb.loadsolver.min_max_load_flow(alloc, row)
                else:
                    continue
                if abs(ref - t) > 1e-7 * scale:
                    bad[key] = f"t* {t!r} differs from the independent route {ref!r}"
        for point in report["sweep_points"]:
            key = f"{point['kind']}/d{point['d']}"
            if point["route"] == "lp" and point["lp_solves"] != point["trials"]:
                bad[key] = f"{point['lp_solves']} LP solves for {point['trials']} trials"
        return bad


class LimitChecks(Workload):
    output_name = "limits.json"

    def __init__(self, name, smoke, k, d_values, trials):
        super().__init__(name, smoke)
        self.k, self.d_values, self.trials = k, d_values, trials

    @property
    def work(self) -> int:
        """Trials times d-values per call."""
        return self.trials * len(self.d_values)

    def prepare(self, seed, workdir):
        config = {"k": self.k, "d": self.d_values, "trials": self.trials, "master_seed": seed}
        path = workdir / f"limits-{seed}.json"
        path.write_text(json.dumps(config))
        out = workdir / self.output_name
        return ["limit-checks", "--config", str(path), "--out", str(out), "--format", "json"]

    def setup(self, cli, argv):
        t0 = perf_counter()
        with open(argv[2]) as fh:
            cli._validate_config(json.load(fh), "limit_checks")
        return perf_counter() - t0, 0.0

    def canonical(self, text):
        return json.dumps(json.loads(text)["data"], indent=2) + "\n"

    def expected(self):
        names = []
        for d in self.d_values:
            names += [f"gumbel_ks_line_k{self.k}_d{d}", f"gumbel_ks_circle_k{self.k}_d{d}",
                      f"circle_neq_line_prob_k{self.k}_d{d}",
                      f"tail_sandwich_q50_k{self.k}_d{d}", f"tail_sandwich_q90_k{self.k}_d{d}"]
        for rng in ("mid", "tiny", "top"):
            names += [f"count_{rng}_mean_k{self.k}", f"count_{rng}_mean_limit_k{self.k}"]
        names.append(f"count_mid_var_k{self.k}")
        return names

    def operations(self, canonical):
        return {c["name"]: c for c in json.loads(canonical)["checks"]}

    def invariants(self, key, check, seed):
        if not (math.isfinite(check["statistic"]) and math.isfinite(check["threshold"])):
            return "statistic or threshold is not finite"
        if key.startswith(("gumbel_ks", "circle_neq")) and check["passed"] != (
            check["statistic"] <= check["threshold"]
        ):
            return "verdict disagrees with statistic and threshold"
        return None

    def cross_check(self, sb, captured, report, seed) -> dict[str, str]:
        """Recompute the Monte Carlo statistics from the same demand rows.

        Window sums are direct sums of shifted slices rather than prefix-sum
        differences, and the KS distance and moments are computed afresh.
        """
        checks = report["operations"]
        bad: dict[str, str] = {}
        k, trials = self.k, self.trials
        s = sb.spacings.spacing_matrix(k, 1.0, seed, trials)
        if np.abs(s.sum(axis=1) - 1.0).max() > 1e-12 or (s < 0).any():
            return {name: "demand rows are not unit spacings" for name in checks}

        def expect(name, value, tol):
            got = checks.get(name, {}).get("statistic")
            if got is None or not abs(got - value) <= tol:
                bad[name] = f"statistic {got!r}, recomputed {float(value)!r}"

        for d in self.d_values:
            line = sum(s[:, j : k - d + 1 + j] for j in range(d)).max(axis=1)
            ext = np.concatenate([s, s[:, : d - 1]], axis=1)
            circ = sum(ext[:, j : k + j] for j in range(d)).max(axis=1)
            center = sb.spacings.dspacing_gumbel_centering(k, d)
            for label, m in (("line", line), ("circle", circ)):
                x = np.sort(m * k - center)
                f = np.exp(-np.exp(-x))
                ks = max((np.arange(1, trials + 1) / trials - f).max(),
                         (f - np.arange(trials) / trials).max())
                expect(f"gumbel_ks_{label}_k{k}_d{d}", ks, 1e-6)
            # Sums taken in another order may flip a near-tie; allow two trials.
            expect(f"circle_neq_line_prob_k{k}_d{d}", np.mean(circ > line), 2 / trials)
            for q in (50, 90):
                x = np.quantile(line, q / 100)
                expect(f"tail_sandwich_q{q}_k{k}_d{d}", np.mean(circ > x), 2 / trials)
        for rng, lo, hi in (("mid", 0.5 / k, 2.0 / k), ("tiny", 1.0 / k**2, 4.0 / k**2),
                            ("top", math.log(k) / k, (math.log(k) + 1) / k)):
            counts = ((s >= lo) & (s <= hi)).sum(axis=1)
            expect(f"count_{rng}_mean_k{k}", counts.mean(), 1e-9 * max(1.0, counts.mean()))
            if rng == "mid":
                var = counts.var(ddof=1)
                expect(f"count_mid_var_k{k}", var, 1e-9 * max(1.0, var))
        return bad


class Inspect(Workload):
    output_name = "inspect.json"

    def __init__(self, name, smoke, n, d):
        super().__init__(name, smoke)
        self.n, self.d = n, d

    @property
    def work(self) -> int:
        """Objects per call."""
        return self.n

    def prepare(self, seed, workdir):
        out = workdir / self.output_name
        return ["inspect", "--kind", "cyclic", "--n", str(self.n), "--d", str(self.d),
                "--out", str(out)]

    def setup(self, cli, argv):
        t0 = perf_counter()
        cli.build_allocation("cyclic", self.n, d=self.d)
        return 0.0, perf_counter() - t0

    def expected(self):
        return ["kind", "n", "k", "d", "r", "valid_regular_balanced", "violations",
                "hall_check", "matrix_shape_M", "matrix_shape_T", "overlap_sum",
                "r_gap_radius", "pairwise_overlap_histogram"]

    def operations(self, canonical):
        return json.loads(canonical)

    def cross_check(self, sb, captured, report, seed) -> dict[str, str]:
        """Compare every field with the closed forms of a cyclic design:
        objects at circular distance delta < d share d - delta nodes."""
        n, d = self.n, self.d
        hist = {str(d - delta): n for delta in range(1, d)}
        hist["0"] = n * (n - 1) // 2 - n * (d - 1)
        truth = {
            "kind": "cyclic", "n": n, "k": n, "d": d, "r": 1,
            "valid_regular_balanced": True, "violations": [],
            "hall_check": {"passed": True, "witness": None},
            "matrix_shape_M": [n, n * d], "matrix_shape_T": [n, n * d],
            "overlap_sum": (d - 1) * d * n, "r_gap_radius": d - 1,
            "pairwise_overlap_histogram": {k: hist[k] for k in sorted(hist)},
        }
        fields = report["operations"]
        return {key: f"{fields.get(key)!r}, expected {value!r}"
                for key, value in truth.items() if differs(fields.get(key), value, 0.0)}


def get(name: str, smoke: bool = False) -> Workload:
    if name == "cyclic_sweep":
        if smoke:
            return Simulate(name, smoke, ["cyclic"], 12, [1, 2, 3], 1, 40)
        return Simulate(name, smoke, ["cyclic"], 100, [1, 2, 3, 4, 5], 1, 1000)
    if name == "lp_designs":
        kinds = ["block_design", "cyclic_xor"]
        return Simulate(name, smoke, kinds, 21, [3] if smoke else [3, 5], 2, 4 if smoke else 25)
    if name == "limit_laws":
        if smoke:
            return LimitChecks(name, smoke, 300, [1, 2], 60)
        return LimitChecks(name, smoke, 10_000, [1, 2, 3], 150)
    if name == "inspect_large":
        return Inspect(name, smoke, 40 if smoke else 1000, 3)
    raise KeyError(f"unknown workload {name!r}")


NAMES = ("cyclic_sweep", "lp_designs", "limit_laws", "inspect_large")
