"""Experiment harness: simulate metrics, run limit checks, inspect designs.

Subcommands: ``simulate``, ``limit-checks``, ``inspect``, ``exact-k3``.
Configuration comes from a JSON file; command-line flags override config
fields.  Exit codes: 0 success, 1 internal error (an uncaught exception,
reported with its traceback), 2 configuration or input error, 3 numerical
failure.

Reports embed a config echo, the seed, and the artifact version, so every
row is reproducible from the file alone.  Timestamps live only in the JSON
metadata block; the data sections (and CSV files entirely) are byte
deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .allocation import (
    Allocation,
    UnsupportedDesignError,
    hall_check,
    load_allocation,
    overlap_sum,
    pairwise_overlap_histogram,
    r_gap_radius,
    validate_regular_balanced,
)
from .limitlaws import run_limit_checks
from .loadsolver import FAMILIES, NumericalFailureError
from . import metrics
from .metrics import ExperimentRow, csv_text, estimate_metrics, exact_region_k3, rows_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration; the message carries the offending field path."""


def _bad(path: str, expected: str, value) -> ConfigError:
    return ConfigError(f"config field {path}: expected {expected}, got {value!r}")


def _integer(lo: int, hi: float = math.inf):
    """Check for an integer (an ``int`` that is not a ``bool``) in [lo, hi]."""
    expected = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"

    def check(path: str, value) -> None:
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise _bad(path, expected, value)

    return check


def _kind(path: str, value) -> None:
    if not isinstance(value, str) or value not in FAMILIES:
        raise _bad(path, f"a design kind ({', '.join(FAMILIES)})", value)


_SIGMA_RULES = ("absolute", "fraction_of_n", "b_n_over_log_n")


def _sigma_spec(path: str, value) -> None:
    """Check for an object holding one sigma rule with a finite value > 0."""
    if not (isinstance(value, dict) and len(value) == 1 and set(value) <= set(_SIGMA_RULES)):
        raise _bad(path, f"an object with one of {', '.join(_SIGMA_RULES)}", value)
    ((rule, x),) = value.items()
    # comparing with the largest float is exact for ints, and false for nan
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0 < x <= sys.float_info.max:
        raise _bad(f"{path}/{rule}", "a finite number > 0", x)


def _output_list(path: str, value) -> None:
    if not isinstance(value, list):
        raise _bad(path, "a list of outputs", value)
    for i, out in enumerate(value):
        if not (
            isinstance(out, dict)
            and set(out) == {"format", "path"}
            and out["format"] in ("csv", "json")
            and isinstance(out["path"], str)
            and out["path"]
        ):
            raise _bad(f"{path}/{i}", 'an object {"format": "csv" or "json", "path": "..."}', out)


def _one_or_more(check):
    """Check for one value that passes ``check`` or a non-empty list of them."""

    def check_each(path: str, value) -> None:
        if not isinstance(value, list):
            return check(path, value)
        if not value:
            raise _bad(path, "a value or a non-empty list", value)
        for i, item in enumerate(value):
            check(f"{path}/{i}", item)

    return check_each


_SEED = _integer(0, 2**64 - 1)

#: Each config section's fields: {field: (required, check)}.
_FIELDS = {
    "simulate": {
        "kind": (True, _one_or_more(_kind)),
        "n": (True, _integer(1)),
        "m": (False, _integer(1)),
        "d": (False, _one_or_more(_integer(1))),
        "r": (False, _integer(1)),
        "sigma": (True, _one_or_more(_sigma_spec)),
        "trials": (True, _integer(1)),
        "master_seed": (True, _SEED),
        "workers": (False, _integer(1)),
        "outputs": (False, _output_list),
    },
    "limit_checks": {
        "k": (True, _integer(3)),
        "d": (True, _one_or_more(_integer(1))),
        "trials": (True, _integer(2)),
        "count_trials": (False, _integer(2)),
        "master_seed": (True, _SEED),
        "outputs": (False, _output_list),
    },
}


def _validate_config(data: dict, section: str) -> None:
    """Raise ``ConfigError`` for the first unknown field of ``data``, else
    for its first missing or bad field in ``_FIELDS[section]`` order."""
    fields = _FIELDS[section]
    for name in data:
        if name not in fields:
            raise ConfigError(f"config field {name}: unknown field")
    for name, (required, check) in fields.items():
        if name in data:
            check(name, data[name])
        elif required:
            raise ConfigError(f"config field {name}: required field is missing")


def build_allocation(kind: str, n: int, d: int = 1, r: int = 1, m: int = 1) -> Allocation:
    """Build the named family's design (``FAMILIES``); block designs ignore n.

    Parameters a builder rejects are a configuration error.
    """
    family = FAMILIES.get(kind)
    if family is None:
        raise ConfigError(f"unknown design kind {kind!r}")
    try:
        return family.build_with(n=n, d=d, r=r, m=m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_sigma(spec: dict, n: int) -> float:
    """The sigma that ``spec``'s rule gives for n nodes; it and n/sigma, the
    inverse of the perfectly balanced node load, must be finite."""
    if "absolute" in spec:
        sigma = float(spec["absolute"])
    elif "fraction_of_n" in spec:
        sigma = float(spec["fraction_of_n"]) * n
    elif "b_n_over_log_n" in spec:
        if n < 2:
            raise ConfigError("sigma rule b_n_over_log_n needs n >= 2")
        sigma = float(spec["b_n_over_log_n"]) * n / math.log(n)
    else:
        raise ConfigError(f"unresolvable sigma spec {spec!r}")
    if not (math.isfinite(sigma) and math.isfinite(n / sigma)):
        raise ConfigError(f"config field sigma: {spec!r} at n={n} resolves to {sigma}, "
                          "where sigma or n/sigma is not finite")
    return sigma


def _as_list(x) -> list:
    return x if isinstance(x, list) else [x]


@dataclass
class ExperimentConfig:
    """Resolved simulate configuration (sweeps kept as lists)."""

    kinds: list[str]
    n: int
    m: int
    d_values: list[int]
    r: int
    sigma_specs: list[dict]
    trials: int
    master_seed: int
    workers: int = 1
    outputs: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _validate_config(data, "simulate")
        return cls(
            kinds=_as_list(data["kind"]),
            n=data["n"],
            m=data.get("m", 1),
            d_values=_as_list(data.get("d", 1)),
            r=data.get("r", 1),
            sigma_specs=_as_list(data["sigma"]),
            trials=data["trials"],
            master_seed=data["master_seed"],
            workers=data.get("workers", 1),
            outputs=data.get("outputs", []),
        )

    def echo(self) -> dict:
        return {
            "kind": self.kinds,
            "n": self.n,
            "m": self.m,
            "d": self.d_values,
            "r": self.r,
            "sigma": self.sigma_specs,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "workers": self.workers,
        }


def run_simulate(config: ExperimentConfig) -> list[ExperimentRow]:
    """One row per (kind, d, sigma) in deterministic sweep order.

    Every design is built and every sigma resolved before any solve, so a
    bad config fails before any work.  One ``t_star_series`` call then
    solves all the designs with the master seed, on one demand draw per
    chunk for the designs that share the number of objects k, so per-trial
    demand vectors are paired across designs and redundancy levels.  sigma
    only scales a series, and ``estimate_metrics`` reduces it at each sigma.
    """
    trials, seed = config.trials, config.master_seed
    designs = []
    for kind in config.kinds:
        for d in config.d_values:
            alloc = build_allocation(kind, config.n, d=d, r=config.r, m=config.m)
            designs.append((kind, alloc, [resolve_sigma(s, alloc.n) for s in config.sigma_specs]))
    # looked up on the module, so that a wrapper set on
    # ``metrics.t_star_series`` (as perfbench's tracer sets) sees the call
    series = metrics.t_star_series([alloc for _, alloc, _ in designs], trials, seed,
                                   workers=config.workers)
    rows = []
    for (kind, alloc, sigmas), t_stars in zip(designs, series):
        for sigma in sigmas:
            p_est, i_est = estimate_metrics(alloc, sigma, trials, seed, t_stars)
            rows.append(ExperimentRow(
                kind=kind, n=alloc.n, k=alloc.k, d=alloc.d, r=alloc.r, sigma=sigma,
                trials=trials, seed=seed, p=p_est, imbalance=i_est,
            ))
    return rows


def report_json(config_echo: dict, data) -> str:
    import datetime

    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    meta = {"artifact": "storagebalance", "version": __version__, "generated_at": now}
    return json.dumps(
        {"meta": meta, "config": config_echo, "data": data}, indent=2, sort_keys=False
    ) + "\n"


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write_outputs(outputs: list[dict], config_echo: dict, rows: list[ExperimentRow]) -> None:
    for out in outputs:
        if out["format"] == "csv":
            text = rows_to_csv(rows)
        else:
            text = report_json(config_echo, [r.as_dict() for r in rows])
        _emit(text, out["path"])


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level is a {type(data).__name__}, not an object")
    return data


#: Command-line flags that override a config field: (flag, field).
_OVERRIDES = (("seed", "master_seed"), ("trials", "trials"), ("k", "k"), ("d", "d"))


def _apply_overrides(data: dict, args) -> dict:
    for flag, name in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            data[name] = value
    return data


def _outputs(args, configured: list[dict], default_format: str) -> list[dict]:
    """``--out`` replaces the config's outputs, which replace stdout; ``--out``
    and stdout take ``--format``, else the command's default format."""
    fmt = args.format or default_format
    if args.out is not None:
        return [{"format": fmt, "path": args.out}]
    return configured or [{"format": fmt, "path": None}]


def _note_ignored(kinds: list[str], given: dict, what: str) -> None:
    """Write one stderr note per (kind, field) for each field of ``given``
    (d, r and m, in that order) that it sets to a value other than 1 (or a
    list holding one) and that the kind's builder does not read
    (``Family.reads``); ``what`` formats the field's name as the user set
    it."""
    for kind in dict.fromkeys(kinds):
        for name, values in given.items():
            if name not in FAMILIES[kind].reads and any(v != 1 for v in _as_list(values)):
                sys.stderr.write(f"note: {kind} designs ignore {what.format(name)}\n")


def _cmd_simulate(args) -> int:
    data = _apply_overrides(_load_config_file(args.config), args)
    config = ExperimentConfig.from_dict(data)
    _note_ignored(config.kinds, {"d": config.d_values, "r": config.r, "m": config.m},
                  "config field {}")
    rows = run_simulate(config)
    _write_outputs(_outputs(args, config.outputs, "csv"), config.echo(), rows)
    return EXIT_OK


def _cmd_limit_checks(args) -> int:
    if args.config:
        data = _load_config_file(args.config)
    elif args.k is None:
        raise ConfigError("limit-checks needs --config or --k")
    else:
        data = {"d": [1], "trials": 1000, "master_seed": 0}
    _validate_config(_apply_overrides(data, args), "limit_checks")
    d_values = _as_list(data["d"])
    if max(d_values) > data["k"]:
        raise ConfigError(f"d={max(d_values)} out of range [1, {data['k']}]")
    report = run_limit_checks(
        k=data["k"],
        d_values=d_values,
        trials=data["trials"],
        master_seed=data["master_seed"],
        count_trials=data.get("count_trials"),
    )
    for out in _outputs(args, data.get("outputs", []), "json"):
        _emit(_render_limit_report(report, out["format"], data), out["path"])
    return EXIT_OK


def _render_limit_report(report: dict, fmt: str, config_echo: dict) -> str:
    if fmt == "csv":
        return csv_text(("name", "statistic", "threshold", "passed"), report["checks"])
    return report_json(config_echo, report)


def _cmd_inspect(args) -> int:
    if args.file:
        try:
            alloc = load_allocation(args.file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read allocation {args.file}: {exc}") from exc
    else:
        if not args.kind:
            raise ConfigError("inspect needs --file or --kind with --n/--d")
        alloc = build_allocation(args.kind, args.n, d=args.d, r=args.r, m=args.m)
        _note_ignored([args.kind], {"d": args.d, "r": args.r, "m": args.m}, "flag --{}")
    violations = validate_regular_balanced(alloc)
    ok, witness = hall_check(alloc)
    info = {
        "kind": alloc.kind,
        "n": alloc.n,
        "k": alloc.k,
        "d": alloc.d,
        "r": alloc.r,
        "valid_regular_balanced": not violations,
        "violations": violations,
        "hall_check": {"passed": ok, "witness": list(witness) if witness else None},
        "matrix_shape_M": [alloc.n, alloc.num_portions],
        "matrix_shape_T": [alloc.k, alloc.num_portions],
    }
    if alloc.r == 1:
        info["overlap_sum"] = overlap_sum(alloc)
        info["r_gap_radius"] = r_gap_radius(alloc)
        hist = pairwise_overlap_histogram(alloc)
        info["pairwise_overlap_histogram"] = {str(k): v for k, v in sorted(hist.items())}
    _emit(json.dumps(info, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_exact_k3(args) -> int:
    if not (math.isfinite(args.sigma) and args.sigma > 0):
        raise ConfigError(f"--sigma must be finite and > 0, got {args.sigma}")
    alloc = build_allocation("cyclic", 3, d=args.d)
    region = exact_region_k3(alloc, args.sigma)
    p = region.p_sigma()
    verts = region.polygon_vertices()
    out = {
        "d": args.d,
        "sigma": args.sigma,
        "p_sigma": float(p),
        "p_sigma_exact": f"{p.numerator}/{p.denominator}",
        "polygon_vertices": [[float(c) for c in v] for v in verts],
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, and each parse makes a fresh
    namespace.  Each subcommand's handler is bound once, here; the handlers
    look up the functions they call at call time."""
    p = argparse.ArgumentParser(prog="storagebalance", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="estimate robustness and imbalance")
    sim.add_argument("--config", required=True, help="JSON experiment config")
    sim.add_argument("--seed", type=int, help="override master_seed")
    sim.add_argument("--trials", type=int, help="override trials")
    sim.add_argument("--out", help="override output path")
    sim.add_argument("--format", choices=["csv", "json"], help="format of --out or of stdout")
    sim.set_defaults(func=_cmd_simulate)

    lim = sub.add_parser("limit-checks", help="statistical checks of the limit laws")
    lim.add_argument("--config", help="JSON limit-checks config")
    lim.add_argument("--k", type=int, help="number of spacings")
    lim.add_argument("--d", type=int, action="append", help="window size (repeatable)")
    lim.add_argument("--seed", type=int)
    lim.add_argument("--trials", type=int)
    lim.add_argument("--out")
    lim.add_argument("--format", choices=["csv", "json"])
    lim.set_defaults(func=_cmd_limit_checks)

    ins = sub.add_parser("inspect", help="validate and summarize an allocation")
    ins.add_argument("--file", help="allocation JSON file")
    ins.add_argument("--kind", help="builder kind")
    ins.add_argument("--n", type=int, default=0)
    ins.add_argument("--d", type=int, default=1)
    ins.add_argument("--r", type=int, default=1)
    ins.add_argument("--m", type=int, default=1)
    ins.add_argument("--out")
    ins.set_defaults(func=_cmd_inspect)

    ek3 = sub.add_parser("exact-k3", help="exact robustness for 3 nodes, cyclic design")
    ek3.add_argument("--d", type=int, required=True, choices=[1, 2, 3])
    ek3.add_argument("--sigma", type=float, required=True)
    ek3.add_argument("--out")
    ek3.set_defaults(func=_cmd_exact_k3)
    return p


def main(argv=None) -> int:
    """Run one command; returns its exit code.  The parser is built on the
    first call in a process (not at import) and reused by every later call."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except UnsupportedDesignError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
