"""Experiment harness: simulate metrics, run limit checks, inspect designs.

Subcommands: ``simulate``, ``limit-checks``, ``inspect``, ``exact-k3``.
Configuration comes from a JSON file validated against the bundled schema;
command-line flags override config fields.  Exit codes: 0 success, 2
configuration error, 3 numerical failure.

Reports embed a config echo, the seed, and the artifact version, so every
row is reproducible from the file alone.  Timestamps live only in the JSON
metadata block; the data sections (and CSV files entirely) are byte
deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from . import __version__
from .allocation import (
    Allocation,
    UnsupportedDesignError,
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    hall_check,
    load_allocation,
    overlap_sum,
    pairwise_overlap_histogram,
    r_gap_radius,
    to_matrices,
    validate_regular_balanced,
)
from .limitlaws import run_limit_checks
from .loadsolver import NumericalFailureError
from .metrics import ExperimentRow, estimate_metrics, exact_region_k3, rows_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration; the message carries the offending field path."""


def _schema() -> dict:
    with resources.files("storagebalance").joinpath("config.schema.json").open() as fh:
        return json.load(fh)


def _validate_config(data: dict, section: str) -> None:
    schema = _schema()
    ref = {"$ref": f"#/$defs/{section}", "$defs": schema["$defs"]}
    validator = jsonschema.Draft202012Validator(ref)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {err.message}")


def build_allocation(kind: str, n: int, d: int = 1, r: int = 1, m: int = 1) -> Allocation:
    """Dispatch to the matching builder; block designs ignore n."""
    if kind == "single_choice":
        return build_single_choice(n, m)
    if kind == "clustering":
        return build_clustering(n, d)
    if kind == "cyclic":
        return build_cyclic(n, d)
    if kind == "block_design":
        return build_block_design(d)
    if kind == "cyclic_xor":
        return build_cyclic_xor(n, d, r)
    raise ConfigError(f"unknown design kind {kind!r}")


def resolve_sigma(spec: dict, n: int) -> float:
    if "absolute" in spec:
        return float(spec["absolute"])
    if "fraction_of_n" in spec:
        return float(spec["fraction_of_n"]) * n
    if "b_n_over_log_n" in spec:
        if n < 2:
            raise ConfigError("sigma rule b_n_over_log_n needs n >= 2")
        return float(spec["b_n_over_log_n"]) * n / math.log(n)
    raise ConfigError(f"unresolvable sigma spec {spec!r}")


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
            d_values=[int(x) for x in _as_list(data.get("d", 1))],
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

    Every sweep point reuses the same master seed, so per-trial demand
    vectors are paired across designs and redundancy levels.  Consecutive
    sweep points with the same number of objects k and the same sigma whose
    trials fit in one batch share one draw of it: a memo holding one batch
    lives for this call only and is dropped as soon as a point needs other
    rows.
    """
    memo: dict = {}
    rows = []
    for kind in config.kinds:
        for d in config.d_values:
            alloc = build_allocation(kind, config.n, d=d, r=config.r, m=config.m)
            for spec in config.sigma_specs:
                sigma = resolve_sigma(spec, alloc.n)
                p_est, i_est = estimate_metrics(
                    alloc,
                    sigma,
                    config.trials,
                    config.master_seed,
                    workers=config.workers,
                    memo=memo,
                )
                rows.append(
                    ExperimentRow(
                        kind=kind,
                        n=alloc.n,
                        k=alloc.k,
                        d=alloc.d,
                        r=alloc.r,
                        sigma=sigma,
                        trials=config.trials,
                        seed=config.master_seed,
                        p=p_est,
                        imbalance=i_est,
                    )
                )
    return rows


def report_json(config_echo: dict, data, timestamp: bool = True) -> str:
    import datetime

    meta = {"artifact": "storagebalance", "version": __version__}
    if timestamp:
        meta["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(
        {"meta": meta, "config": config_echo, "data": data}, indent=2, sort_keys=False
    ) + "\n"


def _write_outputs(outputs: list[dict], config_echo: dict, rows: list[ExperimentRow]) -> None:
    for out in outputs:
        if out["format"] == "csv":
            with open(out["path"], "w") as fh:
                fh.write(rows_to_csv(rows))
        else:
            with open(out["path"], "w") as fh:
                fh.write(report_json(config_echo, [r.as_dict() for r in rows]))


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _apply_overrides(data: dict, args) -> dict:
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    if args.out is not None:
        fmt = args.format or "csv"
        data["outputs"] = [{"format": fmt, "path": args.out}]
    return data


def _cmd_simulate(args) -> int:
    data = _apply_overrides(_load_config_file(args.config), args)
    config = ExperimentConfig.from_dict(data)
    rows = run_simulate(config)
    _write_outputs(config.outputs, config.echo(), rows)
    if not config.outputs:
        sys.stdout.write(rows_to_csv(rows))
    return EXIT_OK


def _cmd_limit_checks(args) -> int:
    if args.config:
        data = _load_config_file(args.config)
        if args.seed is not None:
            data["master_seed"] = args.seed
        if args.trials is not None:
            data["trials"] = args.trials
    else:
        if args.k is None:
            raise ConfigError("limit-checks needs --config or --k")
        data = {
            "k": args.k,
            "d": args.d or [1],
            "trials": args.trials or 1000,
            "master_seed": args.seed if args.seed is not None else 0,
        }
    _validate_config(data, "limit_checks")
    report = run_limit_checks(
        k=data["k"],
        d_values=[int(x) for x in _as_list(data["d"])],
        trials=data["trials"],
        master_seed=data["master_seed"],
        count_trials=data.get("count_trials"),
    )
    text = _render_limit_report(report, args.format or "json", data)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _render_limit_report(report: dict, fmt: str, config_echo: dict) -> str:
    if fmt == "csv":
        lines = ["name,statistic,threshold,passed"]
        for c in report["checks"]:
            lines.append(f"{c['name']},{c['statistic']!r},{c['threshold']!r},{c['passed']}")
        return "\n".join(lines) + "\n"
    return report_json(config_echo, report)


def _cmd_inspect(args) -> int:
    if args.file:
        try:
            alloc = load_allocation(args.file)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            sys.stderr.write(f"input error: {exc}\n")
            return EXIT_CONFIG
    else:
        if not args.kind or args.n is None and args.kind != "block_design":
            raise ConfigError("inspect needs --file or --kind with --n/--d")
        alloc = build_allocation(
            args.kind, args.n or 0, d=args.d or 1, r=args.r or 1, m=args.m or 1
        )
    matrices = to_matrices(alloc)
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
        "matrix_shape_M": list(matrices.M.shape),
        "matrix_shape_T": list(matrices.T.shape),
    }
    if alloc.r == 1:
        info["overlap_sum"] = overlap_sum(alloc)
        info["r_gap_radius"] = r_gap_radius(alloc)
        hist = pairwise_overlap_histogram(alloc)
        info["pairwise_overlap_histogram"] = {str(k): v for k, v in sorted(hist.items())}
    text = json.dumps(info, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_exact_k3(args) -> int:
    alloc = build_cyclic(3, args.d)
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
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="storagebalance", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="estimate robustness and imbalance")
    sim.add_argument("--config", required=True, help="JSON experiment config")
    sim.add_argument("--seed", type=int, help="override master_seed")
    sim.add_argument("--trials", type=int, help="override trials")
    sim.add_argument("--out", help="override output path")
    sim.add_argument("--format", choices=["csv", "json"], help="output format for --out")
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
    ins.add_argument("--n", type=int)
    ins.add_argument("--d", type=int)
    ins.add_argument("--r", type=int)
    ins.add_argument("--m", type=int)
    ins.add_argument("--out")
    ins.set_defaults(func=_cmd_inspect)

    ek3 = sub.add_parser("exact-k3", help="exact robustness for 3 nodes, cyclic design")
    ek3.add_argument("--d", type=int, required=True, choices=[1, 2, 3])
    ek3.add_argument("--sigma", type=float, required=True)
    ek3.add_argument("--out")
    ek3.set_defaults(func=_cmd_exact_k3)
    return p


def main(argv=None) -> int:
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
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
