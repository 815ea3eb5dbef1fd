"""Smoke runs of the scripts in ``scripts/`` at tiny sizes, in subprocesses."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from storagebalance.cli import ExperimentConfig, run_simulate
from storagebalance.metrics import CSV_COLUMNS, rows_to_csv

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, "TMPDIR": str(cwd)},
        capture_output=True,
        text=True,
        timeout=300,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_fig_imbalance_vs_d(tmp_path):
    out = tmp_path / "imbalance.csv"
    proc = run_script(
        "fig_imbalance_vs_d.py", "--n", 12, "--trials", 50, "--out", out, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert tuple(rows[0]) == CSV_COLUMNS
    assert [(r["kind"], r["n"], r["d"]) for r in rows] == [
        ("cyclic", "12", str(d)) for d in range(1, 6)
    ]
    # the temporary config (TMPDIR is tmp_path) is gone once the script exits
    assert not list(tmp_path.glob("tmp*"))


def test_fig_design_comparison(tmp_path):
    out = tmp_path / "designs.csv"
    proc = run_script(
        "fig_design_comparison.py", "--d", 3, "--trials", 20, "--out", out, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert tuple(rows[0]) == CSV_COLUMNS
    assert [(r["kind"], r["n"]) for r in rows] == [
        ("block_design", "7"), ("cyclic", "7"), ("cyclic", "9"), ("clustering", "9")
    ]
    # the same rows as simulate's sweeps of the two pairs
    pairs = ((["block_design", "cyclic"], 7), (["cyclic", "clustering"], 9))
    expected = [
        row
        for kinds, n in pairs
        for row in run_simulate(ExperimentConfig.from_dict({
            "kind": kinds, "n": n, "d": 3, "sigma": {"fraction_of_n": 0.8},
            "trials": 20, "master_seed": 2,
        }))
    ]
    assert out.read_text() == rows_to_csv(expected)


def test_run_limit_laws(tmp_path):
    out = tmp_path / "limit_laws.json"
    proc = run_script(
        "run_limit_laws.py", "--k", 300, "--d", 1, 2, "--trials", 60, "--out", out, cwd=tmp_path
    )
    report = json.loads(out.read_text())
    # A statistical check may fail by chance at this size; the exit code must say so.
    assert proc.returncode == (0 if report["all_passed"] else 1), proc.stderr
    names = {c["name"] for c in report["checks"]}
    for d in (1, 2):
        assert {f"gumbel_ks_line_k300_d{d}", f"circle_neq_line_prob_k300_d{d}"} <= names
    assert "count_mid_var_k300" in names
