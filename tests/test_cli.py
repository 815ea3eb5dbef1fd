"""End-to-end tests of the command-line harness."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from storagebalance.allocation import KINDS, allocation_to_dict, build_cyclic, save_allocation
from storagebalance.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    build_allocation,
    main,
    resolve_sigma,
    run_simulate,
)
from storagebalance.loadsolver import FAMILIES
from storagebalance.metrics import CSV_COLUMNS, SOLVE_LOAD, rows_to_csv
from util import crowded_allocation, time_limit


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE_CONFIG = {
    "kind": "cyclic",
    "n": 12,
    "d": [1, 2, 3],
    "sigma": {"fraction_of_n": 0.8},
    "trials": 400,
    "master_seed": 20240101,
}

LIMIT_CONFIG = {"k": 300, "d": [1, 300], "trials": 200, "master_seed": 4}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_parses_and_sweeps(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
    assert cfg.kinds == ["cyclic"] and cfg.d_values == [1, 2, 3]
    rows = run_simulate(cfg)
    assert [r.d for r in rows] == [1, 2, 3]
    means = [r.imbalance.mean for r in rows]
    assert means[0] > means[1] > means[2]  # imbalance strictly falls with d


def test_config_rejects_bad_field():
    bad = dict(BASE_CONFIG)
    bad["trials"] = 0
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_dict(bad)


def test_config_rejects_unknown_kind():
    bad = dict(BASE_CONFIG)
    bad["kind"] = "mystery"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_resolve_sigma_rules():
    assert resolve_sigma({"absolute": 3.5}, 10) == 3.5
    assert resolve_sigma({"fraction_of_n": 0.8}, 50) == pytest.approx(40.0)
    import math

    assert resolve_sigma({"b_n_over_log_n": 2.0}, 100) == pytest.approx(200 / math.log(100))


def test_build_allocation_dispatch():
    assert build_allocation("cyclic", 7, d=3).kind == "cyclic"
    assert build_allocation("block_design", 0, d=3).n == 7
    assert build_allocation("single_choice", 4, m=2).k == 8
    assert build_allocation("cyclic_xor", 7, d=3, r=2).r == 2
    clustering = build_allocation("clustering", 6, d=3)
    assert (clustering.kind, clustering.n, clustering.d) == ("clustering", 6, 3)
    with pytest.raises(ConfigError):
        build_allocation("mystery", 3)
    with pytest.raises(ConfigError, match="must divide"):
        build_allocation("clustering", 7, d=3)


def test_family_table_covers_every_named_kind():
    assert set(FAMILIES) == set(KINDS) - {"custom"}


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, {**BASE_CONFIG, "outputs": [{"format": "csv", "path": str(out)}]})
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4


def test_simulate_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg1 = write_config(tmp_path, {**BASE_CONFIG, "outputs": [{"format": "csv", "path": str(out1)}]}, "c1.json")
    cfg2 = write_config(tmp_path, {**BASE_CONFIG, "outputs": [{"format": "csv", "path": str(out2)}]}, "c2.json")
    assert main(["simulate", "--config", cfg1]) == EXIT_OK
    assert main(["simulate", "--config", cfg2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_json_report_structure(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, {**BASE_CONFIG, "d": 2, "outputs": [{"format": "json", "path": str(out)}]}
    )
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    report = json.loads(out.read_text())
    assert set(report) == {"meta", "config", "data"}
    assert report["meta"]["artifact"] == "storagebalance"
    assert report["config"]["master_seed"] == BASE_CONFIG["master_seed"]
    assert len(report["data"]) == 1
    row = report["data"][0]
    assert row["kind"] == "cyclic" and row["trials"] == 400


def test_simulate_json_data_section_deterministic(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        cfg = write_config(
            tmp_path,
            {**BASE_CONFIG, "d": 2, "outputs": [{"format": "json", "path": str(out)}]},
            name + ".cfg",
        )
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        outs.append(json.loads(out.read_text()))
    assert outs[0]["data"] == outs[1]["data"]
    assert outs[0]["config"] == outs[1]["config"]


def test_simulate_flag_overrides(tmp_path):
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path, {**BASE_CONFIG, "d": 1})
    assert main(
        ["simulate", "--config", cfg, "--trials", "100", "--seed", "7", "--out", str(out)]
    ) == EXIT_OK
    line = out.read_text().strip().split("\n")[1].split(",")
    assert line[CSV_COLUMNS.index("trials")] == "100"
    assert line[CSV_COLUMNS.index("seed")] == "7"


def test_simulate_bad_config_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "cyclic"})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "config" in capsys.readouterr().err


def test_simulate_seed_out_of_range_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE_CONFIG))
    for seed in ("-1", str(2**64)):
        assert main(["simulate", "--config", cfg, "--seed", seed]) == EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err
    assert main(["limit-checks", "--k", "10", "--seed", "-1"]) == EXIT_CONFIG


def test_simulate_missing_file_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_simulate_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import storagebalance.cli as cli_mod
    from storagebalance.loadsolver import NumericalFailureError

    def boom(config):
        raise NumericalFailureError("trial 7: synthetic failure")

    monkeypatch.setattr(cli_mod, "run_simulate", boom)
    cfg = write_config(tmp_path, dict(BASE_CONFIG))
    assert main(["simulate", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


SIMULATE = ["simulate", "--config", "{config}"]
LIMIT_CHECKS = ["limit-checks", "--config", "{config}"]


@pytest.mark.parametrize(
    "argv,config,field",
    [
        (SIMULATE, {**BASE_CONFIG, "kind": "clustering", "d": 5}, None),
        (SIMULATE, {**BASE_CONFIG, "kind": "cyclic_xor", "r": 1}, None),
        (["limit-checks", "--k", "5", "--d", "9"], None, None),
        (SIMULATE, b"\xff\xfe not utf-8", None),
        (["inspect", "--kind", "cyclic", "--n", "7", "--out", "{missing}/x.json"], None, None),
        (
            SIMULATE,
            {**BASE_CONFIG, "outputs": [{"format": "csv", "path": "{missing}/x.csv"}]},
            None,
        ),
        (["limit-checks", "--k", "10", "--trials", "20", "--out", "{missing}/x.json"], None, None),
        ([*SIMULATE, "--seed", "3"], [1, 2], None),
        ([*LIMIT_CHECKS, "--seed", "3"], [1, 2], None),
        (["limit-checks", "--k", "50", "--d", "2", "--trials", "1"], None, None),
        (LIMIT_CHECKS, {**LIMIT_CONFIG, "trials": 1}, "trials"),
        (LIMIT_CHECKS, {**LIMIT_CONFIG, "count_trials": 1}, "count_trials"),
        # integral floats and non-finite sigma values are bad input, not crashes
        (SIMULATE, {**BASE_CONFIG, "trials": 20.0}, "trials"),
        (SIMULATE, {**BASE_CONFIG, "n": 12.0}, "n"),
        (SIMULATE, {**BASE_CONFIG, "master_seed": 3.0}, "master_seed"),
        (SIMULATE, {**BASE_CONFIG, "workers": 1.0}, "workers"),
        (SIMULATE, {**BASE_CONFIG, "d": [1.0, 2]}, "d/0"),
        (SIMULATE, {**BASE_CONFIG, "kind": "cyclic_xor", "n": 7, "d": 3, "r": 2.0}, "r"),
        (LIMIT_CHECKS, {**LIMIT_CONFIG, "k": 300.0}, "k"),
        (LIMIT_CHECKS, {**LIMIT_CONFIG, "trials": 200.0}, "trials"),
        (LIMIT_CHECKS, {**LIMIT_CONFIG, "count_trials": 50.0}, "count_trials"),
        (SIMULATE, {**BASE_CONFIG, "sigma": {"absolute": math.inf}}, "sigma/absolute"),
        (SIMULATE, {**BASE_CONFIG, "sigma": {"absolute": math.nan}}, "sigma/absolute"),
        (SIMULATE, {**BASE_CONFIG, "sigma": {"fraction_of_n": 1e308}}, "sigma"),
        (SIMULATE, {**BASE_CONFIG, "sigma": {"absolute": 1e-320}}, "sigma"),
        (SIMULATE, {**BASE_CONFIG, "sigma": {"fraction_of_n": 1e-309}}, "sigma"),
        (SIMULATE, {**BASE_CONFIG, "sigma": {"b_n_over_log_n": 1e-308}}, "sigma"),
    ],
    ids=[
        "clustering-d-not-dividing-n",
        "cyclic-xor-r1",
        "limit-checks-d-above-k",
        "not-utf8",
        "inspect-unwritable-out",
        "simulate-unwritable-output-path",
        "limit-checks-unwritable-out",
        "simulate-top-level-list",
        "limit-checks-top-level-list",
        "limit-checks-one-trial-flag",
        "limit-checks-one-trial-field",
        "limit-checks-one-count-trial-field",
        "simulate-float-trials",
        "simulate-float-n",
        "simulate-float-master-seed",
        "simulate-float-workers",
        "simulate-float-d-item",
        "simulate-float-r",
        "limit-checks-float-k",
        "limit-checks-float-trials",
        "limit-checks-float-count-trials",
        "sigma-infinity",
        "sigma-nan",
        "sigma-overflows-to-infinity",
        "n-over-tiny-absolute-sigma-overflows",
        "n-over-tiny-fraction-of-n-sigma-overflows",
        "n-over-tiny-b-n-over-log-n-sigma-overflows",
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, argv, config, field):
    path = tmp_path / "config.json"
    missing = str(tmp_path / "missing")  # a directory that does not exist
    text = " ".join(argv)
    if isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not None:
        path.write_text(json.dumps(config).replace("{missing}", missing))
        text += json.dumps(config)
    argv = [a.replace("{config}", str(path)).replace("{missing}", missing) for a in argv]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    if field is not None:
        assert f"config field {field}:" in err
    if "{missing}" in text:
        assert missing in err  # the message names the unwritable path


def test_internal_value_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    import storagebalance.cli as cli_mod

    def boom(config):
        raise ValueError("synthetic internal fault")

    monkeypatch.setattr(cli_mod, "run_simulate", boom)
    cfg = write_config(tmp_path, dict(BASE_CONFIG))
    with pytest.raises(ValueError, match="synthetic internal fault"):
        main(["simulate", "--config", cfg])
    assert "config error" not in capsys.readouterr().err


def test_simulate_notes_each_ignored_config_field_once(tmp_path, capsys):
    # single_choice reads neither d nor r, and cyclic and block_design not r;
    # the notes go to stderr, and the rows are those of r = 1
    notes = {1: [("single_choice", "d")],
             2: [("single_choice", "d"), ("single_choice", "r"), ("cyclic", "r"),
                 ("block_design", "r")]}
    csv = {}
    for r, want in notes.items():
        path = tmp_path / f"r{r}.csv"
        config = {**BASE_CONFIG, "kind": ["single_choice", "cyclic", "block_design", "cyclic"],
                  "n": 7, "d": 3, "r": r, "trials": 50,
                  "outputs": [{"format": "csv", "path": str(path)}]}
        assert main(["simulate", "--config", write_config(tmp_path, config)]) == EXIT_OK
        assert capsys.readouterr().err == "".join(
            f"note: {kind} designs ignore config field {name}\n" for kind, name in want
        )
        csv[r] = path.read_bytes()
    assert csv[1] == csv[2]


def test_simulate_unsupported_builder_surfaces(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {**BASE_CONFIG, "kind": "block_design", "d": 7, "n": 43},
    )
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "prime power" in capsys.readouterr().err


def _count_draws(monkeypatch):
    import storagebalance.metrics as metrics_mod

    real = metrics_mod.spacing_matrix
    calls = []

    def counting(k, sigma, master_seed, trials, start_index=0):
        calls.append((k, sigma, master_seed, trials, start_index))
        return real(k, sigma, master_seed, trials, start_index=start_index)

    monkeypatch.setattr(metrics_mod, "spacing_matrix", counting)
    return calls


def test_sweep_draws_each_batch_once_per_call(monkeypatch):
    calls = _count_draws(monkeypatch)
    cfg = ExperimentConfig.from_dict({**BASE_CONFIG, "n": 20, "d": [1, 2, 3, 4, 5]})
    first = rows_to_csv(run_simulate(cfg))
    assert calls == [(20, 16.0, BASE_CONFIG["master_seed"], 400, 0)]
    # the shared draw lives for one call only: a second call draws again
    assert rows_to_csv(run_simulate(cfg)) == first
    assert len(calls) == 2


def test_sweep_with_several_batches_draws_each_batch_once(monkeypatch):
    import storagebalance.metrics as metrics_mod

    calls = _count_draws(monkeypatch)
    cfg = ExperimentConfig.from_dict({**BASE_CONFIG, "trials": 150})
    shared = rows_to_csv(run_simulate(cfg))
    assert len(calls) == 1
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 64)  # three chunks per point
    assert rows_to_csv(run_simulate(cfg)) == shared
    assert len(calls) == 1 + 3
    assert [c[3:] for c in calls[1:]] == [(64, 0), (64, 64), (22, 128)]


def test_multi_sigma_sweep_draws_each_chunk_once(monkeypatch):
    import storagebalance.metrics as metrics_mod

    # every sigma reduces the one series, drawn at SOLVE_LOAD * k
    calls = _count_draws(monkeypatch)
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 64)  # 150 trials: 3 chunks
    sigmas = [{"fraction_of_n": 0.8}, {"absolute": 5.0}, {"b_n_over_log_n": 2.0}]
    cfg = ExperimentConfig.from_dict(
        {**BASE_CONFIG, "n": 20, "d": [1, 2, 3, 4, 5], "sigma": sigmas, "trials": 150}
    )
    rows = run_simulate(cfg)
    resolved = [resolve_sigma(spec, 20) for spec in sigmas]
    assert [(r.d, r.sigma) for r in rows] == [(d, s) for d in range(1, 6) for s in resolved]
    seed = BASE_CONFIG["master_seed"]
    assert calls == [(20, 16.0, seed, 64, 0), (20, 16.0, seed, 64, 64), (20, 16.0, seed, 22, 128)]


@pytest.mark.parametrize("cap_rows", [0, 64, 100, 10**6])
def test_sweep_draws_each_chunk_once_at_any_element_cap(monkeypatch, cap_rows):
    import storagebalance.metrics as metrics_mod

    sigmas = [{"fraction_of_n": 0.8}, {"absolute": 5.0}]
    cfg = ExperimentConfig.from_dict({**BASE_CONFIG, "trials": 150, "sigma": sigmas})
    shared = rows_to_csv(run_simulate(cfg))
    calls = _count_draws(monkeypatch)
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 128)
    # chunks of 64 rows (the floor), 100 rows, or BATCH_TRIALS rows
    monkeypatch.setattr(metrics_mod, "BATCH_ELEMENTS", cap_rows * 12)
    batch = max(64, min(128, cap_rows))
    chunks = [(min(batch, 150 - start), start) for start in range(0, 150, batch)]
    assert rows_to_csv(run_simulate(cfg)) == shared
    seed = BASE_CONFIG["master_seed"]
    assert calls == [(12, SOLVE_LOAD * 12, seed, *chunk) for chunk in chunks]


def test_sweep_csv_equals_points_run_alone():
    # cyclic and clustering share k = 6 and one series, the block design has
    # k = 7; the second sigma list resolves to 3.0 twice at n = 6 (not at the
    # block design's n = 7), so a design reduces its series at one sigma twice
    for sigmas in (
        [{"fraction_of_n": 0.8}, {"absolute": 5.0}],
        [{"fraction_of_n": 0.5}, {"absolute": 3.0}],
    ):
        sweep = {
            **BASE_CONFIG,
            "kind": ["cyclic", "clustering", "block_design"],
            "d": [3],
            "n": 6,
            "sigma": sigmas,
            "trials": 120,
        }
        rows = run_simulate(ExperimentConfig.from_dict(sweep))
        alone = []
        for kind in sweep["kind"]:
            for spec in sweep["sigma"]:
                point = {**sweep, "kind": kind, "sigma": spec}
                alone += run_simulate(ExperimentConfig.from_dict(point))
        assert len(rows) == 6
        assert rows_to_csv(rows) == rows_to_csv(alone)


@pytest.mark.parametrize(
    "sigma, p_sigma", [(1e30, "0.0"), (1e300, "0.0"), (1e-300, "1.0")], ids=["1e30", "1e300", "1e-300"]
)
@pytest.mark.parametrize(
    "design, points",
    [
        ({"kind": ["block_design", "cyclic_xor"], "n": 21, "d": 5, "r": 2}, 2),
        ({"kind": "cyclic", "n": 12, "d": [1, 2, 3]}, 3),
    ],
    ids=["lp", "cyclic"],
)
def test_simulate_at_extreme_sigma(tmp_path, design, points, sigma, p_sigma):
    # rows are solved at SOLVE_LOAD * k whatever sigma, so the LP's absolute
    # tolerances never meet a row scaled to 1e30; sigma enters only the
    # stability product, here at both ends of what resolve_sigma admits
    out = tmp_path / "out.csv"
    config = {**BASE_CONFIG, **design, "sigma": {"absolute": sigma}, "trials": 40,
              "outputs": [{"format": "csv", "path": str(out)}]}
    assert main(["simulate", "--config", write_config(tmp_path, config)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[CSV_COLUMNS.index("p_sigma")] for row in rows] == [p_sigma] * points


# ---------------------------------------------------------------------------
# inspect subcommand
# ---------------------------------------------------------------------------


def test_inspect_builder(tmp_path, capsys):
    assert main(["inspect", "--kind", "cyclic", "--n", "7", "--d", "3"]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["overlap_sum"] == 42
    assert info["r_gap_radius"] == 2
    assert info["hall_check"]["passed"] is True
    assert info["valid_regular_balanced"] is True
    assert info["matrix_shape_M"] == [7, 21]


def test_inspect_notes_each_ignored_flag(capsys):
    # single_choice reads neither --d nor --r; the report is that of d = r = 1
    assert main(["inspect", "--kind", "single_choice", "--n", "5", "--d", "3", "--r", "4"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == (
        "note: single_choice designs ignore flag --d\n"
        "note: single_choice designs ignore flag --r\n"
    )
    assert main(["inspect", "--kind", "single_choice", "--n", "5"]) == EXIT_OK
    assert capsys.readouterr() == (out, "")
    assert main(["inspect", "--kind", "cyclic", "--n", "7", "--d", "3"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_inspect_reports_hall_witness_from_file(tmp_path, capsys):
    path = tmp_path / "crowded.json"
    save_allocation(crowded_allocation(), str(path))
    assert main(["inspect", "--file", str(path)]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["hall_check"] == {"passed": False, "witness": [0, 1, 2, 3]}


def test_inspect_large_cyclic_builds_no_dense_matrices(capsys):
    # dense M and T would take 2 * 5000 * 15000 bytes (143 MiB)
    tracemalloc.start()
    try:
        assert main(["inspect", "--kind", "cyclic", "--n", "5000", "--d", "3"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    info = json.loads(capsys.readouterr().out)
    assert info["matrix_shape_M"] == info["matrix_shape_T"] == [5000, 15000]
    assert peak < 16 * 2**20


def test_inspect_block_design_histogram(capsys):
    assert main(["inspect", "--kind", "block_design", "--d", "3", "--n", "0"]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["pairwise_overlap_histogram"] == {"1": 21}


def test_inspect_block_design_of_a_large_order(capsys):
    # d - 1 = 11 is prime; the alarm fails a build that grows exponentially
    # with d instead of hanging the suite
    with time_limit(10):
        assert main(["inspect", "--kind", "block_design", "--d", "12"]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert (info["n"], info["valid_regular_balanced"]) == (133, True)
    assert info["hall_check"] == {"passed": True, "witness": None}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "cyclic", "--n", "5", "--d", "0"], "d must be positive, got 0"),
        (["--kind", "single_choice", "--n", "5", "--m", "0"], "m must be positive, got 0"),
    ],
    ids=["cyclic-d0", "single_choice-m0"],
)
def test_inspect_rejects_explicit_zero(capsys, flags, message):
    # an explicit 0 reaches the builder, not a default of 1
    assert main(["inspect", *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "single_choice", "--n", "-2"], "n must be positive, got -2"),
        (["--kind", "clustering", "--d", "3"], "n must be positive, got 0"),
        (["--kind", "cyclic"], "n must be positive, got 0"),
        (["--kind", "cyclic_xor", "--n", "7", "--d", "-1"], "d must be positive, got -1"),
    ],
    ids=["single_choice", "clustering", "cyclic", "cyclic_xor"],
)
def test_inspect_names_the_parameter_at_fault(capsys, flags, message):
    # each builder names the first bad value; --n defaults to 0 when omitted
    assert main(["inspect", *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_inspect_tampered_file(tmp_path, capsys):
    data = allocation_to_dict(build_cyclic(5, 2))
    data["recovery_sets"][1][1] = [1]  # duplicate node in object 1's choices
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["inspect", "--file", str(path)]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["valid_regular_balanced"] is False
    assert any("object 1" in v for v in info["violations"])
    assert info["kind"] == "custom"  # its sets are not the cyclic design's


def _assert_unreadable_allocation(capsys, path):
    assert main(["inspect", "--file", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: cannot read allocation {path}: " in captured.err
    assert captured.out == ""
    return captured.err


def test_inspect_unparseable_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    _assert_unreadable_allocation(capsys, path)


def test_inspect_missing_file(tmp_path, capsys):
    _assert_unreadable_allocation(capsys, tmp_path / "nope.json")


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data["recovery_sets"][0].__setitem__(0, [0.7]),
        lambda data: data["recovery_sets"][0].__setitem__(0, [True]),
        lambda data: data.__setitem__("n", "2"),
    ],
    ids=["float-node", "bool-node", "string-n"],
)
def test_inspect_rejects_non_integer_fields(tmp_path, capsys, edit):
    data = allocation_to_dict(build_cyclic(2, 1))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    err = _assert_unreadable_allocation(capsys, path)
    assert "malformed allocation data: expected an integer, got " in err


def test_inspect_file_names_the_field_at_fault(tmp_path, capsys):
    data = allocation_to_dict(build_cyclic(2, 1))
    data["d"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    err = _assert_unreadable_allocation(capsys, path)
    assert "malformed allocation data: d must be positive, got 0" in err


@pytest.mark.parametrize("node", [-1, 2, 10**30])
def test_inspect_rejects_node_out_of_range(tmp_path, capsys, node):
    data = allocation_to_dict(build_cyclic(2, 1))
    data["recovery_sets"][1][0] = [node]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["inspect", "--file", str(path)]) == EXIT_CONFIG
    assert f"object 1: node {node} out of range [0, 2)" in capsys.readouterr().err


def test_inspect_large_cyclic_matches_closed_forms(capsys):
    # every query at k = 10^5: a per-object Python walk or a quadratic step
    # in any of them would show as a slow test
    n, d = 100_000, 3
    assert main(["inspect", "--kind", "cyclic", "--n", str(n), "--d", str(d)]) == EXIT_OK
    hist = {str(d - delta): n for delta in range(1, d)}  # distance delta shares d - delta
    hist["0"] = n * (n - 1) // 2 - n * (d - 1)
    assert json.loads(capsys.readouterr().out) == {
        "kind": "cyclic", "n": n, "k": n, "d": d, "r": 1,
        "valid_regular_balanced": True, "violations": [],
        "hall_check": {"passed": True, "witness": None},
        "matrix_shape_M": [n, n * d], "matrix_shape_T": [n, n * d],
        "overlap_sum": (d - 1) * d * n, "r_gap_radius": d - 1,
        "pairwise_overlap_histogram": {key: hist[key] for key in sorted(hist)},
    }


def test_inspect_large_cyclic_derives_no_recovery_sets(monkeypatch, capsys):
    # every query reads the builder's portion table; nested tuples of
    # 300 000 node ids would cost more than all of them
    import storagebalance.cli as cli

    built, real = [], cli.build_allocation

    def keep(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_allocation", keep)
    assert main(["inspect", "--kind", "cyclic", "--n", "100000", "--d", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["valid_regular_balanced"] is True
    assert len(built) == 1 and "recovery_sets" not in vars(built[0])


@pytest.mark.parametrize(
    "argv,config",
    [
        (["simulate", "--config", "{config}"], BASE_CONFIG),
        (["simulate", "--config", "{config}", "--format", "json"], BASE_CONFIG),
        (["inspect", "--kind", "cyclic", "--n", "7", "--d", "3"], None),
        (["exact-k3", "--d", "2", "--sigma", "3"], None),
        (["limit-checks", "--k", "300", "--d", "1", "--trials", "200", "--format", "json"], None),
        (["limit-checks", "--k", "300", "--d", "1", "--trials", "200", "--format", "csv"], None),
        (["limit-checks", "--config", "{config}", "--seed", "9"], LIMIT_CONFIG),
    ],
    ids=[
        "simulate", "simulate-json", "inspect", "exact-k3", "limit-checks-json",
        "limit-checks-csv", "limit-checks-config",
    ],
)
def test_out_file_equals_stdout(tmp_path, capsys, argv, config):
    if config is not None:
        argv = [a.replace("{config}", write_config(tmp_path, config)) for a in argv]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""

    def untimed(text):
        return "".join(line for line in text.splitlines(True) if '"generated_at"' not in line)

    assert untimed(out.read_text()) == untimed(printed)
    assert printed


# ---------------------------------------------------------------------------
# exact-k3 and limit-checks subcommands
# ---------------------------------------------------------------------------


def test_exact_k3_subcommand(capsys):
    assert main(["exact-k3", "--d", "2", "--sigma", "3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["p_sigma_exact"] == "2/3"
    assert sorted(out["polygon_vertices"]) == sorted(
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
    )


@pytest.mark.parametrize("sigma", ["inf", "nan", "0", "-1"])
def test_exact_k3_rejects_bad_sigma(capsys, sigma):
    assert main(["exact-k3", "--d", "2", "--sigma", sigma]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--sigma" in captured.err
    assert captured.out == ""


def test_limit_checks_subcommand(tmp_path):
    out = tmp_path / "checks.json"
    assert main(
        [
            "limit-checks",
            "--k", "500",
            "--d", "1",
            "--trials", "600",
            "--seed", "5",
            "--out", str(out),
        ]
    ) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["data"]["k"] == 500
    assert all(set(c) >= {"name", "statistic", "threshold", "passed"} for c in report["data"]["checks"])


def test_limit_checks_csv_format(tmp_path, capsys):
    assert main(
        ["limit-checks", "--k", "300", "--d", "1", "--trials", "400", "--seed", "2",
         "--format", "csv"]
    ) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "name,statistic,threshold,passed"
    assert len(lines) > 3


def test_limit_checks_config_file(tmp_path):
    out = tmp_path / "lc.json"
    cfg = write_config(
        tmp_path,
        {"k": 400, "d": [1], "trials": 300, "master_seed": 9},
        "lc_config.json",
    )
    assert main(["limit-checks", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["data"]["trials"] == 300


def test_limit_checks_flags_override_config_k_and_d(tmp_path):
    out = tmp_path / "lc.json"
    cfg = write_config(tmp_path, {"k": 50, "d": [1], "trials": 200, "master_seed": 9})
    argv = ["limit-checks", "--config", cfg, "--k", "300", "--d", "7", "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["data"]["k"] == 300 and report["data"]["d_values"] == [7]
    assert report["config"]["k"] == 300 and report["config"]["d"] == [7]
    # each flag alone overrides only its own field
    assert main(["limit-checks", "--config", cfg, "--d", "2", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())["data"]
    assert data["k"] == 50 and data["d_values"] == [2]


def test_limit_checks_writes_config_outputs(tmp_path, capsys):
    csv_out, json_out = tmp_path / "lc.csv", tmp_path / "lc.json"
    outputs = [{"format": "csv", "path": str(csv_out)}, {"format": "json", "path": str(json_out)}]
    config = {**LIMIT_CONFIG, "outputs": outputs}
    cfg = write_config(tmp_path, config)
    assert main(["limit-checks", "--config", cfg, "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    report = json.loads(json_out.read_text())
    assert report["config"] == config  # the echo is the config as given
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "name,statistic,threshold,passed"
    names = [c["name"] for c in report["data"]["checks"]]
    assert [line.split(",")[0] for line in lines[1:]] == names
    # --out replaces the config's outputs and stays out of the echo
    out = tmp_path / "only.json"
    csv_out.unlink()
    assert main(["limit-checks", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"] == config
    assert not csv_out.exists()


def test_limit_checks_requires_k(capsys):
    assert main(["limit-checks"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# the parser: built on the first main call, shared by every later one
# ---------------------------------------------------------------------------

#: Counts the argparse parsers made while ``storagebalance.cli`` is imported
#: and then over three ``main`` calls, and prints both counts.
_COUNT_PARSERS = (
    "import argparse, sys\n"
    "built = []\n"
    "init = argparse.ArgumentParser.__init__\n"
    "def counting(self, *args, **kwargs):\n"
    "    built.append(self)\n"
    "    init(self, *args, **kwargs)\n"
    "argparse.ArgumentParser.__init__ = counting\n"
    "import storagebalance.cli as cli\n"
    "at_import = len(built)\n"
    "out = sys.argv[1]\n"
    "for argv in (['inspect', '--kind', 'cyclic', '--n', '7', '--d', '3'],\n"
    "             ['limit-checks', '--k', '50', '--d', '2', '--trials', '2'],\n"
    "             ['exact-k3', '--d', '2', '--sigma', '2.4']):\n"
    "    assert cli.main([*argv, '--out', out]) == 0\n"
    "print(at_import, len(built) - at_import)\n"
)


def test_cli_builds_its_parser_once_and_not_at_import(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the root parser and one per subcommand, once for all three calls
    assert proc.stdout.split() == ["0", "5"]


def test_main_calls_share_no_parsed_state(tmp_path, capsys):
    out = tmp_path / "lc.json"
    base = ["limit-checks", "--k", "50", "--trials", "2", "--out", str(out)]
    assert main([*base, "--d", "1", "--d", "2"]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["d"] == [1, 2]
    # --d appends to a fresh list on every call
    assert main([*base, "--d", "3"]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["d"] == [3]
    # a usage error leaves the parser fit for the next call
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "--n", "seven"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["inspect", "--kind", "cyclic", "--n", "7", "--d", "3", "--r", "2"]) == EXIT_OK
    noted = capsys.readouterr()
    assert noted.err == "note: cyclic designs ignore flag --r\n"
    assert main(["inspect", "--kind", "cyclic", "--n", "7", "--d", "3"]) == EXIT_OK
    assert capsys.readouterr() == (noted.out, "")


# ---------------------------------------------------------------------------
# start-up: scipy is imported only by the code that calls it, jsonschema never
# ---------------------------------------------------------------------------

#: Runs ``cli.main`` on its arguments (or only imports the package, given
#: none) and prints the scipy and jsonschema modules loaded at exit.
_LOADED_AT_EXIT = (
    "import sys, storagebalance\n"
    "if sys.argv[1:]:\n"
    "    from storagebalance.cli import main\n"
    "    assert main(sys.argv[1:]) == 0\n"
    "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
)


def _simulate(kind, n, d):
    return {"kind": kind, "n": n, "d": d, "sigma": {"fraction_of_n": 0.8}, "trials": 20,
            "master_seed": 3}


@pytest.mark.parametrize(
    "command, config, absent, present",
    [
        ([], None, ["scipy", "jsonschema"], []),
        (["limit-checks", "--k", "50", "--d", "2", "--trials", "2"], None,
         ["scipy.optimize", "scipy.sparse", "jsonschema"], []),
        (["simulate"], _simulate("cyclic", 12, 3),
         ["scipy.optimize", "scipy.sparse", "jsonschema"], []),
        (["simulate"], _simulate("clustering", 12, 3),
         ["scipy.optimize", "scipy.sparse", "jsonschema"], []),
        (["simulate"], _simulate("single_choice", 12, 1),
         ["scipy.optimize", "scipy.sparse", "jsonschema"], []),
        (["inspect", "--kind", "cyclic", "--n", "20", "--d", "3"], None,
         ["scipy", "jsonschema"], []),
        (["inspect", "--kind", "single_choice", "--n", "5", "--m", "2"], None,
         ["scipy.optimize", "jsonschema"], ["scipy.sparse.csgraph"]),
        (["simulate"], _simulate("block_design", 7, 3),
         ["scipy.sparse", "scipy.linalg", "scipy.special", "jsonschema"],
         ["scipy.optimize._highspy._core"]),
    ],
    ids=["import", "limit-checks", "cyclic", "clustering", "single_choice", "inspect",
         "inspect-hall-fails", "lp"],
)
def test_commands_import_only_the_scipy_they_call(tmp_path, command, config, absent, present):
    argv = list(command)
    if config is not None:
        argv += ["--config", write_config(tmp_path, config)]
    if argv:
        argv += ["--out", str(tmp_path / "out")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AT_EXIT, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for name in absent:
        assert not {m for m in loaded if m == name or m.startswith(name + ".")}, name
    for name in present:
        assert name in loaded
    if command[:1] == ["inspect"]:  # with scipy or without, the exact verdict
        hall = json.loads((tmp_path / "out").read_text())["hall_check"]
        assert hall["witness"] == (list(range(10)) if "single_choice" in command else None)
