"""End-to-end tests of the command-line harness."""

import json

import pytest

from storagebalance.allocation import allocation_to_dict, build_cyclic
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
from storagebalance.metrics import CSV_COLUMNS, rows_to_csv


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
    with pytest.raises(ConfigError):
        build_allocation("mystery", 3)


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


def test_sweep_with_several_batches_redraws_each_point(monkeypatch):
    import storagebalance.metrics as metrics_mod

    calls = _count_draws(monkeypatch)
    cfg = ExperimentConfig.from_dict({**BASE_CONFIG, "trials": 150})
    shared = rows_to_csv(run_simulate(cfg))
    assert len(calls) == 1
    monkeypatch.setattr(metrics_mod, "BATCH_TRIALS", 64)  # three chunks per point
    assert rows_to_csv(run_simulate(cfg)) == shared
    assert len(calls) == 1 + 3 * 3


def test_sweep_csv_equals_points_run_alone():
    sweep = {
        **BASE_CONFIG,
        "kind": ["cyclic", "clustering", "block_design"],
        "d": [3],
        "n": 6,
        "sigma": [{"fraction_of_n": 0.8}, {"absolute": 5.0}],
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


def test_inspect_block_design_histogram(capsys):
    assert main(["inspect", "--kind", "block_design", "--d", "3", "--n", "0"]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["pairwise_overlap_histogram"] == {"1": 21}


def test_inspect_tampered_file(tmp_path, capsys):
    data = allocation_to_dict(build_cyclic(5, 2))
    data["recovery_sets"][1][1] = [1]  # duplicate node in object 1's choices
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["inspect", "--file", str(path)]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["valid_regular_balanced"] is False
    assert any("object 1" in v for v in info["violations"])


def test_inspect_unparseable_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["inspect", "--file", str(path)]) == EXIT_CONFIG
    assert "input error" in capsys.readouterr().err


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


def test_limit_checks_requires_k(capsys):
    assert main(["limit-checks"]) == EXIT_CONFIG
