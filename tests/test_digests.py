"""Byte digests of CLI outputs, so that a change which moves an output bit
fails tier-1 instead of waiting for a hand comparison.

Each entry is the sha256 of one output's bytes, regenerated here in a few
seconds.  A change that moves bits on purpose updates the table in its diff
and says why.  Float bits depend on the numpy (and, for LP designs, scipy)
build: the table was captured with the versions below, and a failure on an
install with other versions says so.
"""

import hashlib
import json
import runpy
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from storagebalance.allocation import save_allocation
from storagebalance.cli import EXIT_OK, build_allocation, main

#: The numpy and scipy versions the digests were captured with.
CAPTURED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

ROOT = Path(__file__).resolve().parents[1]

#: One design of every kind, as ``build_allocation`` arguments (block
#: designs ignore n).
DESIGNS = {
    "single_choice_m2": ("single_choice", 5, dict(m=2)),
    "clustering": ("clustering", 9, dict(d=3)),
    "cyclic": ("cyclic", 100, dict(d=3)),
    "block_design_d3": ("block_design", 7, dict(d=3)),
    "block_design_d5": ("block_design", 21, dict(d=5)),
    "cyclic_xor_r2": ("cyclic_xor", 9, dict(d=3, r=2)),
    # n + k = 60 model rows, above loadsolver._DANTZIG_MAX_ROWS
    "cyclic_xor_n30": ("cyclic_xor", 30, dict(d=3, r=2)),
}

#: ``limit-checks`` shapes: (k, d values, trials, count trials or None).  At
#: k = 40 a block holds many short rows, at k >= 300 a few long ones.
LIMIT_SHAPES = {
    "k300_d1_d2": (300, [1, 2], 60, None),
    "k1000_d3": (1000, [3], 40, None),
    "k40_d1_d2_d40_c2500": (40, [1, 2, 40], 300, 2500),
}

DIGESTS = {
    "exact-k3/d1": "591959e628dfb0f0e62b4a07ee712d5a388e2bd121153db15057e772e565493a",
    "exact-k3/d2": "7fe5b603a4133307af21bcf1694a6033f38c78436802a56c71b271ff30280b9d",
    "exact-k3/d3": "c52c460f199a4bfed3f041109c2976ffac87b28811fd0b238b149410eb9646f6",
    "inspect/block_design_d3": "1aac9eff60b714683a10321b7e6864413950ef0049714790ecade5c08c5c95cf",
    "inspect/block_design_d5": "f0c6acabe863c3046e7ef2a277cbdb4b32cbac560a11807df6f31038aac7962f",
    "inspect/clustering": "3cd3a44f409296047728d4b6b9d3b8dd61de7e512282435c286bf79e6106a510",
    "inspect/cyclic": "cdedfe9fbc2e68cb5592f1374e5789bdbf2a2647c6434c7bf178d4bd63abf04a",
    "inspect/cyclic_xor_n30": "31f971228c5c7d5ede924a9024e8641f209a0dd7d3821907bb9406ae0ad42f1b",
    "inspect/cyclic_xor_r2": "f17187551f8988a566d338138cf3b0597efd6532b0044a26fbb3043a62c465c8",
    "inspect/single_choice_m2": "9ae3cc1c79b678d7caecaf988d6ef2debe6bd799f55c6406d6714240210526f8",
    "limit-checks/k1000_d3": "30fc5a69a3c4f74da78a5f5f9477633a0da8eac84ed6a311becc2aabf6f5c472",
    "limit-checks/k300_d1_d2": "a17de2f5fb40491012adc783c5f1b1a7493dff4200879450aac46351ed0c65bd",
    "limit-checks/k40_d1_d2_d40_c2500": "020395da4f4fe8bf87a85492ce5fe111a735f903b6b6e59382c9cff36ca5b7af",
    "save_allocation/block_design_d3": "4591f263f380fef2d7d537d1f28634deda48f28d000e2883cc8fc9c8d5fc2ba3",
    "save_allocation/block_design_d5": "3f121896dda36bed7b4493b558317b1ca0861a418c483d838de3d12ab0ab3085",
    "save_allocation/clustering": "a33017100f455aa5bf25bbe8886bcc67349116eb39105c47d0cb46ad959ed72e",
    "save_allocation/cyclic": "4dccce1ecdd9dde154cf253318ffaf8b8ebb509af7262572b4c0b238effdb9f3",
    "save_allocation/cyclic_xor_n30": "cad318aa116c214074c8ab9c5d6683405a6aa13a28a490ae2b2f3120a2233bdc",
    "save_allocation/cyclic_xor_r2": "b051e664b069a2ab4088fc7750350ef3d413b92417654c35a61ade30342ae8ad",
    "save_allocation/single_choice_m2": "f78061899ef2ab71f5f990a0c63d757ec842209287cbc8141990d55d374107d6",
    "scripts/fig_design_comparison.csv": "1c3baf53a14c1af81cd5910df0b0b7b6f4f34dbd26e6926d85f09f4927abc82c",
    "scripts/fig_imbalance_vs_d.csv": "4a15a68f515553508bff31059e500b747dab58d5d3fb47751ea51bde5bc3f6d9",
    "simulate/block_design_d3.csv": "ec270903ddde64a9f0374e8c73152e2eb5bf64c800ff4c98ee38870369d20d66",
    "simulate/block_design_d3.json": "f4e4c6c12ea9c876959ae482688bb9c7f482124b78bd415200bfd319221ccc6f",
    "simulate/block_design_d5.csv": "13a75dcdf7ffa4d281faf709ea71cc6be1d96b9bce6001d466e1d4baed8ff174",
    "simulate/block_design_d5.json": "4f1575826703e68376bf2991d5610d39960cdf3a74406e0f518bd89f4f6872b1",
    "simulate/clustering.csv": "cce8de5d421585b56017d8840a70728f9054d7c1e31cb91231b25e235c0c4d31",
    "simulate/clustering.json": "7634c8589e308b45a0117cabc276635dd64f15ad61590c40081ad12b76e90d17",
    "simulate/cyclic.csv": "96539bde1a1874e28d0dc88c420b0f5cb09dd58c6f32ac26a88ffc4272abdecc",
    "simulate/cyclic.json": "98002b639b7ad80411a2acd6048561b5a352b872945245a6cd5db78979d61c05",
    "simulate/cyclic_sweep/seed1.csv": "8cb741459fde57791c5ef4417c324deec55fe88a13c93dbf7fa5ee3cac80dee8",
    "simulate/cyclic_xor_n30.csv": "9d19241f5dd722073ed00079b8ea1247629a63d4de3b6b1db17df75e6bf26f58",
    "simulate/cyclic_xor_n30.json": "37ead1e02dc95d8a0cb9cb5dda45b451d691502c8e20410f52336c517e079ceb",
    "simulate/cyclic_xor_r2.csv": "4ca879664fb73c955b5210b2c95c57f3cca9215af148e29dc13965fc5d7c52c6",
    "simulate/cyclic_xor_r2.json": "06ea2e41b1024a68634e5b64237cfdf2b6d25727bff209abc7324fff73d29f60",
    "simulate/single_choice_m2.csv": "edff6816ba00623bbec6cadc36701d940f01c8af0cbaaf86f98f1391630b7e03",
    "simulate/single_choice_m2.json": "a6ca505f10005e3c7b65ced1f8a843efdbaadf706b813ccca4879db8408e0c30",
}


def _inspect_stdout(design, tmp_path, capsys) -> bytes:
    kind, n, params = DESIGNS[design]
    flags = [f for name, value in params.items() for f in (f"--{name}", str(value))]
    capsys.readouterr()
    assert main(["inspect", "--kind", kind, "--n", str(n), *flags]) == EXIT_OK
    return capsys.readouterr().out.encode()


def _saved_bytes(design, tmp_path, capsys) -> bytes:
    kind, n, params = DESIGNS[design]
    path = tmp_path / "alloc.json"
    save_allocation(build_allocation(kind, n, **params), str(path))
    return path.read_bytes()


def _cyclic_sweep_csv(seed, tmp_path, capsys) -> bytes:
    """The CSV of the benchmark's ``cyclic_sweep`` shape at one seed."""
    out = tmp_path / "sweep.csv"
    config = {
        "kind": ["cyclic"], "n": 100, "d": [1, 2, 3, 4, 5], "r": 1,
        "sigma": {"fraction_of_n": 0.8}, "trials": 1000, "master_seed": seed, "workers": 1,
        "outputs": [{"format": "csv", "path": str(out)}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == EXIT_OK
    return out.read_bytes()


def _json_data(text: str) -> bytes:
    """The ``data`` section of a JSON report, the part that is deterministic."""
    return (json.dumps(json.loads(text)["data"], indent=2) + "\n").encode()


def _simulated(design_format, tmp_path, capsys) -> bytes:
    """The CSV, or the JSON ``data``, of ``simulate`` on one design at
    sigma = 0.8 n and at sigma = n / log n, 300 trials, seed 5."""
    design, fmt = design_format
    kind, n, params = DESIGNS[design]
    out = tmp_path / f"out.{fmt}"
    config = {
        "kind": kind, "n": n, **params,
        "sigma": [{"fraction_of_n": 0.8}, {"b_n_over_log_n": 1.0}], "trials": 300,
        "master_seed": 5, "outputs": [{"format": fmt, "path": str(out)}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == EXIT_OK
    return out.read_bytes() if fmt == "csv" else _json_data(out.read_text())


def _limit_checks_data(shape, tmp_path, capsys) -> bytes:
    """The JSON ``data`` of ``limit-checks`` at one shape, seed 3."""
    k, d_values, trials, count_trials = LIMIT_SHAPES[shape]
    config = {"k": k, "d": d_values, "trials": trials, "master_seed": 3}
    if count_trials is not None:
        config["count_trials"] = count_trials
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    main(["limit-checks", "--config", str(path), "--format", "json"])  # exit code: all passed?
    return _json_data(capsys.readouterr().out)


def _exact_k3_stdout(d, tmp_path, capsys) -> bytes:
    capsys.readouterr()
    assert main(["exact-k3", "--d", str(d), "--sigma", "2.4"]) == EXIT_OK
    return capsys.readouterr().out.encode()


def _figure_csv(script_args, tmp_path, capsys) -> bytes:
    """The CSV a script in ``scripts/`` writes, run in this process."""
    script, *args = script_args
    out = tmp_path / "figure.csv"
    run = runpy.run_path(str(ROOT / "scripts" / script))["run"]
    with mock.patch.object(sys, "argv", [script, *args, "--out", str(out)]):
        assert run() == EXIT_OK
    return out.read_bytes()


OUTPUTS = {
    **{f"inspect/{design}": (_inspect_stdout, design) for design in DESIGNS},
    **{f"save_allocation/{design}": (_saved_bytes, design) for design in DESIGNS},
    "simulate/cyclic_sweep/seed1.csv": (_cyclic_sweep_csv, 1),
    **{f"simulate/{design}.{fmt}": (_simulated, (design, fmt))
       for design in DESIGNS for fmt in ("csv", "json")},
    **{f"limit-checks/{shape}": (_limit_checks_data, shape) for shape in LIMIT_SHAPES},
    **{f"exact-k3/d{d}": (_exact_k3_stdout, d) for d in (1, 2, 3)},
    "scripts/fig_imbalance_vs_d.csv": (
        _figure_csv, ("fig_imbalance_vs_d.py", "--n", "12", "--trials", "50")),
    "scripts/fig_design_comparison.csv": (
        _figure_csv, ("fig_design_comparison.py", "--d", "3", "--trials", "20")),
}


def output_digest(name, tmp_path, capsys) -> str:
    make, arg = OUTPUTS[name]
    return hashlib.sha256(make(arg, tmp_path, capsys)).hexdigest()


def test_every_output_has_a_digest():
    assert sorted(DIGESTS) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_bytes_match_their_digest(name, tmp_path, capsys):
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert output_digest(name, tmp_path, capsys) == DIGESTS.get(name), (
        f"{name} moved; digests captured with {CAPTURED_WITH}, installed {installed}"
    )
