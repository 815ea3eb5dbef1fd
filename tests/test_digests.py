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

import numpy as np
import pytest
import scipy

from storagebalance.allocation import save_allocation
from storagebalance.cli import EXIT_OK, build_allocation, main

#: The numpy and scipy versions the digests were captured with.
CAPTURED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

#: One design of every kind, as ``build_allocation`` arguments.
DESIGNS = {
    "single_choice_m2": ("single_choice", 5, dict(m=2)),
    "clustering": ("clustering", 9, dict(d=3)),
    "cyclic": ("cyclic", 100, dict(d=3)),
    "block_design_d3": ("block_design", 0, dict(d=3)),
    "block_design_d5": ("block_design", 0, dict(d=5)),
    "cyclic_xor_r2": ("cyclic_xor", 9, dict(d=3, r=2)),
}

DIGESTS = {
    "inspect/block_design_d3": "1aac9eff60b714683a10321b7e6864413950ef0049714790ecade5c08c5c95cf",
    "inspect/block_design_d5": "f0c6acabe863c3046e7ef2a277cbdb4b32cbac560a11807df6f31038aac7962f",
    "inspect/clustering": "3cd3a44f409296047728d4b6b9d3b8dd61de7e512282435c286bf79e6106a510",
    "inspect/cyclic": "cdedfe9fbc2e68cb5592f1374e5789bdbf2a2647c6434c7bf178d4bd63abf04a",
    "inspect/cyclic_xor_r2": "f17187551f8988a566d338138cf3b0597efd6532b0044a26fbb3043a62c465c8",
    "inspect/single_choice_m2": "9ae3cc1c79b678d7caecaf988d6ef2debe6bd799f55c6406d6714240210526f8",
    "save_allocation/block_design_d3": "4591f263f380fef2d7d537d1f28634deda48f28d000e2883cc8fc9c8d5fc2ba3",
    "save_allocation/block_design_d5": "3f121896dda36bed7b4493b558317b1ca0861a418c483d838de3d12ab0ab3085",
    "save_allocation/clustering": "a33017100f455aa5bf25bbe8886bcc67349116eb39105c47d0cb46ad959ed72e",
    "save_allocation/cyclic": "4dccce1ecdd9dde154cf253318ffaf8b8ebb509af7262572b4c0b238effdb9f3",
    "save_allocation/cyclic_xor_r2": "b051e664b069a2ab4088fc7750350ef3d413b92417654c35a61ade30342ae8ad",
    "save_allocation/single_choice_m2": "f78061899ef2ab71f5f990a0c63d757ec842209287cbc8141990d55d374107d6",
    "simulate/cyclic_sweep/seed1.csv": "9c9ccae091059bb29364970a3c44a041b486f53e74e8538d1c5fbb546fa26301",
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


OUTPUTS = {
    **{f"inspect/{design}": (_inspect_stdout, design) for design in DESIGNS},
    **{f"save_allocation/{design}": (_saved_bytes, design) for design in DESIGNS},
    "simulate/cyclic_sweep/seed1.csv": (_cyclic_sweep_csv, 1),
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
