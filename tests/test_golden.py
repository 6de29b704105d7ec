"""Byte-identity of the deterministic `--out` CSVs.

Each digest is the SHA-256 of one file as written by the command. A change
that moves any emitted float, even by one ulp, changes its digest: update a
digest only together with a line in CHANGES.md that says which output moved
and why.
"""

import hashlib
from pathlib import Path

import pytest

from specint.cli import main

from test_cli import SMALL_BUDGETS, write_cfg

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("default", "solve"):
        "b7af85233b99baa64f8346b3371df9161e81e0c91a5861aadeb9a98785aaefd1",
    ("default", "sweep --axis b"):
        "abcbab3996bd5ce55819cce2816bc956a355abf26bcf698a617f2bd24b870ff5",
    ("default", "sweep --axis alpha"):
        "56c11bac9af1c7f751bcb0a935222ea5d3db40e52c4fcdb90fc99e113fc42ff5",
    ("default", "sweep --axis theta"):
        "e25033f4b12ff83784737d232bdbfb95a45fcde5df4d8683e1412ec7a054866d",
    ("governance_heavy", "solve"):
        "e9c503c0b9e834af4309baf17ad8dd39ed652da63d5da0637f08678195b767a1",
    ("governance_heavy", "sweep --axis b"):
        "af7c8320d2fda9c5fe7fa9a7edbc08c3c8b7e73172b37a2385691c6207c9ba2c",
    ("governance_heavy", "sweep --axis alpha"):
        "fdee473c889f699c44ecd63fc3d5268002ed0e91494b192ae343e4496c6110a7",
    ("governance_heavy", "sweep --axis theta"):
        "127e968d1ba8cf3a3212c928b1e5605d6e1c33f148e73147150f2b3222eacdb4",
}

VERIFY_SMALL_BUDGETS = "1c0ab546bbd2d09cab2841ed4fcace61452b54c567a31b33c3e516e7e0669f65"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario, command", sorted(GOLDEN))
def test_shipped_scenario_csv_digest(tmp_path, scenario, command):
    out = tmp_path / "out.csv"
    cfg = str(SCENARIOS / f"{scenario}.cfg")
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN[scenario, command]


def test_verify_small_budgets_csv_digest(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", SMALL_BUDGETS)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == VERIFY_SMALL_BUDGETS
