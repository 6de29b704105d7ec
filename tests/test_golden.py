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
        "3305a3cb2077f5a75bf5b0a2ffca6040612c25a0fcccc2cb5db348066a591671",
    ("default", "sweep --axis alpha"):
        "8b7552a460bf911bf1afd0b695d0bc10b5aa0bf6197119c12806c589d3b3dfb9",
    ("default", "sweep --axis theta"):
        "cd4dbc539f7ca590cb667ed0ffcd7cab34cf1b371aba9186b9701a7bec628ec9",
    ("governance_heavy", "solve"):
        "e9c503c0b9e834af4309baf17ad8dd39ed652da63d5da0637f08678195b767a1",
    ("governance_heavy", "sweep --axis b"):
        "19e5f5cbc9fa1b18192001e805d0f1bbbbd89c670a48497b299317a43214684f",
    ("governance_heavy", "sweep --axis alpha"):
        "59491622f687b70bdc75224579b85a9ba098b8b5b876e849cc988a74357340bc",
    ("governance_heavy", "sweep --axis theta"):
        "c36909d79f89003c0a006e9d71e9d923b5638cc16f3f6484a01acddc870bdd61",
}

# K = 5 and the exponential family, which neither shipped scenario covers
K5_EXPONENTIAL = {
    "learning.family": "exponential",
    "learning.param": "2.0",
    "economy.q": "0.3,0.25,0.2,0.15,0.1",
    "economy.u": "0.22,0.21,0.2,0.19,0.18",
    "economy.p": "0.3",
    "economy.theta": "0.003",
}

GOLDEN_K5_EXPONENTIAL = {
    "solve": "01cf8037a0a9f89c463758c5b8ca1ae4a958f34c6d244faeeaa9bcc7f52c3416",
    "sweep --axis b": "d1f0e0fc13e12117f529b2522cdc54af8461909b0863446701e09fbf67515b4f",
    "sweep --axis alpha": "fd868db9bab12409bd32b83e0b83a3791787ef2df7c32a9188f01f4f0f8e2ae9",
    "sweep --axis theta": "6689fea7872f08988910c2920be7047522740de8bf0272cc8292eccb229f51a5",
}

VERIFY_SMALL_BUDGETS = "72253521980e0a7b7fca3110a1e760a945c490f8d5ff86a12e670565515d52f3"

# `verify` at each shipped scenario's own (full) oracle budgets
VERIFY_FULL_BUDGETS = {
    "default": "eb4df8d009cf30264a1e328f08eecd6a112963d78961ed7810235600796a1a05",
    "governance_heavy": "5eaa925eed7f7a947f458af3aabb1732321c6e01340c9fa2cca831487deb060e",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario, command", sorted(GOLDEN))
def test_shipped_scenario_csv_digest(tmp_path, scenario, command):
    out = tmp_path / "out.csv"
    cfg = str(SCENARIOS / f"{scenario}.cfg")
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN[scenario, command]


@pytest.mark.parametrize("command", sorted(GOLDEN_K5_EXPONENTIAL))
def test_k5_exponential_csv_digest(tmp_path, command):
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "k5.cfg", K5_EXPONENTIAL)
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN_K5_EXPONENTIAL[command]


def test_verify_small_budgets_csv_digest(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", SMALL_BUDGETS)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == VERIFY_SMALL_BUDGETS


@pytest.mark.parametrize("scenario", sorted(VERIFY_FULL_BUDGETS))
def test_verify_full_budgets_csv_digest(tmp_path, scenario):
    out = tmp_path / "verify.csv"
    cfg = str(SCENARIOS / f"{scenario}.cfg")
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == VERIFY_FULL_BUDGETS[scenario]
