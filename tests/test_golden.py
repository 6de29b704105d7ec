"""Byte-identity of the deterministic `--out` CSVs.

Each digest is the SHA-256 of one file as written by the command. A change
that moves any emitted float, even by one ulp, changes its digest: update a
digest only together with a line in CHANGES.md that says which output moved
and why.
"""

import hashlib
import os
import subprocess
import sys
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

# CI's K = 8 economy: from 8 terms on numpy sums a row pairwise, so the
# specialist layer's row sums and the knowledge row sums take that path
K8 = {
    "oracle.resolution": "2",
    "economy.q": "0.2,0.16,0.14,0.12,0.11,0.1,0.09,0.08",
    "economy.u": "0.13,0.128,0.126,0.125,0.124,0.123,0.122,0.122",
}

GOLDEN_K8 = {
    "solve": "030b35033cc5be1209be570f671b990c7ca5aee7ab24da4165ad0d9510a47a52",
    "sweep --axis b": "b95cf4e90d5bca86828265b711ea97b2dd79ff1e30c6a91ce787b909bb1c2f71",
    "sweep --axis alpha": "6f4a1c1c74546473c6b04b341deab56b89cf25035d0628707de8ef9c57943214",
    "sweep --axis theta": "e386091865e1797a52df429b05dae930da262e0f22aae1e313b560c7d480b712",
}

# default.cfg with an alpha grid whose neighbouring stencils share points
# (0 and 1e-5 both stencil on 0, 1e-5, 2e-5) and that takes all three
# stencil kinds
DENSE_ALPHA = {"sweep.alpha": "0.0,0.00001,0.00002,0.5,1.0"}

GOLDEN_DENSE_ALPHA = "2d3369b100840e06a7c25ba397bada0445bf61e0f11983521c26ec4a074d6093"

VERIFY_SMALL_BUDGETS = "8a3d0d8e65ed5018d6381146155ac053668bdc57625f7c51e6568d9c70f28d2a"

# `verify` at each shipped scenario's own (full) oracle budgets
VERIFY_FULL_BUDGETS = {
    "default": "0d88d72ee410df507c9e1c1245a2d79774a94a8d6cbdbc13bd4369692c9a37da",
    "governance_heavy": "f38b5b37aea3df9b5d3c8fa6118d4c17d441ed11b5811e04209af7a92756ee05",
}


# an exponential cost whose ell'(1), and so theta_bar, np.exp rounds one way
# in numpy's AVX-512 kernels and the other way in its baseline code
DISPATCH_EXPONENTIAL = {"learning.family": "exponential", "learning.param": "0.46219054763690925"}


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


@pytest.mark.parametrize("command", sorted(GOLDEN_K8))
def test_k8_csv_digest(tmp_path, command):
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "k8.cfg", K8)
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN_K8[command]


def test_dense_alpha_grid_csv_digest(tmp_path):
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "dense.cfg", DENSE_ALPHA)
    assert main(["sweep", "--axis", "alpha", "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN_DENSE_ALPHA


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


def _dispatch_targets() -> list[str]:
    """The SIMD targets numpy dispatches to on this host, as
    NPY_DISABLE_CPU_FEATURES names them (numpy rejects any other name)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _on_baseline_kernels(argvs: list[list[str]]) -> None:
    """Run main on each full argv in one interpreter that runs numpy's
    baseline kernels alone, with NPY_DISABLE_CPU_FEATURES naming every
    target numpy dispatches to here; skip the test where there is none."""
    targets = _dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target above its baseline here")
    script = "\n".join([
        "from specint.cli import main",
        f"for argv in {argvs!r}:",
        "    assert main(argv) == 0, argv",
    ])
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_solve_and_theta_sweep_csvs_do_not_depend_on_numpy_dispatch(tmp_path):
    # the same CSVs in-process and on numpy's baseline kernels alone
    cfg = write_cfg(tmp_path / "exp.cfg", DISPATCH_EXPONENTIAL)
    runs = [(["solve"], "solve"), (["sweep", "--axis", "theta"], "theta")]
    _on_baseline_kernels([[*argv, "--config", cfg, "--out", str(tmp_path / f"baseline_{name}.csv")]
                          for argv, name in runs])
    for argv, name in runs:
        assert main([*argv, "--config", cfg, "--out", str(tmp_path / f"{name}.csv")]) == 0
        baseline = (tmp_path / f"baseline_{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == baseline, name


def _pinned_runs(tmp_path) -> list[tuple[list[str], str]]:
    """(argv up to --out, pinned digest) of every digest this module pins."""
    runs = [
        ([*command.split(), "--config", str(SCENARIOS / f"{scenario}.cfg")], digest)
        for (scenario, command), digest in sorted(GOLDEN.items())
    ]
    for name, overrides, pinned in (("k5", K5_EXPONENTIAL, GOLDEN_K5_EXPONENTIAL),
                                    ("k8", K8, GOLDEN_K8)):
        cfg = write_cfg(tmp_path / f"{name}.cfg", overrides)
        runs += [([*command.split(), "--config", cfg], digest)
                 for command, digest in sorted(pinned.items())]
    dense = write_cfg(tmp_path / "dense.cfg", DENSE_ALPHA)
    runs.append((["sweep", "--axis", "alpha", "--config", dense], GOLDEN_DENSE_ALPHA))
    small = write_cfg(tmp_path / "small.cfg", SMALL_BUDGETS)
    runs.append((["verify", "--config", small], VERIFY_SMALL_BUDGETS))
    runs += [(["verify", "--config", str(SCENARIOS / f"{scenario}.cfg")], digest)
             for scenario, digest in sorted(VERIFY_FULL_BUDGETS.items())]
    return runs


def test_pinned_digests_hold_on_numpy_baseline_kernels(tmp_path):
    # every pinned CSV, recomputed on numpy's baseline kernels alone
    runs = _pinned_runs(tmp_path)
    assert len(runs) == 20
    outs = [tmp_path / f"{i}.csv" for i in range(len(runs))]
    _on_baseline_kernels([[*argv, "--out", str(out)] for (argv, _), out in zip(runs, outs)])
    for (argv, digest), out in zip(runs, outs):
        assert _digest(out) == digest, argv
