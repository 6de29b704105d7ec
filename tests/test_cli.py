import csv

import numpy as np
import pytest

from specint.cli import main
from specint.scenario import (
    DEFAULTS,
    load_scenario,
    parse_config_text,
    scenario_from_entries,
)
from specint.errors import ConfigError


def write_cfg(path, overrides=None, drop=()):
    entries = dict(DEFAULTS)
    entries.update(overrides or {})
    for key in drop:
        entries.pop(key, None)
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


SMALL_BUDGETS = {
    "oracle.pairs": "60",
    "oracle.frontier_samples": "600",
    "oracle.economies": "8",
    "oracle.br_starts": "2",
    "oracle.resolution": "4",
    "oracle.atoms": "2",
    "sweep.b": "0.0:1.0:5",
    "sweep.alpha": "0.0:1.0:5",
    "sweep.theta_frac": "0.05:0.95:5",
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError):
        parse_config_text("a.b = 1\na.b = 2")
    assert parse_config_text("# comment\n\ngov.eta = 0.5 # tail\n") == {"gov.eta": "0.5"}


def test_unknown_key_rejected():
    entries = dict(DEFAULTS)
    entries["economy.zeta"] = "1"
    with pytest.raises(ConfigError):
        scenario_from_entries(entries)


def test_default_scenario_file_matches_builtin(tmp_path):
    from_file = load_scenario("scenarios/default.cfg")
    builtin = load_scenario()
    assert from_file.econ.theta == builtin.econ.theta
    assert np.allclose(from_file.econ.q, builtin.econ.q)
    assert from_file.seed == builtin.seed


def test_solve_default_exits_zero(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    assert main(["solve", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    header = rows[0]
    for col in ("Y_star", "m_star", "e_pol", "z_pol", "welfare", "w_S", "r_bar"):
        assert col in header
    # identities hold in the emitted row
    row = dict(zip(header, rows[1]))
    assert float(row["m_star"]) < 1 / 3
    assert abs(
        float(row["service_welfare"])
        - (np.log(float(row["R"])) - float(row["dispersion"]))
    ) <= 1e-10


def test_solve_hot_theta_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "hot.cfg", {"economy.theta": "0.02"})
    assert main(["solve", "--config", cfg]) == 2
    assert "hypothesis" in capsys.readouterr().err


def test_missing_key_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "missing.cfg", drop=("economy.q",))
    assert main(["solve", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("verify", "oracle.resolution", "0"),
        ("verify", "oracle.resolution", "-2"),
        ("verify", "oracle.atoms", "0"),
        ("verify", "oracle.atoms", "-1"),
        ("verify", "oracle.frontier_samples", "2"),
        ("verify", "oracle.br_starts", "0"),
        ("verify", "oracle.pairs", "0"),
        ("verify", "oracle.economies", "0"),
        ("verify", "oracle.max_designs", "0"),
        ("solve", "economy.v", "inf"),
        ("verify", "gov.c0", "inf"),
    ],
)
def test_hostile_config_value_exits_one(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path / "hostile.cfg", {key: value})
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}") and err.count("\n") == 1


def test_sweep_theta_monotone_columns(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", SMALL_BUDGETS)
    out = tmp_path / "theta.csv"
    assert main(["sweep", "--axis", "theta", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    header, data = rows[0], rows[1:]
    m = [float(r[header.index("m")]) for r in data]
    Y = [float(r[header.index("Y")]) for r in data]
    B = [float(r[header.index("B_soc")]) for r in data]
    assert all(np.diff(m) > 0)
    assert all(np.diff(Y) < 0)
    assert all(np.diff(B) > 0)


def test_sweep_theta_capacity_falls_when_integrators_know_less(tmp_path):
    # concentrated civic profile with B_S = 0.475 > B_M = 0.387
    cfg = write_cfg(
        tmp_path / "s.cfg",
        {**SMALL_BUDGETS, "economy.u": "0.9,0.05,0.05", "economy.p": "0.52"},
    )
    out = tmp_path / "theta.csv"
    assert main(["sweep", "--axis", "theta", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    header, data = rows[0], rows[1:]
    B = [float(r[header.index("B_soc")]) for r in data]
    assert all(np.diff(B) < 0)


def test_sweep_b_capacity_rises_near_zero(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", SMALL_BUDGETS)
    out = tmp_path / "b.csv"
    assert main(["sweep", "--axis", "b", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    header, data = rows[0], rows[1:]
    B = [float(r[header.index("B_soc")]) for r in data]
    assert B[1] > B[0]  # slope positive near b=0 on the default scenario
    # the b=1 row has no political columns
    assert data[-1][header.index("e_pol")] == ""


def test_sweep_alpha_uniform_q_flat(tmp_path):
    cfg = write_cfg(
        tmp_path / "s.cfg",
        {**SMALL_BUDGETS, "economy.q": "0.33333333,0.33333333,0.33333334"},
    )
    out = tmp_path / "alpha.csv"
    assert main(["sweep", "--axis", "alpha", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    header, data = rows[0], rows[1:]
    B_S = [float(r[header.index("B_S")]) for r in data]
    B_M = [float(r[header.index("B_M")]) for r in data]
    assert max(B_S) - min(B_S) <= 1e-6
    assert max(B_M) - min(B_M) <= 1e-6


def test_verify_small_budgets_all_pass(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", SMALL_BUDGETS)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["check", "status", "metric", "tolerance", "note"]
    statuses = {r[1] for r in rows[1:]}
    assert statuses <= {"pass", "skipped"}


def test_verify_gates_on_failed_diffuseness(tmp_path):
    cfg = write_cfg(
        tmp_path / "v.cfg", {**SMALL_BUDGETS, "economy.u": "0.7,0.2,0.1"}
    )
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    gated = {r[0]: r for r in rows[1:]}["integrator-civic-advantage"]
    assert gated[1] == "skipped"
    assert "hypothesis not met" in gated[4]


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", SMALL_BUDGETS)
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_seed_changes_draws(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", SMALL_BUDGETS)
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["verify", "--config", cfg, "--seed", "1", "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--seed", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_verify_strict_flag_tightens(tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg", SMALL_BUDGETS)
    out = tmp_path / "strict.csv"
    assert main(["verify", "--config", cfg, "--strict", "--out", str(out)]) == 0
    rows = read_csv(out)
    tol = {r[0]: r[3] for r in rows[1:]}
    assert float(tol["coverage-distance-identity"]) == pytest.approx(1e-13)
