import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specint import cli, learning, production, reforms, welfare
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


def test_profile_renormalized_at_load_with_warning():
    # q and u are put on the simplex where they enter, with a warning beyond
    # 1e-9 of drift (any other warning fails the test: filterwarnings=error)
    with pytest.warns(UserWarning, match="economy.q off the simplex"):
        q = scenario_from_entries({**DEFAULTS, "economy.q": "0.5,0.4,0.2"}).econ.q
    raw = np.array([0.5, 0.4, 0.2])
    assert np.array_equal(q, raw / raw.sum())
    q = scenario_from_entries({**DEFAULTS, "economy.q": "0.5,0.3,0.200000000001"}).econ.q
    assert q.sum() == pytest.approx(1.0, abs=1e-15)
    for bad in ("0.7,-0.2,0.5", "1.0"):
        with pytest.raises(ConfigError):
            scenario_from_entries({**DEFAULTS, "economy.q": bad})


def test_unknown_oracle_key_exits_one_and_lists_known_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "unknown.cfg", {"oracle.foo": "1"})
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config key 'oracle.foo'")
    assert "oracle.seed" in err and "sweep.b" in err and err.count("\n") == 1


def test_sweep_alpha_does_not_locate_theta_small(tmp_path, monkeypatch):
    # the alpha sweep prints no theta_small column, so it never bisects for it
    calls = []
    monkeypatch.setattr(reforms, "interface_threshold", lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path / "s.cfg", SMALL_BUDGETS)
    assert main(["sweep", "--axis", "alpha", "--config", cfg]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "argv", [["sweep"], ["sweep", "--axis", "z"], ["solve", "--strict"], ["solve", "--seed", "4"]]
)
def test_usage_error_exits_one(capsys, argv):
    # --seed and --strict belong to verify; argparse errors are config errors
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_unexpected_exception_exits_four(tmp_path, capsys, monkeypatch):
    # an exception outside the engine's hierarchy is a bug: its own code
    # and one stderr line, never a traceback or the config-error code
    def broken(econ):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "productive_optimum", broken)
    assert main(["solve", "--config", write_cfg(tmp_path / "s.cfg")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: float division by zero (bug)\n"


REQUIRED_KEYS = [k for k in DEFAULTS if k.split(".")[0] in ("learning", "economy", "gov")]
SWEEP_KEYS = ["sweep.b", "sweep.alpha", "sweep.theta_frac"]
HOSTILE_VALUES = [
    "nan", "inf", "-inf", "-1", "0", "1e300", "-1e300", "1e-300", "abc", "",
    "0.5", "0.5,0.5", "1,0,0", "0,0,1", "0.5,0.5,0", "nan,0.5,0.5", "1e300,1,1",
]
# grids out of order, with repeats, malformed, of one point, and tiny
HOSTILE_GRIDS = [
    "0.5,0.2,0.7", "0.2,0.2,0.7", "0.1:0.10000000000000002:5", "1:0:3",
    "0:1:1", "0:1:x", "0:1", "1e-7:9e-7:5",
]
NONFINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@settings(max_examples=150, deadline=None)
@example(command="solve", hostile={"economy.q": "1e300,1,1"})
@given(
    command=st.sampled_from(["solve", "sweep --axis b", "sweep --axis alpha", "sweep --axis theta"]),
    hostile=st.dictionaries(
        st.sampled_from(REQUIRED_KEYS + SWEEP_KEYS),
        st.sampled_from(HOSTILE_VALUES + HOSTILE_GRIDS),
        min_size=1,
        max_size=2,
    ),
)
def test_hostile_configs_keep_the_exit_code_contract(tmp_path_factory, command, hostile):
    # a documented code, one stderr line, no traceback, and only finite
    # numbers printed or written when the run succeeds; warnings are the
    # engine's own diagnostics (renormalized profiles, decomposition
    # residuals), recorded as in a plain run rather than raised
    work = tmp_path_factory.mktemp("hostile")
    cfg = write_cfg(work / "h.cfg", {**SMALL_BUDGETS, **hostile})
    out = work / "out.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*command.split(), "--config", cfg, "--out", str(out)])
    assert all(w.category is UserWarning for w in caught), [str(w.message) for w in caught]
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err and err.count("\n") <= 1
    if code == 0:
        assert err == ""
        assert not NONFINITE.search(stdout.getvalue())
        assert not NONFINITE.search(out.read_text())
    # the same run with the warnings promoted to errors, as under
    # PYTHONWARNINGS=error: a warning ends it with a documented code too
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            promoted = main([*command.split(), "--config", cfg, "--out", str(out)])
    err = stderr.getvalue()
    assert promoted in (0, 1, 2, 3), err
    assert "Traceback" not in err and err.count("\n") <= 1
    if not caught:
        assert promoted == code


def test_promoted_renormalization_warning_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "q.cfg", {"economy.q": "1e300,1,1"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "config error: economy.q off the simplex by 1.000e+300; renormalizing\n"


@pytest.mark.parametrize("category, code, prefix", [
    (UserWarning, 3, "oracle failure: decomposition residual"),
    (RuntimeWarning, 4, "internal error: RuntimeWarning: decomposition residual"),
])
def test_promoted_warning_after_load_exit_code(tmp_path, capsys, monkeypatch, category, code, prefix):
    # an engine UserWarning after the scenario loaded is an oracle failure;
    # any other warning category promoted to an error is still a bug
    def warn(scn, out_path):
        warnings.warn("decomposition residual 1.0e-03 exceeds 1.0e-04", category)

    monkeypatch.setattr(cli, "cmd_solve", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", write_cfg(tmp_path / "s.cfg")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_module_entry_point_exit_codes(tmp_path):
    # runs the interpreter entry point, which calls console_main
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "specint.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert run("solve", "--config", str(root / "scenarios" / "default.cfg")).returncode == 0
    hot = run("solve", "--config", write_cfg(tmp_path / "hot.cfg", {"economy.theta": "0.02"}))
    assert hot.returncode == 2 and hot.stderr.startswith("hypothesis violation:")
    assert run("verify", "--help").returncode == 0


def test_verify_above_cutoff_exits_two(tmp_path, capsys):
    # theta = 0.02 lies above default.cfg's coordination cutoff: verify
    # stops at the first check that needs the productive optimum
    cfg = write_cfg(tmp_path / "hot.cfg", {**SMALL_BUDGETS, "economy.theta": "0.02"})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("hypothesis violation:") and captured.err.count("\n") == 1


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


def test_solve_large_output_keeps_wage_support(tmp_path, capsys):
    # the wage identities' round-off grows with V_tilde (about 1.2e-10 at
    # V = 1e6); it is not a failed support condition
    cfg = write_cfg(tmp_path / "large.cfg", {"economy.v": "1e6"})
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, row = read_csv(out)
    cells = dict(zip(header, row))
    assert cells["w_S"] and cells["w_M"]
    assert "not supported" not in capsys.readouterr().out


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
        ("solve", "learning.param", "1e200"),
        ("sweep --axis b", "learning.param", "1e200"),
        ("solve", "economy.q", "0.6,0.4,0.0"),
        ("sweep --axis b", "economy.q", "0.6,0.4,0.0"),
        ("sweep --axis alpha", "economy.q", "0.6,0.4,0.0"),
        ("solve", "economy.u", "0.6,0.4,0.0"),
        ("sweep --axis alpha", "economy.u", "0.6,0.4,0.0"),
        ("verify", "oracle.seed", "-5"),
        ("verify --seed -3", "oracle.seed", "20260808"),
        ("solve", "economy.q", "1"),
        ("solve", "economy.u", "1"),
        ("solve", "economy.q", "0.5,0.5"),
        ("verify", "economy.q", "0.5,0.5"),
    ],
)
def test_hostile_config_value_exits_one(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path / "hostile.cfg", {key: value})
    assert main([*command.split(), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}") and err.count("\n") == 1


@pytest.mark.parametrize("key", SWEEP_KEYS)
@pytest.mark.parametrize("grid", ["0.5,0.2,0.7", "0.2,0.2,0.7", "0.1:0.10000000000000002:5"])
def test_sweep_grid_must_increase_strictly(key, grid):
    # the last spec has hi > lo, but its points round to repeats
    with pytest.raises(ConfigError, match=f"^{key}: grid must be strictly increasing"):
        scenario_from_entries({**DEFAULTS, key: grid})


@pytest.mark.parametrize(
    "axis, key", [("b", "sweep.b"), ("alpha", "sweep.alpha"), ("theta", "sweep.theta_frac")]
)
def test_sweep_on_an_unordered_grid_exits_one(tmp_path, capsys, axis, key):
    cfg = write_cfg(tmp_path / "unordered.cfg", {key: "0.5,0.2,0.7"})
    assert main(["sweep", "--axis", axis, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: grid must be strictly increasing")
    assert err.count("\n") == 1


def test_profile_length_mismatch_names_both_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "k.cfg", {"economy.q": "0.5,0.5"})
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "economy.q has 2" in err and "economy.u has 3" in err


def test_non_finite_result_never_exits_zero(tmp_path, capsys):
    # at V = 1e308 the welfare slope dW/dalpha overflows to nan on the
    # end rows of the alpha sweep, and the decomposition step warns
    cfg = write_cfg(tmp_path / "huge.cfg", {"economy.v": "1e308"})
    out = tmp_path / "alpha.csv"
    with pytest.warns(UserWarning):
        code = main(["sweep", "--axis", "alpha", "--config", cfg, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("oracle failure: column dW_dalpha") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep --axis b", "verify"])
@pytest.mark.parametrize("param", ["1000", "1e200"])
def test_steep_exponential_cost_exits_one(tmp_path, capsys, param, command):
    # ell'(1) underflows to 0 at 1000; ell'(0)**3 overflows at 1e200
    cfg = write_cfg(
        tmp_path / "steep.cfg", {"learning.family": "exponential", "learning.param": param}
    )
    assert main([*command.split(), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: learning.param") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command", ["solve", "sweep --axis b", "sweep --axis alpha", "sweep --axis theta"]
)
@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_cost_without_concavity_gap_exits_one(tmp_path, capsys, family, command):
    # at param 1e-300 both slopes round to 1, so ell'(0) - 1 is exactly 0
    cfg = write_cfg(tmp_path / "flat.cfg", {"learning.family": family, "learning.param": "1e-300"})
    assert main([*command.split(), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: learning.param") and err.count("\n") == 1


def test_sweep_alpha_frontier_solves_do_not_grow_with_grid(tmp_path, monkeypatch):
    # the interface family holds its allocation fixed, so the atoms' frontier
    # is solved when the allocation is built, not again at each alpha
    calls = []
    solve = learning.max_scale_batch

    def counted(tech, directions):
        calls.append(directions.shape[0])
        return solve(tech, directions)

    monkeypatch.setattr(learning, "max_scale_batch", counted)
    counts = []
    for grid in ("0.0:1.0:5", "0.0:1.0:21"):
        calls.clear()
        cfg = write_cfg(tmp_path / "alpha.cfg", {"sweep.alpha": grid})
        assert main(["sweep", "--axis", "alpha", "--config", cfg]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_solve_solves_the_optimum_once(tmp_path, monkeypatch):
    # the wage support reads the optimum that solve has already built, so
    # its frontier H(h*) is solved once, and it is the only frontier solve
    calls = []
    solve = learning.max_scale_batch

    def counted(tech, directions):
        calls.append(np.array(directions, copy=True))
        return solve(tech, directions)

    monkeypatch.setattr(learning, "max_scale_batch", counted)
    cfg = write_cfg(tmp_path / "s.cfg")
    assert main(["solve", "--config", cfg]) == 0
    h_star = production.gap_profile_star(load_scenario(cfg).econ.q)
    assert [c.tobytes() for c in calls] == [h_star[None, :].tobytes()]


def test_sweep_alpha_evaluates_welfare_three_times_per_grid_point(tmp_path, monkeypatch):
    # each grid point's curves are the report at the centre of its slope
    # stencil, so welfare is evaluated at the three stencil points alone
    calls = []
    evaluate = welfare.total_welfare

    def counted(econ, alloc):
        calls.append(alloc)
        return evaluate(econ, alloc)

    for module in (welfare, cli):
        monkeypatch.setattr(module, "total_welfare", counted)
    for n in (5, 21):
        calls.clear()
        cfg = write_cfg(tmp_path / "alpha.cfg", {"sweep.alpha": f"0.0:1.0:{n}"})
        assert main(["sweep", "--axis", "alpha", "--config", cfg]) == 0
        assert len(calls) == 3 * n


def test_near_linear_exponential_cost_runs(tmp_path):
    # 1-exp(-c*s) cancels at c = 1e-4; the expm1 form keeps the frontier certified
    cfg = write_cfg(
        tmp_path / "expo.cfg",
        {"learning.family": "exponential", "learning.param": "0.0001",
         "economy.theta": "0.000000001"},
    )
    assert main(["solve", "--config", cfg]) == 0
    assert main(["sweep", "--axis", "b", "--config", cfg]) == 0


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


def test_verify_uniform_q_skips_interface_statics(tmp_path):
    # with q uniform both interface curves are flat, so the result "for
    # small theta" has no content: the check is skipped, not failed
    cfg = write_cfg(tmp_path / "v.cfg", {"economy.q": ",".join([repr(1 / 3)] * 3)})
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = {r[0]: r for r in read_csv(out)[1:]}
    assert rows["interface-statics"][1] == "skipped"
    assert "hypothesis not met" in rows["interface-statics"][4]
    assert {r[1] for r in rows.values()} == {"pass", "skipped"}


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
