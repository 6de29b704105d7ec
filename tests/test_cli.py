import ast
import contextlib
import csv
import importlib
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

from specint import cli, errors, learning, production, reforms, welfare
from specint.cli import main
from specint.scenario import (
    DEFAULTS,
    load_scenario,
    parse_config_text,
    scenario_from_entries,
)
from specint.errors import ConfigError, DomainError, HypothesisError, OracleError


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


@pytest.mark.parametrize(
    "value, cell",
    [
        (0.1, "0.1"),
        (-0.0, "-0.0"),
        (1e-300, "1e-300"),
        (float("inf"), "inf"),
        (np.float64(0.1), "0.1"),
        (np.float64(2.5e-17), "2.5e-17"),
        (np.float32(0.1), "0.10000000149011612"),
        (3, "3"),
        (np.int64(-7), "-7"),
        (True, "true"),
        (False, "false"),
        (np.bool_(True), "true"),
        (None, ""),
        ("rational", "rational"),
    ],
)
def test_fmt_cells(value, cell):
    # a Python float takes the fast path; every other type formats as before
    assert cli._fmt(value) == cell


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


def test_profile_off_the_simplex_is_a_config_error():
    # q and u are put on the simplex where they enter: a drift of the sum
    # within 1e-9 is divided out, a larger one is a config error, as in Economy
    raw = np.array([0.5, 0.3, 0.200000000001])
    q = scenario_from_entries({**DEFAULTS, "economy.q": "0.5,0.3,0.200000000001"}).econ.q
    assert np.array_equal(q, raw / raw.sum())
    for key, bad, drift in (("economy.q", "0.5,0.4,0.2", "1.000e-01"),
                            ("economy.u", "0.4,0.4,0.4", "2.000e-01")):
        with pytest.raises(ConfigError, match=f"^{key} off the simplex by {drift};"):
            scenario_from_entries({**DEFAULTS, key: bad})
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
    # the alpha sweep prints no theta_small column, so it never computes it
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


EXIT_CODES = {ConfigError: 1, HypothesisError: 2, DomainError: 2, OracleError: 3}


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, cls):
    def failing(econ):
        raise cls("stated reason")

    monkeypatch.setattr(cli, "productive_optimum", failing)
    assert main(["solve", "--config", write_cfg(tmp_path / "s.cfg")]) == EXIT_CODES[cls]
    err = capsys.readouterr().err
    assert err.endswith(": stated reason\n") and err.count("\n") == 1


def test_every_raise_names_a_class_with_an_exit_code():
    # the class a site raises is its exit code: every raise in the engine
    # names one of the four classes main maps, or AssertionError for an
    # internal invariant (a bug, exit 4); specint.errors defines those four
    # and their base, and no module binds an engine error under another name;
    # no module imports warnings, so an outcome is a result or an exception
    allowed = {cls.__name__ for cls in EXIT_CODES} | {"AssertionError"}
    classes = {"ModelError", *(cls.__name__ for cls in EXIT_CODES)}
    src = Path(cli.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in allowed:
                    stray.append(f"{path.name}:{node.lineno} {ast.unparse(exc)}")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            if "warnings" in modules:
                stray.append(f"{path.name}:{node.lineno} imports warnings")
        module = importlib.import_module(f"specint.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, errors.ModelError):
                if name not in classes or name != value.__name__:
                    stray.append(f"{path.name} binds {name} to {value.__name__}")
    assert not stray
    assert {n for n, v in vars(errors).items() if isinstance(v, type)} == classes


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
@example(command="sweep --axis b", hostile={"economy.theta": "1e300"})
@example(command="verify", hostile={"sweep.theta_frac": "0.5"})
@given(
    command=st.sampled_from(
        ["solve", "sweep --axis b", "sweep --axis alpha", "sweep --axis theta", "verify"]
    ),
    hostile=st.dictionaries(
        st.sampled_from(REQUIRED_KEYS + SWEEP_KEYS),
        st.sampled_from(HOSTILE_VALUES + HOSTILE_GRIDS),
        min_size=1,
        max_size=2,
    ),
)
def test_hostile_configs_keep_the_exit_code_contract(tmp_path_factory, command, hostile):
    # a documented code, one stderr line, no traceback, and only finite
    # numbers printed or written when the run succeeds; the engine never
    # warns, so any warning is raised, exits 4 and fails the test
    work = tmp_path_factory.mktemp("hostile")
    cfg = write_cfg(work / "h.cfg", {**SMALL_BUDGETS, **hostile})
    out = work / "out.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command.split(), "--config", cfg, "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err and err.count("\n") <= 1
    if code == 0:
        assert err == ""
        assert not NONFINITE.search(stdout.getvalue())
        assert not NONFINITE.search(out.read_text())


@pytest.mark.parametrize("q, drift", [("0.5,0.4,0.2", "1.000e-01"), ("1e300,1,1", "1.000e+300")])
def test_off_simplex_profile_exits_one_without_a_warning(tmp_path, capsys, q, drift):
    cfg = write_cfg(tmp_path / "q.cfg", {"economy.q": q})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"config error: economy.q off the simplex by {drift}; entries must sum to 1\n"


@pytest.mark.parametrize("category, code, prefix", [
    (UserWarning, 4, "internal error: UserWarning: decomposition residual"),
    (RuntimeWarning, 4, "internal error: RuntimeWarning: decomposition residual"),
])
def test_promoted_warning_after_load_exit_code(tmp_path, capsys, monkeypatch, category, code, prefix):
    # the engine never warns, so a warning promoted to an error is a bug
    # whatever its category
    def warn(scn, out_path):
        warnings.warn("decomposition residual 1.0e-03 exceeds 1.0e-04", category)

    monkeypatch.setattr(cli, "cmd_solve", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", write_cfg(tmp_path / "s.cfg")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_promoted_warning_during_load_exits_four(capsys, monkeypatch):
    # the exit code of a promoted warning no longer depends on whether the
    # scenario had loaded
    def warn(path):
        warnings.warn("economy.q off the simplex", UserWarning)

    monkeypatch.setattr(cli, "load_scenario", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: UserWarning: economy.q") and err.count("\n") == 1


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


def test_solve_and_sweep_leave_the_oracle_layer_unloaded():
    # only verify imports specint.oracles, and of these commands only solve
    # imports specint.competitive; a fresh interpreter shows what each loads
    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import sys",
        "from specint.cli import main",
        f"cfg = {str(root / 'scenarios' / 'default.cfg')!r}",
        "codes = [main(['sweep', '--axis', a, '--config', cfg]) for a in ('b', 'alpha', 'theta')]",
        "loaded = ['specint.competitive' in sys.modules]",
        "codes.append(main(['solve', '--config', cfg]))",
        "loaded.append('specint.oracles' in sys.modules)",
        "print(codes, loaded, file=sys.stderr)",
    ])
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == "[0, 0, 0, 0] [False, False]\n"


def _imported_modules(node):
    """The modules an import statement reads: the module itself and, for
    `from M import a`, each M.a (which may be a submodule); a relative
    import is resolved inside specint."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = ".".join(filter(None, ["specint" if node.level else "", node.module]))
    return [module, *(f"{module}.{alias.name}" for alias in node.names)]


def test_only_cmd_verify_imports_the_oracle_layer():
    # the engine never depends on the checks that certify it: no module of
    # specint imports specint.oracles, except cli inside cmd_verify
    src = Path(cli.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "oracles":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == "specint.oracles" or name.startswith("specint.oracles.")
                    for name in _imported_modules(node)
                ):
                    scope = top.name if isinstance(top, ast.FunctionDef) else "<module>"
                    sites.append((path.stem, scope))
    assert sites == [("cli", "cmd_verify")]


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


def test_solve_without_wage_support_leaves_the_wage_cells_blank(tmp_path, capsys):
    # at V = 1 the continuation gap is above net productivity: solve still
    # exits 0, says why, and leaves only the wage cells blank
    cfg = write_cfg(tmp_path / "small_v.cfg", {"economy.v": "1.0"})
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (
        "not supported: continuation gap 0.897914 not below net productivity 0.7; "
        in capsys.readouterr().out
    )
    header, row = read_csv(out)
    cells = dict(zip(header, row))
    assert [cells[k] for k in ("delta_q", "beta", "w_S", "w_M")] == ["", "", "", ""]
    assert cells["V_tilde"] == "0.7" and cells["r_bar"]


def test_verify_at_large_v_bounds_output_and_wage_residuals_by_v(tmp_path, capsys):
    # at V = 1e6 the residuals of Y and of the wage identities reach 3.5e-10
    # and 1.2e-10, above an absolute 1e-10; bounded by max(1e-10, 16 eps V),
    # as support_wages bounds them, every check passes
    cfg = write_cfg(tmp_path / "large.cfg", {**SMALL_BUDGETS, "economy.v": "1e6"})
    assert main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["solve", "sweep --axis b", "verify"])
@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_unwritable_out_exits_one(tmp_path, capsys, monkeypatch, command, target):
    # a path in a missing directory, or a directory, is a config error in
    # one line, not an internal error, and it is found before any work:
    # verify never runs its checks
    from specint import oracles

    runs = []

    def refuse(scn):
        runs.append(scn)
        raise AssertionError("verify ran its checks before checking --out")

    monkeypatch.setattr(oracles, "run_all", refuse)
    cfg = write_cfg(tmp_path / "small.cfg", SMALL_BUDGETS)
    out = str(tmp_path / target)
    assert main([*command.split(), "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write --out file {out!r}: ")
    assert err.count("\n") == 1
    assert runs == []


def test_non_finite_result_never_exits_zero(tmp_path, capsys):
    # at V = 1e308 the welfare slope dW/dalpha overflows to nan on the end
    # rows of the alpha sweep; its decomposition residual is nan too, and
    # the sweep stops at the first point, alpha = 0
    cfg = write_cfg(tmp_path / "huge.cfg", {"economy.v": "1e308"})
    out = tmp_path / "alpha.csv"
    assert main(["sweep", "--axis", "alpha", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("oracle failure: decomposition residual nan exceeds 1.0e-04 at alpha=0;")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_cell_names_its_column(value):
    # checked before any cell is printed or written
    with pytest.raises(OracleError, match=r"^column dW_dalpha holds a non-finite result \("):
        cli._format_table({"alpha": [0.0, 0.5], "dW_dalpha": [1.0, value]})


def test_first_non_finite_cell_in_row_order_is_named():
    # two non-finite cells: the one in the earlier row is named, though a
    # later column holds it
    table = {"a": [0.0, float("nan")], "b": [1.0, 0.5], "c": [float("inf"), 2.0]}
    with pytest.raises(OracleError, match=r"^column c holds a non-finite result \(inf\)$"):
        cli._format_table(table)
    table["c"][0] = 3.0
    with pytest.raises(OracleError, match=r"^column a holds a non-finite result \(nan\)$"):
        cli._format_table(table)


def test_alpha_sweep_stops_at_a_decomposition_residual(tmp_path, capsys):
    # at V = 1e200 the welfare-slope stencil loses accuracy: the sweep ends
    # in one oracle failure line, with no warning and no CSV
    cfg = write_cfg(tmp_path / "huge.cfg", {"economy.v": "1e200"})
    out = tmp_path / "alpha.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--axis", "alpha", "--config", cfg, "--out", str(out)])
    assert code == 3 and caught == []
    err = capsys.readouterr().err
    assert err.startswith(
        "oracle failure: decomposition residual 1.665e-02 exceeds 1.0e-04 at alpha=0;"
    )
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("v", ["1e200", "1e308"])
def test_verify_at_huge_v_fails_its_oracles_without_a_bug(tmp_path, capsys, v):
    # at V = 1e200 the services t_S, t_M are of order 1e199, and the square
    # (a + b)**2 in vote_share_slope overflowed there; at 1e308 the opponent
    # service in best_response overflows to inf, and the log of it in the
    # budget split failed: both were internal errors
    cfg = write_cfg(tmp_path / "huge.cfg", {**SMALL_BUDGETS, "economy.v": v})
    assert main(["verify", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "(bug)" not in err and err.count("\n") <= 1


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
    # is solved when the allocation is built, not again at each alpha: one
    # batch of the corners and h* (whose H(h*) the closed slopes read), and
    # one of the integrator direction
    calls = []
    solve = learning.max_scale_batch

    def counted(tech, directions):
        calls.append(directions.shape[0])
        return solve(tech, directions)

    for module in (learning, reforms):
        monkeypatch.setattr(module, "max_scale_batch", counted)
    counts = []
    for grid in ("0.0:1.0:5", "0.0:1.0:21"):
        calls.clear()
        cfg = write_cfg(tmp_path / "alpha.cfg", {"sweep.alpha": grid})
        assert main(["sweep", "--axis", "alpha", "--config", cfg]) == 0
        counts.append(list(calls))
    assert counts == [[4, 1], [4, 1]]


def test_solve_solves_the_optimum_once(tmp_path, monkeypatch):
    # the wage support reads the optimum that solve has already built, so
    # its frontier H(h*) is solved once, and it is the only frontier solve
    calls = []
    solve = learning.max_scale_batch

    def counted(tech, directions, param=None):
        calls.append(np.array(directions, copy=True))
        return solve(tech, directions, param)

    monkeypatch.setattr(learning, "max_scale_batch", counted)
    cfg = write_cfg(tmp_path / "s.cfg")
    assert main(["solve", "--config", cfg]) == 0
    h_star = production.gap_profile_star(load_scenario(cfg).econ.q)
    assert [c.tobytes() for c in calls] == [h_star[None, :].tobytes()]


def test_solve_evaluates_the_optimum_accounts_once(tmp_path, monkeypatch):
    # the wage support reads the group knowledge of solve's welfare report,
    # so the optimum's accounts are added up once
    from specint import competitive, oracles, politics

    calls = []
    evaluate = production.accounts

    def counted(alloc, econ):
        calls.append(alloc)
        return evaluate(alloc, econ)

    for module in (production, politics, reforms, competitive, oracles):
        monkeypatch.setattr(module, "accounts", counted)
    assert all(getattr(module, "accounts", counted) is counted
               for name, module in sys.modules.items() if name.startswith("specint"))
    assert main(["solve", "--config", write_cfg(tmp_path / "s.cfg")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("share, frontier_rows", [("0.0", [4, 1]), ("1.0", [4])])
def test_sweep_b_on_one_end_point(tmp_path, monkeypatch, share, frontier_rows):
    # a one-share grid at either end writes its one row; at b = 1 no share
    # has a gap, so no integrator direction is solved, and the row holds no
    # voting game
    calls = []
    solve = learning.max_scale_batch

    def counted(tech, directions, param=None):
        calls.append(len(directions))
        return solve(tech, directions, param)

    for module in (learning, reforms):
        monkeypatch.setattr(module, "max_scale_batch", counted)
    cfg = write_cfg(tmp_path / "b.cfg", {"sweep.b": share})
    out = tmp_path / "b.csv"
    assert main(["sweep", "--axis", "b", "--config", cfg, "--out", str(out)]) == 0
    assert calls == frontier_rows
    header, *data = read_csv(out)
    assert len(data) == 1
    (row,) = data
    assert row[header.index("b")] == share
    political = ["e_pol", "z_pol", "t_S", "t_M", "R", "service_welfare", "dispersion", "welfare"]
    blank = [name for name in political if row[header.index(name)] == ""]
    assert blank == (political if share == "1.0" else [])
    assert (float(row[header.index("m")]) > 0.0) == (share == "0.0")


def test_sweep_alpha_is_one_array_pass(tmp_path, monkeypatch):
    # the civic profiles of every stencil point meet the fixed allocation in
    # one system_knowledge call on the (3n, K) stack; no per-point economy,
    # accounts or welfare evaluation is left, and each grid point is still
    # decomposed once
    from specint import knowledge, oracles, politics
    from specint.economy import Economy

    knowledge_calls, decompositions = [], []
    system_knowledge, decompose_along = knowledge.system_knowledge, welfare.decompose_along

    def counted_knowledge(s, u, p):
        knowledge_calls.append(np.shape(u))
        return system_knowledge(s, u, p)

    def counted_decompose(*args):
        decompositions.append(args[2])
        return decompose_along(*args)

    def refuse(*args):
        raise AssertionError("per-point evaluation in the alpha sweep")

    for module in (knowledge, production, reforms, oracles):
        monkeypatch.setattr(module, "system_knowledge", counted_knowledge)
    for module in (welfare, reforms):
        monkeypatch.setattr(module, "decompose_along", counted_decompose)
    for module in (welfare, cli):
        monkeypatch.setattr(module, "total_welfare", refuse)
    for module in (politics, welfare):
        monkeypatch.setattr(module, "political_equilibrium", refuse)
    monkeypatch.setattr(Economy, "with_u", refuse)
    for n in (5, 21):
        knowledge_calls.clear()
        decompositions.clear()
        cfg = write_cfg(tmp_path / "alpha.cfg", {"sweep.alpha": f"0.0:1.0:{n}"})
        assert main(["sweep", "--axis", "alpha", "--config", cfg]) == 0
        assert knowledge_calls == [(3 * n, 3)]
        assert decompositions == np.linspace(0.0, 1.0, n).tolist()


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


@pytest.mark.parametrize("key, grid", [
    ("sweep.theta_frac", "0.5"),
    ("sweep.theta_frac", "1e-300"),
    ("sweep.theta_frac", "0.999999"),
    ("sweep.alpha", "1.0"),
    ("sweep.alpha", "0.99999,1.0"),
])
def test_verify_passes_on_a_grid_of_one_point_or_near_one_end(tmp_path, key, grid):
    # a one-point theta grid has no step for the strictness test, and an
    # alpha grid near 1 takes the stencils the default grid takes there
    cfg = write_cfg(tmp_path / "v.cfg", {key: grid})
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 22
    assert {r[1] for r in rows} == {"pass"}


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
