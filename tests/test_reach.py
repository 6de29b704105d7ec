"""Reach: the commands call every function and method the package defines.

A function that no command reaches is either dead or an engine result that
nothing checks. The profiler hook records the code object of every Python
call made by `solve`, the three sweeps and `verify` on the default scenario;
every named `def` in `src/specint` must be among them, apart from the
functions listed in UNREACHED.
"""

import inspect
import sys
import types
from pathlib import Path

import specint
from specint.cli import main

from test_cli import SMALL_BUDGETS, write_cfg

SRC = Path(specint.__file__).resolve().parent

# module.qualname -> why no command on the default scenario calls it
UNREACHED = {
    "cli.console_main": "the installed entry point; test_cli runs it in a subprocess",
    "cli._Parser.error": "usage errors only",
    "scenario.Scenario.with_seed": "verify --seed only",
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> module.qualname of every named def."""
    found = {}

    def walk(code, filename, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            qualname = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                found[filename, const.co_firstlineno, const.co_name] = qualname
            walk(const, filename, qualname)

    for path in sorted(SRC.glob("*.py")):
        filename = str(path)
        walk(compile(path.read_text(), filename, "exec"), filename, path.stem)
    return found


def test_commands_reach_every_function(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", SMALL_BUDGETS)
    # so that main builds the parser, and the searches their grid tables,
    # under the hook, whatever earlier tests have cached
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("specint."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    commands = [["solve"], *(["sweep", "--axis", a] for a in ("b", "alpha", "theta")), ["verify"]]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        for i, command in enumerate(commands):
            assert main([*command, "--config", cfg, "--out", str(tmp_path / f"{i}.csv")]) == 0
    finally:
        sys.setprofile(None)

    functions = defined_functions()
    reached = {
        functions[key]
        for key in ((str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in called)
        if key in functions
    }
    assert set(UNREACHED) <= set(functions.values()), "stale UNREACHED entry"
    assert sorted(set(functions.values()) - reached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) & reached) == []
