"""Command-line front end: solve, sweep, verify.

specint solve  [--config F] [--out CSV]
specint sweep  --axis {b,alpha,theta} [--config F] [--out CSV]
specint verify [--config F] [--out CSV] [--seed N] [--strict]

Exit codes, with the specint.errors class behind each: 0 ok, 1 config or
usage error or an --out file that cannot be written (ConfigError), 2
hypothesis violation (HypothesisError) or input outside an operation's
domain (DomainError), 3 oracle failure, a solver
that does not converge or a non-finite result (OracleError), 4 internal
error (any other exception: a bug, a warning promoted to an error included).
The engine never warns. An error exit prints one stderr line, no traceback.
CSV output is RFC-4180 style with a header row, '.' decimal, and
deterministic shortest-round-trip floats, so identical scenarios and
seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys

import numpy as np

from . import reforms
from .errors import ConfigError, DomainError, HypothesisError, OracleError
from .production import productive_optimum
from .scenario import Scenario, load_scenario
from .welfare import total_welfare


def _fmt(value) -> str:
    if type(value) is float:  # most cells; np.float64 and bool are not float
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _format_table(table: dict) -> tuple[list[str], list[list[str]]]:
    """The header and formatted cells of a table: a dict from CSV column
    name to column, in CSV order, with None for a blank cell. Raises
    OracleError naming the column of the first non-finite number in
    row-major order, before anything is printed or written."""
    header = list(table)
    cells = []
    for row in zip(*table.values()):
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise OracleError(f"column {name} holds a non-finite result ({_fmt(value)})")
        cells.append([_fmt(v) for v in row])
    return header, cells


def _write_csv(path: str, header: list[str], cells: list[list[str]]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(cells)
    except OSError as exc:
        raise ConfigError(f"cannot write --out file {path!r}: {exc}") from exc


def cmd_solve(scn: Scenario, out_path: str | None) -> int:
    from . import competitive

    econ = scn.econ
    opt, alloc = productive_optimum(econ)
    report = total_welfare(econ, alloc)
    bound = competitive.ratio_bound(econ)
    try:
        wages = competitive.wages_at_optimum(econ, opt, alloc)
        wage_note = ""
    except HypothesisError as exc:
        wages = None
        wage_note = str(exc)

    V_tilde = (1.0 - econ.tau) * econ.V
    row = {
        "family": econ.tech.family, "param": econ.tech.param, "K": econ.K,
        "theta": econ.theta, "theta_bar": econ.theta_bar, "V": econ.V, "tau": econ.tau,
        "p": econ.p,
        **{f"q_{i + 1}": v for i, v in enumerate(econ.q)},
        **{f"u_{i + 1}": v for i, v in enumerate(econ.u)},
        **{f"h_star_{i + 1}": v for i, v in enumerate(opt.h_star)},
        "H_hstar": opt.H_hstar, "m_star": opt.m_star, "Y_star": opt.Y_star,
        **report.columns(),
        # the wage cells stay blank where wage support fails
        "delta_q": None, "V_tilde": V_tilde, "beta": None, "r_bar": bound.r_bar,
        "uniqueness_cutoff": bound.uniqueness_cutoff, "w_S": None, "w_M": None,
    }
    if wages is not None:
        row.update(delta_q=wages.delta_q, beta=wages.beta, w_S=wages.w_S, w_M=wages.w_M)
    header, cells = _format_table({name: [value] for name, value in row.items()})

    print("== productive optimum ==")
    print(f"  h_star        {np.array2string(opt.h_star, precision=10)}")
    print(f"  m_star        {opt.m_star:.12g}")
    print(f"  Y_star        {opt.Y_star:.12g}")
    print(f"  H(h_star)     {opt.H_hstar:.12g}")
    print("== political equilibrium ==")
    print(f"  e_pol         {report.e_pol:.12g}")
    print(f"  z_pol         {report.z_pol:.12g}  (integrator mass {report.m:.12g})")
    print(f"  t_S, t_M      {report.t_S:.12g}, {report.t_M:.12g}")
    print(f"  R             {report.R:.12g}")
    print(f"  B_S, B_M      {report.B_S:.12g}, {report.B_M:.12g}")
    print(f"  B_soc         {report.B_soc:.12g}")
    print("== welfare ==")
    print(f"  Y             {report.Y:.12g}")
    print(f"  service       {report.service_welfare:.12g}")
    print(f"  dispersion    {report.dispersion:.12g}")
    print(f"  welfare       {report.welfare:.12g}")
    print("== wage support ==")
    if wages is not None:
        print(f"  w_S, w_M      {wages.w_S:.12g}, {wages.w_M:.12g}")
        print(f"  delta_q       {wages.delta_q:.12g}")
        print(f"  beta          {wages.beta:.12g}")
    else:
        print(f"  not supported: {wage_note}")
    print(f"  V_tilde       {V_tilde:.12g}")
    print(f"  r_bar         {bound.r_bar:.12g} (bound valid: {bound.bound_valid})")
    print(
        f"  uniqueness    theta < {bound.uniqueness_cutoff:.12g}: "
        f"{'holds' if bound.unique_ok else 'fails'}"
    )

    if out_path:
        _write_csv(out_path, header, cells)
        print(f"wrote {out_path}")
    return 0


def cmd_sweep(scn: Scenario, axis: str, out_path: str | None) -> int:
    statics, grid = {
        "b": (reforms.broadening_statics, scn.b_grid),
        "alpha": (reforms.interface_statics, scn.alpha_grid),
        "theta": (reforms.theta_statics, scn.theta_grid()),
    }[axis]
    header, cells = _format_table(statics(scn.econ, grid))
    if out_path:
        _write_csv(out_path, header, cells)
        print(f"wrote {out_path} ({len(cells)} rows)")
    else:
        print(",".join(header))
        for row in cells:
            print(",".join(row))
    return 0


def cmd_verify(scn: Scenario, out_path: str | None) -> int:
    from . import oracles

    results = oracles.run_all(scn)
    header, cells = _format_table({
        "check": [r.name for r in results],
        "status": [r.status for r in results],
        "metric": [r.metric for r in results],
        "tolerance": [r.tolerance for r in results],
        "note": [r.note for r in results],
    })
    width = max(len(r.name) for r in results) + 2
    failures = 0
    for r in results:
        metric = "" if r.metric is None else f" metric={_fmt(r.metric)}"
        tol = "" if r.tolerance is None else f" tol={_fmt(r.tolerance)}"
        note = f"  [{r.note}]" if r.note else ""
        print(f"{r.name:<{width}} {r.status.upper():<8}{metric}{tol}{note}")
        if r.status == "fail":
            failures += 1
    passed = sum(1 for r in results if r.status == "pass")
    skipped = sum(1 for r in results if r.status == "skipped")
    print(f"-- {passed} passed, {failures} failed, {skipped} skipped --")
    if out_path:
        _write_csv(out_path, header, cells)
        print(f"wrote {out_path}")
    return 0 if failures == 0 else 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused."""
    parser = _Parser(
        prog="specint",
        description="Specialist/integrator economy engine: solve, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the default objects of one scenario"),
        ("sweep", "comparative statics along b, alpha, or theta"),
        ("verify", "run the full oracle suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="scenario file (key=value)")
        cmd.add_argument("--out", default=None, help="CSV output path")
        if name == "verify":
            cmd.add_argument("--seed", type=int, default=None, help="override oracle.seed")
            cmd.add_argument("--strict", action="store_true", help="tighten round-off tolerances")
        elif name == "sweep":
            cmd.add_argument(
                "--axis", required=True, choices=("b", "alpha", "theta"),
                help="sweep parameter",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        scn = load_scenario(args.config)
        # an --out path that is a directory or lies in a missing one is
        # refused before any work, without creating the file
        out = args.out
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(f"cannot write --out file {out!r}: no such directory, or a directory")
        if args.command == "solve":
            return cmd_solve(scn, args.out)
        if args.command == "sweep":
            return cmd_sweep(scn, args.axis, args.out)
        if args.seed is not None:
            scn = scn.with_seed(args.seed)
        return cmd_verify(scn.with_strict(args.strict), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message} (bug)", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
