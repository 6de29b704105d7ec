"""Command-line front end: solve, sweep, verify.

specint solve  [--config F] [--out CSV]
specint sweep  --axis {b,alpha,theta} [--config F] [--out CSV]
specint verify [--config F] [--out CSV] [--seed N] [--strict]

Exit codes: 0 ok, 1 config or usage error, 2 hypothesis violation, 3 oracle
failure or a non-finite result, 4 internal error (an exception outside the
engine's error hierarchy: a bug); a UserWarning promoted to an error exits
1 while the scenario loads (a renormalized profile), 3 after it (a
decomposition residual). An error exit prints one stderr line, no traceback.
CSV output is RFC-4180 style with a header row, '.' decimal, and
deterministic shortest-round-trip floats, so identical scenarios and
seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys

import numpy as np

from . import competitive, oracles, reforms
from .errors import ConfigError, HypothesisError, ModelError, OracleError
from .production import accounts, productive_optimum
from .scenario import Scenario, load_scenario
from .welfare import WelfareReport, total_welfare


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _format_rows(header: list[str], rows: list[list]) -> list[list[str]]:
    """Format every cell; raise OracleError naming the column of the first
    non-finite number, before anything is printed or written."""
    cells = []
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise OracleError(f"column {name} holds a non-finite result ({_fmt(value)})")
        cells.append([_fmt(v) for v in row])
    return cells


def _write_csv(path: str, header: list[str], cells: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(cells)


def _scenario_columns(scn: Scenario) -> tuple[list[str], list]:
    econ = scn.econ
    header = ["family", "param", "K", "theta", "theta_bar", "V", "tau", "p"]
    row = [
        econ.tech.family,
        econ.tech.param,
        econ.K,
        econ.theta,
        econ.theta_bar,
        econ.V,
        econ.tau,
        econ.p,
    ]
    for i in range(econ.K):
        header.append(f"q_{i + 1}")
        row.append(econ.q[i])
    for i in range(econ.K):
        header.append(f"u_{i + 1}")
        row.append(econ.u[i])
    return header, row


def cmd_solve(scn: Scenario, out_path: str | None) -> int:
    econ = scn.econ
    opt, alloc = productive_optimum(econ)
    report = total_welfare(econ, alloc)
    outcome = report.outcome
    bound = competitive.ratio_bound(econ)
    try:
        wages = competitive._support_wages(econ, opt, alloc)
        wage_note = ""
    except HypothesisError as exc:
        wages = None
        wage_note = str(exc)

    header, row = _scenario_columns(scn)
    for i in range(econ.K):
        header.append(f"h_star_{i + 1}")
        row.append(opt.h_star[i])
    header += ["H_hstar", "m_star", "Y_star"]
    row += [opt.H_hstar, opt.m_star, opt.Y_star]
    header += list(WelfareReport.CSV_COLUMNS)
    row += report.csv_row()
    header += ["delta_q", "V_tilde", "beta", "r_bar", "uniqueness_cutoff", "w_S", "w_M"]
    row += [
        wages.delta_q if wages else None,
        (1.0 - econ.tau) * econ.V,
        wages.beta if wages else None,
        bound.r_bar,
        bound.uniqueness_cutoff,
        wages.w_S if wages else None,
        wages.w_M if wages else None,
    ]
    cells = _format_rows(header, [row])

    print("== productive optimum ==")
    print(f"  h_star        {np.array2string(opt.h_star, precision=10)}")
    print(f"  m_star        {opt.m_star:.12g}")
    print(f"  Y_star        {opt.Y_star:.12g}")
    print(f"  H(h_star)     {opt.H_hstar:.12g}")
    print("== political equilibrium ==")
    print(f"  e_pol         {outcome.e_pol:.12g}")
    print(f"  z_pol         {outcome.z_pol:.12g}  (integrator mass {outcome.m:.12g})")
    print(f"  t_S, t_M      {outcome.t_S:.12g}, {outcome.t_M:.12g}")
    print(f"  R             {outcome.R:.12g}")
    print(f"  B_S, B_M      {outcome.B_S:.12g}, {outcome.B_M:.12g}")
    print(f"  B_soc         {outcome.B_soc:.12g}")
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
    print(f"  V_tilde       {(1.0 - econ.tau) * econ.V:.12g}")
    print(f"  r_bar         {bound.r_bar:.12g} (bound valid: {bound.bound_valid})")
    print(
        f"  uniqueness    theta < {bound.uniqueness_cutoff:.12g}: "
        f"{'holds' if bound.unique_ok else 'fails'}"
    )

    if out_path:
        _write_csv(out_path, header, cells)
        print(f"wrote {out_path}")
    return 0


def _sweep_b(scn: Scenario) -> tuple[list[str], list[list]]:
    econ = scn.econ
    header = ["b", "m", "Y", "B_S", "B_M", "B_soc", "e_pol", "z_pol", "t_S", "t_M",
              "R", "service_welfare", "dispersion", "welfare"]
    rows = []
    for b, alloc in zip(scn.b_grid, reforms.broadening_allocation(scn.b_grid, econ)):
        if 0.0 < alloc.m < 1.0:
            rep = total_welfare(econ, alloc)
            o = rep.outcome
            rows.append([b, alloc.m, rep.Y, o.B_S, o.B_M, o.B_soc, o.e_pol, o.z_pol,
                         o.t_S, o.t_M, o.R, rep.service_welfare, rep.dispersion, rep.welfare])
        else:  # no integrators, so no voting game
            acc = accounts(alloc, econ)
            B_soc = (1.0 - alloc.m) * acc.B_S + alloc.m * acc.B_M
            rows.append([b, alloc.m, acc.Y, acc.B_S, acc.B_M, B_soc] + [None] * 8)
    return header, rows


def _sweep_alpha(scn: Scenario) -> tuple[list[str], list[list]]:
    econ = scn.econ
    report = reforms.interface_statics(econ, scn.alpha_grid)
    header = ["alpha", "B_S", "B_M", "B_soc", "dispersion", "welfare",
              "B_S_slope", "B_M_slope", "B_soc_slope", "dW_dalpha"]
    rows = []
    for i, a in enumerate(report.alpha_grid):
        rows.append([
            a, report.B_S[i], report.B_M[i], report.B_soc[i],
            report.dispersion[i], report.welfare[i],
            report.B_S_slope, report.B_M_slope, report.B_soc_slope, report.dW[i],
        ])
    return header, rows


def _sweep_theta(scn: Scenario) -> tuple[list[str], list[list]]:
    report = reforms.theta_statics(scn.econ, scn.theta_grid())
    header = ["theta", "m", "Y", "B_soc", "welfare", "dm_dtheta"]
    rows = [
        [report.theta_grid[i], report.m[i], report.Y[i], report.B_soc[i],
         report.welfare[i], report.dm_dtheta[i]]
        for i in range(report.theta_grid.size)
    ]
    return header, rows


def cmd_sweep(scn: Scenario, axis: str, out_path: str | None) -> int:
    if axis == "b":
        header, rows = _sweep_b(scn)
    elif axis == "alpha":
        header, rows = _sweep_alpha(scn)
    elif axis == "theta":
        header, rows = _sweep_theta(scn)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose b, alpha, or theta")
    cells = _format_rows(header, rows)
    if out_path:
        _write_csv(out_path, header, cells)
        print(f"wrote {out_path} ({len(cells)} rows)")
    else:
        print(",".join(header))
        for row in cells:
            print(",".join(row))
    return 0


def cmd_verify(scn: Scenario, out_path: str | None) -> int:
    results = oracles.run_all(scn)
    header = ["check", "status", "metric", "tolerance", "note"]
    rows = [[r.name, r.status, r.metric, r.tolerance, r.note] for r in results]
    cells = _format_rows(header, rows)
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
    scn = None
    try:
        args = build_parser().parse_args(argv)
        scn = load_scenario(args.config)
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
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UserWarning as exc:  # an engine diagnostic promoted to an error
        message = " ".join(str(exc).split())
        if scn is None:
            print(f"config error: {message}", file=sys.stderr)
            return 1
        print(f"oracle failure: {message}", file=sys.stderr)
        return 3
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message} (bug)", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
