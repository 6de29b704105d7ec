"""Welfare accounting: service welfare, the dispersion penalty, total
welfare, and the three-term slope decomposition along allocation families.

Total welfare is W = (1-tau)*Y + V_serv with
V_serv = (1-m)*log t_S + m*log t_M = log R - D, where the dispersion
penalty D = log B_soc - [(1-m) log B_S + m log B_M] is nonnegative and
zero exactly when the two groups hold equal system knowledge.

Along a one-parameter family of allocations, the welfare slope splits as

    W' = [(1-tau) + R_Y/R] * Y'  +  (R_B/R) * B_soc'  -  D'

(output channel, governance channel, targeting channel). Slopes are
taken by second-order finite differences on the points stencil_points
chooses, from the family's welfare reports there; the R sensitivities
come from the governance module.

A WelfareReport is one flat row, the 13 CSV cells of an allocation's
welfare and political outcome; a family maps its parameter to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .economy import Economy
from .errors import DomainError
from .politics import PoliticalOutcome, political_equilibrium, resource_sensitivities
from .production import Allocation

_DISPERSION_ROUNDOFF = 1e-12
DECOMPOSITION_STEP = 1e-5  # finite-difference step of decompose_along
DECOMPOSITION_RESIDUAL = 1e-4  # residual bound of the alpha sweep and of verify's check


def service_welfare(out: PoliticalOutcome) -> float:
    """Population-weighted log services (1-m)*log t_S + m*log t_M at the
    outcome's integrator share m."""
    if out.t_S <= 0.0 or out.t_M <= 0.0:
        raise DomainError("log service utility needs positive services")
    m = out.m
    return (1.0 - m) * math.log(out.t_S) + m * math.log(out.t_M)


def dispersion(B_S: float, B_M: float, m: float) -> float:
    """Dispersion penalty log B_soc - [(1-m) log B_S + m log B_M].

    Nonnegative by concavity of log; tiny negative round-off (above
    -1e-12) is clamped to zero.
    """
    if B_S <= 0.0 or B_M <= 0.0:
        raise DomainError("dispersion needs positive group knowledge")
    B_soc = (1.0 - m) * B_S + m * B_M
    val = math.log(B_soc) - (1.0 - m) * math.log(B_S) - m * math.log(B_M)
    if -_DISPERSION_ROUNDOFF < val < 0.0:
        return 0.0
    return val


class WelfareReport(NamedTuple):
    """One allocation's welfare row: its 13 CSV cells in CSV order, the
    welfare figures and then the political outcome they come from."""

    Y: float
    service_welfare: float
    dispersion: float
    welfare: float
    e_pol: float
    z_pol: float
    t_S: float
    t_M: float
    R: float
    B_S: float
    B_M: float
    B_soc: float
    m: float

    def columns(self) -> dict[str, float]:
        """The report's CSV cells by column name, in CSV order."""
        return self._asdict()


def welfare_accounts(econ: Economy, out: PoliticalOutcome) -> WelfareReport:
    """The welfare row of a political outcome: service welfare, the
    dispersion penalty and W = (1-tau)*Y + V_serv beside the outcome's
    fields. Every welfare figure the engine reports is composed here."""
    V_serv = service_welfare(out)
    return WelfareReport(
        out.Y, V_serv, dispersion(out.B_S, out.B_M, out.m),
        (1.0 - econ.tau) * out.Y + V_serv,
        out.e_pol, out.z_pol, out.t_S, out.t_M, out.R, out.B_S, out.B_M, out.B_soc, out.m,
    )


def total_welfare(econ: Economy, alloc: Allocation) -> WelfareReport:
    """Compose output, the political equilibrium, and the welfare accounts."""
    return welfare_accounts(econ, political_equilibrium(econ, alloc))


# A family maps a parameter to the welfare report of its allocation (under
# its economy, for families that move the civic profile); decompose_along
# reads it at each stencil point.
Family = Callable[[float], WelfareReport]


@dataclass(frozen=True)
class Decomposition:
    """Welfare slope split into output, governance, and targeting terms,
    with the welfare report at the parameter itself."""

    productive_term: float
    governance_term: float
    targeting_term: float
    dB_soc: float
    fd_total: float
    residual: float
    at: WelfareReport


def stencil(kind: int, values) -> float:
    """Second-order first derivative on a 3-point stencil, step h = DECOMPOSITION_STEP.

    kind 0: values at (b-h, b, b+h); kind +1: (b, b+h, b+2h);
    kind -1: (b, b-h, b-2h).
    """
    f0, f1, f2 = values
    h = DECOMPOSITION_STEP
    if kind == 0:
        return (f2 - f0) / (2.0 * h)
    if kind == 1:
        return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)


def stencil_points(b: float) -> tuple[tuple[float, float, float], int]:
    """The three points of decompose_along's stencil at b, in the order of
    stencil's kind, and that kind: central (step DECOMPOSITION_STEP) inside
    (0, 1), one-sided within a step of 0 or 1. Both allocation families
    live on [0, 1], so only their own ends make a stencil one-sided, not
    the ends of a grid. Every stencil holds b itself."""
    step = DECOMPOSITION_STEP
    if b - step >= 0.0 and b + step <= 1.0:
        return (b - step, b, b + step), 0
    if b - step < 0.0:
        return (b, b + step, b + 2.0 * step), 1
    return (b, b - step, b - 2.0 * step), -1


def decompose_along(econ: Economy, family: Family, b: float) -> Decomposition:
    """Three-term welfare slope at parameter b of an allocation family,
    called once at each point of stencil_points(b) in stencil order, given
    the economy whose governance technology and tax rate the family keeps.

    The report's residual is |productive + governance + targeting -
    fd_total|; above DECOMPOSITION_RESIDUAL the step is too large for the
    family's curvature, and the caller decides. The report at b itself
    comes back as `at`.
    """
    offsets, kind = stencil_points(b)
    reports = [family(point) for point in offsets]
    dY = stencil(kind, [r.Y for r in reports])
    dB = stencil(kind, [r.B_soc for r in reports])
    dW = stencil(kind, [r.welfare for r in reports])

    center = reports[1] if kind == 0 else reports[0]
    R, R_Y, R_B = resource_sensitivities(econ.gov, center.Y, center.B_soc)
    productive = ((1.0 - econ.tau) + R_Y / R) * dY
    governance = (R_B / R) * dB
    targeting = -stencil(kind, [r.dispersion for r in reports])
    residual = abs(productive + governance + targeting - dW)
    return Decomposition(
        productive_term=productive,
        governance_term=governance,
        targeting_term=targeting,
        dB_soc=dB,
        fd_total=dW,
        residual=residual,
        at=center,
    )
