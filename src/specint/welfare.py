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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .economy import Economy
from .errors import DomainError
from .politics import PoliticalOutcome, political_equilibrium, resource_sensitivities
from .production import Allocation

_DISPERSION_ROUNDOFF = 1e-12
DECOMPOSITION_STEP = 1e-5  # finite-difference step of decompose_along
DECOMPOSITION_RESIDUAL = 1e-4  # residual bound of the alpha sweep and of verify's check


def service_welfare(outcome: PoliticalOutcome) -> float:
    """Population-weighted log services (1-m)*log t_S + m*log t_M at the
    outcome's integrator share m."""
    if outcome.t_S <= 0.0 or outcome.t_M <= 0.0:
        raise DomainError("log service utility needs positive services")
    m = outcome.m
    return (1.0 - m) * math.log(outcome.t_S) + m * math.log(outcome.t_M)


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


@dataclass(frozen=True)
class WelfareReport:
    """One allocation's welfare accounts."""

    Y: float
    service_welfare: float
    dispersion: float
    welfare: float
    outcome: PoliticalOutcome

    def columns(self) -> dict[str, float]:
        """The report's CSV cells by column name, in CSV order: the welfare
        figures, then the political block."""
        o = self.outcome
        return {
            "Y": self.Y, "service_welfare": self.service_welfare,
            "dispersion": self.dispersion, "welfare": self.welfare,
            "e_pol": o.e_pol, "z_pol": o.z_pol, "t_S": o.t_S, "t_M": o.t_M, "R": o.R,
            "B_S": o.B_S, "B_M": o.B_M, "B_soc": o.B_soc, "m": o.m,
        }


def welfare_accounts(econ: Economy, outcome: PoliticalOutcome) -> WelfareReport:
    """The welfare accounts of a political outcome: service welfare, the
    dispersion penalty and W = (1-tau)*Y + V_serv. Every welfare figure the
    engine reports is composed here."""
    V_serv = service_welfare(outcome)
    return WelfareReport(
        Y=outcome.Y,
        service_welfare=V_serv,
        dispersion=dispersion(outcome.B_S, outcome.B_M, outcome.m),
        welfare=(1.0 - econ.tau) * outcome.Y + V_serv,
        outcome=outcome,
    )


def total_welfare(econ: Economy, alloc: Allocation) -> WelfareReport:
    """Compose output, the political equilibrium, and the welfare accounts."""
    return welfare_accounts(econ, political_equilibrium(econ, alloc))


# A family maps a parameter to (economy, allocation); the economy slot lets
# families that move the civic profile reuse the same machinery. Its
# per-point welfare, lambda x: total_welfare(*family(x)), is what
# decompose_along reads.
Family = Callable[[float], tuple[Economy, Allocation]]


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


def stencil(kind: int, values, h: float) -> float:
    """Second-order first derivative on a 3-point stencil.

    kind 0: values at (b-h, b, b+h); kind +1: (b, b+h, b+2h);
    kind -1: (b, b-h, b-2h).
    """
    f0, f1, f2 = values
    if kind == 0:
        return (f2 - f0) / (2.0 * h)
    if kind == 1:
        return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)


def stencil_points(b: float, lo: float, hi: float) -> tuple[tuple[float, float, float], int]:
    """The three points of decompose_along's stencil at b, in the order of
    stencil's kind, and that kind: central (step DECOMPOSITION_STEP) inside
    (lo, hi), one-sided at either end. Every stencil holds b itself."""
    step = DECOMPOSITION_STEP
    if b - step >= lo and b + step <= hi:
        return (b - step, b, b + step), 0
    if b - step < lo:
        return (b, b + step, b + 2.0 * step), 1
    return (b, b - step, b - 2.0 * step), -1


def decompose_along(
    econ: Economy, welfare_at: Callable[[float], WelfareReport], b: float,
    lo: float = 0.0, hi: float = 1.0,
) -> Decomposition:
    """Three-term welfare slope at parameter b of an allocation family,
    given its welfare report at each point of stencil_points(b, lo, hi)
    (welfare_at, called once per point in stencil order) and the economy
    whose governance technology and tax rate the family keeps.

    The report's residual is |productive + governance + targeting -
    fd_total|; above DECOMPOSITION_RESIDUAL the step is too large for the
    family's curvature, and the caller decides. The report at b itself
    comes back as `at`.
    """
    offsets, kind = stencil_points(b, lo, hi)
    step = DECOMPOSITION_STEP
    reports = [welfare_at(point) for point in offsets]
    dY = stencil(kind, [r.Y for r in reports], step)
    dB = stencil(kind, [r.outcome.B_soc for r in reports], step)
    dW = stencil(kind, [r.welfare for r in reports], step)

    center = reports[1] if kind == 0 else reports[0]
    R, R_Y, R_B = resource_sensitivities(econ.gov, center.Y, center.outcome.B_soc)
    productive = ((1.0 - econ.tau) + R_Y / R) * dY
    governance = (R_B / R) * dB
    targeting = -stencil(kind, [r.dispersion for r in reports], step)
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
