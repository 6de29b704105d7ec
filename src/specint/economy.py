"""Primitive bundle for one model economy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .knowledge import SIMPLEX_SUM_TOL, SIMPLEX_TOL
from .learning import LearningConstants, LearningTech
from .politics import GovernanceTech


@dataclass(frozen=True)
class Economy:
    """Everything a scenario pins down: learning technology, productive and
    civic profiles, breadth penalty, integration cost, gross productivity,
    and the governance technology, whose tax rate tau is also the
    income-side wedge."""

    tech: LearningTech
    q: np.ndarray
    u: np.ndarray
    p: float
    theta: float
    V: float
    gov: GovernanceTech

    def __post_init__(self):
        _check_simplex("economy.q", self.q)
        _check_u(self.u, self.q)
        if not self.p > 0.0:
            raise ConfigError("economy.p must be positive")
        _check_theta(self.theta)
        if not self.V > 0.0:
            raise ConfigError("economy.v must be positive")

    @property
    def K(self) -> int:
        return self.q.size

    @property
    def tau(self) -> float:
        return self.gov.tau

    @property
    def constants(self) -> LearningConstants:
        return self.tech.constants

    @property
    def theta_bar(self) -> float:
        return self.constants.theta_bar

    # The copies check only the field they replace: the others were checked
    # when self was built.
    def with_theta(self, theta: float) -> "Economy":
        _check_theta(theta)
        return self._with(theta=theta)

    def with_u(self, u) -> "Economy":
        u = np.asarray(u, dtype=float)
        _check_u(u, self.q)
        return self._with(u=u)

    def check_civic_stack(self, stack: np.ndarray) -> None:
        """Check each row of an (M, K) stack of civic profiles as with_u
        checks one profile, raising the error of the first row that fails."""
        ok = (stack.min(axis=1) > 0.0) & (np.abs(stack.sum(axis=1) - 1.0) <= SIMPLEX_SUM_TOL)
        if stack.shape[1:] != self.q.shape or not ok.all():
            for row in stack:
                _check_u(row, self.q)

    def _with(self, **fields) -> "Economy":
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **fields)
        return new


def _check_simplex(key: str, v) -> None:
    if not isinstance(v, np.ndarray):
        raise ConfigError(f"{key} must be a numpy array")
    if not (v.size >= 2 and v.min() >= -SIMPLEX_TOL and abs(v.sum() - 1.0) <= SIMPLEX_SUM_TOL):
        raise ConfigError(f"{key} needs two or more nonnegative entries summing to 1")


def _check_u(u, q: np.ndarray) -> None:
    _check_simplex("economy.u", u)
    if not float(u.min()) > 0.0:
        raise ConfigError("economy.u must be strictly interior")
    if q.size != u.size:
        raise ConfigError("productive and civic profiles must share K")


def _check_theta(theta) -> None:
    if not theta > 0.0:
        raise ConfigError("economy.theta must be positive")
