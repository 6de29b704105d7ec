"""Primitive bundle for one model economy."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .knowledge import RENORM_WARN, SIMPLEX_TOL
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
        for key, v in (("economy.q", self.q), ("economy.u", self.u)):
            if not isinstance(v, np.ndarray):
                raise ConfigError(f"{key} must be a numpy array")
            if not (v.size >= 2 and v.min() >= -SIMPLEX_TOL and abs(v.sum() - 1.0) <= RENORM_WARN):
                raise ConfigError(f"{key} needs two or more nonnegative entries summing to 1")
        if not float(self.u.min()) > 0.0:
            raise ConfigError("economy.u must be strictly interior")
        if self.q.size != self.u.size:
            raise ConfigError("productive and civic profiles must share K")
        if not self.p > 0.0:
            raise ConfigError("economy.p must be positive")
        if not self.theta > 0.0:
            raise ConfigError("economy.theta must be positive")
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

    def with_theta(self, theta: float) -> "Economy":
        return replace(self, theta=theta)

    def with_u(self, u) -> "Economy":
        return replace(self, u=np.asarray(u, dtype=float))
