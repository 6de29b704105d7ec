"""Scenario loading: flat key=value config files with dotted namespaces.

Lists are comma-separated floats; grids may also be written lo:hi:n for
n evenly spaced points, and every grid must be strictly increasing.
Profiles q and u must be strictly interior (every entry > 0) and are
renormalized onto the simplex (with a warning beyond 1e-9 drift); this
is the one place a profile is normalized. theta sweep
grids are given as fractions of the coordination cutoff so they stay
valid across learning families.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .economy import Economy
from .errors import ConfigError
from .knowledge import RENORM_WARN
from .learning import LearningTech
from .politics import GovernanceTech

REQUIRED_KEYS = (
    "learning.family",
    "learning.param",
    "economy.q",
    "economy.u",
    "economy.p",
    "economy.theta",
    "economy.v",
    "gov.eta",
    "gov.c0",
    "gov.tau",
    "gov.lambda0",
)

# Smallest accepted oracle values: a seed must be nonnegative, and each
# budget is the smallest that gives every check something to test.
ORACLE_MINIMUMS = {
    "oracle.seed": 0,
    "oracle.resolution": 1,
    "oracle.atoms": 1,
    "oracle.max_designs": 1,
    "oracle.br_starts": 1,
    "oracle.pairs": 1,
    "oracle.frontier_samples": 3,
    "oracle.economies": 1,
}

DEFAULTS = {
    "learning.family": "rational",
    "learning.param": "1.0",
    "economy.q": "0.5,0.3,0.2",
    "economy.u": "0.4,0.35,0.25",
    "economy.p": "0.25",
    "economy.theta": "0.001",
    "economy.v": "30.0",
    "gov.eta": "0.5",
    "gov.c0": "0.125",
    "gov.tau": "0.3",
    "gov.lambda0": "1.0",
    "sweep.b": "0.0:1.0:21",
    "sweep.alpha": "0.0:1.0:21",
    "sweep.theta_frac": "0.02:0.98:25",
    "oracle.seed": "20260808",
    "oracle.resolution": "8",
    "oracle.atoms": "3",
    "oracle.max_designs": "8000000",
    "oracle.br_starts": "10",
    "oracle.pairs": "1000",
    "oracle.frontier_samples": "10000",
    "oracle.economies": "100",
}


@dataclass(frozen=True)
class Scenario:
    """A fully validated run configuration."""

    econ: Economy
    b_grid: np.ndarray
    alpha_grid: np.ndarray
    theta_frac_grid: np.ndarray
    seed: int
    resolution: int
    atoms: int
    max_designs: int
    br_starts: int
    pairs: int
    frontier_samples: int
    economies: int
    strict: bool = False

    def theta_grid(self) -> np.ndarray:
        return self.theta_frac_grid * self.econ.theta_bar

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=_at_least("oracle.seed", seed))

    def with_strict(self, strict: bool) -> "Scenario":
        return replace(self, strict=strict)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _number(key: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {token!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {token!r}")
    return value


def _float(entries: dict[str, str], key: str) -> float:
    return _number(key, entries[key])


def _int(entries: dict[str, str], key: str) -> int:
    try:
        return int(entries[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {entries[key]!r}") from exc


def _at_least(key: str, value: int) -> int:
    low = ORACLE_MINIMUMS[key]
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    return value


def _float_list(entries: dict[str, str], key: str) -> np.ndarray:
    return np.array([_number(key, tok) for tok in entries[key].split(",")])


def _interior_profile(entries: dict[str, str], key: str) -> np.ndarray:
    values = _float_list(entries, key)
    if values.size < 2:
        raise ConfigError(f"{key} needs at least two domains, got {entries[key]!r}")
    if not min(values) > 0.0:
        raise ConfigError(f"{key} must be strictly interior, got {entries[key]!r}")
    total = float(values.sum())
    if abs(total - 1.0) > RENORM_WARN:
        warnings.warn(f"{key} off the simplex by {abs(total - 1.0):.3e}; renormalizing", stacklevel=2)
    return values / total


def _grid(entries: dict[str, str], key: str) -> np.ndarray:
    spec = entries[key]
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: grid syntax is lo:hi:count, got {spec!r}")
        lo, hi = _number(key, parts[0]), _number(key, parts[1])
        try:
            n = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{key}: bad grid spec {spec!r}") from exc
        if n < 2 or hi <= lo:
            raise ConfigError(f"{key}: grid needs hi > lo and count >= 2")
        grid = np.linspace(lo, hi, n)
    else:
        grid = _float_list(entries, key)
    if (grid[1:] <= grid[:-1]).any():
        raise ConfigError(f"{key}: grid must be strictly increasing, got {spec!r}")
    return grid


def scenario_from_entries(entries: dict[str, str]) -> Scenario:
    """Build and validate a Scenario from raw config entries."""
    known = set(DEFAULTS)
    for key in entries:
        if key not in known:
            raise ConfigError(
                f"unknown config key {key!r}; known keys: {', '.join(sorted(known))}"
            )
    missing = [key for key in REQUIRED_KEYS if key not in entries]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    merged = dict(DEFAULTS)
    merged.update(entries)

    tech = LearningTech(
        family=merged["learning.family"], param=_float(merged, "learning.param")
    )
    tech.constants  # check learning.param at load, whatever the command
    gov = GovernanceTech(
        eta=_float(merged, "gov.eta"),
        c0=_float(merged, "gov.c0"),
        tau=_float(merged, "gov.tau"),
        lambda0=_float(merged, "gov.lambda0"),
    )
    q = _interior_profile(merged, "economy.q")
    u = _interior_profile(merged, "economy.u")
    if q.size != u.size:
        raise ConfigError(
            f"economy.q has {q.size} entries but economy.u has {u.size}; "
            "both profiles must cover the same K domains"
        )
    econ = Economy(
        tech=tech,
        q=q,
        u=u,
        p=_float(merged, "economy.p"),
        theta=_float(merged, "economy.theta"),
        V=_float(merged, "economy.v"),
        gov=gov,
    )
    b_grid = _grid(merged, "sweep.b")
    alpha_grid = _grid(merged, "sweep.alpha")
    theta_frac = _grid(merged, "sweep.theta_frac")
    if np.any(b_grid < 0.0) or np.any(b_grid > 1.0):
        raise ConfigError("sweep.b must lie within [0,1]")
    if np.any(alpha_grid < 0.0) or np.any(alpha_grid > 1.0):
        raise ConfigError("sweep.alpha must lie within [0,1]")
    if np.any(theta_frac <= 0.0) or np.any(theta_frac >= 1.0):
        raise ConfigError("sweep.theta_frac must lie strictly inside (0,1)")
    oracle = {
        key.removeprefix("oracle."): _at_least(key, _int(merged, key))
        for key in ORACLE_MINIMUMS
    }
    return Scenario(
        econ=econ,
        b_grid=b_grid,
        alpha_grid=alpha_grid,
        theta_frac_grid=theta_frac,
        **oracle,
    )


def load_scenario(path: str | None = None) -> Scenario:
    """Load a scenario file, or the built-in defaults when path is None."""
    if path is None:
        return scenario_from_entries(dict(DEFAULTS))
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return scenario_from_entries(parse_config_text(text))
