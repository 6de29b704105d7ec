"""Exception hierarchy shared across the engine.

One class per outcome, and the CLI maps each onto its exit code:
ConfigError -> 1, HypothesisError -> 2, DomainError -> 2, OracleError -> 3.
The message says which condition failed. An exception outside this
hierarchy is a bug and exits 4.
"""


class ModelError(Exception):
    """Base class for all engine errors."""


class ConfigError(ModelError):
    """Bad or missing configuration."""


class DomainError(ModelError):
    """Numeric input outside an operation's stated domain: an allocation
    that breaks its learning or integration constraint, a nonpositive
    service level."""


class HypothesisError(ModelError):
    """A theorem hypothesis required by the requested computation fails:
    fewer than three domains, integration cost at or above the coordination
    cutoff, an empty or knowledge-free occupational group, a wage-support
    condition."""


class OracleError(ModelError):
    """A verification oracle failed or could not run to completion: a
    solver that does not converge, a combinatorial budget exceeded, a
    profitable deviation where theory rules one out."""
