"""Exception hierarchy shared across the engine.

The CLI maps these onto exit codes: ConfigError -> 1, HypothesisError
(and subclasses) -> 2, OracleError (and subclasses) -> 3, any other
ModelError -> 2. An exception outside this hierarchy is a bug and exits 4.
"""


class ModelError(Exception):
    """Base class for all engine errors."""


class ConfigError(ModelError):
    """Bad or missing configuration."""


class DomainError(ModelError):
    """Numeric input outside an operation's stated domain."""


class HypothesisError(ModelError):
    """A theorem hypothesis required by the requested computation fails."""


class TwoDomainError(HypothesisError):
    """The diffuseness check is only defined for three or more domains."""


class CutoffError(HypothesisError):
    """Integration cost at or above the primitive coordination cutoff."""


class DegenerateGroupError(HypothesisError):
    """Occupational group of zero mass; the voting game is degenerate."""


class SupportConditionError(HypothesisError):
    """A wage-support condition fails; the message names which one."""


class InfeasibleAllocationError(ModelError):
    """Allocation violates the learning or integration constraint."""


class NonpositiveServiceError(ModelError):
    """Log service utility undefined at a nonpositive service level."""


class ZeroCoverageError(ModelError):
    """Unit cost undefined for a design with zero productive coverage."""


class OracleError(ModelError):
    """A verification oracle failed or could not run to completion."""


class BudgetExceededError(OracleError):
    """Combinatorial budget exceeded; lower the resolution or atom count."""


class ConvergenceError(OracleError):
    """An iterative solver exhausted its iteration budget."""


class DeviationFoundError(OracleError):
    """A profitable deviation was found where theory rules one out."""
