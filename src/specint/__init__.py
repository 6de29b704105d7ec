"""specint: a numerical engine for economies that split learning between
narrow specialists and gap-matched integrators, the voting equilibrium
that knowledge structure induces, and the welfare accounting on top,
with brute-force oracles verifying every closed form."""

from .economy import Economy
from .learning import LearningConstants, LearningTech
from .politics import GovernanceTech, PoliticalOutcome
from .production import Allocation, ProductiveOptimum, SpecialistDesign
from .scenario import Scenario, load_scenario
from .welfare import WelfareReport

__all__ = [
    "Allocation",
    "Economy",
    "GovernanceTech",
    "LearningConstants",
    "LearningTech",
    "PoliticalOutcome",
    "ProductiveOptimum",
    "Scenario",
    "SpecialistDesign",
    "WelfareReport",
    "load_scenario",
]

__version__ = "0.1.0"
