import numpy as np
import pytest

from specint.economy import Economy
from specint.learning import LearningTech
from specint.politics import GovernanceTech
from specint.scenario import load_scenario


@pytest.fixture(scope="session")
def scenario():
    return load_scenario()


@pytest.fixture(scope="session")
def econ(scenario):
    return scenario.econ


@pytest.fixture(scope="session")
def rational():
    return LearningTech(family="rational", param=1.0)


@pytest.fixture(scope="session")
def exponential():
    return LearningTech(family="exponential", param=1.5)


def make_economy(
    q=(0.5, 0.3, 0.2),
    u=(0.4, 0.35, 0.25),
    p=0.25,
    theta=0.001,
    V=30.0,
    tau=0.3,
    family="rational",
    param=1.0,
    eta=0.5,
    c0=0.125,
    lambda0=1.0,
):
    gov = GovernanceTech(eta=eta, c0=c0, tau=tau, lambda0=lambda0)
    return Economy(
        tech=LearningTech(family=family, param=param),
        q=np.array(q),
        u=np.array(u),
        p=p,
        theta=theta,
        V=V,
        gov=gov,
    )


def interior_simplex(rng, K):
    raw = rng.dirichlet(np.ones(K))
    mixed = 0.85 * raw + 0.15 / K
    return mixed / mixed.sum()
