"""Shared hypothesis profile, model fixtures and test helpers."""

import pytest
from hypothesis import HealthCheck, settings

from fiberent import (
    BernoulliModel,
    MarkovModel,
    RandomAlphabetModel,
    ZdGroup,
    constant_configuration,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture
def bernoulli_z1():
    return BernoulliModel.create(ZdGroup(1), [0.7, 0.3])


@pytest.fixture
def bernoulli_z2():
    return BernoulliModel.create(ZdGroup(2), [0.7, 0.3])


@pytest.fixture
def mixed_z2():
    return RandomAlphabetModel.create(
        ZdGroup(2), [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]
    )


@pytest.fixture
def markov():
    return MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])


def constant_omega(model):
    """A base point for models whose fiber measure ignores omega."""
    return constant_configuration(model.group, model.base_alphabet_size)
