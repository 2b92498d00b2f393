"""Shared hypothesis profile, model fixtures and test helpers."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from fiberent.groups import HeisenbergGroup, ZdGroup
from fiberent.rds import (
    BernoulliModel,
    MarkovModel,
    RandomAlphabetModel,
    ShiftModel,
    SkewPoint,
    configuration_from_pins,
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
    return constant_configuration(model.group, 1)


def pinned_point(model, coords_to_label):
    """A point whose fiber holds the given symbols, 0 elsewhere, over a constant base."""
    x = configuration_from_pins(model.group, model.fiber_alphabet_size, coords_to_label)
    return SkewPoint(constant_omega(model), x)


def log_measure(model, labels, omega=None):
    """ln mu_omega of the cell `labels` by the log route: -smb_totals of a
    one-window plan over a point pinned to those labels."""
    x = configuration_from_pins(model.group, model.fiber_alphabet_size, dict(labels))
    point = SkewPoint(constant_omega(model) if omega is None else omega, x)
    (total,) = model.smb_totals(model.smb_plan([frozenset(c for c, _ in labels)]), point)
    return -total


@dataclass(frozen=True)
class CosetChainModel(ShiftModel):
    """Independent stationary chains along the right cosets <t>h of
    t = (1, 0, 0) in the Heisenberg group: site (a, b, c) is position a of
    chain (b, c - ab).

    Right multiplication by (x, y, z) maps chain (b, k) onto chain
    (b + y, k + z - x(b + y)) and moves each position by x, so the measure
    is invariant under the action (g . x)_h = x_{hg}.  Left multiplication
    does not map chains onto chains, so a check that takes the wrong side
    of the non-abelian group shows.  Test-only: it has no sampler, and its
    points are pinned configurations.
    """

    chain: MarkovModel

    group = HeisenbergGroup()
    kind = "coset-chain"

    @property
    def fiber_alphabet_size(self) -> int:
        return self.chain.fiber_alphabet_size

    def _cell_factors(self, base, coords, symbols, log=False):
        """The chain's factors of each coset's labels, which sorted coords
        list in increasing position a."""
        runs = {}
        for (a, b, c), s in zip(coords, symbols):
            positions, labels = runs.setdefault((b, c - a * b), ([], []))
            positions.append((a,))
            labels.append(s)
        return [f for positions, labels in runs.values()
                for f in self.chain._cell_factors(None, positions, labels, log)]


def coset_chain_model():
    return CosetChainModel(MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]))


def coset_chain_point(seed):
    """Seeded symbols pinned on a box around the origin, 0 elsewhere."""
    rng = random.Random(seed)
    H = CosetChainModel.group
    pins = {(a, b, c): rng.randrange(2)
            for a in range(-3, 4) for b in range(-3, 4) for c in range(-9, 10)}
    return SkewPoint(constant_configuration(H, 1), configuration_from_pins(H, 2, pins))
