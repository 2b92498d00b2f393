"""Information functions, chain rule, fiber entropy, convergence traces."""

import math
import random
import sys
from fractions import Fraction
from itertools import permutations
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fiberent.folner import FolnerSequence, box_folner, box_folner_sizes
from fiberent.groups import (FiniteSubset, GroupMismatchError, ZdGroup, inverse, subset_from_coords,
                             translate)
from fiberent.measures import (
    canonical_partition,
    cell_measure,
    cell_of,
    enumerate_cells,
)
from fiberent.rds import (
    BernoulliModel,
    MarkovModel,
    RandomAlphabetModel,
    SymbolicConfiguration,
    ZeroMeasureError,
    mean_and_se,
    sample_point,
    shannon_entropy,
    skew,
)
from fiberent.entropy import (
    _smb_worker,
    chain_rule_residual,
    chain_rule_terms,
    conditional_entropy_trace,
    conditional_information,
    information,
    log_fraction,
    smb_trace,
)

from conftest import coset_chain_model, coset_chain_point, constant_omega, log_measure, pinned_point

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)

MARKOV_RATE = 0.38352279010702806


def all_models():
    return [
        BernoulliModel.create(Z2, [0.7, 0.3]),
        RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
    ]


class TestShannonEntropy:
    def test_frozen_values(self):
        assert shannon_entropy([1.0]) == 0.0
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
        assert shannon_entropy([0.7, 0.3]) == pytest.approx(0.6108643020548935, abs=1e-15)
        assert shannon_entropy([0.9, 0.1]) == pytest.approx(0.3250829733914482, abs=1e-15)
        assert shannon_entropy([0.2, 0.8]) == pytest.approx(0.5004024235381879, abs=1e-15)
        assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-15)

    def test_zero_entries_contribute_nothing(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_invalid_distributions(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.7, 0.4])
        with pytest.raises(ValueError):
            shannon_entropy([-0.1, 1.1])

    def test_log_fraction_handles_huge_rationals(self):
        fr = Fraction(10**400, 3**1000)
        assert log_fraction(fr) == pytest.approx(400 * math.log(10) - 1000 * math.log(3))
        with pytest.raises(ZeroMeasureError):
            log_fraction(Fraction(0, 1))


class TestInformation:
    def test_uniform_window(self):
        model = BernoulliModel.create(Z1, [0.5, 0.5])
        p = pinned_point(model, {(k,): 0 for k in range(4)})
        got = information(model, canonical_partition(model), Z1.box(4), p)
        assert got == pytest.approx(math.log(16), abs=1e-12)

    def test_frozen_bernoulli_example(self):
        model = BernoulliModel.create(Z2, [0.7, 0.3])
        p = pinned_point(model, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0})
        got = information(model, canonical_partition(model), Z2.box(2, 2), p)
        assert got == pytest.approx(2.273997636142134, abs=1e-12)

    def test_single_coordinate(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        p = pinned_point(model, {(0,): 0})
        got = information(
            model, canonical_partition(model), subset_from_coords(Z1, [(0,)]), p
        )
        assert got == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_zero_measure_cell_raises(self):
        model = MarkovModel.create([[0.5, 0.5], [1.0, 0.0]])
        p = pinned_point(model, {(0,): 1, (1,): 1})
        with pytest.raises(ZeroMeasureError):
            information(model, canonical_partition(model), Z1.box(2), p)

    def test_information_is_nonnegative(self):
        for model in all_models():
            mu = model
            xi = canonical_partition(model)
            F = model.group.box(2, 2) if model.group.tag == "zd:2" else Z1.box(4)
            for i in range(20):
                p = sample_point(model, 7, i)
                assert information(mu, xi, F, p) >= 0.0


class TestConditionalInformation:
    def test_markov_frozen_example(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        mu = model
        xi = canonical_partition(model)
        p = pinned_point(model, {(0,): 0, (1,): 0, (-1,): 0})
        right = subset_from_coords(Z1, [(1,)])
        assert conditional_information(mu, xi, right, p) == pytest.approx(
            -math.log(0.9), abs=1e-12
        )
        left = subset_from_coords(Z1, [(-1,)])
        assert conditional_information(mu, xi, left, p) == pytest.approx(
            -math.log(0.9), abs=1e-12
        )

    def test_empty_conditioning_equals_information(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        mu = model
        xi = canonical_partition(model)
        p = pinned_point(model, {(0,): 1})
        empty = subset_from_coords(Z1, [])
        singleton = subset_from_coords(Z1, [(0,)])
        assert conditional_information(mu, xi, empty, p) == pytest.approx(
            information(mu, xi, singleton, p), abs=1e-15
        )

    def test_product_measure_conditioning_is_neutral(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        mu = model
        xi = canonical_partition(model)
        p = pinned_point(model, {(k,): k % 2 for k in range(-2, 3)})
        cond = subset_from_coords(Z1, [(1,), (2,), (-1,)])
        empty = subset_from_coords(Z1, [])
        assert conditional_information(mu, xi, cond, p) == pytest.approx(
            conditional_information(mu, xi, empty, p), abs=1e-12
        )

    def test_identity_in_conditioning_set_rejected(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        p = pinned_point(model, {(0,): 0})
        with pytest.raises(ValueError, match="target coordinate"):
            conditional_information(
                model, canonical_partition(model), Z1.box(2), p
            )

    def test_zero_measure_conditioning_cell(self):
        model = MarkovModel.create([[0.5, 0.5], [1.0, 0.0]])
        p = pinned_point(model, {(0,): 0, (1,): 1, (2,): 1})
        cond = subset_from_coords(Z1, [(1,), (2,)])
        with pytest.raises(ZeroMeasureError):
            conditional_information(model, canonical_partition(model), cond, p)


class TestChainRule:
    def test_exhaustive_small_windows(self):
        for model in all_models():
            mu = model
            xi = canonical_partition(model)
            if model.group.tag == "zd:2":
                F = model.group.box(2, 2)
            else:
                F = subset_from_coords(Z1, [(-1,), (0,), (2,)])
            p = sample_point(model, 11, 0)
            elements = F.sorted_elements()
            totals = []
            for order in permutations(elements):
                assert chain_rule_residual(mu, xi, F, order, p) <= 1e-10
                totals.append(math.fsum(chain_rule_terms(mu, xi, F, order, p)))
            assert max(totals) - min(totals) <= 1e-10

    def test_sampled_orders_larger_windows(self):
        rng = random.Random(13)
        for model in all_models():
            mu = model
            xi = canonical_partition(model)
            if model.group.tag == "zd:2":
                F = model.group.box(3, 2)
            else:
                F = subset_from_coords(Z1, [(-2,), (0,), (1,), (3,), (4,), (5,), (7,)])
            p = sample_point(model, 17, 1)
            elements = F.sorted_elements()
            for _ in range(25):
                order = elements[:]
                rng.shuffle(order)
                assert chain_rule_residual(mu, xi, F, order, p) <= 1e-10

    def test_singleton_window_is_unconditional(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        mu = model
        xi = canonical_partition(model)
        F = subset_from_coords(Z1, [(0,)])
        p = pinned_point(model, {(0,): 1})
        terms = chain_rule_terms(mu, xi, F, F.sorted_elements(), p)
        assert len(terms) == 1
        assert terms[0] == pytest.approx(information(mu, xi, F, p), abs=1e-15)

    def test_order_must_enumerate_window(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        F = Z1.box(3)
        p = pinned_point(model, {(k,): 0 for k in range(3)})
        twice = F.sorted_elements() + [Z1.element(2)]
        for order in (Z1.box(2).sorted_elements(), twice, Z2.box(3, 1).sorted_elements()):
            with pytest.raises(ValueError):
                chain_rule_terms(model, canonical_partition(model), F, order, p)


class TestOmegaReads:
    """Each cell rule reads the mixed model's omega once, over its window."""

    def test_each_rule_call_reads_omega_once(self, monkeypatch):
        model = all_models()[1]
        xi, F, p = canonical_partition(model), Z2.box(3, 3), sample_point(model, 19, 0)
        reads, values_at = [], SymbolicConfiguration.values_at

        def counted(config, coords):
            if config.sampler is p.omega.sampler:
                reads.append(len(coords))
            return values_at(config, coords)

        monkeypatch.setattr(SymbolicConfiguration, "values_at", counted)
        labels = cell_of(model, xi, F, p)
        model.cell_measure(p.omega, labels)
        model.conditional_measure(p.omega, labels[1:], labels[0][0], range(2))
        model.smb_totals(model.smb_plan([F.coords]), p)
        assert reads == [9, 9, 9]
        reads.clear()
        chain_rule_terms(model, xi, F, F.sorted_elements(), p)
        assert (len(reads), sum(reads)) == (9, 45)  # one read per term


def reference_chain_rule_terms(mu, xi, F, order, p):
    """chain_rule_terms through the public API: per term a translated
    FiniteSubset D = R g^-1, the cell over D + {e} at the skew point, and
    the quotient of two cell_measure Fractions."""
    e = F.group.identity().coords
    remaining = set(F.coords)
    terms = []
    for g in order:
        remaining.discard(g.coords)
        D = translate(FiniteSubset(F.group, frozenset(remaining)), inverse(g))
        q = skew(mu, g, p)
        big = cell_of(mu, xi, FiniteSubset(F.group, D.coords | {e}), q)
        small = tuple(label for label in big if label[0] != e)
        terms.append(-log_fraction(cell_measure(mu, q.omega, big)
                                   / cell_measure(mu, q.omega, small)))
    return terms


def twin_cases():
    """(model, window, point) for the criterion-4 models and the coset chains."""
    bern, mixed, markov = all_models()
    return [
        (bern, Z2.box(3, 2), sample_point(bern, 401, 1)),
        (mixed, Z2.box(2, 2), sample_point(mixed, 402, 1)),
        (markov, Z1.box(6), sample_point(markov, 403, 1)),
        (markov, subset_from_coords(Z1, [(-2,), (0,), (1,), (5,)]), sample_point(markov, 404, 0)),
        (coset_chain_model(), coset_chain_model().group.box(2, 2, 2), coset_chain_point(405)),
    ]


class TestChainRuleTwin:
    def test_terms_equal_the_public_api_reference_float_for_float(self):
        rng = random.Random(19)
        for model, F, p in twin_cases():
            xi = canonical_partition(model)
            elements = F.sorted_elements()
            for _ in range(20):
                order = elements[:]
                rng.shuffle(order)
                assert chain_rule_terms(model, xi, F, order, p) == \
                    reference_chain_rule_terms(model, xi, F, order, p)

    def test_conditional_information_is_the_one_fraction_term(self):
        for model, F, p in twin_cases():
            xi = canonical_partition(model)
            e = F.group.identity().coords
            cond = FiniteSubset(F.group, F.coords - {e})
            big = cell_of(model, xi, FiniteSubset(F.group, cond.coords | {e}), p)
            small = tuple(label for label in big if label[0] != e)
            (label,) = (s for c, s in big if c == e)
            quotient = cell_measure(model, p.omega, big) / cell_measure(model, p.omega, small)
            assert model.conditional_measure(p.omega, small, e, [label]) == (quotient,)
            assert conditional_information(model, xi, cond, p) == -log_fraction(quotient)


class TestCosetChains:
    """The chain rule on a non-abelian group whose measure has dependence
    between sites, so the side of D = R g^-1 matters."""

    def test_chain_rule_residual_and_order_invariance(self):
        model = coset_chain_model()
        xi = canonical_partition(model)
        F = model.group.box(2, 2, 2)
        rng = random.Random(23)
        for seed in range(3):
            p = coset_chain_point(seed)
            elements = F.sorted_elements()
            totals = []
            for _ in range(100):
                order = elements[:]
                rng.shuffle(order)
                assert chain_rule_residual(model, xi, F, order, p) <= 1e-10
                totals.append(math.fsum(chain_rule_terms(model, xi, F, order, p)))
            assert max(totals) - min(totals) <= 1e-10

    def test_terms_depend_on_the_side_of_the_translate(self):
        # Conditioning on g^-1 R instead of R g^-1 changes some term: the
        # residual test above would catch a left-handed chain rule.
        model = coset_chain_model()
        xi = canonical_partition(model)
        F = model.group.box(2, 2, 2)
        p = coset_chain_point(0)
        group = F.group
        changed = 0
        for g in F.sorted_elements():
            rest = F.coords - {g.coords}
            right = translate(FiniteSubset(group, frozenset(rest)), inverse(g))
            left = FiniteSubset(
                group, frozenset(group.mul_coords(inverse(g).coords, r) for r in rest))
            q = skew(model, g, p)
            changed += (conditional_information(model, xi, right, q)
                        != conditional_information(model, xi, left, q))
        assert changed > 0


class TestFiberEntropyClosedForm:
    def test_frozen_values(self):
        bern, mixed, markov = all_models()
        assert bern.fiber_entropy() == pytest.approx(0.6108643020548935, abs=1e-15)
        assert mixed.fiber_entropy() == pytest.approx(0.5091150769756967, abs=1e-15)
        assert markov.fiber_entropy() == pytest.approx(MARKOV_RATE, abs=1e-15)

    def test_bounds(self):
        for model in all_models():
            h = model.fiber_entropy()
            assert 0.0 <= h <= math.log(model.fiber_alphabet_size)


def _chi2_quantile(k: int, q: float) -> float:
    """The q-quantile of chi^2 with k degrees of freedom, by Wilson-Hilferty."""
    z = NormalDist().inv_cdf(q)
    return k * (1 - 2 / (9 * k) + z * math.sqrt(2 / (9 * k))) ** 3


def _site_varentropy(model) -> float:
    """Var of one site's information -ln p_(omega_g)(x_g) for a product model:
    v = sum_w b_w sum_s p_ws (ln p_ws)^2 - h^2, from the model's exact rows."""
    h = model.fiber_entropy()
    second = math.fsum(float(b * p) * math.log(p) ** 2
                       for b, row in zip(model.base_p, model.fiber_ps) for p in row if p)
    return second - h * h


class TestVarianceOracle:
    """The final SMB row of criteria 1 and 2 (the runs of smb_bernoulli_z2.cfg
    and smb_mixed_z2.cfg, at their seeds) against closed forms.  Sites are
    i.i.d., so Var(I_F) = |F| v and the mean rate over T trajectories has
    sigma_pred = sqrt(v / (|F| T)).  Both bands were fixed before any run:
    |estimate - h| <= 5 sigma_pred, and std_error / sigma_pred inside the
    two-sided chi^2_(T-1) band of the sample deviation at level 10^-6."""

    INPUTS = {
        "bernoulli": (BernoulliModel.create(Z2, [0.7, 0.3]), 424242),
        "mixed": (RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]), 52),
    }
    LEVEL, T = 1e-6, 100

    def test_varentropy_of_a_coin_is_its_closed_form(self):
        assert _site_varentropy(BernoulliModel.create(Z1, [0.5, 0.5])) == pytest.approx(0, abs=1e-15)
        v = _site_varentropy(BernoulliModel.create(Z1, [0.7, 0.3]))
        assert v == pytest.approx(0.21 * math.log(7 / 3) ** 2, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_final_row_is_inside_both_bands(self, name):
        model, seed = self.INPUTS[name]
        final = smb_trace(model, box_folner(2, 32), trajectories=self.T, seed=seed).final
        sigma = math.sqrt(_site_varentropy(model) / (final.folner_size * self.T))
        assert abs(final.estimate - final.target) <= 5 * sigma
        k = self.T - 1
        lo, hi = (math.sqrt(_chi2_quantile(k, q) / k) for q in (self.LEVEL / 2, 1 - self.LEVEL / 2))
        assert lo <= final.std_error / sigma <= hi


class TestSmbTrace:
    def test_uniform_bernoulli_is_exact_with_zero_variance(self):
        model = BernoulliModel.create(Z1, [0.5, 0.5])
        trace = smb_trace(model, box_folner(1, 6), trajectories=5, seed=19)
        for row in trace.rows:
            assert row.estimate == pytest.approx(math.log(2), abs=1e-12)
            assert row.std_error == 0.0
            assert row.target == pytest.approx(math.log(2), abs=1e-15)

    def test_mean_within_three_combined_se_at_largest_n(self):
        specs = [
            (BernoulliModel.create(Z2, [0.7, 0.3]), box_folner(2, 12)),
            (
                RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
                box_folner(2, 12),
            ),
            (MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]), box_folner_sizes(1, [16, 64, 256])),
        ]
        for model, seq in specs:
            trace = smb_trace(model, seq, trajectories=60, seed=23)
            final = trace.final
            # sd of the mean plus a floor for the O(1/|F|) finite-size bias
            band = 3 * final.std_error + 0.03
            assert final.abs_error <= band

    def test_one_symbol_base_is_bernoulli_and_never_reads_omega(self):
        p = (Fraction(7, 10), Fraction(3, 10))
        bern = BernoulliModel(Z2, p)
        one = RandomAlphabetModel(Z2, (Fraction(1),), (p,))
        seq = box_folner(2, 8)
        assert smb_trace(one, seq, trajectories=6, seed=41) == smb_trace(
            bern, seq, trajectories=6, seed=41)
        # No rule and no fiber draw of the one-symbol model looks at omega.
        labels = (((0, 0), 1), ((0, 1), 0))
        assert one.cell_measure(None, labels) == Fraction(21, 100)
        assert log_measure(one, labels) == pytest.approx(math.log(0.21), abs=1e-15)
        x = one.sample_x(None, 41)
        assert [x.value_at(c) for c in sorted(seq.set(8).coords)] == [
            bern.sample_x(None, 41).value_at(c) for c in sorted(seq.set(8).coords)]

    def test_rows_have_increasing_n_and_sizes(self):
        model = BernoulliModel.create(Z2, [0.7, 0.3])
        seq = box_folner(2, 5)
        trace = smb_trace(model, seq, trajectories=3, seed=29)
        assert [r.n for r in trace.rows] == [1, 2, 3, 4, 5]
        assert [r.folner_size for r in trace.rows] == [1, 4, 9, 16, 25]
        for row in trace.rows:
            assert row.abs_error == abs(row.estimate - row.target)

    def test_zero_trajectories_rejected(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        with pytest.raises(ValueError):
            smb_trace(model, box_folner(1, 4), trajectories=0, seed=1)

    def test_workers_do_not_change_results(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        seq = box_folner(1, 8)
        one = smb_trace(model, seq, trajectories=12, seed=37, workers=1)
        two = smb_trace(model, seq, trajectories=12, seed=37, workers=2)
        assert one == two

    def test_more_workers_than_trajectories(self):
        # one share a trajectory, never an empty one
        model = BernoulliModel.create(Z2, [0.7, 0.3])
        one = smb_trace(model, box_folner(2, 6), trajectories=2, seed=43)
        assert smb_trace(model, box_folner(2, 6), trajectories=2, seed=43, workers=5) == one

    def test_mean_rate_bounded_by_log_atoms(self):
        # The pointwise rate can exceed ln(atoms) (an all-minority window
        # has rate -ln 0.3 > ln 2), so the bound is tested in the mean.
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        mu = model
        xi = canonical_partition(model)
        F = Z1.box(4)
        minority = pinned_point(model, {(k,): 1 for k in range(4)})
        assert information(mu, xi, F, minority) / len(F) > math.log(2)
        trace = smb_trace(model, box_folner(1, 8), trajectories=40, seed=41)
        final = trace.final
        assert final.estimate <= math.log(2) + 3 * final.std_error


def _z1_windows(coord_lists):
    sets = tuple(subset_from_coords(Z1, [(k,) for k in ks]) for ks in coord_lists)
    return FolnerSequence(Z1, sets)


SMB_MODELS_Z1 = [
    BernoulliModel.create(Z1, [0.7, 0.3]),
    RandomAlphabetModel.create(Z1, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
    MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
]

SMB_PLANS = {
    "product": (BernoulliModel.create(Z2, [0.7, 0.3]), box_folner(2, 5)),
    "conditional": (
        RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
        box_folner(2, 5),
    ),
    "markov-interval": (
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
        box_folner_sizes(1, [1, 3, 8]),
    ),
    "markov-general": (
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
        _z1_windows([range(-k, k + 1) for k in range(4)]
                    + [list(range(-3, 4)) + [6, 9]]),
    ),
    # windows that are not nested: each row drops sites an earlier one held
    "product-moving": (
        BernoulliModel.create(Z1, [0.7, 0.3]),
        _z1_windows([[0, 1], [5, 6, 7], [1, 6, 7, 8], [0, 2]]),
    ),
    "conditional-moving": (
        RandomAlphabetModel.create(Z1, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
        _z1_windows([[0, 1], [5, 6, 7], [1, 6, 7, 8], [0, 2]]),
    ),
    "markov-moving": (
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
        _z1_windows([[0, 1], [5, 6, 7], [1, 6, 7, 8], [0, 2]]),
    ),
    # nested, but the second window drops the sites right of it
    "markov-shrinking": (
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
        _z1_windows([range(8), range(3)]),
    ),
    # a window that adds a site left of its predecessor starts a second run
    "markov-left": (
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
        _z1_windows([[0, 1], [0, 1, 2], range(-1, 3), range(-1, 4)]),
    ),
    # not prefix intervals, but each window adds sites right of the last
    "markov-right": (
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
        _z1_windows([range(5, 7), range(5, 12), [*range(5, 12), 20]]),
    ),
}

# The runs each case's plan takes: one, unless named otherwise here.
SMB_PLAN_RUNS = {"markov-general": 4, "markov-moving": 4, "markov-shrinking": 2,
                 "product-moving": 4, "conditional-moving": 4, "markov-left": 2}


class TestSmbFastPath:
    """The windowed SMB totals against the exact cell rules, per plan."""

    @pytest.mark.parametrize("case", sorted(SMB_PLANS))
    def test_worker_totals_match_exact_cell_measures(self, case):
        model, seq = SMB_PLANS[case]
        ns = list(range(1, len(seq.sets) + 1))
        plan = model.smb_plan([seq.set(n).coords for n in ns])
        assert len(plan) == SMB_PLAN_RUNS.get(case, 1)
        xi = canonical_partition(model)
        for index in range(3):
            (totals,) = _smb_worker((model, plan, 53, range(index, index + 1)))
            point = sample_point(model, 53, index)
            assert len(totals) == len(ns)
            for n, total in zip(ns, totals):
                cell = cell_of(model, xi, seq.set(n), point)
                exact = -log_fraction(cell_measure(model, point.omega, cell))
                assert total == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @settings(max_examples=80)
    @given(model=st.sampled_from(SMB_MODELS_Z1), index=st.integers(0, 20),
           nested=st.booleans(),
           parts=st.lists(st.sets(st.integers(-8, 8), min_size=1, max_size=6),
                          min_size=1, max_size=5))
    def test_random_schedules_match_exact_cell_measures(self, model, index, nested, parts):
        # nested schedules grow on either side; free ones move and shrink
        windows = [frozenset((k,) for k in (set().union(*parts[:i + 1]) if nested else part))
                   for i, part in enumerate(parts)]
        plan = model.smb_plan(windows)
        for coords, ends in plan:  # a run reads each of its sites once
            assert len(set(coords)) == len(coords) == ends[-1]
        point = sample_point(model, 59, index)
        totals = model.smb_totals(plan, point)
        assert len(totals) == len(windows)
        for cs, total in zip(windows, totals):
            cell = tuple(sorted(zip(cs, point.x.values_at(list(cs)))))
            exact = -log_fraction(model.cell_measure(point.omega, cell))
            assert total == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model, windows, runs", [
        (BernoulliModel.create(Z1, [1, 0]), [[0], [0, 1, 2]], 1),
        (MarkovModel.create([[0.5, 0.5], [1, 0]]), [[0], [0, 1, 2]], 1),
        (MarkovModel.create([[0.5, 0.5], [1, 0]]), [[0, 1, 2], [1, 2]], 2),
    ], ids=["product-run", "markov-run", "markov-two-runs"])
    def test_null_cell_raises_in_either_plan(self, model, windows, runs):
        # the window [0, 1, 2] holds the null pattern 1, 1 at sites 1 and 2
        point = pinned_point(model, {(1,): 1, (2,): 1})
        plan = model.smb_plan([frozenset((k,) for k in ks) for ks in windows])
        assert len(plan) == runs
        with pytest.raises(ZeroMeasureError):
            model.smb_totals(plan, point)

    @pytest.mark.parametrize("case", ["product", "conditional", "product-moving"])
    def test_totals_keep_no_reference_to_a_plan_run(self, case):
        # a run's encoding lives on the run itself, so nothing outlives the plan
        model, seq = SMB_PLANS[case]
        plan = model.smb_plan(F.coords for F in seq)
        counts = [sys.getrefcount(coords) for coords, _ in plan]
        model.smb_totals(plan, sample_point(model, 61, 0))
        assert [sys.getrefcount(coords) for coords, _ in plan] == counts

    @pytest.mark.parametrize("case", ["product", "conditional", "markov-moving"])
    def test_any_split_into_shares_gives_the_same_table(self, case):
        model, seq = SMB_PLANS[case]
        plan = model.smb_plan(F.coords for F in seq)
        whole = _smb_worker((model, plan, 67, range(7)))
        assert whole.dtype == np.float64 and whole.shape == (7, len(seq))
        assert whole.tolist() == [model.smb_totals(plan, sample_point(model, 67, t))
                                  for t in range(7)]
        for cuts in ([0, 1, 7], [0, 3, 4, 7], [0, 2, 4, 6, 7], list(range(8))):
            shares = [_smb_worker((model, plan, 67, range(a, b))) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(shares).tolist() == whole.tolist()

    def test_bernoulli_rules_never_read_omega(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        labels = (((0,), 0), ((1,), 1))
        assert model.cell_measure(None, labels) == Fraction(21, 100)
        assert log_measure(model, labels) == pytest.approx(math.log(0.21))


class TestStreamedWindows:
    """Both traces read any iterable of windows once, one window at a time."""

    @pytest.mark.parametrize("case", ["product", "conditional", "markov-interval",
                                      "markov-shrinking", "product-moving"])
    def test_a_generator_gives_the_rows_of_its_sequence(self, case):
        model, seq = SMB_PLANS[case]
        sizes = [len(F) for F in seq.sets]
        streamed = smb_trace(model, (F for F in seq.sets), trajectories=4, seed=71)
        assert streamed == smb_trace(model, seq, trajectories=4, seed=71)
        assert [r.folner_size for r in streamed.rows] == sizes
        for method in ("exact", "monte-carlo"):
            streamed = conditional_entropy_trace(model, (F for F in seq.sets), seed=73,
                                                 method=method, samples=15)
            assert streamed == conditional_entropy_trace(model, seq, seed=73,
                                                         method=method, samples=15)
            assert [r.folner_size for r in streamed.rows] == sizes

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.kind)
    def test_monte_carlo_law_reads_the_cell_of_each_sample(self, model):
        # twin: each sample's cell built by `cell_of`, as a cell of the join
        seq = box_folner(model.group.rank, 3)
        trace = conditional_entropy_trace(model, seq, seed=79, method="monte-carlo", samples=12)
        e = model.group.identity().coords
        xi, symbols = canonical_partition(model), range(model.fiber_alphabet_size)
        for row, F in zip(trace.rows, seq.sets):
            cond = FiniteSubset(F.group, F.coords - {e})
            values = []
            for i in range(12):
                point = sample_point(model, 79, i)
                labels = cell_of(model, xi, cond, point)
                values.append(shannon_entropy(model.conditional_measure(point.omega, labels,
                                                                        e, symbols)))
            assert (row.estimate, row.std_error) == mean_and_se(values)

    @pytest.mark.parametrize("windows", [[], [Z1.box(2), FiniteSubset(Z1, frozenset())],
                                         [FiniteSubset(Z1, frozenset()), Z1.box(2)]],
                             ids=["no-window", "empty-second", "empty-first"])
    def test_an_empty_schedule_or_window_raises(self, windows, monkeypatch):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        for method in ("exact", "monte-carlo"):
            with pytest.raises(ValueError):
                conditional_entropy_trace(model, iter(windows), method=method, samples=3)

        def refuse(*args):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr("fiberent.entropy.sample_point", refuse)
        with pytest.raises(ValueError):  # before any trajectory runs
            smb_trace(model, iter(windows), trajectories=2, seed=1)

    def test_a_window_of_another_group_raises(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        for method in ("exact", "monte-carlo"):
            with pytest.raises(GroupMismatchError):
                conditional_entropy_trace(model, iter([Z2.box(2, 2)]), method=method, samples=3)


def chain_weights(k):
    """k rows of k integer weights in 0..4, none all zero: zeros make
    transient states and impossible pairs."""
    row = st.tuples(*[st.integers(0, 4)] * k).filter(any)
    return st.tuples(*[row] * k)


class TestConditionalEntropy:
    def test_product_models_are_constant(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        h = model.fiber_entropy()
        for coords in ([(1,)], [(-2,), (1,), (5,)], []):
            cond = subset_from_coords(Z1, coords)
            assert model.conditional_entropy(cond) == pytest.approx(h, abs=1e-15)

    def test_markov_one_sided_equals_entropy_rate(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        for n in (2, 3, 5, 9):
            cond = subset_from_coords(Z1, [(k,) for k in range(1, n)])
            assert model.conditional_entropy(cond) == pytest.approx(
                MARKOV_RATE, abs=1e-12
            )

    def test_markov_empty_conditioning_is_marginal_entropy(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        got = model.conditional_entropy(subset_from_coords(Z1, []))
        assert got == pytest.approx(0.6365141682948128, abs=1e-12)

    def test_markov_transient_state_carries_no_entropy(self):
        # pi = (0, 1): every conditioning side sees the absorbing state
        model = MarkovModel.create([[0.5, 0.5], [0, 1]])
        for coords in ([(1,)], [(-1,)], [(-2,), (3,)], []):
            cond = subset_from_coords(Z1, coords)
            assert model.conditional_entropy(cond) == 0

    def test_markov_two_sided_matches_enumeration(self):
        # independent oracle: exhaustive H(big) - H(small) over {-1,0,1}
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        xi = canonical_partition(model)
        cond = subset_from_coords(Z1, [(-1,), (1,)])
        got = model.conditional_entropy(cond)
        assert got == pytest.approx(0.24944294556876542, abs=1e-12)

        mu = model
        om = constant_omega(model)
        big = subset_from_coords(Z1, [(-1,), (0,), (1,)])
        small_measures = {
            c: v for c, v in enumerate_cells(mu, om, xi, cond)
        }
        total = 0.0
        for cell, mval in enumerate_cells(mu, om, xi, big):
            if mval == 0:
                continue
            rest = tuple(lab for lab in cell if lab[0] != (0,))
            total += float(mval) * (
                math.log(float(small_measures[rest])) - math.log(float(mval))
            )
        assert got == pytest.approx(total, abs=1e-12)

    @settings(max_examples=60)
    @example(((1, 1), (0, 1)), frozenset({-2, 3}))
    @example(((1, 2, 0), (0, 1, 3), (0, 0, 1)), frozenset({-1, 1, 4}))
    @given(
        st.integers(2, 3).flatmap(chain_weights),
        st.frozensets(st.integers(-6, 6).filter(bool), max_size=4),
    )
    def test_markov_matches_exhaustive_enumeration(self, weights, positions):
        # independent oracle: H(cells over cond + {0}) - H(cells over cond)
        model = MarkovModel.create([[Fraction(w, sum(row)) for w in row] for row in weights])
        try:
            model.stationary
        except ValueError:  # no unique stationary law
            reject()
        xi = canonical_partition(model)
        om = constant_omega(model)
        cond = subset_from_coords(Z1, [(k,) for k in positions])
        big = subset_from_coords(Z1, [(k,) for k in positions | {0}])

        def joint_entropy(F):
            return shannon_entropy([m for _, m in enumerate_cells(model, om, xi, F)])

        oracle = joint_entropy(big) - joint_entropy(cond)
        assert model.conditional_entropy(cond) == pytest.approx(oracle, abs=1e-12)

    def test_trace_is_non_increasing_and_bounded_below(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        trace = conditional_entropy_trace(model, box_folner(1, 8))
        values = [r.estimate for r in trace.rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        target = trace.rows[0].target
        assert all(v >= target - 1e-12 for v in values)
        assert values[0] == pytest.approx(0.6365141682948128, abs=1e-12)
        assert values[-1] == pytest.approx(MARKOV_RATE, abs=1e-12)

    def test_monte_carlo_bernoulli_is_exact(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        trace = conditional_entropy_trace(
            model, box_folner(1, 3), seed=43, method="monte-carlo", samples=50
        )
        for row in trace.rows:
            assert row.estimate == pytest.approx(0.6108643020548935, abs=1e-12)
            assert row.std_error == 0.0

    def test_monte_carlo_markov_matches_exact(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        exact = conditional_entropy_trace(model, box_folner(1, 4))
        mc = conditional_entropy_trace(
            model, box_folner(1, 4), seed=47, method="monte-carlo", samples=600
        )
        for e_row, m_row in zip(exact.rows, mc.rows):
            band = 4 * m_row.std_error + 1e-9
            assert abs(m_row.estimate - e_row.estimate) <= band

    def test_unknown_method_rejected(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        with pytest.raises(ValueError):
            conditional_entropy_trace(model, box_folner(1, 2), method="bootstrap")

    @pytest.mark.parametrize("samples", [0, -3])
    def test_monte_carlo_needs_a_sample(self, samples):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        with pytest.raises(ValueError, match="samples"):
            conditional_entropy_trace(model, box_folner(1, 2), method="monte-carlo",
                                      samples=samples)
        # the exact method draws no samples, so it ignores the count
        assert conditional_entropy_trace(model, box_folner(1, 2), samples=0).rows
