"""Fibered measures: exact cell probabilities, invariance, conditional label laws."""

import inspect
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberent.rds as rds
from fiberent.groups import HeisenbergGroup, ZdGroup, random_element, subset_from_coords
from fiberent.measures import (
    PartitionSpec,
    canonical_partition,
    cell_measure,
    cell_of,
    check_invariance,
    enumerate_cells,
)
from fiberent.rds import (
    BernoulliModel,
    EnumerationSizeError,
    MarkovModel,
    RandomAlphabetModel,
    ZeroMeasureError,
    configuration_from_pins,
    sample_point,
)

from conftest import constant_omega, coset_chain_model, log_measure, pinned_point

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)
H = HeisenbergGroup()
BOTH = range(2)  # the symbols of a two-symbol alphabet


def all_models():
    return [
        BernoulliModel.create(Z2, [0.7, 0.3]),
        RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
    ]


def window_for(model, n=2):
    group = model.group
    if isinstance(group, HeisenbergGroup):
        return group.box(n, n, n * n)
    return group.box(*([n] * group.d))


class TestCellOf:
    def test_reads_off_coordinates(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        p = pinned_point(model, {(0,): 0, (1,): 1})
        F = subset_from_coords(Z1, [(0,), (1,)])
        cell = cell_of(model, canonical_partition(model), F, p)
        assert cell == (((0,), 0), ((1,), 1))
        assert {c for c, _ in cell} == F.coords

    def test_z2_window_is_coordinate_restriction(self):
        model = BernoulliModel.create(Z2, [0.7, 0.3])
        labels = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
        p = pinned_point(model, labels)
        cell = cell_of(model, canonical_partition(model), Z2.box(2, 2), p)
        assert cell == tuple(sorted(labels.items()))


class TestCellMeasure:
    def test_bernoulli_frozen_example(self):
        model = BernoulliModel.create(Z2, [0.7, 0.3])
        labels = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
        p = pinned_point(model, labels)
        cell = cell_of(model, canonical_partition(model), Z2.box(2, 2), p)
        m = cell_measure(model, p.omega, cell)
        assert m == Fraction(1029, 10000)

    def test_uniform_window_measure(self):
        model = BernoulliModel.create(Z1, [0.5, 0.5])
        p = pinned_point(model, {(0,): 0, (1,): 1, (2,): 1, (3,): 0})
        cell = cell_of(model, canonical_partition(model), Z1.box(4), p)
        assert cell_measure(model, p.omega, cell) == Fraction(1, 16)

    def test_markov_adjacent_pair(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        p = pinned_point(model, {(0,): 0, (1,): 0})
        F = subset_from_coords(Z1, [(0,), (1,)])
        cell = cell_of(model, canonical_partition(model), F, p)
        assert cell_measure(model, p.omega, cell) == Fraction(3, 5)

    def test_markov_gap_uses_matrix_power(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        p = pinned_point(model, {(0,): 0, (2,): 0})
        F = subset_from_coords(Z1, [(0,), (2,)])
        cell = cell_of(model, canonical_partition(model), F, p)
        # pi_0 (P^2)_00 = (2/3)(83/100)
        assert cell_measure(model, p.omega, cell) == Fraction(83, 150)

    def test_markov_gap_cap(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        p = pinned_point(model, {(0,): 0, (100,): 0})
        F = subset_from_coords(Z1, [(0,), (100,)])
        cell = cell_of(model, canonical_partition(model), F, p)
        with pytest.raises(EnumerationSizeError):
            cell_measure(model, p.omega, cell)

    def test_zero_measure_pattern(self):
        model = MarkovModel.create([[0.5, 0.5], [1.0, 0.0]])
        p = pinned_point(model, {(0,): 1, (1,): 1})
        F = subset_from_coords(Z1, [(0,), (1,)])
        cell = cell_of(model, canonical_partition(model), F, p)
        mu = model
        assert cell_measure(mu, p.omega, cell) == 0
        with pytest.raises(ZeroMeasureError):
            mu.smb_totals(mu.smb_plan([F.coords]), p)

    def test_log_route_matches_exact_route(self):
        for model in all_models():
            mu = model
            for i in range(10):
                p = sample_point(model, 83, i)
                F = window_for(model)
                cell = cell_of(model, canonical_partition(model), F, p)
                exact = cell_measure(mu, p.omega, cell)
                assert math.isclose(
                    log_measure(mu, cell, p.omega), math.log(exact), rel_tol=1e-12
                )

    def test_group_agnostic_product_measure(self):
        model = BernoulliModel.create(H, [0.7, 0.3])
        p = pinned_point(model, {(0, 0, 0): 0, (1, 1, 1): 1})
        F = subset_from_coords(H, [(0, 0, 0), (1, 1, 1)])
        cell = cell_of(model, canonical_partition(model), F, p)
        assert cell_measure(model, p.omega, cell) == Fraction(21, 100)


def _reference_power(P, n):
    """P^n by n - 1 plain Fraction matrix products."""
    out = P
    for _ in range(n - 1):
        out = tuple(tuple(sum(out[i][m] * P[m][j] for m in range(len(P))) for j in range(len(P)))
                    for i in range(len(P)))
    return out


def _reference_cell_measure(model, omega, labels):
    """The cell measure as a running product of Fractions."""
    out = Fraction(1)
    if isinstance(model, MarkovModel):
        positions = [(c[0], a) for c, a in labels]
        if positions:
            out = model.stationary[positions[0][1]]
        for (i, a), (j, b) in zip(positions, positions[1:]):
            out *= _reference_power(model.transition, j - i)[a][b]
        return out
    for c, a in labels:
        out *= model.fiber_ps[omega.value_at(c) if len(model.base_p) > 1 else 0][a]
    return out


chains = st.integers(2, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any), min_size=k, max_size=k))


class TestExactCellMeasureCaches:
    """Integer cell products and the per-model caches behind them."""

    @settings(max_examples=60)
    @given(index=st.integers(0, 30), data=st.data())
    def test_product_models_match_the_fraction_reference(self, index, data):
        model = data.draw(st.sampled_from(all_models()[:2]), label="model")
        omega = sample_point(model, 61, index).omega
        sites = data.draw(st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                                  max_size=12), label="sites")
        labels = tuple((c, data.draw(st.integers(0, 1))) for c in sorted(sites))
        assert model.cell_measure(omega, labels) == _reference_cell_measure(model, omega, labels)

    @settings(max_examples=60)
    @given(rows=chains, data=st.data())
    def test_markov_matches_the_fraction_reference(self, rows, data):
        total = [sum(r) for r in rows]
        model = MarkovModel.create([[Fraction(v, t) for v in r] for r, t in zip(rows, total)])
        try:
            model.stationary
        except ValueError:  # no unique stationary vector
            return
        sites = data.draw(st.sets(st.integers(-20, 20), max_size=6), label="sites")
        labels = tuple(((k,), data.draw(st.integers(0, len(rows) - 1))) for k in sorted(sites))
        twin = MarkovModel.create([[Fraction(v, t) for v in r] for r, t in zip(rows, total)])
        expected = _reference_cell_measure(model, None, labels)
        assert model.cell_measure(None, labels) == expected
        assert twin.cell_measure(None, labels) == expected
        if expected:
            assert math.isclose(log_measure(twin, labels), math.log(expected),
                                rel_tol=1e-9, abs_tol=1e-12)

    def test_equal_matrices_give_equal_rules(self):
        a = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        b = MarkovModel.create([[Fraction(9, 10), Fraction(1, 10)], [0.2, 0.8]])
        labels = (((-3,), 0), ((0,), 1), ((7,), 1))
        cond = (((-2,), 1), ((5,), 0))
        a.cell_measure(None, (((0,), 0), ((40,), 1)))  # fills a's cache first
        assert a == b and a.stationary == b.stationary
        assert a.cell_measure(None, labels) == b.cell_measure(None, labels)
        assert log_measure(a, labels) == log_measure(b, labels)
        assert (a.conditional_measure(None, cond, (0,), BOTH)
                == b.conditional_measure(None, cond, (0,), BOTH))
        assert a.conditional_entropy(subset_from_coords(Z1, [(-2,), (5,)])) == \
            b.conditional_entropy(subset_from_coords(Z1, [(-2,), (5,)]))

    @pytest.mark.parametrize("labels", [(((1,), 0), ((0,), 0)), (((0,), 0), ((0,), 1))],
                             ids=["unsorted", "repeated"])
    def test_markov_cells_need_sorted_distinct_coordinates(self, labels):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="sorted by coordinate"):
            model.cell_measure(None, labels)

    def test_rds_holds_no_unbounded_module_cache(self):
        # model rules cache on the model; a module-level cache must be bounded
        decorators = re.findall(r"^@(?:functools\.)?(lru_cache\S*|cache)\s*$",
                                inspect.getsource(rds), re.MULTILINE)
        assert all(re.fullmatch(r"lru_cache\(maxsize=\d+\)", d) for d in decorators), decorators


class TestEnumeration:
    def test_cells_sum_to_one_exactly(self):
        windows = {
            "zd:2": [Z2.box(2, 2), Z2.box(2, 4)],
            "zd:1": [
                Z1.box(3),
                subset_from_coords(Z1, [(-3,), (0,), (2,)]),
                Z1.box(8),
            ],
        }
        for model in all_models():
            mu = model
            omega = model.sample_omega(5)
            for F in windows[model.group.tag]:
                pairs = enumerate_cells(mu, omega, canonical_partition(model), F)
                assert len(pairs) == 2 ** len(F)
                assert sum(m for _, m in pairs) == 1

    def test_enumeration_guard(self):
        model = BernoulliModel.create(Z1, [0.5, 0.5])
        with pytest.raises(EnumerationSizeError):
            enumerate_cells(
                model,
                constant_omega(model),
                canonical_partition(model),
                Z1.box(21),
            )

    def test_sampled_points_land_in_positive_cells(self):
        for model in all_models():
            mu = model
            for i in range(50):
                p = sample_point(model, 89, i)
                cell = cell_of(model, canonical_partition(model), window_for(model), p)
                assert cell_measure(mu, p.omega, cell) > 0


class TestInvariance:
    def test_invariance_random_translates(self):
        for model in all_models():
            mu = model
            F = window_for(model)
            for i in range(20):
                omega = model.sample_omega(1000 + i)
                g = random_element(model.group, 3, 97, i)
                assert check_invariance(mu, g, omega, canonical_partition(model), F)

    def test_coset_chains_are_invariant_under_the_right_action(self):
        model = coset_chain_model()
        omega, xi, F = constant_omega(model), canonical_partition(model), H.box(2, 2, 1)
        for i in range(30):
            g = random_element(H, 3, 83, "inv", i)
            assert check_invariance(model, g, omega, xi, F)

    def test_coset_chains_are_not_invariant_under_left_pulls(self):
        # Pulling labels to g F instead of F g changes some cell measure, so
        # the test above would catch a left-handed check_invariance.
        model = coset_chain_model()
        omega, xi, F = constant_omega(model), canonical_partition(model), H.box(2, 2, 1)
        moved = 0
        for i in range(30):
            g = random_element(H, 3, 83, "inv", i)
            for labels, forward in enumerate_cells(model, omega, xi, F):
                pulled = tuple(sorted((H.mul_coords(g.coords, c), s) for c, s in labels))
                moved += cell_measure(model, omega, pulled) != forward
        assert moved > 0

    def test_a_measure_tied_to_absolute_sites_is_not_invariant(self):
        class Anchored:
            """Not a shift-invariant rule: a cell weighs less the farther its sites lie."""

            def cell_measure(self, omega, labels):
                return Fraction(1, 1 + sum(abs(c) for coords, _ in labels for c in coords))

        model = BernoulliModel.create(Z1, [0.5, 0.5])
        omega, xi, F = constant_omega(model), canonical_partition(model), Z1.box(2)
        g = Z1.element(3)
        assert check_invariance(model, g, omega, xi, F)
        assert not check_invariance(Anchored(), g, omega, xi, F)
        assert check_invariance(Anchored(), Z1.identity(), omega, xi, F)

    def test_window_of_another_group_raises(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        with pytest.raises(rds.GroupMismatchError):
            check_invariance(model, Z1.identity(), constant_omega(model),
                             canonical_partition(model), Z2.box(2, 2))

    @settings(max_examples=40)
    @given(st.data())
    def test_refinement_monotonicity(self, data):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        mu = model
        coords = data.draw(
            st.frozensets(
                st.tuples(st.integers(min_value=-4, max_value=4)),
                min_size=2,
                max_size=5,
            )
        )
        sub = data.draw(st.frozensets(st.sampled_from(sorted(coords)), min_size=1))
        p = sample_point(model, 101, data.draw(st.integers(0, 50)))
        xi = canonical_partition(model)
        big = cell_measure(mu, p.omega, cell_of(model, xi, subset_from_coords(Z1, coords), p))
        small = cell_measure(mu, p.omega, cell_of(model, xi, subset_from_coords(Z1, sub), p))
        assert big <= small


class TestConditionalLabelDistribution:
    def test_bernoulli_is_unconditional(self):
        model = BernoulliModel.create(Z1, [0.7, 0.3])
        mu = model
        cond = (((1,), 1),)
        dist = mu.conditional_measure(constant_omega(model), cond, (0,), BOTH)
        assert dist == (Fraction(7, 10), Fraction(3, 10))

    def test_random_alphabet_reads_base_row(self):
        model = RandomAlphabetModel.create(Z1, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]])
        mu = model
        omega = configuration_from_pins(Z1, 2, {(0,): 1})
        cond = (((1,), 0),)
        dist = mu.conditional_measure(omega, cond, (0,), BOTH)
        assert dist == (Fraction(9, 10), Fraction(1, 10))

    def test_markov_two_sided_bridge(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        mu = model
        cond = (((-1,), 0), ((1,), 0))
        dist = mu.conditional_measure(constant_omega(model), cond, (0,), BOTH)
        # P_{0c} P_{c0} / (P^2)_{00}
        assert dist == (Fraction(81, 83), Fraction(2, 83))

    def test_markov_one_sided_neighbors(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        mu = model
        left = (((-1,), 0),)
        assert mu.conditional_measure(
            constant_omega(model), left, (0,), BOTH
        ) == (Fraction(9, 10), Fraction(1, 10))
        right = (((1,), 0),)
        # Bayes: P(x_0 = c | x_1 = 0) = pi_c P_c0 / pi_0
        assert mu.conditional_measure(
            constant_omega(model), right, (0,), BOTH
        ) == (Fraction(9, 10), Fraction(1, 10))

    def test_markov_only_nearest_neighbors_matter(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        mu = model
        near = (((-1,), 0), ((1,), 0))
        far = (((-3,), 1), ((-1,), 0), ((1,), 0), ((4,), 1))
        omega = constant_omega(model)
        assert mu.conditional_measure(omega, near, (0,), BOTH) == \
            mu.conditional_measure(omega, far, (0,), BOTH)


    @pytest.mark.parametrize("cond", [{(1,): 0}, {(-1,): 0}, {(-1,): 0, (1,): 0}],
                             ids=["right", "left", "both"])
    def test_markov_zero_measure_conditioning_raises(self, cond):
        # pi = (0, 1): a neighbour in the transient state 0 is a null cell
        model = MarkovModel.create([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
        labels = tuple(sorted(cond.items()))
        with pytest.raises(ZeroMeasureError):
            model.conditional_measure(None, labels, (0,), BOTH)

    def test_null_factor_outside_the_sites_that_matter_raises(self):
        # Bernoulli: no label matters, yet the cell x_1 = 1 has p_1 = 0.
        bernoulli = BernoulliModel.create(Z1, [1, 0])
        with pytest.raises(ZeroMeasureError):
            bernoulli.conditional_measure(None, (((1,), 1),), (0,), BOTH)
        # Markov: the nearest left label 1 at -1 is fine, but the transient
        # state 0 at -3 has stationary weight 0, so the whole cell is null.
        markov = MarkovModel.create([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
        labels = (((-3,), 0), ((-1,), 1))
        assert markov.cell_measure(None, labels) == 0
        with pytest.raises(ZeroMeasureError):
            markov.conditional_measure(None, labels, (0,), BOTH)

    def test_tiny_positive_conditioning_cell_is_not_null(self):
        # 10^-400 underflows a float to 0.0; the exact test must not.
        tiny = Fraction(1, 10 ** 400)
        model = BernoulliModel.create(Z1, [1 - tiny, tiny])
        assert float(tiny) == 0.0
        dist = model.conditional_measure(None, (((1,), 1),), (0,), BOTH)
        assert dist == (1 - tiny, tiny)


def _nearest_sites(coords, at):
    """The nearest conditioning site on each side of `at` (a Markov chain's)."""
    left = max((c for c in coords if c < at), default=None)
    right = min((c for c in coords if c > at), default=None)
    return [c for c in (left, right) if c is not None]


def _normalised_law(model, omega, cond_labels, at, near):
    """The law as normalised cell measures: a null test on every exact factor
    of the conditioning cell, then the cell measure of the labels at `near`
    joined with each symbol at `at`, over their sum."""
    coords = [c for c, _ in cond_labels]
    if not all(model._cell_factors(model._base(omega, coords), coords,
                                   [s for _, s in cond_labels])):
        raise ZeroMeasureError("conditioning cell has measure zero")
    kept = [(c, s) for c, s in cond_labels if c in near]
    weights = [model.cell_measure(omega, tuple(sorted(kept + [(at, s)])))
               for s in range(model.fiber_alphabet_size)]
    return tuple(w / sum(weights) for w in weights)


def _outcome(law, *args):
    """The law's value, or the type of the error it raises."""
    try:
        return law(*args)
    except ZeroMeasureError as exc:
        return type(exc)


def _agrees_with_normalised_law(model, omega, cond_labels, at, near):
    """The full law equals the normalised one and sums to 1; each symbol's
    own call equals its entry and the quotient of two cell measures; a null
    cell raises for every symbol, and a cell holding `at` raises ValueError."""
    symbols = range(model.fiber_alphabet_size)
    got = _outcome(model.conditional_measure, omega, cond_labels, at, symbols)
    assert got == _outcome(_normalised_law, model, omega, cond_labels, at, near)
    if got is not ZeroMeasureError:
        assert sum(got) == 1
    cond = model.cell_measure(omega, cond_labels)
    for s in symbols:
        one = _outcome(model.conditional_measure, omega, cond_labels, at, [s])
        if got is ZeroMeasureError:
            assert one is ZeroMeasureError and cond == 0
            continue
        cell = model.cell_measure(omega, tuple(sorted(cond_labels + ((at, s),))))
        assert one == (got[s],) and got[s] == cell / cond
    with pytest.raises(ValueError, match="target coordinate"):
        model.conditional_measure(omega, cond_labels + ((at, 0),), at, symbols)
    return got


class TestLawTwin:
    """conditional_measure, the one conditional rule: over every symbol it is
    the label law, equal to the normalised cell measures exactly, and for
    one symbol a quotient of cell measures; it raises where they find a
    null cell."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_product_models_on_z2(self, data):
        models = [*all_models()[:2],
                  RandomAlphabetModel.create(Z2, [0.5, 0.5], [[1, 0], [0.5, 0.5]])]
        model = data.draw(st.sampled_from(models), label="model")
        omega = model.sample_omega(data.draw(st.integers(0, 10 ** 6), label="omega seed"))
        at = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), label="at")
        sites = data.draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                  max_size=10), label="sites") - {at}
        cond = tuple((c, data.draw(st.integers(0, 1))) for c in sorted(sites))
        # Sites are independent given omega: no other label matters.
        _agrees_with_normalised_law(model, omega, cond, at, ())

    @settings(max_examples=80)
    @given(rows=chains, data=st.data())
    def test_markov_chains(self, rows, data):
        model = MarkovModel.create([[Fraction(v, sum(r)) for v in r] for r in rows])
        try:
            model.stationary
        except ValueError:  # no unique stationary vector
            return
        at = (data.draw(st.integers(-3, 3), label="at"),)
        sites = data.draw(st.sets(st.tuples(st.integers(-12, 12)), max_size=7),
                          label="sites") - {at}
        cond = tuple((c, data.draw(st.integers(0, len(rows) - 1))) for c in sorted(sites))
        _agrees_with_normalised_law(model, None, cond, at, _nearest_sites(sites, at))

    @settings(max_examples=40)
    @given(data=st.data())
    def test_markov_chain_with_a_transient_state(self, data):
        # pi = (0, 1): a label 0 anywhere makes the cell null.
        model = MarkovModel.create([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
        sites = data.draw(st.sets(st.tuples(st.integers(-6, 6)), max_size=5)) - {(0,)}
        cond = tuple((c, data.draw(st.integers(0, 1))) for c in sorted(sites))
        got = _agrees_with_normalised_law(model, None, cond, (0,), _nearest_sites(sites, (0,)))
        assert got == (ZeroMeasureError if any(s == 0 for _, s in cond) else (0, 1))

    @settings(max_examples=30)
    @given(data=st.data())
    def test_coset_chains(self, data):
        # No rule says which labels matter here, so the reference joins them all.
        model = coset_chain_model()
        points = st.tuples(st.integers(-2, 2), st.integers(-1, 1), st.integers(-2, 2))
        at = data.draw(points, label="at")
        sites = data.draw(st.sets(points, max_size=8), label="sites") - {at}
        cond = tuple((c, data.draw(st.integers(0, 1))) for c in sorted(sites))
        _agrees_with_normalised_law(model, None, cond, at, sites)

    @pytest.mark.parametrize("model", [*all_models(), coset_chain_model()],
                             ids=["bernoulli", "mixed", "markov", "coset-chain"])
    def test_a_conditioning_cell_holding_the_target_raises(self, model):
        e = model.group.identity()
        with pytest.raises(ValueError, match="target coordinate"):
            model.conditional_measure(constant_omega(model), ((e.coords, 0),), e.coords, [0, 1])


class TestMarkovConditionalEntropy:
    # Its values, null neighbour cells included, are checked against
    # exhaustive enumeration in test_entropy.py.
    def test_a_conditioning_set_holding_the_target_raises(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="target coordinate"):
            model.conditional_entropy(subset_from_coords(Z1, [(-1,), (0,), (2,)]))


def test_partition_spec_validation():
    model = BernoulliModel.create(Z1, [0.7, 0.3])
    xi = canonical_partition(model)
    assert xi.atoms == 2
    with pytest.raises(ValueError):
        PartitionSpec(0)
