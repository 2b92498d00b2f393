"""RDS core: action convention, cocycle law, samplers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberent.groups import HeisenbergGroup, ZdGroup, mul, random_element
from fiberent.rds import (
    BernoulliModel,
    ConditionalSampler,
    FixedSampler,
    MarkovModel,
    MarkovPathSampler,
    ProductSampler,
    RandomAlphabetModel,
    SkewPoint,
    check_cocycle,
    configuration_from_pins,
    constant_configuration,
    exact_distribution,
    sample_point,
    shift,
    skew,
)

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)
H = HeisenbergGroup()


def all_models():
    return [
        BernoulliModel.create(Z2, [0.7, 0.3]),
        RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]]),
        MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
    ]


def window_for(group, n=4):
    if isinstance(group, HeisenbergGroup):
        return group.box(n, n, n * n)
    return group.box(*([n] * group.d))


class TestExactDistribution:
    def test_decimal_literals_become_exact_fractions(self):
        assert exact_distribution([0.7, 0.3]) == (Fraction(7, 10), Fraction(3, 10))

    def test_fractions_pass_through(self):
        d = exact_distribution([Fraction(1, 3), Fraction(2, 3)])
        assert d == (Fraction(1, 3), Fraction(2, 3))

    def test_float_drift_is_renormalized_exactly(self):
        d = exact_distribution([1 / 3, 2 / 3])
        assert sum(d) == 1
        assert abs(float(d[0]) - 1 / 3) < 1e-15

    def test_invalid_distributions_rejected(self):
        with pytest.raises(ValueError):
            exact_distribution([0.7, 0.4])
        with pytest.raises(ValueError):
            exact_distribution([1.2, -0.2])
        with pytest.raises(ValueError):
            exact_distribution([])


class TestShiftConvention:
    def test_shifted_value_reads_translated_coordinate(self):
        # (g . c)_h = c_{h g}; at h = e this is c_g.
        omega = configuration_from_pins(Z1, 2, {(0,): 0, (1,): 1})
        g = Z1.element(1)
        assert shift(omega, g).value(Z1.identity()) == omega.value(g)
        assert shift(omega, g).value(Z1.identity()) == 1

    def test_shift_composes_as_group_action(self):
        pins = {(a, b, c): (a + 2 * b + 3 * c) % 5 for a in range(2) for b in range(2) for c in range(3)}
        omega = configuration_from_pins(H, 5, pins)
        g1 = H.element(1, 0, 0)
        g2 = H.element(0, 1, 0)
        lhs = shift(shift(omega, g1), g2)
        rhs = shift(omega, mul(g2, g1))
        assert lhs.agrees_on(rhs, H.box(3, 3, 9))

    def test_base_action_composition_random_coords(self):
        for model in all_models():
            group = model.group
            omega = model.sample_omega(11)
            for i in range(100):
                g1 = random_element(group, 3, 5, "a", i)
                g2 = random_element(group, 3, 5, "b", i)
                h = random_element(group, 6, 5, "h", i)
                lhs = shift(shift(omega, g1), g2)
                rhs = shift(omega, mul(g2, g1))
                assert lhs.value(h) == rhs.value(h)


class TestCocycle:
    def test_identity_maps(self):
        for model in all_models():
            group = model.group
            p = sample_point(model, 17, 0)
            e = group.identity()
            assert check_cocycle(model, e, e, p, window_for(group))

    def test_random_cocycle_checks_all_models(self):
        for model in all_models():
            group = model.group
            window = window_for(group)
            for i in range(100):
                p = sample_point(model, 23, i)
                g1 = random_element(group, 3, 29, "g1", i)
                g2 = random_element(group, 3, 29, "g2", i)
                assert check_cocycle(model, g1, g2, p, window)

    def test_corrupted_fiber_map_fails_cocycle(self):
        class CorruptedModel(BernoulliModel):
            # phi(1) = 2 is not a homomorphism, so the cocycle law breaks.
            def fiber_map(self, g, omega, x):
                step = self.group.element(2) if g.coords == (1,) else g
                return shift(x, step)

        model = CorruptedModel.create(Z1, [0.5, 0.5])
        model = CorruptedModel(model.group, model.p)
        p = sample_point(model, 31, 0)
        g = Z1.element(1)
        assert not check_cocycle(model, g, g, p, Z1.box(16))

    def test_inverse_fiber_map_is_inverse(self):
        for model in all_models():
            group = model.group
            window = window_for(group)
            for i in range(20):
                p = sample_point(model, 37, i)
                g = random_element(group, 3, 41, i)
                omega_g = shift(p.omega, g)
                back = model.fiber_map(g.inverse(), omega_g, model.fiber_map(g, p.omega, p.x))
                assert back.agrees_on(p.x, window)

    def test_skew_composes(self):
        for model in all_models():
            group = model.group
            window = window_for(group)
            p = sample_point(model, 43, 0)
            g1 = random_element(group, 2, 47, "g1")
            g2 = random_element(group, 2, 47, "g2")
            two_step = skew(model, g2, skew(model, g1, p))
            one_step = skew(model, mul(g2, g1), p)
            assert two_step.omega.agrees_on(one_step.omega, window)
            assert two_step.x.agrees_on(one_step.x, window)


class TestSamplers:
    def test_product_sampler_determinism(self):
        model = BernoulliModel.create(Z2, [0.7, 0.3])
        x1 = model.sample_x(model.sample_omega(3), 51)
        x2 = model.sample_x(model.sample_omega(3), 51)
        window = Z2.box(6, 6)
        assert x1.agrees_on(x2, window)
        assert all(x1.value(g) == x1.value(g) for g in window)

    def test_sample_point_streams_are_reproducible(self):
        for model in all_models():
            window = window_for(model.group)
            a = sample_point(model, 57, 4)
            b = sample_point(model, 57, 4)
            assert a.omega.agrees_on(b.omega, window)
            assert a.x.agrees_on(b.x, window)
            c = sample_point(model, 57, 5)
            assert not (
                a.omega.agrees_on(c.omega, window) and a.x.agrees_on(c.x, window)
            )

    def test_markov_extension_order_independent(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        s1 = MarkovPathSampler(model.transition, model.stationary, 61)
        s2 = MarkovPathSampler(model.transition, model.stationary, 61)
        order1 = [(5,), (-3,), (0,), (2,), (-7,)]
        order2 = [(-7,), (0,), (5,), (-3,), (2,)]
        vals1 = {c: s1.symbol_at(c) for c in order1}
        vals2 = {c: s2.symbol_at(c) for c in order2}
        assert vals1 == vals2
        for k in range(-7, 6):
            assert s1.symbol_at((k,)) == s2.symbol_at((k,))

    def test_markov_stationary_is_exact(self):
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        assert model.stationary == (Fraction(2, 3), Fraction(1, 3))

    def test_markov_sampler_matches_cylinder_law(self):
        # P(x_{-1} = 0, x_0 = 0) = pi_0 P_00 = 3/5; 4 sigma at 3000 draws.
        model = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
        n = 3000
        hits = sum(
            1
            for i in range(n)
            if (p := sample_point(model, 99, i)).x.value_at((-1,)) == 0
            and p.x.value_at((0,)) == 0
        )
        assert abs(hits / n - 0.6) < 4 * (0.6 * 0.4 / n) ** 0.5

    def test_markov_chain_with_a_transient_state(self):
        # state 1 leaks into the absorbing state 0, so pi = (1, 0) and the
        # stationary chain never enters state 1 in either direction
        model = MarkovModel.create([[1, 0], [0.2, 0.8]])
        assert model.stationary == (Fraction(1), Fraction(0))
        for i in range(5):
            x = sample_point(model, 83, i).x
            assert [x.value_at((k,)) for k in range(-6, 7)] == [0] * 13

    def test_random_alphabet_fiber_follows_base(self):
        # fiber row 1 is (1, 0): wherever omega reads 1, x must read 0.
        model = RandomAlphabetModel.create(Z1, [0.5, 0.5], [[0.5, 0.5], [1.0, 0.0]])
        p = sample_point(model, 71, 0)
        saw_forced = False
        for k in range(-50, 50):
            if p.omega.value_at((k,)) == 1:
                saw_forced = True
                assert p.x.value_at((k,)) == 0
        assert saw_forced

    def test_pins_override_sampler(self):
        cfg = configuration_from_pins(Z1, 3, {(2,): 2}, fill=1)
        assert cfg.value(Z1.element(2)) == 2
        assert cfg.value(Z1.element(3)) == 1
        with pytest.raises(ValueError):
            configuration_from_pins(Z1, 2, {(0,): 5})

    def test_fill_must_lie_in_the_alphabet(self):
        with pytest.raises(ValueError):
            constant_configuration(Z1, 2, 5)
        with pytest.raises(ValueError):
            configuration_from_pins(Z1, 2, {}, fill=7)
        with pytest.raises(ValueError):
            configuration_from_pins(Z1, 2, {}, fill=-1)
        assert constant_configuration(Z1, 2, 1).value_at((9,)) == 1


_CHAIN = MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])
_ROWS = exact_distribution([0.5, 0.5]), exact_distribution([0.9, 0.1])
# Each maker builds a fresh sampler from a seed; twins share no memo.
SAMPLERS = {
    "product": lambda seed: ProductSampler(exact_distribution([0.2, 0.5, 0.3]), seed),
    "conditional": lambda seed: ConditionalSampler(
        ProductSampler(exact_distribution([0.4, 0.6]), seed + 1), _ROWS, seed),
    "markov": lambda seed: MarkovPathSampler(_CHAIN.transition, _CHAIN.stationary, seed),
    "fixed": lambda seed: FixedSampler({(seed % 5, 0): 1, (-3, 2): 2, (4, 1): 2}, 0),
}
z2_sites = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
z1_sites = st.tuples(st.integers(-40, 40))


class TestWindowReads:
    """`symbols` and `values_at` against their scalar twins."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 2), data=st.data())
    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_symbols_equal_symbol_at(self, kind, seed, data):
        sites = z1_sites if kind == "markov" else z2_sites
        window = data.draw(st.lists(sites, max_size=30), label="window")
        warm = data.draw(st.lists(sites, max_size=30), label="warm-up")
        make = SAMPLERS[kind]
        expected = [make(seed).symbol_at(c) for c in window]
        assert make(seed).symbols(window) == expected
        scalar_warmed, batch_warmed = make(seed), make(seed)
        for c in reversed(warm):
            scalar_warmed.symbol_at(c)
        batch_warmed.symbols(warm[::2])
        batch_warmed.symbols(warm[1::2])
        assert scalar_warmed.symbols(window) == expected
        assert batch_warmed.symbols(window) == expected
        assert [batch_warmed.symbol_at(c) for c in window] == expected

    @pytest.mark.parametrize("lo, hi", [(0, 9), (-9, 0), (-9, 9), (5, 12), (-12, -5)])
    def test_markov_windows_on_both_sides_of_zero(self, lo, hi):
        window = [(k,) for k in range(lo, hi + 1)]
        batch, scalar = SAMPLERS["markov"](17), SAMPLERS["markov"](17)
        assert batch.symbols(window) == [scalar.symbol_at(c) for c in window]
        assert batch.symbols([(hi + 3,), (lo - 3,)]) == [scalar.symbol_at((hi + 3,)),
                                                       scalar.symbol_at((lo - 3,))]

    @settings(max_examples=40)
    @given(index=st.integers(0, 50), data=st.data())
    @pytest.mark.parametrize("group", [Z2, H], ids=["z2", "heisenberg"])
    def test_values_at_equals_value_at_on_shifted_configurations(self, group, index, data):
        model = RandomAlphabetModel.create(group, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]])
        g = random_element(group, 5, 23, "shift", index)
        coords = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * len(g.coords)),
                                    max_size=25), label="coords")
        a, b = sample_point(model, 29, index), sample_point(model, 29, index)
        for x, y in ((a.x, b.x), (a.omega, b.omega)):
            assert shift(x, g).values_at(coords) == [shift(y, g).value_at(c) for c in coords]
            assert x.values_at(coords) == [y.value_at(c) for c in coords]


def test_skew_point_group_mismatch():
    omega = constant_configuration(Z1, 1)
    x = constant_configuration(Z2, 2)
    with pytest.raises(Exception):
        SkewPoint(omega, x)
