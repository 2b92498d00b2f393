"""RDS core: action convention, cocycle law, samplers."""

import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberent.rds as rds
import fiberent.rng as rng
from fiberent.groups import (
    FiniteSubset,
    GroupMismatchError,
    HeisenbergGroup,
    ZdGroup,
    mul,
    random_element,
    require_same_group,
    subset,
)
from fiberent.rds import (
    BernoulliModel,
    ConditionalSampler,
    FixedSampler,
    MarkovModel,
    MarkovPathSampler,
    ProductSampler,
    RandomAlphabetModel,
    SkewPoint,
    SymbolicConfiguration,
    _BATCH_MIN,
    _chain_tables,
    _cumulative,
    _draw,
    _walk,
    check_cocycle,
    configuration_from_pins,
    constant_configuration,
    exact_distribution,
    mean_and_se,
    sample_point,
    shift,
    skew,
)

from conftest import coset_chain_model, coset_chain_point

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

    def test_other_numbers_are_read_by_their_text(self):
        assert exact_distribution([Decimal("0.7"), Decimal("0.3")]) == (
            Fraction(7, 10), Fraction(3, 10))

    def test_invalid_distributions_rejected(self):
        with pytest.raises(ValueError):
            exact_distribution([0.7, 0.4])
        with pytest.raises(ValueError):
            exact_distribution([1.2, -0.2])
        with pytest.raises(ValueError):
            exact_distribution([])


class TestMeanAndSe:
    def test_sample_mean_and_standard_error(self):
        assert mean_and_se([1.0, 2.0, 3.0]) == (2.0, pytest.approx((1 / 3) ** 0.5, rel=1e-15))
        assert mean_and_se([2.5]) == (2.5, 0.0)

    def test_an_empty_sample_is_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            mean_and_se([])


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

    def test_offset_is_the_coordinate_tuple_of_the_product(self):
        x = configuration_from_pins(H, 2, {})
        g1, g2 = H.element(1, 2, 3), H.element(-2, 1, 0)
        assert x.offset == (0, 0, 0)
        assert shift(shift(x, g1), g2).offset == mul(g2, g1).coords

    @pytest.mark.parametrize("config_group, element", [
        (Z2, Z1.element(1)), (H, ZdGroup(3).element(1, 0, 0)), (ZdGroup(3), H.element(1, 0, 0))],
        ids=["z2-z1", "heisenberg-z3", "z3-heisenberg"])
    def test_shift_rejects_an_element_of_another_group(self, config_group, element):
        x = constant_configuration(config_group, 2)
        with pytest.raises(GroupMismatchError):
            shift(x, element)
        with pytest.raises(GroupMismatchError):
            skew(BernoulliModel.create(config_group, [0.5, 0.5]), element, SkewPoint(x, x))

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
        s1 = MarkovPathSampler(model._sampler_tables, 61)
        s2 = MarkovPathSampler(model._sampler_tables, 61)
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

    @pytest.mark.parametrize("base, rows, reason", [
        ([0.5, 0.5], [[0.5, 0.5]], "one fiber distribution per base symbol"),
        ([1.0], [[0.5, 0.5], [0.9, 0.1]], "one fiber distribution per base symbol"),
        ([0.5, 0.5], [[0.5, 0.5], [0.2, 0.3, 0.5]], "share one alphabet"),
    ])
    def test_random_alphabet_rows_must_match_the_base_and_each_other(self, base, rows, reason):
        with pytest.raises(ValueError, match=reason):
            RandomAlphabetModel.create(Z1, base, rows)

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
    "product": lambda seed: ProductSampler(_cumulative(exact_distribution([0.2, 0.5, 0.3])), seed),
    "conditional": lambda seed: ConditionalSampler(
        ProductSampler(_cumulative(exact_distribution([0.4, 0.6])), seed + 1),
        tuple(map(_cumulative, _ROWS)), seed),
    "markov": lambda seed: MarkovPathSampler(_CHAIN._sampler_tables, seed),
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


# 2- and 3-state chains; the last two have a transient state 1 (pi_1 = 0),
# whose reversed row is pi.
WALK_CHAINS = {
    "two": MarkovModel.create([[0.9, 0.1], [0.2, 0.8]]),
    "three": MarkovModel.create([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.6, 0.4, 0]]),
    "two-transient": MarkovModel.create([[1, 0], [0.2, 0.8]]),
    "three-transient": MarkovModel.create([[0.7, 0, 0.3], [0.3, 0.3, 0.4], [0.5, 0, 0.5]]),
}


class TestArrayWalk:
    """`MarkovPathSampler.symbols` walks by a prefix scan of step maps;
    `symbol_at` steps one `_draw` at a time.  They must agree bit for bit."""

    @settings(max_examples=200)
    @given(chain=st.sampled_from(sorted(WALK_CHAINS)), data=st.data())
    def test_scan_equals_step_by_step(self, chain, data):
        rows = tuple(_cumulative(row) for row in WALK_CHAINS[chain].transition)
        # cumulative entries themselves hit the <= ties of each compare
        ties = sorted({c for row in rows for c in row} | {0.0})
        u = data.draw(st.lists(st.one_of(st.sampled_from(ties), st.floats(0, 1, exclude_max=True)),
                               max_size=70), label="u")
        s = data.draw(st.integers(0, len(rows) - 1), label="start")
        expected = []
        for v in u:
            s_prev = expected[-1] if expected else s
            expected.append(_draw(rows[s_prev], v))
        assert _walk(np.array(rows), s, np.array(u, dtype=float)) == expected

    @pytest.mark.parametrize("chain", sorted(WALK_CHAINS))
    @pytest.mark.parametrize("seed", [3, 41, 2**64 - 1])
    def test_windows_right_then_left_then_both(self, chain, seed):
        model = WALK_CHAINS[chain]
        batch = MarkovPathSampler(model._sampler_tables, seed)
        scalar = MarkovPathSampler(model._sampler_tables, seed)
        for lo, hi in [(0, 130), (-75, 0), (-200, 260), (-201, -201), (261, 261)]:
            window = [(k,) for k in range(lo, hi + 1)]
            assert batch.symbols(window) == [scalar.symbol_at(c) for c in window]

    @pytest.mark.parametrize("chain", sorted(WALK_CHAINS))
    def test_scalar_and_window_reads_interleave(self, chain):
        model = WALK_CHAINS[chain]
        mixed = MarkovPathSampler(model._sampler_tables, 77)
        reference = MarkovPathSampler(model._sampler_tables, 77)
        reads = [(5,), [(k,) for k in range(-3, 20)], (-40,), [(k,) for k in range(-50, 60)],
                 (90,), [(100,), (-3,), (-100,)], (-101,), [(k,) for k in range(95, 110)]]
        for read in reads:
            if isinstance(read, list):
                assert mixed.symbols(read) == [reference.symbol_at(c) for c in read]
            else:
                assert mixed.symbol_at(read) == reference.symbol_at(read)
        assert mixed.symbols([(k,) for k in range(-101, 110)]) == [
            reference.symbol_at((k,)) for k in range(-101, 110)]


@pytest.mark.parametrize("n", [1, _BATCH_MIN - 1, _BATCH_MIN, 300])
def test_markov_path_is_two_lists_out_to_the_farthest_read(n):
    """A read of -n..n holds positions 0..n and 0..-n, each once, and rereads
    or a scalar read inside them draw nothing more."""
    sampler, scalar = SAMPLERS["markov"](89), SAMPLERS["markov"](89)
    window = [(k,) for k in range(-n, n + 1)]
    assert sampler.symbols(window) == [scalar.symbol_at(c) for c in window]
    assert len(sampler._right) == len(sampler._left) == n + 1
    assert sampler.symbols(window[::-1]) == [scalar.symbol_at(c) for c in window[::-1]]
    ends = [(n,), (-n,), (0,)]
    assert [sampler.symbol_at(c) for c in ends] == [scalar.symbol_at(c) for c in ends]
    assert len(sampler._right) == len(sampler._left) == len(scalar._right) == n + 1
    assert not hasattr(sampler, "_memo")


def test_skew_point_group_mismatch():
    omega = constant_configuration(Z1, 1)
    x = constant_configuration(Z2, 2)
    with pytest.raises(Exception):
        SkewPoint(omega, x)


def test_models_and_shifted_pinned_points_pickle():
    # --workers sends models to worker processes, which draw their own
    # points from (seed, index); a pinned point, shifted to a tuple offset,
    # survives the round trip too.
    for model in (*all_models(), coset_chain_model()):
        group = model.group
        assert pickle.loads(pickle.dumps(model)) == model
        g = random_element(group, 3, 53, model.kind)
        pins = {c: sum(c) % 2 for c in window_for(group, 3).coords}
        x = configuration_from_pins(group, 2, pins)
        moved = skew(model, g, SkewPoint(constant_configuration(group, 1), x))
        moved2 = pickle.loads(pickle.dumps(moved))
        assert moved2.x.offset == moved.x.offset == g.coords
        assert moved2.x.agrees_on(moved.x, window_for(group, 4))


class TestHoistedReads:
    """Work moved out of the per-point and per-read loops gives the reads it
    replaced."""

    @pytest.mark.parametrize("kind", ["product", "conditional"])
    def test_an_all_unread_window_with_a_repeat_equals_scalar_reads(self, kind):
        repeats = ((0, 0), (3, -1), (0, 0), (-2, 5), (3, -1), (0, 0))
        window = rng.Tails(repeats + tuple((k, -k) for k in range(10, 10 + _BATCH_MIN)))
        batch, scalar = SAMPLERS[kind](41), SAMPLERS[kind](41)
        expected = [scalar.symbol_at(c) for c in window]
        assert batch.symbols(window) == expected
        assert "blocks" in vars(window)  # reached rng as the caller's own tuple
        assert batch.symbols(window) == expected  # drawn whole again, to the same symbols
        assert [batch.symbol_at(c) for c in window] == expected

    @pytest.mark.parametrize("chain", sorted(WALK_CHAINS))
    def test_markov_sampler_from_the_models_tables(self, chain):
        model = WALK_CHAINS[chain]
        fresh = _chain_tables(model.transition, model.stationary)
        assert model._sampler_tables == fresh
        window = [(k,) for k in range(-3000, 3001)]
        from_model = MarkovPathSampler(model._sampler_tables, 19)
        reference = MarkovPathSampler(fresh, 19)
        assert from_model.symbols(window) == [reference.symbol_at(c) for c in window]

    def test_models_build_their_sampler_tables_once(self):
        bernoulli, mixed, markov = all_models()
        assert mixed._sampler_tables == (_cumulative(mixed.base_p),
                                         tuple(map(_cumulative, mixed.fiber_ps)))
        for index in range(2):  # every point's samplers read the same tables
            point = sample_point(mixed, 3, index)
            assert point.omega.sampler.cumulative is mixed._sampler_tables[0]
            assert point.x.sampler.cumulatives is mixed._sampler_tables[1]
            x = sample_point(bernoulli, 3, index).x
            assert x.sampler.cumulative is bernoulli._sampler_tables[1][0]
            x = sample_point(markov, 3, index).x
            assert (x.sampler.fwd, x.sampler.bwd, x.sampler.start) == markov._sampler_tables
            assert x.sampler.fwd is markov._sampler_tables[0]


class TestPureBatchReads:
    """A read of _BATCH_MIN or more sites is drawn whole and leaves every
    memo alone, since a draw is a pure function of stream and site; a
    smaller read goes through the memo."""

    @pytest.mark.parametrize("kind", ["product", "conditional"])
    def test_only_small_reads_fill_the_memos(self, kind):
        window = [(k, 3 - 2 * k) for k in range(_BATCH_MIN)]
        sampler, scalar = SAMPLERS[kind](103), SAMPLERS[kind](103)
        samplers = (sampler, getattr(sampler, "governor", sampler))
        assert sampler.symbols(window) == [scalar.symbol_at(c) for c in window]
        assert [s._memo for s in samplers] == [{}, {}]
        small = window[1:]
        assert sampler.symbols(small) == [scalar.symbol_at(c) for c in small]
        assert [sorted(s._memo) for s in samplers] == [sorted(small)] * 2

    def test_cocycle_checks_leave_both_memos_empty(self):
        window = H.box(3, 3, 9)  # the shipped 81-site window
        for model in (BernoulliModel.create(H, [0.7, 0.3]),
                      RandomAlphabetModel.create(H, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]])):
            p = sample_point(model, 3, 0)
            for i in range(5):
                g1, g2 = (random_element(H, 3, 107, side, i) for side in ("g1", "g2"))
                assert check_cocycle(model, g1, g2, p, window)
            assert [getattr(s, "_memo", {}) for s in (p.omega.sampler, p.x.sampler)] == [{}, {}]


def agrees_site_by_site(a, b, window):
    """agrees_on's scalar twin: every site read with value_at, one by one."""
    return all(a.value_at(c) == b.value_at(c) for c in window.coords)


def first_sites(group, box, n):
    """n sites of a box, as a window: sizes either side of _BATCH_MIN."""
    return FiniteSubset(group, frozenset(sorted(box.coords)[:n]))


class TestWholeWindowReads:
    """agrees_on reads each side whole with values_at, in blocks; small
    unread sets are drawn one by one.  Every read equals its scalar twin."""

    SIZES = (_BATCH_MIN - 1, _BATCH_MIN, _BATCH_MIN + 1)

    def windows(self, group):
        if isinstance(group, HeisenbergGroup):
            return [first_sites(group, group.box(5, 5, 25), n) for n in self.SIZES] + [
                group.box(3, 3, 9)]  # the shipped 81-site window
        if group.d == 1:
            return [group.box(n) for n in self.SIZES]
        return [first_sites(group, group.box(6, 6), n) for n in self.SIZES]

    def models(self):
        return [*all_models(), BernoulliModel.create(H, [0.7, 0.3]),
                RandomAlphabetModel.create(H, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]])]

    def test_cocycle_sides_agree_as_site_by_site(self):
        for model in self.models():
            group = model.group
            for w, window in enumerate(self.windows(group)):
                for i in range(4):
                    g1 = random_element(group, 3, 61, "g1", w, i)
                    g2 = random_element(group, 3, 61, "g2", w, i)
                    sides = []
                    for _ in range(2):  # twin points: fresh samplers, no shared memo
                        p = sample_point(model, 67, i)
                        lhs = skew(model, g2, skew(model, g1, p))
                        sides.append((lhs.x, skew(model, mul(g2, g1), p).x))
                    assert sides[0][0].agrees_on(sides[0][1], window)
                    assert agrees_site_by_site(*sides[1], window)

    def test_shifted_pairs_agree_as_site_by_site(self):
        # A point against its own shift mostly differs: both answers occur.
        seen = set()
        for model in self.models():
            group = model.group
            for w, window in enumerate(self.windows(group)):
                for i in range(6):
                    g = random_element(group, 1, 71, w, i)
                    fast, slow = sample_point(model, 73, i).x, sample_point(model, 73, i).x
                    got = fast.agrees_on(shift(fast, g), window)
                    assert got == agrees_site_by_site(slow, shift(slow, g), window)
                    seen.add(got)
        assert seen == {True, False}

    def test_pinned_and_coset_chain_points(self):
        model = coset_chain_model()
        for w, window in enumerate(self.windows(H)):
            for i in range(4):
                p = coset_chain_point(80 + i)
                g = random_element(H, 2, 79, w, i)
                moved = skew(model, g, p).x
                assert p.x.agrees_on(moved, window) == agrees_site_by_site(p.x, moved, window)
                assert moved.agrees_on(moved, window)
        pins = {(k,): k % 2 for k in range(40)}
        a, b = configuration_from_pins(Z1, 2, pins), configuration_from_pins(Z1, 2, dict(pins))
        for window in self.windows(Z1):
            assert a.agrees_on(b, window) and not a.agrees_on(shift(b, Z1.element(1)), window)

    def test_sites_past_int64_fall_back_to_scalar_draws(self):
        far = Z1.element(2**63 - 10)  # the window runs past 2^63 - 1
        model = BernoulliModel.create(Z1, [0.5, 0.5])
        window = Z1.box(_BATCH_MIN + 20)
        fast, slow = sample_point(model, 83, 0).x, sample_point(model, 83, 0).x
        expected = [shift(slow, far).value_at(c) for c in sorted(window.coords)]
        assert shift(fast, far).values_at(sorted(window.coords)) == expected
        fast, slow = sample_point(model, 83, 1).x, sample_point(model, 83, 1).x
        for g in (far, Z1.element(-(2**64)), Z1.identity()):
            assert shift(fast, g).agrees_on(shift(fast, g), window)
            got = shift(fast, g).agrees_on(shift(fast, Z1.element(2**63)), window)
            assert got == agrees_site_by_site(shift(slow, g), shift(slow, Z1.element(2**63)), window)

    def test_one_differing_site_in_the_last_block(self):
        window = Z1.box(rng._BLOCK + 7)
        last = list(window.coords)[-1]  # read in the last block
        a = configuration_from_pins(Z1, 2, {})
        assert not a.agrees_on(configuration_from_pins(Z1, 2, {last: 1}), window)
        assert a.agrees_on(configuration_from_pins(Z1, 2, {(-1,): 1}), window)
        x = sample_point(BernoulliModel.create(Z1, [0.5, 0.5]), 89, 0).x
        pins = {c: x.value_at(c) for c in window.coords}
        assert x.agrees_on(configuration_from_pins(Z1, 2, pins), window)
        pins[last] = 1 - pins[last]
        assert not x.agrees_on(configuration_from_pins(Z1, 2, pins), window)

    def test_reads_stop_at_the_first_differing_block(self, monkeypatch):
        class CountingSampler(FixedSampler):
            def symbols(self, coords):
                self.reads += 1
                return super().symbols(coords)

        monkeypatch.setattr(rds, "_BLOCK", 4)
        window = Z1.box(12)
        first = list(window.coords)[0]
        a, b = CountingSampler({}, 0), CountingSampler({first: 1}, 0)
        a.reads = b.reads = 0
        offset = (0,)
        assert not SymbolicConfiguration(Z1, a, offset).agrees_on(
            SymbolicConfiguration(Z1, b, offset), window)
        assert (a.reads, b.reads) == (1, 1)
        b.pins = {}
        assert SymbolicConfiguration(Z1, a, offset).agrees_on(
            SymbolicConfiguration(Z1, b, offset), window)
        assert (a.reads, b.reads) == (4, 4)

    @pytest.mark.parametrize("kind", ["product", "conditional", "fixed"])
    @pytest.mark.parametrize("n", [_BATCH_MIN - 1, _BATCH_MIN, _BATCH_MIN + 1])
    def test_read_either_side_of_the_batch_size(self, kind, n):
        sites = [(k, 2 * k - 5) for k in range(n)]
        window = sites + sites[::3]  # repeats, and n unread sites
        for warm in ([], sites[:2], sites[: n // 2]):
            batch, scalar = SAMPLERS[kind](97), SAMPLERS[kind](97)
            batch.symbols(warm)
            expected = [scalar.symbol_at(c) for c in window]
            assert batch.symbols(window) == expected
            assert batch.symbols(tuple(window)) == expected  # read again, as a tuple

    @pytest.mark.parametrize("n", [_BATCH_MIN - 1, _BATCH_MIN, _BATCH_MIN + 1])
    def test_markov_extensions_either_side_of_the_batch_size(self, n):
        batch, scalar = SAMPLERS["markov"](101), SAMPLERS["markov"](101)
        reads = [[(0,), (3,), (3,)], [(k,) for k in range(n + 3)] + [(1,), (n + 2,)],
                 [(-n,), (-n,), (2,)], [(-n - k,) for k in range(n + 1)] * 2,
                 [(n + 3 + n - 1,), (-2 * n - (n - 1),)]]
        for read in reads:
            assert batch.symbols(read) == [scalar.symbol_at(c) for c in read]


class TestValueSemantics:
    """Configurations and skew points are values: equal fields make equal,
    equally hashed objects, and groups are checked by equality."""

    def test_configurations_compare_and_hash_by_their_fields(self):
        sampler = FixedSampler({(1, 1): 1}, 0)
        a = SymbolicConfiguration(Z2, sampler, (2, 3))
        b = SymbolicConfiguration(ZdGroup(2), sampler, (2, 3))
        assert (a.group, a.sampler, a.offset) == (Z2, sampler, (2, 3))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SymbolicConfiguration(Z2, sampler, (2, 4))
        assert a != SymbolicConfiguration(Z2, FixedSampler({(1, 1): 1}, 0), (2, 3))
        assert a != SymbolicConfiguration(ZdGroup(3), sampler, (2, 3))
        assert a != (Z2, sampler, (2, 3))
        assert "offset=(2, 3)" in repr(a)

    def test_skew_points_compare_and_hash_by_their_fields(self):
        omega, x = constant_configuration(Z2, 1), configuration_from_pins(Z2, 2, {(0, 0): 1})
        p = SkewPoint(omega, x)
        assert (p.omega, p.x) == (omega, x)
        q = SkewPoint(constant_configuration(ZdGroup(2), 1), x)
        assert p != q  # another FixedSampler object
        assert p == SkewPoint(omega, x) and hash(p) == hash(SkewPoint(omega, x))
        assert p != SkewPoint(x, omega) and p != x
        with pytest.raises(GroupMismatchError, match="different groups"):
            SkewPoint(omega, constant_configuration(Z1, 1))
        with pytest.raises(GroupMismatchError):
            SkewPoint(constant_configuration(H, 1), constant_configuration(ZdGroup(3), 1))

    @pytest.mark.parametrize("make_group", [lambda: ZdGroup(2), HeisenbergGroup],
                             ids=["z2", "heisenberg"])
    def test_an_equal_group_of_another_object_passes_every_check(self, make_group):
        group, twin = make_group(), make_group()
        assert group == twin and group is not twin
        model = RandomAlphabetModel.create(group, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]])
        point = sample_point(model, 23, 0)
        x = SymbolicConfiguration(twin, point.x.sampler, point.x.offset)
        moved = SkewPoint(point.omega, x)  # omega over group, x over twin
        g = twin.element(*([1] * len(point.x.offset)))
        window = window_for(twin, 2)
        assert shift(x, g).offset == g.coords
        assert x.value(twin.identity()) == point.x.value(group.identity())
        assert x.agrees_on(point.x, window) and point.x.agrees_on(x, window)
        assert skew(model, g, moved).x.agrees_on(skew(model, g, point).x, window)
        assert check_cocycle(model, g, g, moved, window)
        assert g in window_for(group, 2) and subset(group, [g]).is_subset(window)
        require_same_group(group, x.group)
        require_same_group(twin, point.x.group)
