"""End-to-end acceptance suite.

Eight criteria, one test and one visible pass/fail line each, covering:
SMB convergence on the three solvable models, the exact conditional
entropy formula, the chain rule, cocycle and invariance laws, Folner
diagnostics, both covering constructions with negative controls, and
byte-level reproducibility across worker counts.

Tolerances are part of the contract and are stated inline; targets are
closed forms frozen to full precision.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

from fiberent.cli import EXIT_OK, main
from fiberent.covering import (
    CoverInstance,
    HypothesisError,
    RandomCoverInstance,
    check_hypotheses,
    greedy_cover,
    sample_many,
    verify_greedy_cover,
    verify_random_cover,
)
from fiberent.entropy import conditional_entropy_trace, smb_trace
from fiberent.folner import (
    box_folner,
    box_folner_sizes,
    folner_defect,
    heisenberg_folner,
    tempered_constant,
)
from fiberent.groups import (
    HeisenbergGroup,
    ZdGroup,
    inverse_set,
    product_set_size,
    random_element,
    subset_from_coords,
)
from fiberent.measures import canonical_partition, check_invariance
from fiberent.rds import (
    BernoulliModel,
    MarkovModel,
    RandomAlphabetModel,
    check_cocycle,
    sample_point,
)

Z1 = ZdGroup(1)
Z2 = ZdGroup(2)
Z3 = ZdGroup(3)
H = HeisenbergGroup()

BERNOULLI_TARGET = 0.6108643020548935
MIXED_TARGET = 0.5091150769756967
MARKOV_TARGET = 0.38352279010702806


def bernoulli_z2():
    return BernoulliModel.create(Z2, [0.7, 0.3])


def mixed_z2():
    return RandomAlphabetModel.create(Z2, [0.5, 0.5], [[0.5, 0.5], [0.9, 0.1]])


def markov():
    return MarkovModel.create([[0.9, 0.1], [0.2, 0.8]])


def report(capsys, num, ok, detail):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_smb_bernoulli(capsys):
    started = time.perf_counter()
    trace = smb_trace(bernoulli_z2(), box_folner(2, 32), trajectories=100, seed=424242)
    elapsed = time.perf_counter() - started
    final = trace.final
    ok = final.abs_error <= 0.02 and elapsed < 10.0
    assert abs(final.target - BERNOULLI_TARGET) <= 1e-15
    report(
        capsys, 1, ok,
        f"Bernoulli Z^2 mean rate {final.estimate:.6f} vs {BERNOULLI_TARGET:.6f}, "
        f"|err| {final.abs_error:.2e} <= 0.02, n up to 32, 100 trajectories, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_2_smb_nontrivial_base(capsys):
    trace = smb_trace(mixed_z2(), box_folner(2, 32), trajectories=100, seed=52)
    final = trace.final
    ok = final.abs_error <= 0.02
    assert abs(final.target - MIXED_TARGET) <= 1e-15
    report(
        capsys, 2, ok,
        f"mixed-alphabet mean rate {final.estimate:.6f} vs {MIXED_TARGET:.6f}, "
        f"|err| {final.abs_error:.2e} <= 0.02",
    )


def test_criterion_3_markov_conditional_and_smb(capsys):
    model = markov()
    cond = conditional_entropy_trace(model, box_folner(1, 12))
    tail = [row for row in cond.rows if row.n >= 2]
    cond_ok = all(abs(row.estimate - MARKOV_TARGET) <= 0.005 for row in tail)
    worst = max(abs(row.estimate - MARKOV_TARGET) for row in tail)

    seq = box_folner_sizes(1, [256, 1024, 4096])
    smb = smb_trace(model, seq, trajectories=30, seed=333)
    final = smb.final
    assert final.folner_size == 4096
    smb_ok = final.abs_error <= 0.02

    # supplementary dispersion evidence: independent single-point rates
    singles = [
        smb_trace(model, box_folner_sizes(1, [4096]), trajectories=1, seed=7000 + s)
        .final.abs_error
        for s in range(12)
    ]
    within = sum(1 for d in singles if d <= 0.02)

    report(
        capsys, 3, cond_ok and smb_ok,
        f"Markov conditional entropy |err| {worst:.2e} <= 0.005 for n in 2..12; "
        f"SMB mean |err| {final.abs_error:.2e} <= 0.02 at |F| = 4096 "
        f"({within}/12 single trajectories individually within 0.02)",
    )


def chain_rule_window(model, size):
    if model.group.tag == "zd:2":
        dims = {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                6: (3, 2), 7: (7, 1), 8: (4, 2), 9: (3, 3)}[size]
        return model.group.box(*dims)
    return Z1.box(size)


def test_criterion_4_chain_rule(capsys):
    from fiberent.entropy import chain_rule_residual, chain_rule_terms

    rng = random.Random(97)
    worst = 0.0
    orders_checked = 0
    for model in (bernoulli_z2(), mixed_z2(), markov()):
        mu = model
        xi = canonical_partition(model)
        for size in (1, 2, 3, 4):
            window = chain_rule_window(model, size)
            point = sample_point(model, 300 + size, 0)
            totals = []
            for order in permutations(window.sorted_elements()):
                worst = max(worst, chain_rule_residual(mu, xi, window, order, point))
                totals.append(math.fsum(chain_rule_terms(mu, xi, window, order, point)))
                orders_checked += 1
            assert max(totals) - min(totals) <= 1e-10
        for size in (5, 6, 7, 8, 9):
            window = chain_rule_window(model, size)
            point = sample_point(model, 400 + size, 1)
            elements = window.sorted_elements()
            totals = []
            for _ in range(200):
                order = elements[:]
                rng.shuffle(order)
                worst = max(worst, chain_rule_residual(mu, xi, window, order, point))
                totals.append(math.fsum(chain_rule_terms(mu, xi, window, order, point)))
                orders_checked += 1
            assert max(totals) - min(totals) <= 1e-10
    ok = worst <= 1e-10
    report(
        capsys, 4, ok,
        f"chain-rule residual {worst:.2e} <= 1e-10 over {orders_checked} orders "
        f"(exhaustive |F| <= 4, 200 sampled orders per size 5..9), "
        f"order-invariant totals to 1e-10",
    )


def test_criterion_5_cocycle_and_invariance(capsys):
    cocycle_passed = 0
    invariance_passed = 0
    for model in (bernoulli_z2(), mixed_z2(), markov()):
        group = model.group
        window = group.box(4, 4) if group.tag == "zd:2" else group.box(16)
        for i in range(1000):
            g1 = random_element(group, 4, 71, "g1", i)
            g2 = random_element(group, 4, 71, "g2", i)
            point = sample_point(model, 72, i)
            cocycle_passed += check_cocycle(model, g1, g2, point, window)
        mu = model
        xi = canonical_partition(model)
        small = group.box(2, 2) if group.tag == "zd:2" else group.box(3)
        for i in range(100):
            omega = sample_point(model, 5000 + i, i).omega
            g = random_element(group, 3, 73, "inv", i)
            invariance_passed += check_invariance(mu, g, omega, xi, small)
    ok = cocycle_passed == 3000 and invariance_passed == 300
    report(
        capsys, 5, ok,
        f"cocycle law {cocycle_passed}/3000 exact, "
        f"measure invariance {invariance_passed}/300 exact rational",
    )


def test_criterion_6_folner_diagnostics(capsys):
    pair = subset_from_coords(Z1, [(0,), (1,)])
    single = subset_from_coords(Z1, [(1,)])
    defects_ok = all(
        folner_defect(pair, Z1.box(n)) == Fraction(1, n)
        and folner_defect(single, Z1.box(n)) == Fraction(2, n)
        for n in range(1, 65)
    )

    seq1 = box_folner(1, 64)
    seq2 = box_folner(2, 64)
    tempered_ok = all(
        tempered_constant(seq1, n) == Fraction(2 * n - 2, n) <= 2
        for n in range(2, 65)
    ) and all(
        tempered_constant(seq2, n) == Fraction((2 * n - 2) ** 2, n ** 2) <= 4
        for n in range(2, 65)
    )
    for n in (2, 4, 8, 16, 32, 64):
        inner = Z3.box(n - 1, n - 1, n - 1)
        outer = Z3.box(n, n, n)
        got = Fraction(product_set_size(inverse_set(inner), outer), len(outer))
        tempered_ok = tempered_ok and got == Fraction((2 * n - 2) ** 3, n ** 3) <= 8

    generators = subset_from_coords(H, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    hseq = heisenberg_folner(4)
    at_2 = folner_defect(generators, hseq.set(2))
    at_4 = folner_defect(generators, hseq.set(4))
    heis_ok = at_2 == Fraction(5, 4) and at_4 == Fraction(153, 256) and at_4 < at_2

    ok = defects_ok and tempered_ok and heis_ok
    report(
        capsys, 6, ok,
        f"box defects match 1/n and 2/n closed forms for n <= 64; tempered "
        f"constants equal ((2n-2)/n)^d <= 2^d for d = 1, 2, 3; Heisenberg "
        f"generator defect {at_4} at n=4 < {at_2} at n=2 (exhaustive)",
    )


def grid2(xs, ys):
    return [(x, y) for x in xs for y in ys]


def greedy_suite():
    return [
        ("tiling", CoverInstance.create(
            Z1.box(10), [Z1.box(2)],
            [subset_from_coords(Z1, [(k,) for k in (0, 2, 4, 6, 8)])],
            Fraction(1, 10), Fraction(1, 2))),
        ("two-scale-z1", CoverInstance.create(
            Z1.box(36), [Z1.box(3), Z1.box(6)],
            [subset_from_coords(Z1, [(3 * k,) for k in range(12)]),
             subset_from_coords(Z1, [(6 * k,) for k in range(6)])],
            Fraction(1, 5), Fraction(1, 2))),
        ("overlap-chain", CoverInstance.create(
            Z1.box(50), [Z1.box(5)],
            [subset_from_coords(Z1, [(4 * k,) for k in range(12)])],
            Fraction(1, 4), Fraction(1, 2))),
        ("two-scale-z2", CoverInstance.create(
            Z2.box(12, 12), [Z2.box(2, 2), Z2.box(4, 4)],
            [subset_from_coords(Z2, grid2(range(0, 12, 2), range(0, 12, 2))),
             subset_from_coords(Z2, grid2((0, 4, 8), (0, 4, 8)))],
            Fraction(1, 10), Fraction(3, 5))),
        ("threshold", CoverInstance.create(
            Z1.box(3), [Z1.box(2)],
            [subset_from_coords(Z1, [(0,), (1,)])],
            Fraction(1, 2), Fraction(1, 2))),
        ("heisenberg", CoverInstance.create(
            H.box(4, 4, 16), [H.box(2, 2, 4)],
            [subset_from_coords(H, [(a, b, c) for a in (0, 2) for b in (0, 2)
                                    for c in (0, 4, 8)])],
            Fraction(1, 10), Fraction(1, 2))),
    ]


def random_suite():
    return [
        ("two-row-degenerate", RandomCoverInstance.create(
            Z1.box(60), [[Z1.box(2)], [Z1.box(4)]],
            [[subset_from_coords(Z1, [(2 * k,) for k in range(28)])],
             [subset_from_coords(Z1, [(4 * k,) for k in range(14)])]],
            K=Z1.box(4), C=Fraction(6),
            alpha=Fraction(1, 2), delta=Fraction(1, 4), epsilon=Fraction(1, 2))),
        ("chain-q30", RandomCoverInstance.create(
            Z1.box(60), [[Z1.box(4)]],
            [[subset_from_coords(Z1, [(3 * k,) for k in range(18)])]],
            K=Z1.box(2), C=Fraction(6),
            alpha=Fraction(2, 25), delta=Fraction(1, 4), epsilon=Fraction(1, 2))),
        ("chain-q36", RandomCoverInstance.create(
            Z1.box(60), [[Z1.box(5)]],
            [[subset_from_coords(Z1, [(4 * k,) for k in range(12)])]],
            K=Z1.box(2), C=Fraction(6),
            alpha=Fraction(1, 10), delta=Fraction(3, 10), epsilon=Fraction(1, 2))),
        ("two-row-coverage", RandomCoverInstance.create(
            Z1.box(90), [[Z1.box(3)], [Z1.box(6)]],
            [[subset_from_coords(Z1, [(57 + 3 * k,) for k in range(11)])],
             [subset_from_coords(Z1, [(12 * k,) for k in range(5)])]],
            K=Z1.box(12), C=Fraction(6),
            alpha=Fraction(9, 20), delta=Fraction(1, 5), epsilon=Fraction(1, 2))),
        ("z2-tiling", RandomCoverInstance.create(
            Z2.box(12, 12), [[Z2.box(3, 3)]],
            [[subset_from_coords(Z2, grid2((0, 3, 6, 9), (0, 3, 6, 9)))]],
            K=Z2.box(3, 3), C=Fraction(6),
            alpha=Fraction(1, 2), delta=Fraction(3, 25), epsilon=Fraction(1, 2))),
        ("heisenberg", RandomCoverInstance.create(
            H.box(4, 4, 16), [[H.box(2, 2, 4)]],
            [[subset_from_coords(H, [(a, b, c) for a in (0, 2) for b in (0, 2)
                                     for c in (0, 4, 8)])]],
            K=H.box(2, 2, 2), C=Fraction(4),
            alpha=Fraction(3, 10), delta=Fraction(3, 20), epsilon=Fraction(1, 2))),
    ]


def test_criterion_7_covering_lemmas(capsys):
    greedy_ok = []
    for name, inst in greedy_suite():
        assert check_hypotheses(inst).ok, name
        result = verify_greedy_cover(inst, greedy_cover(inst))
        greedy_ok.append((name, result.ok))

    random_ok = []
    for name, inst in random_suite():
        assert check_hypotheses(inst).ok, name
        result = verify_random_cover(inst, sample_many(inst, 10_000, 101))
        random_ok.append((name, result.ok))

    # negative controls must be reported as failing, not masked
    chain_fail = CoverInstance.create(
        Z1.box(110), [Z1.box(10)],
        [subset_from_coords(Z1, [(9 * k,) for k in range(12)])],
        Fraction(1, 10), Fraction(1, 2))
    chain_report = verify_greedy_cover(chain_fail, greedy_cover(chain_fail))
    escape = CoverInstance.create(
        Z1.box(10), [Z1.box(3)], [subset_from_coords(Z1, [(8,)])],
        Fraction(1, 10), Fraction(1, 2))
    try:
        greedy_cover(escape)
        escape_raised = False
    except HypothesisError:
        escape_raised = True
    forced_q1 = RandomCoverInstance.create(
        Z1.box(60), [[Z1.box(4)]],
        [[subset_from_coords(Z1, [(3 * k,) for k in range(18)])]],
        K=Z1.box(9), C=Fraction(6),
        alpha=Fraction(4, 5), delta=Fraction(1, 4), epsilon=Fraction(1, 2))
    q1_report = verify_random_cover(forced_q1, sample_many(forced_q1, 200, 23))
    negatives_ok = (
        not chain_report.disjointness_ok
        and escape_raised
        and not q1_report.multiplicity_ok
    )

    ok = (
        all(flag for _, flag in greedy_ok)
        and all(flag for _, flag in random_ok)
        and negatives_ok
    )
    report(
        capsys, 7, ok,
        f"{len(greedy_ok)} greedy instances exact, {len(random_ok)} randomized "
        f"instances within 3 sigma over 10^4 samples each, "
        f"3 negative controls correctly reported failing",
    )


def test_criterion_8_reproducibility(capsys, tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "seed = 77\n"
        "model = markov\n"
        "transition_0 = 0.9, 0.1\n"
        "transition_1 = 0.2, 0.8\n"
        "n_max = 8\n"
        "trajectories = 16\n"
    )
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        rc = main([
            "smb-run", "--config", str(cfg), "--out", str(out),
            "--workers", str(workers),
        ])
        assert rc == EXIT_OK
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        capsys, 8, ok,
        f"byte-identical CSV ({len(outputs[0])} bytes) under 1, 4, and 8 workers",
    )
